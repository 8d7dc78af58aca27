"""Frozen-output gate: fixed-seed CLI runs must reproduce their outputs byte for byte.

Each case runs ``cli.main`` at a fixed seed and pins the sha256 of every CSV,
SVG and ``summary.txt`` it writes (manifests carry timings and are left out).
A change that keeps the RNG streams must keep these digests. A change that
alters a stream on purpose is a named RNG re-baseline: it bumps the version,
says so in CHANGES.md, and re-records the digests here.
"""

import hashlib

import pytest

from nvqaoa.cli import EXIT_OK, main

GRAPHS = {
    "k2.txt": "n 2\n0 1\n",
    "ring4.txt": "n 4\n0 1 0.7\n1 2 1.2\n2 3 0.9\n3 0 1.1\n",
    "ring6.txt": "n 6\n0 1 0.8\n1 2 1.3\n2 3 0.6\n3 4 1.1\n4 5 0.9\n5 0 1.4\n",
    "k10.txt": "n 10\n" + "".join(f"{i} {j} {0.5 + (7 * i + 3 * j) % 11 / 10}\n" for i in range(10) for j in range(i + 1, 10)),
    "ring12.txt": "n 12\n" + "".join(f"{i} {(i + 1) % 12} {0.5 + (7 * i) % 11 / 10}\n" for i in range(12)),
}
CALIBRATIONS = {
    "cal.txt": (5, 3, 2, 1),
    "cal4.txt": (2.1, 1.9, 1.7, 1.5, 1.3, 1.2, 1.1, 1.0, 0.9, 0.8, 0.75, 0.7, 0.6, 0.5, 0.45, 0.4),
    # product form, 1.2 x 0.75 per bright qubit: every Walsh coefficient is nonzero
    "cal6.txt": tuple(1.2 * 0.75 ** bin(k).count("1") for k in range(64)),
}
COARSE = ["--beta-range", "0.1pi:0.6pi:0.25pi", "--gamma-range", "0.1pi:2.1pi:0.8pi"]
K2_COARSE = ["--graph", "k2.txt", "--cal", "cal.txt", *COARSE]

CASES = {
    "sampled-svg": (
        ["landscape", "--mode", "sampled", "--svg", "--graph", "k2.txt", "--cal", "cal.txt",
         "--beta-range", "0.1pi:0.6pi:0.1pi", "--gamma-range", "0.1pi:2.1pi:0.2pi",
         "--shots", "30000", "--realizations", "2", "--seed", "5"],
        {
            "landscape.csv": "67cb4a86d8ab5144c858c2bfa54fe8298861819da3d2b38a640a896fcca6fbb7",
            "landscape.svg": "49e2bb654e6f726731541b7d4b4760008839f7f7cc191ab76f3b65709a7a2518",
            "summary.txt": "38cb8e4327d36d87a094c685c78167cff8d97f8dc85a54eb0076b588eb434e33",
        },
    ),
    "depolarizing": (
        ["landscape", "--mode", "sampled", "--depolarizing", "0.02", "--overrotation", "0.05", "--cal-sigma", "0.03",
         *K2_COARSE, "--shots", "30000", "--realizations", "2", "--seed", "6"],
        {
            "landscape.csv": "d8e9aba3369438112851baf544bee1d9a58badd3d406d67477da96bcf9b41f5d",
            "summary.txt": "61fd6e90c567b37ff862a74d590e8431fcc74c22ac4cccbb68e5cecd69f4532b",
        },
    ),
    "convergence-ring4": (
        ["convergence", "--graph", "ring4.txt", "--cal", "cal4.txt", "--beta", "0.3", "--gamma", "0.8",
         "--shots", "20000", "--checkpoint-every", "100", "--realizations", "3", "--seed", "7"],
        {
            "convergence.csv": "0e9e7990a1b6411bf3f3ca3c1047ccb894aca5236f459810e3eac7fc6e690d4d",
            "summary.txt": "480f80aa3ca793ba2fa28a4d0653e23f95f909ce903e3764fab46f1c72d212ee",
        },
    ),
    "convergence-ring4-depolarizing": (
        ["convergence", "--graph", "ring4.txt", "--cal", "cal4.txt", "--beta", "0.3", "--gamma", "0.8",
         "--depolarizing", "0.01", "--phase-offset", "0.1",
         "--shots", "20000", "--checkpoint-every", "100", "--realizations", "3", "--seed", "9"],
        {
            "convergence.csv": "a85b9edb78669559b216556507743a871eaade6d3ca249c56b1d507ca68d27f8",
            "summary.txt": "d0b102a4059e36d92bf79d62f468cce1ad842327c21837bbe789a7de2a31e537",
        },
    ),
    "ideal-svg": (
        ["landscape", "--mode", "ideal", "--svg", "--graph", "k2.txt",
         "--beta-range", "0.1pi:0.6pi:0.1pi", "--gamma-range", "0.1pi:2.1pi:0.2pi"],
        {
            "landscape.csv": "c66faba1f2ebf54982b7743ccf08ffe364869668cf14dcaa9a96bb6bb02dbf57",
            "landscape.svg": "f2d2088e99d95382cc95609f305dc7dd995ff4e3b4ca9738ab21becf7828ac46",
            "summary.txt": "d3b211dfa22bdc556d0a820c13a809a97d71090e62fb030ae2002403619dd3e8",
        },
    ),
    "ideal-ring4-p2": (
        ["landscape", "--mode", "ideal", "--p", "2", "--graph", "ring4.txt",
         "--beta-range", "0.1pi:0.6pi:0.1pi", "--gamma-range", "0.1pi:2.1pi:0.4pi"],
        {
            "landscape.csv": "6a8e6cdf08b4359d19e0021f4321eadb49859411cf7bd81a15b4d32c191dcec3",
            "summary.txt": "e852be21de831bb8c800aa12c1601cfae183bb4d8731e0b02ed34a1c253a86c8",
        },
    ),
    # the read state has both deterministic channels folded in, with no depolarizing
    "sampled-ring4-overrotation-phase": (
        ["landscape", "--mode", "sampled", "--overrotation", "0.05", "--phase-offset", "0.1",
         "--graph", "ring4.txt", "--cal", "cal4.txt",
         "--beta-range", "0.1pi:0.6pi:0.25pi", "--gamma-range", "0.1pi:2.1pi:0.8pi",
         "--shots", "20000", "--realizations", "2", "--seed", "10"],
        {
            "landscape.csv": "b8bcf0e12c530c0a2a9fb1a9b29bf184d1a9d94dd7fd6438c7144e3f4a1ed503",
            "summary.txt": "200df5c0e8cb0b47dc14db5da8ef9d0859cb7c758609e5cb98f4b3ab63da73b4",
        },
    ),
    # the ideal states of a weighted ten-qubit register, two layers each
    "ideal-k10-p2": (
        ["landscape", "--mode", "ideal", "--p", "2", "--graph", "k10.txt", *COARSE],
        {
            "landscape.csv": "6afd549fb557bfa5b1004d82d4f1573010dc47eb1f6516dd3fb6d5eb104e6e5f",
            "summary.txt": "f4f5737661cf2232f66fbd5754d04cd4c8c33c06fa960f671feb63df8cc9b798",
        },
    ),
    # overrotation alone: the read state differs from the F_ideal state
    "sampled-ring6-overrotation": (
        ["landscape", "--mode", "sampled", "--overrotation", "0.05", "--graph", "ring6.txt", "--cal", "cal6.txt",
         *COARSE, "--shots", "20000", "--realizations", "2", "--seed", "11"],
        {
            "landscape.csv": "8c61909b03073c15bde2d6146b7cfedc4be96fa1c259d9728369baf78dfafbc6",
            "summary.txt": "913653700c3ac70355fbcb151be361baadbf19fdb6d9a855a1ebd6840140eb43",
        },
    ),
    # the README's default grid: 861 short rows, written in blocks of rows
    "ideal-k2-default-grid": (
        ["landscape", "--graph", "k2.txt"],
        {
            "landscape.csv": "b9fb537b06a9a3817bc002b6c99760632fe95ed0ed66203578551a15b2af19dc",
            "summary.txt": "29a003c0028d590ed8082bb74bd4a9cebff76b598de36108c0602bb16216f258",
        },
    ),
    # 7 + 2048 source fields a row: one row a block, its 7-value remainder formatted in the row's one kernel call
    "ideal-ring12": (
        ["landscape", "--mode", "ideal", "--graph", "ring12.txt", *COARSE],
        {
            "landscape.csv": "c9403f09d3f778b6b40bacb222238f8e948bdf70a5949a3b3d1ced3e86bcc01c",
            "summary.txt": "2d65cbb9b77e71f7ec7099097233effc840b9308be080f3575f132ba04aa64fc",
        },
    ),
    # one-point blocks: the grid reads point k on the seeds of (k, 0), as a refinement trial reads its own
    "optimize-sampled-ring6-overrotation": (
        ["optimize", "--mode", "sampled", "--overrotation", "0.05", "--graph", "ring6.txt", "--cal", "cal6.txt",
         *COARSE, "--shots", "20000", "--seed", "13"],
        {
            "trace.csv": "ad9bd55bc3b3dc0ad7152829deddf5ba94bc79243e0399965ae673d84535c88d",
            "summary.txt": "67ab5825b55a62f15ffb6af030eecc3f4a96fc19efeb3d174f6ac72ee3430cac",
        },
    ),
    "optimize-sampled": (
        ["optimize", "--mode", "sampled", *K2_COARSE, "--shots", "20000", "--seed", "8"],
        {
            "trace.csv": "bfcbd236ff7158930efe0bedc32fb97a14700bf55b7f2d801fd3469a3fb4b395",
            "summary.txt": "aaac0b7e377bc4c752b3d7288cb85633fdb5bc35c29be4b19709d588dfc34e4e",
        },
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_fixed_seed_outputs_are_frozen(tmp_path, monkeypatch, capsys, case):
    for name, text in GRAPHS.items():
        (tmp_path / name).write_text(text)
    for name, levels in CALIBRATIONS.items():
        width = (len(levels) - 1).bit_length()
        (tmp_path / name).write_text("".join(f"{k:0{width}b} {v}\n" for k, v in enumerate(levels)))
    monkeypatch.chdir(tmp_path)
    argv, digests = CASES[case]
    assert main([*argv, "--out", "out"]) == EXIT_OK
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests
