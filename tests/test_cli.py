"""End-to-end tests of the command-line interface.

Everything goes through ``main(argv)`` so exit codes and printed output are
exercised exactly as a shell user would see them.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvqaoa
from nvqaoa.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    format_angle,
    main,
    parse_angle,
    parse_range,
)
from nvqaoa.experiment import closed_form_cost_k2


def write_k2(tmp_path, name="k2.txt"):
    path = tmp_path / name
    path.write_text("n 2\n0 1\n")
    return str(path)


def write_k3(tmp_path, name="k3.txt"):
    path = tmp_path / name
    path.write_text("n 3\n0 1\n0 2\n1 2\n")
    return str(path)


def write_cal(tmp_path, intensities=(5.0, 3.0, 2.0, 1.0), name="cal.txt"):
    width = (len(intensities) - 1).bit_length()
    lines = [f"{k:0{width}b} {value}" for k, value in enumerate(intensities)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# --- angle and range token parsing ---


def test_parse_angle_plain_radians():
    assert parse_angle("1.5") == 1.5
    assert parse_angle("2e-3") == 2e-3
    assert parse_angle("-0.25") == -0.25


def test_parse_angle_pi_multiples():
    assert parse_angle("0.5pi") == pytest.approx(0.5 * math.pi, abs=0)
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("+pi") == math.pi
    assert parse_angle("2PI") == 2 * math.pi
    assert parse_angle(" 1.5 pi ") == 1.5 * math.pi


@pytest.mark.parametrize("bad", ["", "abc", "pipi", "1.2.3pi", "0x2"])
def test_parse_angle_rejects_garbage(bad):
    with pytest.raises(UsageError):
        parse_angle(bad)


def test_format_angle_round_trips():
    for value in (0.0, 0.1 * math.pi, 2.1 * math.pi, 1e-3, -2.75):
        assert parse_angle(format_angle(value)) == value


def test_parse_range():
    assert parse_range("0:1:0.5") == (0.0, 1.0, 0.5)
    start, stop, step = parse_range("0.1pi:0.6pi:0.025pi")
    assert start == pytest.approx(0.1 * math.pi)
    assert stop == pytest.approx(0.6 * math.pi)
    assert step == pytest.approx(0.025 * math.pi)


@pytest.mark.parametrize("bad", ["1:2", "1:2:3:4", "0:1:0", "0:1:-0.1", "2:1:0.5", "a:b:c"])
def test_parse_range_rejects(bad):
    with pytest.raises(UsageError):
        parse_range(bad)


# --- argument handling ---


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "nvqaoa" in capsys.readouterr().out


def test_sampled_mode_without_cal_is_usage_error(tmp_path, capsys):
    graph = write_k2(tmp_path)
    out = tmp_path / "out"
    code = main(["landscape", "--graph", graph, "--mode", "sampled", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "requires --cal" in capsys.readouterr().err
    assert not out.exists()  # rejected before any output was created


def test_missing_graph_file_is_io_error(tmp_path, capsys):
    code = main(["landscape", "--graph", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_is_usage_error(tmp_path, capsys):
    graph = tmp_path / "bad.txt"
    graph.write_text("n 2\n0 5\n")
    code = main(["landscape", "--graph", str(graph), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_bad_env_seed_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NVQAOA_SEED", "not-a-seed")
    graph = write_k2(tmp_path)
    code = main(["landscape", "--graph", graph, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "NVQAOA_SEED" in capsys.readouterr().err


# --- landscape command ---


def test_landscape_ideal_full_grid(tmp_path, capsys):
    graph = write_k2(tmp_path)
    out = tmp_path / "scan"
    assert main(["landscape", "--graph", graph, "--out", str(out)]) == EXIT_OK
    assert "861 rows" in capsys.readouterr().out

    lines = (out / "landscape.csv").read_text().splitlines()
    assert lines[0] == "beta,gamma,realization,F_measured,F_ideal,abs_diff,norm,pops"
    assert len(lines) == 1 + 861
    for line in lines[1:]:
        beta, gamma, realization, f_meas, f_ideal = line.split(",")[:5]
        assert realization == "0"
        expected = closed_form_cost_k2(float(beta), float(gamma))
        assert float(f_meas) == pytest.approx(expected, abs=1e-9)
        assert float(f_meas) == float(f_ideal)

    summary = json.loads((out / "summary.txt").read_text())
    assert summary["points_invalid"] == 0
    assert summary["landscape_error"] == 0.0
    manifest = json.loads((out / "manifest.txt").read_text())
    assert manifest["command"] == "landscape"
    assert manifest["config"]["master_seed"] == 1  # default seed
    assert manifest["config"]["graph"]["edges"] == [[0, 1, 1.0]]


SMALL_SCAN = ["--beta-range", "0.1pi:0.3pi:0.1pi", "--gamma-range", "0.5pi:1.5pi:0.5pi"]


def run_small_sampled(tmp_path, out_name, extra=()):
    graph = write_k2(tmp_path)
    cal = write_cal(tmp_path)
    out = tmp_path / out_name
    argv = [
        "landscape", "--graph", graph, "--mode", "sampled", "--cal", cal,
        "--shots", "2000", "--realizations", "2", "--out", str(out),
        *SMALL_SCAN, *extra,
    ]
    assert main(argv) == EXIT_OK
    return out


def test_landscape_sampled_reproducible(tmp_path, capsys):
    first = run_small_sampled(tmp_path, "a")
    second = run_small_sampled(tmp_path, "b")
    capsys.readouterr()
    assert (first / "landscape.csv").read_bytes() == (second / "landscape.csv").read_bytes()
    rows = (first / "landscape.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 3 * 2  # 3 betas x 3 gammas x 2 realizations


def test_landscape_thread_count_does_not_change_output(tmp_path, capsys):
    serial = run_small_sampled(tmp_path, "serial")
    threaded = run_small_sampled(tmp_path, "threaded", extra=["--threads", "4"])
    capsys.readouterr()
    assert (serial / "landscape.csv").read_bytes() == (threaded / "landscape.csv").read_bytes()


def test_landscape_refuses_to_overwrite_without_force(tmp_path, capsys):
    graph = write_k2(tmp_path)
    out = tmp_path / "scan"
    argv = ["landscape", "--graph", graph, "--out", str(out), *SMALL_SCAN]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_USAGE
    assert "--force" in capsys.readouterr().err
    assert main(argv + ["--force"]) == EXIT_OK
    capsys.readouterr()


def test_landscape_env_seed_matches_explicit_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NVQAOA_SEED", "7")
    via_env = run_small_sampled(tmp_path, "env")
    monkeypatch.delenv("NVQAOA_SEED")
    via_flag = run_small_sampled(tmp_path, "flag", extra=["--seed", "7"])
    capsys.readouterr()
    assert (via_env / "landscape.csv").read_bytes() == (via_flag / "landscape.csv").read_bytes()
    manifest = json.loads((via_env / "manifest.txt").read_text())
    assert manifest["config"]["master_seed"] == 7


def test_landscape_svg(tmp_path, capsys):
    out = run_small_sampled(tmp_path, "pic", extra=["--svg"])
    capsys.readouterr()
    svg = (out / "landscape.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    manifest = json.loads((out / "manifest.txt").read_text())
    assert "landscape.svg" in manifest["artifacts"]


def test_landscape_fully_degenerate_calibration(tmp_path, capsys):
    # With --exact-calibration every point reconstructs against the true
    # intensities, so a table with c_11 = 0 invalidates the whole scan. (The
    # default empirical table dodges exact degeneracy through shot noise.)
    graph = write_k2(tmp_path)
    cal = write_cal(tmp_path, intensities=(4.0, 3.0, 2.0, 1.0))  # c_11 = 0
    out = tmp_path / "scan"
    code = main([
        "landscape", "--graph", graph, "--mode", "sampled", "--cal", cal,
        "--shots", "500", "--realizations", "1", "--exact-calibration",
        "--out", str(out), "--svg", *SMALL_SCAN,
    ])
    captured = capsys.readouterr()
    assert code == EXIT_DEGENERATE
    assert "9/9 points invalid" in captured.err
    # a cell with no valid realization is drawn red
    fills = re.findall(r'<rect x="\d+" y="\d+" width="12" height="12" fill="([^"]+)"/>', (out / "landscape.svg").read_text())
    assert fills == ["rgb(255,0,0)"] * 9
    # the CSV is still written, with NaN measurements flagged per row
    lines = (out / "landscape.csv").read_text().splitlines()
    assert len(lines) == 1 + 9
    assert all("nan" in line for line in lines[1:])
    summary = json.loads((out / "summary.txt").read_text())
    assert summary["points_invalid"] == 9
    assert summary["landscape_error"] is None


# --- optimize command ---


def test_optimize_ideal_k2(tmp_path, capsys):
    graph = write_k2(tmp_path)
    assert main(["optimize", "--graph", graph]) == EXIT_OK
    out = capsys.readouterr().out
    assert "best F: -1\n" in out
    assert "best cut strings: 01 10" in out
    assert "best cut cost: -1\n" in out
    assert "approximation ratio: 1\n" in out


def test_optimize_writes_trace(tmp_path, capsys):
    graph = write_k3(tmp_path)
    out = tmp_path / "opt"
    assert main(["optimize", "--graph", graph, "--out", str(out), *SMALL_SCAN]) == EXIT_OK
    capsys.readouterr()
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "index,beta0,gamma0,F"
    summary = json.loads((out / "summary.txt").read_text())
    assert summary["evaluations"] == len(lines) - 1
    assert summary["best_cut_cost"] == -2.0
    assert set(summary["best_cut_strings"]) == {"001", "010", "100", "011", "101", "110"}


def test_optimize_refuses_occupied_out_before_computing(tmp_path, capsys):
    graph = write_k2(tmp_path)
    out = tmp_path / "opt"
    out.mkdir()
    (out / "trace.csv").write_text("keep me\n")
    assert main(["optimize", "--graph", graph, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--force" in captured.err
    assert (out / "trace.csv").read_text() == "keep me\n"


def test_optimize_manifest_records_duration(tmp_path, capsys):
    graph = write_k2(tmp_path)
    out = tmp_path / "opt"
    assert main(["optimize", "--graph", graph, "--out", str(out), *SMALL_SCAN]) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((out / "manifest.txt").read_text())
    assert manifest["duration_seconds"] > 0


def test_optimize_edgeless_graph_has_no_ratio(tmp_path, capsys):
    graph = tmp_path / "lonely.txt"
    graph.write_text("n 2\n")
    assert main(["optimize", "--graph", str(graph), *SMALL_SCAN]) == EXIT_OK
    out = capsys.readouterr().out
    assert "approximation ratio: undefined (graph has no cut to make)" in out
    assert "best F: 0\n" in out


# --- reconstruct command ---


def test_reconstruct_known_means(tmp_path, capsys):
    # A register stuck in |00> produces mean count I_x under flip pattern x,
    # so feeding the intensities back as means must return the |00> point mass.
    cal = write_cal(tmp_path)
    means = tmp_path / "means.txt"
    means.write_text("00 5\n01 3\n10 2\n11 1\n")
    assert main(["reconstruct", "--cal", cal, "--means", str(means)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["population 00 1", "population 01 0", "population 10 0", "population 11 0"]
    assert out[4:8] == ["correlator 00 1", "correlator 01 1", "correlator 10 1", "correlator 11 1"]
    assert out[8] == "norm 1"


def test_reconstruct_mixed_state(tmp_path, capsys):
    cal = write_cal(tmp_path)
    # uniform populations: every flip-pattern mean is the average intensity
    means = tmp_path / "means.txt"
    means.write_text("00 2.75\n01 2.75\n10 2.75\n11 2.75\n")
    assert main(["reconstruct", "--cal", cal, "--means", str(means)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "population 00 0.25"
    assert out[3] == "population 11 0.25"
    assert out[8] == "norm 1"


def test_reconstruct_degenerate_calibration(tmp_path, capsys):
    cal = write_cal(tmp_path, intensities=(4.0, 3.0, 2.0, 1.0))
    means = tmp_path / "means.txt"
    means.write_text("00 4\n01 3\n10 2\n11 1\n")
    assert main(["reconstruct", "--cal", cal, "--means", str(means)]) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert "t=11" in err


def test_reconstruct_missing_means_file(tmp_path, capsys):
    cal = write_cal(tmp_path)
    code = main(["reconstruct", "--cal", cal, "--means", str(tmp_path / "absent.txt")])
    assert code == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [
        "00 5\n01 3\n10 2\n",  # missing a pattern
        "00 5\n01 3\n10 2\n11 1\n00 5\n",  # duplicate
        "00 5\n01 3\n10 2\n11 one\n",  # bad value
        "0 5\n1 3\n",  # width mismatch with a two-qubit calibration
        "00 5 9\n01 3\n10 2\n11 1\n",  # too many fields
    ],
)
def test_reconstruct_malformed_means(tmp_path, capsys, content):
    cal = write_cal(tmp_path)
    means = tmp_path / "means.txt"
    means.write_text(content)
    assert main(["reconstruct", "--cal", cal, "--means", str(means)]) == EXIT_USAGE
    capsys.readouterr()


# --- convergence command ---


def test_convergence_checkpoint_rows(tmp_path, capsys):
    graph = write_k2(tmp_path)
    cal = write_cal(tmp_path)
    out = tmp_path / "conv"
    code = main([
        "convergence", "--graph", graph, "--cal", cal,
        "--beta", "0.15pi", "--gamma", "1.5pi",
        "--shots", "2500", "--checkpoint-every", "1000",
        "--realizations", "3", "--out", str(out),
    ])
    assert code == EXIT_OK
    # checkpoint count is floor(shots / checkpoint_every); the 500-shot tail
    # still feeds the running mean but earns no checkpoint of its own
    assert "2 checkpoints" in capsys.readouterr().out
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "shots,p00,p01,p10,p11,norm,std_p00,std_p01,std_p10,std_p11,std_norm"
    assert [row.split(",")[0] for row in lines[1:]] == ["1000", "2000"]
    summary = json.loads((out / "summary.txt").read_text())
    assert summary["final_shots"] == 2000
    assert summary["point"]["gamma"] == pytest.approx(1.5 * math.pi)
    assert 0.9 < summary["final_norm_mean"] < 1.1


def test_convergence_rejects_ideal_mode(tmp_path, capsys):
    graph = write_k2(tmp_path)
    code = main([
        "convergence", "--graph", graph, "--mode", "ideal",
        "--beta", "0.1pi", "--gamma", "pi", "--out", str(tmp_path / "conv"),
    ])
    assert code == EXIT_USAGE
    assert "sampled" in capsys.readouterr().err


# --- rerun command ---


def test_rerun_reproduces_landscape_csv(tmp_path, capsys):
    original = run_small_sampled(tmp_path, "orig")
    replay = tmp_path / "replay"
    code = main([
        "rerun", "--manifest", str(original / "manifest.txt"),
        "--out", str(replay), "--threads", "3",
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    assert (original / "landscape.csv").read_bytes() == (replay / "landscape.csv").read_bytes()
    # reran manifests carry the same fully inlined config
    first = json.loads((original / "manifest.txt").read_text())
    second = json.loads((replay / "manifest.txt").read_text())
    assert first["config"] == second["config"]
    assert first["options"] == second["options"]


def test_rerun_defaults_to_manifest_directory(tmp_path, capsys):
    out = run_small_sampled(tmp_path, "orig2")
    before = (out / "landscape.csv").read_bytes()
    code = main(["rerun", "--manifest", str(out / "manifest.txt"), "--force"])
    capsys.readouterr()
    assert code == EXIT_OK
    assert (out / "landscape.csv").read_bytes() == before


def test_rerun_without_force_refuses_existing_outputs(tmp_path, capsys):
    out = run_small_sampled(tmp_path, "orig3")
    assert main(["rerun", "--manifest", str(out / "manifest.txt")]) == EXIT_USAGE
    capsys.readouterr()


def test_rerun_convergence(tmp_path, capsys):
    graph = write_k2(tmp_path)
    cal = write_cal(tmp_path)
    first = tmp_path / "conv1"
    argv = [
        "convergence", "--graph", graph, "--cal", cal,
        "--beta", "0.15pi", "--gamma", "1.5pi",
        "--shots", "3000", "--realizations", "2", "--out", str(first),
    ]
    assert main(argv) == EXIT_OK
    second = tmp_path / "conv2"
    assert main(["rerun", "--manifest", str(first / "manifest.txt"), "--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert (first / "convergence.csv").read_bytes() == (second / "convergence.csv").read_bytes()


def test_rerun_rejects_malformed_manifest(tmp_path, capsys):
    bad = tmp_path / "manifest.txt"
    bad.write_text("{not json")
    assert main(["rerun", "--manifest", str(bad)]) == EXIT_USAGE
    bad.write_text(json.dumps({"command": "landscape"}))
    assert main(["rerun", "--manifest", str(bad)]) == EXIT_USAGE
    bad.write_text(json.dumps({"command": "teleport", "config": {}, "options": {}}))
    assert main(["rerun", "--manifest", str(bad)]) == EXIT_USAGE
    capsys.readouterr()
    # a missing or mistyped field is a usage error that names the manifest and
    # the field, raised before the output directory exists
    out = tmp_path / "replay"
    for command, edit, field in INCOMPLETE_MANIFESTS:
        manifest = {
            "command": command,
            "config": {
                "graph": {"num_vertices": 2, "edges": [[0, 1, 1.0]]}, "p": 1,
                "beta_range": [0.1, 0.2, 0.1], "gamma_range": [0.5, 0.6, 0.1], "shots": 1000,
                "realizations": 1, "mode": "sampled", "noise": None, "calibration": [5.0, 3.0, 2.0, 1.0],
                "master_seed": 1, "checkpoint_every": 500,
            },
            "options": {"landscape": {"svg": False}, "optimize": {"strategy": "simplex"},
                        "convergence": {"beta": 0.3, "gamma": 1.0}}[command],
        }
        edit(manifest)
        bad.write_text(json.dumps(manifest))
        assert main(["rerun", "--manifest", str(bad), "--out", str(out)]) == EXIT_USAGE, field
        err = capsys.readouterr().err
        assert str(bad) in err and repr(field) in err, err
        assert not out.exists()


INCOMPLETE_MANIFESTS = [
    ("landscape", lambda m: m.update(config={}), "config.graph"),
    ("landscape", lambda m: m["config"].pop("shots"), "config.shots"),
    ("landscape", lambda m: m["config"].update(p="2"), "config.p"),
    ("landscape", lambda m: m["config"].update(realizations=True), "config.realizations"),
    ("landscape", lambda m: m["config"]["graph"].pop("edges"), "config.graph.edges"),
    ("landscape", lambda m: m.update(config=[]), "config"),
    ("landscape", lambda m: m.update(options={}), "options.svg"),
    ("optimize", lambda m: m.update(options={}), "options.strategy"),
    ("optimize", lambda m: m["options"].update(strategy="anneal"), "options.strategy"),
    ("convergence", lambda m: m.update(options={"gamma": 1.0}), "options.beta"),
    ("convergence", lambda m: m["options"].update(gamma="0.5pi"), "options.gamma"),
]


def test_module_form_runs_the_cli():
    src = str(Path(nvqaoa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "nvqaoa.cli", "--version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.strip() == f"nvqaoa {nvqaoa.__version__}"


def test_rerun_missing_manifest_is_io_error(tmp_path, capsys):
    assert main(["rerun", "--manifest", str(tmp_path / "gone.txt")]) == EXIT_IO
    capsys.readouterr()


# --- noise flags ---


def test_noise_flags_recorded_in_manifest(tmp_path, capsys):
    graph = write_k2(tmp_path)
    cal = write_cal(tmp_path)
    out = tmp_path / "noisy"
    code = main([
        "landscape", "--graph", graph, "--mode", "sampled", "--cal", cal,
        "--shots", "1000", "--realizations", "1", "--out", str(out),
        "--overrotation", "0.05", "--phase-offset", "0.01pi", *SMALL_SCAN,
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.txt").read_text())
    noise = manifest["config"]["noise"]
    assert noise["overrotation_frac"] == 0.05
    assert noise["phase_offset"] == pytest.approx(0.01 * math.pi)
    assert noise["depolarizing_prob"] == 0.0


def test_noiseless_manifest_has_null_noise(tmp_path, capsys):
    out = run_small_sampled(tmp_path, "clean")
    capsys.readouterr()
    manifest = json.loads((out / "manifest.txt").read_text())
    assert manifest["config"]["noise"] is None


def test_invalid_noise_flag_rejected_before_output(tmp_path, capsys):
    graph = write_k2(tmp_path)
    cal = write_cal(tmp_path)
    out = tmp_path / "out"
    code = main([
        "landscape", "--graph", graph, "--mode", "sampled", "--cal", cal,
        "--depolarizing", "1.5", "--out", str(out), *SMALL_SCAN,
    ])
    assert code == EXIT_USAGE
    assert not out.exists()
    capsys.readouterr()
