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
from nvqaoa import cli, experiment
from nvqaoa.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_angle,
    parse_range,
)
from nvqaoa.noise import MAX_CALIBRATION_SIGMA
from oracles import k2_cost


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
        assert parse_angle(format(value, ".17g")) == value


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


def test_oversized_grid_is_usage_error(tmp_path, capsys):
    # 10^12 beta points: rejected from the ranges, before any array is made
    graph = write_k2(tmp_path)
    out = tmp_path / "out"
    code = main(["landscape", "--graph", graph, "--beta-range", "0:1:1e-12", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "more than 1000000 points" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_scan_is_usage_error(tmp_path, capsys):
    # an ideal K14 scan of 1000 x 1000 points would hold 122 GiB of populations
    graph = tmp_path / "k14.txt"
    graph.write_text("n 14\n" + "".join(f"{i} {j}\n" for i in range(14) for j in range(i + 1, 14)))
    out = tmp_path / "out"
    code = main(["landscape", "--graph", str(graph), "--beta-range", "0:999:1", "--gamma-range", "0:999:1",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "1000000 x 1 x 2^14 = 16384000000 populations" in capsys.readouterr().err
    assert not out.exists()


def test_scan_bound_is_checked_only_for_the_landscape(tmp_path, capsys, monkeypatch):
    # optimize holds one state at a time, so the bound on the landscape's
    # populations does not refuse it; convergence is held to its own count
    monkeypatch.setattr(experiment, "MAX_SCAN_ENTRIES", 8)
    graph, cal = write_k2(tmp_path), write_cal(tmp_path)
    grid = ["--graph", graph, "--beta-range", "0.1:0.2:0.1", "--gamma-range", "0.5:0.5:1"]
    sampled = ["--mode", "sampled", "--cal", cal, "--shots", "2000", "--realizations", "2"]
    # 2 points x 2 realizations x 2^2 = 16 populations
    assert main(["landscape", *grid, *sampled, "--out", str(tmp_path / "scan")]) == EXIT_USAGE
    assert "capped at 8" in capsys.readouterr().err
    assert not (tmp_path / "scan").exists()
    assert main(["optimize", *grid]) == EXIT_OK
    assert main(["optimize", *grid, *sampled]) == EXIT_OK
    # one checkpoint x 2 realizations x 2^2 = 8 entries runs; two checkpoints are 16
    point = ["--beta", "0.1", "--gamma", "0.5"]
    conv = ["convergence", *grid, *sampled, *point, "--checkpoint-every", "2000", "--out", str(tmp_path / "conv")]
    assert main(conv) == EXIT_OK
    capsys.readouterr()
    assert main([*conv, "--checkpoint-every", "1000", "--out", str(tmp_path / "conv2")]) == EXIT_USAGE
    assert "2 x 2 x 2^2 = 16 entries; capped at 8" in capsys.readouterr().err
    assert not (tmp_path / "conv2").exists()


def test_shot_bound_admits_its_limit(tmp_path, capsys):
    # 10^9 - 1 shots split into nine full blocks and a tail; 10^9 is refused before output
    argv = ["convergence", "--graph", write_k2(tmp_path), "--cal", write_cal(tmp_path), "--beta", "0.3",
            "--gamma", "1.1", "--checkpoint-every", "100000000", "--realizations", "1"]
    assert main([*argv, "--shots", str(experiment.MAX_SHOTS), "--out", str(tmp_path / "limit")]) == EXIT_OK
    rows = (tmp_path / "limit" / "convergence.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [str(k * 10**8) for k in range(1, 10)]
    capsys.readouterr()
    assert main([*argv, "--shots", str(experiment.MAX_SHOTS + 1), "--out", str(tmp_path / "above")]) == EXIT_USAGE
    assert "1000000000 shots; records are capped at 999999999" in capsys.readouterr().err
    assert not (tmp_path / "above").exists()


def test_cal_sigma_bound_admits_its_limit(tmp_path, capsys):
    # 10^5 shots of a 10^10 state are MAX_RECORD_PHOTONS; at sigma = 100 the
    # jitter overflows numpy's Poisson limit only at a draw of 90 standard deviations.
    # It floors a whole table at zero with probability about 1/16 a cell (exit 3);
    # seed 2 floors none of the 18 cells
    bright = tmp_path / "bright.txt"
    bright.write_text("00 1e10\n01 3\n10 2\n11 1\n")
    argv = ["landscape", "--graph", write_k2(tmp_path), "--mode", "sampled", "--cal", str(bright), "--seed", "2",
            "--shots", "100000", "--realizations", "2", "--cal-sigma", str(MAX_CALIBRATION_SIGMA), *SMALL_SCAN]
    assert main([*argv, "--out", str(tmp_path / "limit")]) == EXIT_OK
    capsys.readouterr()
    above = str(np.nextafter(MAX_CALIBRATION_SIGMA, math.inf))
    assert main([*argv, "--cal-sigma", above, "--out", str(tmp_path / "above")]) == EXIT_USAGE
    assert "calibration_sigma is capped at 100" in capsys.readouterr().err
    assert not (tmp_path / "above").exists()


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
        expected = k2_cost(float(beta), float(gamma))
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


def test_optimize_simplex_writes_trace(tmp_path, capsys):
    # the simplex branch imports scipy.optimize itself; every other command runs without it
    graph = write_k2(tmp_path)
    out = tmp_path / "simplex"
    assert main(["optimize", "--graph", graph, "--strategy", "simplex", "--out", str(out), *SMALL_SCAN]) == EXIT_OK
    capsys.readouterr()
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "index,beta0,gamma0,F"
    assert json.loads((out / "summary.txt").read_text())["evaluations"] == len(lines) - 1


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


@pytest.mark.parametrize("text", ["n 1\n", "n 2\n"])
def test_optimize_uncut_partition_costs_positive_zero(tmp_path, capsys, text):
    graph = tmp_path / "lonely.txt"
    graph.write_text(text)
    out = tmp_path / "opt"
    assert main(["optimize", "--graph", str(graph), "--out", str(out), *SMALL_SCAN]) == EXIT_OK
    assert "best cut cost: 0\n" in capsys.readouterr().out
    best = json.loads((out / "summary.txt").read_text())["best_cut_cost"]
    assert best == 0.0 and math.copysign(1.0, best) == 1.0


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
        "00 nan\n01 3\n10 2\n11 1\n",  # not a number
        "00 inf\n01 3\n10 2\n11 1\n",  # not finite
    ],
)
def test_reconstruct_malformed_means(tmp_path, capsys, content):
    cal = write_cal(tmp_path)
    means = tmp_path / "means.txt"
    means.write_text(content)
    assert main(["reconstruct", "--cal", cal, "--means", str(means)]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


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
    assert summary["checkpoints_invalid"] == 0
    assert summary["point"]["gamma"] == pytest.approx(1.5 * math.pi)
    assert 0.9 < summary["final_norm_mean"] < 1.1


def test_convergence_summary_counts_invalid_checkpoints(tmp_path, capsys):
    # a table this dim records no photon, so every empirical table is all zero
    graph = write_k2(tmp_path)
    cal = write_cal(tmp_path, intensities=(0.0, 0.0, 0.0, 1e-12))
    out = tmp_path / "conv"
    code = main([
        "convergence", "--graph", graph, "--cal", cal,
        "--beta", "0.15pi", "--gamma", "1.5pi",
        "--shots", "2000", "--checkpoint-every", "1000",
        "--realizations", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    summary = json.loads((out / "summary.txt").read_text())
    assert summary["checkpoints_invalid"] == 2 * 2
    assert summary["final_norm_mean"] is None


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
            "version": nvqaoa.__version__,
            "config": {
                "graph": {"num_vertices": 2, "edges": [[0, 1, 1.0]]}, "p": 1,
                "beta_range": [0.1, 0.2, 0.1], "gamma_range": [0.5, 0.6, 0.1], "shots": 1000,
                "realizations": 1, "mode": "sampled", "noise": None, "calibration": [5.0, 3.0, 2.0, 1.0],
                "master_seed": 1, "checkpoint_every": 500, "exact_calibration": False,
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


NOISE = {"depolarizing_prob": 0.0, "overrotation_frac": 0.0, "phase_offset": 0.0, "calibration_sigma": 0.0}
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
    ("landscape", lambda m: m["config"].pop("exact_calibration"), "config.exact_calibration"),
    ("landscape", lambda m: m["config"].update(exact_calibration="no"), "config.exact_calibration"),
    ("landscape", lambda m: m["config"].update(exact_calibration=1), "config.exact_calibration"),
    ("landscape", lambda m: m["config"].update(noise=dict(NOISE, depolarizing_prob=True)),
     "config.noise.depolarizing_prob"),
    ("landscape", lambda m: m["config"].update(noise=dict(NOISE, overrotation_frac="0.05")),
     "config.noise.overrotation_frac"),
    ("landscape", lambda m: m["config"].update(noise={k: v for k, v in NOISE.items() if k != "phase_offset"}),
     "config.noise.phase_offset"),
    ("landscape", lambda m: m["config"].update(beta_range=["0.1", 0.2, 0.1]), "config.beta_range"),
    ("landscape", lambda m: m["config"].update(gamma_range=[0.5, "0.5", 0.1]), "config.gamma_range"),
    ("landscape", lambda m: m["config"].update(gamma_range=[0.5, 0.6, 0.1, 0.1]), "config.gamma_range"),
    ("landscape", lambda m: m["config"].update(beta_range=[0.1, 0.2, True]), "config.beta_range"),
    ("landscape", lambda m: m["config"].update(calibration=["5", 3, 2, 1]), "config.calibration"),
    ("landscape", lambda m: m["config"].update(calibration=[5.0, 3.0, False, 1.0]), "config.calibration"),
    ("landscape", lambda m: m["config"]["graph"].update(edges=[[0.5, 1, 1.0]]), "config.graph.edges"),
    ("landscape", lambda m: m["config"]["graph"].update(edges=[[True, 0, 1.0]]), "config.graph.edges"),
    ("landscape", lambda m: m["config"]["graph"].update(edges=[[0, 1, True]]), "config.graph.edges"),
    ("landscape", lambda m: m.pop("version"), "version"),
    ("landscape", lambda m: m.update(version="0.1.0"), "version"),
]


def test_rerun_ignores_the_timings_block(tmp_path, capsys):
    first = run_small_sampled(tmp_path, "timed")
    manifest = json.loads((first / "manifest.txt").read_text())
    timings = manifest["timings"]
    assert set(timings) == {"evaluate_s", "write_s"}
    assert timings["evaluate_s"] == manifest["duration_seconds"] > 0 and timings["write_s"] > 0
    assert "timings" not in (first / "summary.txt").read_text()
    for edited in ({"evaluate_s": "slow", "extra": [1]}, None):
        manifest["timings"] = edited
        if edited is None:
            del manifest["timings"]
        path = tmp_path / "edited_manifest.txt"
        path.write_text(json.dumps(manifest))
        replay = tmp_path / f"replay-{edited is None}"
        assert main(["rerun", "--manifest", str(path), "--out", str(replay)]) == EXIT_OK
        assert (first / "landscape.csv").read_bytes() == (replay / "landscape.csv").read_bytes()
        assert (first / "summary.txt").read_bytes() == (replay / "summary.txt").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, extra, writer",
    [
        ("landscape", ["--svg"], "_landscape_svg"),
        ("landscape", [], "_json_text"),
        ("convergence", ["--beta", "0.15pi", "--gamma", "1.5pi"], "write_convergence_csv"),
        ("optimize", [], "_json_text"),
    ],
)
def test_failed_write_leaves_no_artifact(tmp_path, capsys, monkeypatch, command, extra, writer):
    graph = write_k2(tmp_path)
    cal = write_cal(tmp_path)
    out = tmp_path / "out"
    argv = [command, "--graph", graph, "--mode", "sampled", "--cal", cal, "--shots", "2000",
            "--realizations", "1", "--out", str(out), *SMALL_SCAN, *extra]
    original = getattr(cli, writer)
    calls = []

    def failing(*args, **kwargs):
        # fails after writing, with the artifacts so far in their temp files
        original(*args, **kwargs)
        calls.append(sorted(path.name for path in out.iterdir()))
        raise RuntimeError("disk went away")

    monkeypatch.setattr(cli, writer, failing)
    with pytest.raises(RuntimeError, match="disk went away"):
        main(argv)
    assert calls[0] and all(name.startswith(".") and name.endswith(".tmp") for name in calls[0]), calls
    assert list(out.iterdir()) == []
    monkeypatch.setattr(cli, writer, original)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    written = sorted(path.name for path in out.iterdir())
    manifest = json.loads((out / "manifest.txt").read_text())
    assert written == sorted(manifest["artifacts"] + ["manifest.txt"])


@pytest.mark.parametrize(
    "command, extra",
    [
        ("landscape", ["--mode", "sampled", "--svg"]),
        ("optimize", []),
        ("convergence", ["--beta", "0.15pi", "--gamma", "1.5pi"]),
    ],
)
def test_every_artifact_is_ascii_with_newline_line_ends(tmp_path, capsys, monkeypatch, command, extra):
    # opened in binary, an artifact's bytes depend on neither the platform's line end nor the locale
    out = tmp_path / "out"
    modes = {}
    path_open = Path.open

    def recording(path, mode="r", *args, **kwargs):
        if path.parent == out and path.suffix == ".tmp":
            modes[path.name] = mode
        return path_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording)
    argv = [command, "--graph", write_k2(tmp_path), "--cal", write_cal(tmp_path), "--shots", "2000",
            "--realizations", "2", "--out", str(out), *SMALL_SCAN, *extra]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    names = json.loads((out / "manifest.txt").read_text())["artifacts"] + ["manifest.txt"]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    assert modes == {f".{name}.tmp": "wb" for name in names}
    for name in names:
        data = (out / name).read_bytes()
        data.decode("ascii")
        assert b"\r" not in data and data.endswith(b"\n"), name


def test_rerun_refuses_a_manifest_of_another_version(tmp_path, capsys):
    first = run_small_sampled(tmp_path, "first")
    manifest = json.loads((first / "manifest.txt").read_text())
    assert manifest["version"] == nvqaoa.__version__
    manifest["version"] = "0.1.0"
    old = tmp_path / "old_manifest.txt"
    old.write_text(json.dumps(manifest))
    replay = tmp_path / "replay"
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(old), "--out", str(replay)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'0.1.0'" in err and f"nvqaoa {nvqaoa.__version__}" in err, err
    assert not replay.exists()


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args`` that imports nvqaoa from this checkout."""
    src = str(Path(nvqaoa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_module_form_runs_the_cli():
    done = run_python("-m", "nvqaoa.cli", "--version")
    assert done.returncode == 0
    assert done.stdout.strip() == f"nvqaoa {nvqaoa.__version__}"


def test_rerun_missing_manifest_is_io_error(tmp_path, capsys):
    assert main(["rerun", "--manifest", str(tmp_path / "gone.txt")]) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag", [("reconstruct", "--means"), ("rerun", "--manifest"), ("landscape", "--graph")]
)
def test_undecodable_input_file_is_usage_error(tmp_path, capsys, command, flag):
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"00 5\n01 3\n10 2\n11 \xff\n")
    extra = {"reconstruct": ["--cal", write_cal(tmp_path)], "landscape": ["--out", str(tmp_path / "out")]}
    assert main([command, flag, str(undecodable), *extra.get(command, [])]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {undecodable}: ")


# A fresh process, since this one has imported scipy.stats for the readout tests.
# Its convergence splits its two realizations, 2000 one-shot blocks each, on
# two threads whatever the host.
COLD_COMMANDS = """
import sys
from pathlib import Path
from nvqaoa import cli, experiment

experiment._available_cpus = lambda: 2
tmp = Path(sys.argv[1])
(tmp / "k2.txt").write_text("n 2\\n0 1\\n")
(tmp / "cal.txt").write_text("00 5\\n01 3\\n10 2\\n11 1\\n")
scan = ["--graph", str(tmp / "k2.txt"), "--cal", str(tmp / "cal.txt"), "--shots", "2000", "--realizations", "2"]
grid = ["--beta-range", "0.1:0.2:0.1", "--gamma-range", "0.5:0.7:0.2"]
assert cli.main(["landscape", "--mode", "sampled", *scan, *grid, "--out", str(tmp / "scan")]) == 0
conv = ["--beta", "0.3", "--gamma", "0.7", "--checkpoint-every", "1"]
assert cli.main(["convergence", *scan, *conv, "--out", str(tmp / "conv")]) == 0
assert cli.main(["rerun", "--manifest", str(tmp / "scan" / "manifest.txt"), "--out", str(tmp / "again")]) == 0
for package in ("scipy", "concurrent.futures"):
    print(sorted(name for name in sys.modules if name == package or name.startswith(package + ".")))
"""


@pytest.fixture(scope="module")
def cold_imports(tmp_path_factory):
    """The scipy and concurrent.futures modules a fresh process imports to run landscape, convergence and rerun."""
    done = run_python("-c", COLD_COMMANDS, str(tmp_path_factory.mktemp("cold")))
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-2:]


def test_scan_convergence_and_rerun_never_import_scipy(cold_imports):
    assert cold_imports[0] == "[]"


def test_scan_convergence_and_rerun_never_import_concurrent_futures(cold_imports):
    # threads come from threading, which numpy imports anyway
    assert cold_imports[1] == "[]"


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


def test_noise_seed_is_accepted_and_ignored(tmp_path, capsys):
    # a depolarizing point draws only from the master seed's point substreams
    extra = ["--depolarizing", "0.05", "--realizations", "1"]
    first = run_small_sampled(tmp_path, "first", extra=extra)
    second = run_small_sampled(tmp_path, "second", extra=[*extra, "--noise-seed", "7"])
    capsys.readouterr()
    for name in ("landscape.csv", "summary.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    noise = json.loads((second / "manifest.txt").read_text())["config"]["noise"]
    assert sorted(noise) == ["calibration_sigma", "depolarizing_prob", "overrotation_frac", "phase_offset"]


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


# --- usage errors come from the inputs, not from every ValueError ---


def test_programming_error_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise ValueError("an internal bug")

    monkeypatch.setattr(cli, "run_scan", broken)
    graph = write_k2(tmp_path)
    argv = ["landscape", "--graph", graph, "--out", str(tmp_path / "out"), *SMALL_SCAN]
    # the error propagates with its traceback instead of exiting 2
    with pytest.raises(ValueError, match="an internal bug"):
        main(argv)
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("landscape", ["--cal", "@bad-cal"], "bad intensity"),
        ("landscape", ["--cal", "@flat-cal"], "degenerate"),
        ("landscape", ["--graph", "@big-graph"], "capped at 24"),
        ("landscape", ["--realizations", "0"], "must be positive"),
        ("landscape", ["--seed", "-1"], "nonnegative"),
        ("landscape", ["--cal-sigma", "-0.1"], "nonnegative"),
        ("landscape", ["--p", "0"], "at least 1"),
        ("reconstruct", ["--cal", "@bad-cal"], "bad intensity"),
        ("convergence", ["--shots", "900", "--checkpoint-every", "1000"], "full checkpoint block"),
        ("convergence", ["--beta", "inf"], "finite"),
        ("landscape", ["--graph", "@ring-11", "--cal", "@cal-11", "--depolarizing", "0.01"], "capped at 10"),
        ("landscape", ["--graph", "@ring-13", "--cal", "@cal-13"], "sampled scans are capped at 12"),
        ("convergence", ["--shots", "1000000000", "--checkpoint-every", "100000000", "--realizations", "1"],
         "records are capped at 999999999"),
        ("landscape", ["--shots", "100000000000000000000"], "records are capped at 999999999"),
        ("landscape", ["--cal", "@bright-cal", "--shots", "300000"], "photons a record; records are capped at 1e+15"),
        ("convergence", ["--shots", "100000000", "--checkpoint-every", "1"], "100000000 x 4 x 2^2 = 1600000000 entries"),
        ("landscape", ["--cal-sigma", "100.00000000000001"], "calibration_sigma is capped at 100"),
        ("landscape", ["--cal", "@bright-10", "--shots", "100000", "--cal-sigma", "100000"], "capped at 100"),
        # refused at the header or label, before any n^2 or 2^width array
        ("landscape", ["--graph", "@huge-graph"], "graphs are capped at 24"),
        ("landscape", ["--cal", "@wide-cal"], "line 1: basis label has 64 bits; labels are capped at 24"),
        ("landscape", ["--p", "1001"], "capped at 1000"),
    ],
)
def test_bad_input_is_usage_error_before_output(tmp_path, capsys, command, extra, message):
    files = {
        "@bad-cal": ("bad-cal.txt", "00 5\n01 3\n10 2\n11 one\n"),
        "@flat-cal": ("flat.txt", "00 2\n01 2\n10 2\n11 2\n"),
        "@big-graph": ("big.txt", "n 25\n0 1\n"),
        "@ring-11": ("ring-11.txt", "n 11\n" + "".join(f"{i} {(i + 1) % 11}\n" for i in range(11))),
        "@cal-11": ("cal-11.txt", "".join(f"{s:011b} {1 + s}\n" for s in range(2048))),
        "@ring-13": ("ring-13.txt", "n 13\n" + "".join(f"{i} {(i + 1) % 13}\n" for i in range(13))),
        "@cal-13": ("cal-13.txt", "".join(f"{s:013b} {1 + s}\n" for s in range(8192))),
        "@bright-cal": ("bright.txt", "00 1e15\n01 3\n10 2\n11 1\n"),
        "@bright-10": ("bright-10.txt", "00 1e10\n01 3\n10 2\n11 1\n"),
        "@huge-graph": ("huge.txt", "n 100000\n0 1\n"),
        "@wide-cal": ("wide-cal.txt", "0" * 64 + " 5\n"),
    }
    for key, (name, text) in files.items():
        (tmp_path / name).write_text(text)
    extra = [str(tmp_path / files[token][0]) if token in files else token for token in extra]
    out = tmp_path / "out"
    if command == "reconstruct":
        means = tmp_path / "means.txt"
        means.write_text("00 3\n01 3\n10 2\n11 1\n")
        argv = ["reconstruct", "--means", str(means), "--cal", write_cal(tmp_path)]
    else:
        argv = [command, "--graph", write_k2(tmp_path), "--mode", "sampled", "--cal", write_cal(tmp_path),
                "--shots", "1000", "--out", str(out)]
        if command == "convergence":
            argv += ["--beta", "0.15pi", "--gamma", "1.5pi"]
        else:
            argv += SMALL_SCAN
    # later flags override earlier ones
    assert main(argv + extra) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


HEAVY_GRAPHS = {
    # every weight is finite, their total is not
    "triangle": ("n 3\n0 1 1e308\n1 2 1e308\n0 2 1e308\n", "total edge weight must be finite"),
    # the total is finite, gamma x C is not at |gamma| = 6
    "k2": ("n 2\n0 1 1e308\n", "cost phase overflows"),
}


@pytest.mark.parametrize("graph", list(HEAVY_GRAPHS))
@pytest.mark.parametrize("command", ["landscape", "landscape-sampled", "optimize", "optimize-sampled", "convergence"])
def test_overflowing_cost_phase_is_usage_error_before_output(tmp_path, capsys, command, graph):
    text, message = HEAVY_GRAPHS[graph]
    (tmp_path / "heavy.txt").write_text(text)
    num_vertices = int(text.split()[1])
    cal = write_cal(tmp_path, intensities=tuple(range(1 << num_vertices, 0, -1)))
    out = tmp_path / "out"
    name, _, mode = command.partition("-")
    argv = [name, "--graph", str(tmp_path / "heavy.txt"), "--cal", cal, "--shots", "1000", "--out", str(out)]
    if name == "convergence":
        argv += ["--beta", "0.3", "--gamma", "-6"]
    else:
        argv += ["--mode", mode or "ideal", "--beta-range", "0.1:0.2:0.1", "--gamma-range", "2:6:4"]
    assert main(argv) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cost_phase_bound_admits_a_finite_phase(tmp_path, capsys):
    # |gamma| x the weight is 1.5e308, finite, so the scan runs; its rerun at |gamma| = 6 exits 2
    (tmp_path / "heavy.txt").write_text(HEAVY_GRAPHS["k2"][0])
    first = tmp_path / "first"
    argv = ["landscape", "--graph", str(tmp_path / "heavy.txt"), "--beta-range", "0.1:0.2:0.1",
            "--gamma-range", "1:1.5:0.5", "--out", str(first)]
    assert main(argv) == EXIT_OK
    F = [float(line.split(",")[3]) for line in (first / "landscape.csv").read_text().splitlines()[1:]]
    assert len(F) == 4 and all(math.isfinite(value) for value in F)
    manifest = json.loads((first / "manifest.txt").read_text())
    manifest["config"]["gamma_range"] = [2.0, 6.0, 4.0]
    (first / "manifest.txt").write_text(json.dumps(manifest))
    out = tmp_path / "replay"
    assert main(["rerun", "--manifest", str(first / "manifest.txt"), "--out", str(out)]) == EXIT_USAGE
    assert "cost phase overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, output", [("landscape", "landscape.csv"), ("optimize", "trace.csv")])
def test_ideal_run_ignores_an_overrotation_it_never_applies(tmp_path, capsys, command, output):
    # |gamma| 2 x (1 + 1e308) overflows, but only a sampled run scales its rotations
    argv = [command, "--graph", write_k2(tmp_path), "--beta-range", "0.1:0.2:0.1", "--gamma-range", "1:2:1"]
    plain, rotated = tmp_path / "plain", tmp_path / "rotated"
    assert main([*argv, "--out", str(plain)]) == EXIT_OK
    assert main([*argv, "--overrotation", "1e308", "--out", str(rotated)]) == EXIT_OK
    assert (rotated / output).read_bytes() == (plain / output).read_bytes()
    capsys.readouterr()
    out = tmp_path / "sampled"
    sampled = ["--mode", "sampled", "--cal", write_cal(tmp_path), "--shots", "1000", "--overrotation", "1e308"]
    assert main([*argv, *sampled, "--out", str(out)]) == EXIT_USAGE
    assert "cost phase overflows" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_convergence_without_a_full_block_is_usage_error(tmp_path, capsys):
    graph = write_k2(tmp_path)
    first = tmp_path / "conv"
    argv = ["convergence", "--graph", graph, "--cal", write_cal(tmp_path), "--beta", "0.15pi", "--gamma", "1.5pi",
            "--shots", "1000", "--realizations", "1", "--out", str(first)]
    assert main(argv) == EXIT_OK
    manifest = json.loads((first / "manifest.txt").read_text())
    manifest["config"]["shots"] = 400
    (first / "manifest.txt").write_text(json.dumps(manifest))
    out = tmp_path / "replay"
    assert main(["rerun", "--manifest", str(first / "manifest.txt"), "--out", str(out)]) == EXIT_USAGE
    assert "full checkpoint block" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_degenerate_measurement_exits_degenerate(tmp_path, capsys):
    # intensities this dim record no photon, so the empirical calibration is all zero
    cal = write_cal(tmp_path, intensities=(0.0, 0.0, 0.0, 1e-12))
    code = main(["optimize", "--graph", write_k2(tmp_path), "--mode", "sampled", "--cal", cal,
                 "--shots", "1000", *SMALL_SCAN])
    assert code == EXIT_DEGENERATE
    assert "degenerate" in capsys.readouterr().err


def test_degenerate_optimize_leaves_no_output_directory(tmp_path, capsys):
    cal = write_cal(tmp_path, intensities=(0.0, 0.0, 0.0, 1e-12))
    out = tmp_path / "out"
    code = main(["optimize", "--graph", write_k2(tmp_path), "--mode", "sampled", "--cal", cal,
                 "--shots", "1000", "--out", str(out), *SMALL_SCAN])
    assert code == EXIT_DEGENERATE
    capsys.readouterr()
    assert not out.exists()


def test_optimize_records_degenerate_evaluations_as_nan_and_finishes(tmp_path, capsys):
    # a unit ring of 4 with a product table, 3e4 shots: an empirical c_t is exactly 0 about once in 1000
    # reads. At seed 10 two evaluations are; version 0.6.0 aborted with exit 3 on its first one
    (tmp_path / "ring4.txt").write_text("n 4\n0 1\n1 2\n2 3\n3 0\n")
    cal = write_cal(tmp_path, intensities=tuple(1.2 * 0.75 ** bin(k).count("1") for k in range(16)))
    argv = ["optimize", "--graph", str(tmp_path / "ring4.txt"), "--mode", "sampled", "--cal", cal, "--shots", "30000"]
    for seed, invalid in (("10", 2), ("2", 0)):
        out = tmp_path / f"out{seed}"
        assert main([*argv, "--seed", seed, "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        summary = json.loads((out / "summary.txt").read_text())
        assert sum(row.endswith(",nan") for row in rows) == summary.get("evaluations_invalid", 0) == invalid
        warning = f"warning: {invalid}/{len(rows)} evaluations invalid (degenerate calibration)\n"
        assert err == (warning if invalid else "")
        assert math.isfinite(summary["best_F"])


def test_optimize_above_one_percent_invalid_exits_degenerate_with_outputs(tmp_path, capsys):
    # 10 shots of a nearly flat table: an empirical c_t is exactly 0 at about one evaluation in six
    cal = write_cal(tmp_path, intensities=(1.2, 1.0, 1.0, 0.9))
    out = tmp_path / "out"
    code = main(["optimize", "--graph", write_k2(tmp_path), "--mode", "sampled", "--cal", cal, "--shots", "10",
                 "--out", str(out), *SMALL_SCAN])
    assert code == EXIT_DEGENERATE
    summary = json.loads((out / "summary.txt").read_text())
    invalid, total = summary["evaluations_invalid"], summary["evaluations"]
    assert invalid / total > 0.01
    assert f"warning: {invalid}/{total} evaluations invalid (degenerate calibration)" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["grid_then_refine", "simplex"])
def test_optimize_skips_trials_whose_cost_phase_overflows(tmp_path, capsys, strategy):
    # the grid's largest phase, 1.79 x 1e308, is finite; refinement trials
    # past gamma = 1.797 would overflow, so they are skipped, not recorded
    (tmp_path / "heavy.txt").write_text(HEAVY_GRAPHS["k2"][0])
    out = tmp_path / "out"
    argv = ["optimize", "--graph", str(tmp_path / "heavy.txt"), "--beta-range", "0.1pi:0.3pi:0.1pi",
            "--gamma-range", "1.5:1.79:0.29", "--strategy", strategy, "--out", str(out)]
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert all(math.isfinite(float(row.split(",")[-1])) for row in rows)
    assert f"evaluations: {len(rows)}\n" in stdout
    if strategy == "grid_then_refine":
        # evaluated, the 8 overflowing trials were NaN, which never wins: the best point is the same
        assert "(0.125 pi)\ngamma[0]: 1.783203125 rad" in stdout and "best F: -9.922366818e+307\n" in stdout
        assert len(rows) == 62 - 8
