"""Tests of the benchmark's own machinery: input generation and the layer tracer.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import nvqaoa  # noqa: E402
from nvqaoa import cli, circuits, experiment  # noqa: E402

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

COUNTERS = (
    "readout.records",
    "readout.shots",
    "readout.blocks",
    "circuits.simulations",
    "statevector.gate_applications",
    "statevector.bytes_moved",
    "noise.trajectories",
    "reconstruction.inversions",
    "reconstruction.degenerate",
    "experiment.evaluations",
    "trace.spans",
)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_depend_only_on_the_seed(name):
    assert workloads.make(name, 3) == workloads.make(name, 3)
    assert workloads.make(name, 3) != workloads.make(name, 4)


def _traced(argv, out):
    tracer = Tracer(nvqaoa)
    with tracer:
        assert cli.main(argv + ["--out", str(out)]) == 0
    return tracer.summary()


@pytest.mark.parametrize(
    "extra",
    [
        ["--mode", "sampled", "--shots", "3000"],
        ["--mode", "sampled", "--shots", "2000", "--depolarizing", "0.05"],
        ["--mode", "ideal"],
    ],
)
def test_traced_counts_repeat_exactly(tmp_path, extra):
    graph = tmp_path / "k2.txt"
    graph.write_text(workloads.K2_GRAPH)
    cal = tmp_path / "cal.txt"
    cal.write_text(workloads.K2_CALIBRATION)
    argv = ["landscape", "--graph", str(graph), "--cal", str(cal), "--beta-range", "0.1:0.3:0.1",
            "--gamma-range", "0.2:0.3:0.1", "--realizations", "2", "--seed", "5", *extra]
    first = _traced(argv, tmp_path / "first")
    second = _traced(argv, tmp_path / "second")
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
    points = 3 * 2 * (1 if "ideal" in extra else 2)
    assert first["experiment.evaluations"] == points
    # self times partition the root span exactly
    assert first["trace.attributed_s"] == pytest.approx(first["trace.root_s"], rel=1e-9)


def test_convergence_evaluations_are_checkpoint_reconstructions(tmp_path):
    graph = tmp_path / "k2.txt"
    graph.write_text(workloads.K2_GRAPH)
    cal = tmp_path / "cal.txt"
    cal.write_text(workloads.K2_CALIBRATION)
    argv = ["convergence", "--graph", str(graph), "--cal", str(cal), "--beta", "0.3", "--gamma", "0.7",
            "--shots", "1000", "--checkpoint-every", "100", "--realizations", "3"]
    layers = _traced(argv, tmp_path / "out")
    assert layers["experiment.evaluations"] == layers["reconstruction.inversions"] == 10 * 3


def test_tracer_wraps_every_binding_and_restores_them():
    original = circuits.simulate
    with Tracer(nvqaoa):
        assert experiment.simulate is circuits.simulate is nvqaoa.simulate
        assert experiment.simulate is not original
    assert experiment.simulate is circuits.simulate is nvqaoa.simulate is original


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampled-k2", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
