import math
import re
from pathlib import Path

import nvqaoa
from oracles import k2_cost
from test_cli import run_python

README = Path(__file__).resolve().parents[1] / "README.md"

# the public API; a name added or removed shows here
EXPORTS = [
    "CalibrationTable", "Circuit", "ConfigError", "ConvergenceProfile", "CutReport", "DegenerateCalibrationError",
    "Gate", "Graph", "LandscapeGrid", "NoiseConfig", "OptimizeResult", "PointRecord", "PopulationEstimate",
    "QaoaParams", "ScanConfig", "StateVector", "append_flips", "apply_gate", "brute_force", "build_ansatz",
    "build_ansatz_native", "check_rows", "convergence_profile", "cost", "cut_value",
    "default_calibration", "density_populations", "diagonal_costs", "expectation_diagonal", "fidelity",
    "forward_means", "fwht", "ideal_cost", "init_zero", "landscape_error", "load_graph", "measure_point", "optimize",
    "perturb_calibration", "populations", "qaoa_amplitudes", "read_records", "reconstruct", "run_scan", "simulate",
    "simulate_qaoa", "walsh_coefficients",
]


def test_public_names_are_pinned_and_exclude_submodules():
    assert nvqaoa.__all__ == EXPORTS
    # the imports bind every submodule in the package namespace, yet none is exported
    assert hasattr(nvqaoa, "circuits") and hasattr(nvqaoa, "noise")


def test_readme_quick_tour_runs_as_its_comments_say():
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = run_python("-c", block)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6, done.stdout
    pops = [float(v) for v in lines[0].strip("[]").split()]
    assert [round(v, 4) for v in pops] == [0.0122, 0.4878, 0.4878, 0.0122]
    assert abs(float(lines[1]) - 1.0) <= 1e-12
    F_measured, F_ideal, norm = map(float, lines[2].split())
    assert math.isfinite(F_measured) and math.isfinite(norm)
    assert abs(F_ideal - k2_cost(0.15 * math.pi, 1.5 * math.pi)) <= 1e-12
    assert float(lines[3]) == 0.0
    best_F = float(lines[5].split()[-1])
    assert abs(best_F + 1.0) <= 1e-9
