"""The benchmark's workloads: seeded inputs, CLI flags and output checks.

Each workload is one closed-loop client in one process, driving
``nvqaoa.cli.main`` with ``--threads 1``. The benchmark seed decides every
input (graph weights, calibration levels, master seed, parameter point); the
program receives only the files and flags written here.

Why these four (each later optimisation has a workload that exercises it and
one that bypasses it):

* ``sampled-k2`` -- readout (shot sampling, checkpoint assembly) and the nine
  circuit simulations per point dominate: the layers that "one state per
  point" and columnar records rewrite.
* ``ideal-k14`` -- 119 gates on 16,384 amplitudes per point and no readout,
  noise or reconstruction: a diagonal-layer simulator shows here, a readout
  change must not.
* ``depol-k2`` -- one noisy gate-by-gate trajectory per checkpoint block;
  ``noise`` and ``statevector`` dominate and the aggregated ``sample_shots``
  path is never taken.
* ``convergence-ring4`` -- one reconstruction per checkpoint and realization,
  reading every checkpoint rather than only the final mean; a
  columnar-checkpoint change must not slow it.

The grids, shot counts and realizations are trimmed from the CLI defaults so
that one scan takes a few tenths of a second: a run then times dozens of
scans, and their median holds steady on a shared, noisy host. Trimming keeps
each workload's per-point layer mix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WHY = {
    "sampled-k2": "landscape --mode sampled --svg, K2, cal (5,3,2,1), 6x11 grid, 3e5 shots, 1 realization: "
    "readout and 9 full simulations per point dominate",
    "ideal-k14": "landscape --mode ideal, K14 with seeded weights in [0.5,1.5], 3x3 grid: 119 gates on 16384 "
    "amplitudes per point; no readout, noise or reconstruction",
    "depol-k2": "landscape --mode sampled --depolarizing 0.01, K2, 3x3 grid, 3e4 shots in 1000-shot blocks: "
    "2160 gate-level noisy trajectories; noise and statevector dominate",
    "convergence-ring4": "convergence at a seeded point, seeded ring of 4, product-form cal, 5e4 shots, checkpoint "
    "every 100, 4 realizations: 2000 reconstructions read every checkpoint",
}
NAMES = tuple(WHY)

K2_GRAPH = "n 2\n0 1\n"
K2_CALIBRATION = "00 5\n01 3\n10 2\n11 1\n"

# Relative rounding of a value printed with 10 significant digits, plus an
# absolute floor for values that are zero up to float error.
CSV_RTOL = 5e-10
CSV_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload: files to write and the CLI flags naming them."""

    name: str
    seed: int
    command: str
    files: dict[str, str]
    flags: tuple[str, ...]
    num_qubits: int
    evaluations: int

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for filename, text in self.files.items():
            (directory / filename).write_text(text)

    def argv(self, input_dir: Path, out_dir: Path, threads: int = 1) -> list[str]:
        """Arguments for ``cli.main``; input file names become paths under ``input_dir``."""
        args = [self.command]
        args += [str(input_dir / flag) if flag in self.files else flag for flag in self.flags]
        if self.command == "landscape":
            args += ["--threads", str(threads)]
        return args + ["--out", str(out_dir)]


def make(name: str, seed: int) -> Workload:
    """Inputs of workload ``name`` for benchmark seed ``seed``; equal seeds give equal inputs."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    master = str(int(rng.integers(1, 2**31)))
    if name == "sampled-k2":
        flags = ("--mode", "sampled", "--svg", "--graph", "graph.txt", "--cal", "cal.txt",
                 "--beta-range", "0.1pi:0.6pi:0.1pi", "--gamma-range", "0.1pi:2.1pi:0.2pi",
                 "--shots", "300000", "--checkpoint-every", "1000", "--realizations", "1", "--seed", master)
        files = {"graph.txt": K2_GRAPH, "cal.txt": K2_CALIBRATION}
        return Workload(name, seed, "landscape", files, flags, 2, 6 * 11)
    if name == "ideal-k14":
        n = 14
        lines = [f"n {n}"]
        lines += [f"{i} {j} {float(rng.uniform(0.5, 1.5))!r}" for i in range(n) for j in range(i + 1, n)]
        flags = ("--mode", "ideal", "--graph", "graph.txt",
                 "--beta-range", "0.1pi:0.6pi:0.25pi", "--gamma-range", "0.1pi:2.1pi:0.8pi")
        return Workload(name, seed, "landscape", {"graph.txt": "\n".join(lines) + "\n"}, flags, n, 3 * 3)
    if name == "depol-k2":
        flags = ("--mode", "sampled", "--depolarizing", "0.01", "--noise-seed", str(int(rng.integers(2**31))),
                 "--graph", "graph.txt", "--cal", "cal.txt",
                 "--beta-range", "0.1pi:0.6pi:0.25pi", "--gamma-range", "0.1pi:2.1pi:0.8pi",
                 "--shots", "30000", "--checkpoint-every", "1000", "--realizations", "1", "--seed", master)
        files = {"graph.txt": K2_GRAPH, "cal.txt": K2_CALIBRATION}
        return Workload(name, seed, "landscape", files, flags, 2, 3 * 3)
    if name == "convergence-ring4":
        n = 4
        lines = [f"n {n}"] + [f"{q} {(q + 1) % n} {float(rng.uniform(0.5, 1.5))!r}" for q in range(n)]
        # Product form: I_s = prod_q (dark_q if bit q of s is set else bright_q), so
        # every Walsh coefficient is a product of nonzero factors (bright_q +- dark_q) / 2.
        bright = rng.uniform(1.3, 1.7, n)
        dark = rng.uniform(0.3, 0.7, n)
        cal = []
        for s in range(1 << n):
            bits = [(s >> (n - 1 - q)) & 1 for q in range(n)]
            level = math.prod(float(dark[q] if bit else bright[q]) for q, bit in enumerate(bits))
            cal.append(f"{s:0{n}b} {level!r}")
        beta = float(rng.uniform(0.1, 0.6)) * math.pi
        gamma = float(rng.uniform(0.1, 2.1)) * math.pi
        flags = ("--graph", "graph.txt", "--cal", "cal.txt", "--beta", repr(beta), "--gamma", repr(gamma),
                 "--shots", "50000", "--checkpoint-every", "100", "--realizations", "4", "--seed", master)
        files = {"graph.txt": "\n".join(lines) + "\n", "cal.txt": "\n".join(cal) + "\n"}
        return Workload(name, seed, "convergence", files, flags, n, 500 * 4)
    raise ValueError(f"unknown workload {name!r}")


# --- output checks -------------------------------------------------------------
#
# ``check`` returns (failures, quality). Failures are readable messages; an
# empty list means the outputs are correct. Quality holds the three accuracy
# figures every workload reports: landscape_error, invalid_frac, final_norm_err.


def check(workload: Workload, out_dir: Path) -> tuple[list[str], dict[str, float]]:
    if workload.command == "convergence":
        return _check_convergence(workload, out_dir)
    return _check_landscape(workload, out_dir)


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= CSV_RTOL * abs(reference) + CSV_ATOL


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_landscape(workload: Workload, out_dir: Path):
    from nvqaoa.experiment import config_from_dict

    failures: list[str] = []
    config = config_from_dict(json.loads((out_dir / "manifest.txt").read_text())["config"])
    summary = json.loads((out_dir / "summary.txt").read_text())
    header, rows = _read_csv(out_dir / "landscape.csv")
    col = {name: k for k, name in enumerate(header)}
    realizations = 1 if config.mode == "ideal" else config.realizations
    betas, gammas = config.betas(), config.gammas()
    if len(rows) != workload.evaluations or len(rows) != betas.size * gammas.size * realizations:
        failures.append(f"landscape.csv has {len(rows)} rows, expected {workload.evaluations}")
        return failures, {}
    measured = np.array([float(r[col["F_measured"]]) for r in rows])
    ideal = np.array([float(r[col["F_ideal"]]) for r in rows])
    norms = np.array([float(r[col["norm"]]) for r in rows])
    valid = np.isfinite(measured)

    # Independent landscape error: realization-mean F against F_ideal, over the cost range.
    per_point = measured.reshape(-1, realizations)
    ok = np.isfinite(per_point).any(axis=1)
    mean_f = np.nanmean(per_point[ok], axis=1)
    error = float(np.mean(np.abs(mean_f - ideal[::realizations][ok])) / summary["cost_range"])
    quality = {
        "landscape_error": error,
        "invalid_frac": float(np.count_nonzero(~valid)) / len(rows),
        "final_norm_err": abs(float(np.mean(norms[valid])) - 1.0),
    }
    if summary["landscape_error"] is None or abs(summary["landscape_error"] - error) > 1e-6:
        failures.append(f"summary landscape_error {summary['landscape_error']} != CSV-derived {error:.9g}")
    if summary["points_invalid"] != np.count_nonzero(~valid):
        failures.append("summary points_invalid disagrees with the CSV")

    if workload.name == "sampled-k2":
        k = 0
        for beta in betas:
            for gamma in gammas:
                reference = -0.5 + 0.5 * math.sin(4.0 * beta) * math.sin(gamma)  # exact K2, p = 1
                for _ in range(realizations):
                    if not _close(ideal[k], reference):
                        failures.append(f"row {k + 1}: F_ideal {float(ideal[k])!r} != closed form {reference!r}")
                    k += 1
        if error >= 0.01:
            failures.append(f"landscape_error {error:.4g} >= 0.01")
    elif workload.name == "depol-k2":
        if quality["invalid_frac"] != 0.0:
            failures.append(f"invalid_frac {quality['invalid_frac']} != 0")
        if not math.isfinite(error) or error >= 0.1:
            failures.append(f"landscape_error {error:.4g} not finite and below 0.1")
    elif workload.name == "ideal-k14":
        failures += _check_k14_points(workload, config, measured, betas, gammas)
    return failures, quality


def _check_k14_points(workload, config, measured, betas, gammas) -> list[str]:
    """Recompute a few points through the native-gate ansatz and brute-force costs."""
    from nvqaoa.circuits import QaoaParams, build_ansatz_native, simulate
    from nvqaoa.graph_problem import brute_force
    from nvqaoa.statevector import populations

    failures = []
    report = brute_force(config.graph)
    costs = np.array(list(report.cost_table.values()))  # basis-index order
    if np.any(measured < report.best_cost - 1e-9):
        failures.append(f"some F below the brute-force optimum {report.best_cost}")
    rng = np.random.default_rng([workload.seed, 99])
    for k in rng.choice(measured.size, size=3, replace=False):
        beta, gamma = float(betas[k // gammas.size]), float(gammas[k % gammas.size])
        params = QaoaParams((beta,) * config.p, (gamma,) * config.p)
        value = float(np.dot(populations(simulate(build_ansatz_native(config.graph, params))), costs))
        if not _close(measured[k], value):
            failures.append(f"row {k + 1}: F {float(measured[k])!r} != native-gate recomputation {value!r}")
    return failures


def _check_convergence(workload: Workload, out_dir: Path):
    """The final checkpoint equals the realization mean of measure_point at the same seed and point."""
    from nvqaoa.circuits import QaoaParams
    from nvqaoa.experiment import config_from_dict, ideal_cost, measure_point
    from nvqaoa.graph_problem import diagonal_costs

    failures: list[str] = []
    manifest = json.loads((out_dir / "manifest.txt").read_text())
    config = config_from_dict(manifest["config"])
    point = manifest["options"]
    header, rows = _read_csv(out_dir / "convergence.csv")
    expected_rows = config.shots // config.checkpoint_every
    if len(rows) != expected_rows:
        failures.append(f"convergence.csv has {len(rows)} rows, expected {expected_rows}")
        return failures, {}
    size = 1 << config.graph.num_vertices
    final = np.array([float(v) for v in rows[-1][1 : 2 + size]])
    final_pops, final_norm = final[:size], final[size]
    params = QaoaParams((point["beta"],) * config.p, (point["gamma"],) * config.p)
    records = [measure_point(config, params, r, 0) for r in range(config.realizations)]
    if not all(record.valid for record in records):
        failures.append("measure_point returned an invalid estimate")
        return failures, {}
    expected = np.mean([record.pops for record in records], axis=0)
    for label, got, want in zip(header[1:], final_pops, expected):
        if not _close(got, want):
            failures.append(f"final {label} {float(got)!r} != mean measure_point {float(want)!r}")
    diag = diagonal_costs(config.graph)
    cost_range = float(diag.max() - diag.min())
    quality = {
        "landscape_error": abs(float(np.dot(final_pops, diag)) - ideal_cost(config.graph, params)) / cost_range,
        "invalid_frac": float(np.count_nonzero(~np.isfinite([float(r[size + 1]) for r in rows]))) / len(rows),
        "final_norm_err": abs(final_norm - 1.0),
    }
    if not math.isfinite(quality["final_norm_err"]):
        failures.append("final mean norm is not finite")
    return failures, quality
