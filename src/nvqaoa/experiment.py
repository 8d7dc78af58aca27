"""Cost-landscape scans, the shot-based measurement protocol, and optimization.

A "point" is one (beta, gamma) grid cell evaluated either exactly (ideal mode)
or through the full measurement pipeline (sampled mode): prepare the ansatz
with each readout flip pattern, record mean photon counts, estimate the
calibration empirically from basis-state preparations taken with the same shot
budget, reconstruct populations, and score them against the diagonal cost.

Without a stochastic noise channel the ansatz is simulated once per point:
each flip pattern only permutes its populations and each basis preparation is
a delta vector, so all 2^(n+1) readouts sample from that one state. Under
depolarizing noise every sub-circuit is simulated gate by gate, X gates
included, with its own trajectories.

Reproducibility contract: every (grid point, realization) derives its random
substreams from ``SeedSequence(master_seed, spawn_key=(point_index,
realization_index))``, so results are independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from ._bitstrings import all_bitstrings
from .circuits import (
    QaoaParams,
    append_flips,
    build_ansatz,
    calibration_circuits,
    flip_patterns,
    simulate,
)
from .graph_problem import Graph, diagonal_costs
from .noise import NoiseConfig, perturb_calibration, simulate_noisy
from .readout import CalibrationTable, measure_circuit, sample_shots
from .reconstruction import reconstruct
from .statevector import expectation_diagonal, populations

DEFAULT_BETA_RANGE = (0.1 * math.pi, 0.6 * math.pi, 0.025 * math.pi)
DEFAULT_GAMMA_RANGE = (0.1 * math.pi, 2.1 * math.pi, 0.05 * math.pi)
DEFAULT_SHOTS = 300_000
DEFAULT_REALIZATIONS = 4
DEFAULT_CHECKPOINT_EVERY = 1000
DEFAULT_SEED = 1

CSV_HEADER = "beta,gamma,realization,F_measured,F_ideal,abs_diff,norm,pops"

# Types of the config_to_dict fields that config_from_dict reads.
_CONFIG_FIELDS = {
    "graph": dict,
    "p": int,
    "beta_range": list,
    "gamma_range": list,
    "shots": int,
    "realizations": int,
    "mode": str,
    "noise": (dict, type(None)),
    "calibration": (list, type(None)),
    "master_seed": int,
    "checkpoint_every": int,
}


def grid_axis(range_spec: Sequence[float]) -> np.ndarray:
    """Inclusive arithmetic grid start:stop:step, robust to float endpoint error."""
    start, stop, step = (float(v) for v in range_spec)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("grid range must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must not precede start")
    num = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(num)


@dataclass(frozen=True)
class ScanConfig:
    """Everything a scan needs; immutable so it can be echoed verbatim into manifests."""

    graph: Graph
    p: int = 1
    beta_range: tuple[float, float, float] = DEFAULT_BETA_RANGE
    gamma_range: tuple[float, float, float] = DEFAULT_GAMMA_RANGE
    shots: int = DEFAULT_SHOTS
    realizations: int = DEFAULT_REALIZATIONS
    mode: str = "ideal"
    noise: NoiseConfig | None = None
    calibration: CalibrationTable | None = None
    master_seed: int = DEFAULT_SEED
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    exact_calibration: bool = False

    def __post_init__(self):
        if self.mode not in ("ideal", "sampled"):
            raise ValueError(f"mode must be 'ideal' or 'sampled', got {self.mode!r}")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.shots < 1 or self.realizations < 1 or self.checkpoint_every < 1:
            raise ValueError("shots, realizations and checkpoint_every must be positive")
        object.__setattr__(self, "beta_range", tuple(float(v) for v in self.beta_range))
        object.__setattr__(self, "gamma_range", tuple(float(v) for v in self.gamma_range))
        grid_axis(self.beta_range)
        grid_axis(self.gamma_range)
        if self.mode == "sampled":
            if self.calibration is None:
                raise ValueError("sampled mode requires a calibration table")
            if self.calibration.num_qubits != self.graph.num_vertices:
                raise ValueError(
                    f"calibration covers {self.calibration.num_qubits} qubit(s) "
                    f"but the graph has {self.graph.num_vertices} vertices"
                )
        object.__setattr__(self, "master_seed", int(self.master_seed))

    def betas(self) -> np.ndarray:
        return grid_axis(self.beta_range)

    def gammas(self) -> np.ndarray:
        return grid_axis(self.gamma_range)


@dataclass(frozen=True, eq=False)
class PointRecord:
    """One realization of the measurement protocol at one parameter point."""

    pops: np.ndarray
    norm: float
    F_measured: float
    F_ideal: float
    valid: bool = True
    error: str | None = None


@dataclass(frozen=True, eq=False)
class LandscapeGrid:
    """Scan output as arrays indexed [beta, gamma, realization(, basis state)].

    An invalid realization (degenerate calibration) is stored as NaN in
    ``F_measured``, ``norm`` and ``pops``. Ideal scans have one realization.
    """

    betas: np.ndarray
    gammas: np.ndarray
    F_measured: np.ndarray
    norm: np.ndarray
    pops: np.ndarray
    F_ideal: np.ndarray
    cost_range: float

    @property
    def realizations(self) -> int:
        return self.F_measured.shape[2]

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.F_measured)


def closed_form_cost_k2(beta: float, gamma: float) -> float:
    """Exact single-layer expected cost for the two-vertex unit-weight graph."""
    return -0.5 + 0.5 * math.sin(4.0 * beta) * math.sin(gamma)


def ideal_cost(graph: Graph, params: QaoaParams) -> float:
    """Expected cost of the exact ansatz state."""
    state = simulate(build_ansatz(graph, params))
    return expectation_diagonal(state, diagonal_costs(graph))


def measure_point(
    config: ScanConfig,
    params: QaoaParams,
    realization_index: int = 0,
    point_index: int = 0,
) -> PointRecord:
    """Run the full measurement protocol at one parameter point.

    Per sub-circuit seeds are spawned from (master_seed, point_index,
    realization_index). The calibration used for reconstruction is estimated
    empirically from basis-state preparations unless ``exact_calibration`` is
    set, in which case the true generating table (including any
    per-realization perturbation) is used to isolate shot noise.

    A degenerate empirical calibration makes the point invalid rather than
    raising, so long scans survive unlucky draws.
    """
    if config.mode != "sampled":
        raise ValueError("measure_point requires mode='sampled'")
    graph = config.graph
    diag = diagonal_costs(graph)
    true_cal, streams = _point_streams(config, realization_index, point_index)
    cal_records, flip_records, pops = _measure_subcircuits(config, params, true_cal, streams)
    empirical = np.array([record.running_mean for record in cal_records])
    means = np.array([record.running_mean for record in flip_records])
    F_ideal = ideal_cost(graph, params) if pops is None else float(np.dot(pops, diag))
    try:
        table = true_cal if config.exact_calibration else CalibrationTable(empirical)
        estimate = reconstruct(table, means)
    except ValueError as exc:
        nans = np.full(diag.size, math.nan)
        return PointRecord(nans, math.nan, math.nan, F_ideal, valid=False, error=str(exc))
    return PointRecord(estimate.pops, estimate.norm, float(np.dot(estimate.pops, diag)), F_ideal)


def run_scan(config: ScanConfig) -> LandscapeGrid:
    """Evaluate the full (beta, gamma) grid.

    Ideal mode ignores shot settings and collapses to one exact evaluation per
    point.
    """
    betas = config.betas()
    gammas = config.gammas()
    realizations = 1 if config.mode == "ideal" else config.realizations
    diag = diagonal_costs(config.graph)
    shape = (betas.size, gammas.size, realizations)
    F_measured, norm, F_ideal = np.empty(shape), np.empty(shape), np.empty(shape[:2])
    pops = np.empty(shape + diag.shape)
    for bi, gi, r in np.ndindex(shape):
        params = QaoaParams((float(betas[bi]),) * config.p, (float(gammas[gi]),) * config.p)
        if config.mode == "ideal":
            pops[bi, gi, r], F_ideal[bi, gi] = _ideal_point(config.graph, params, diag)
            F_measured[bi, gi, r] = F_ideal[bi, gi]
            norm[bi, gi, r] = pops[bi, gi, r].sum()
        else:
            record = measure_point(config, params, r, point_index=bi * gammas.size + gi)
            pops[bi, gi, r], norm[bi, gi, r] = record.pops, record.norm
            F_measured[bi, gi, r], F_ideal[bi, gi] = record.F_measured, record.F_ideal
    return LandscapeGrid(betas, gammas, F_measured, norm, pops, F_ideal, float(diag.max() - diag.min()))


def landscape_error(grid: LandscapeGrid) -> float:
    """Mean |realization-averaged F_measured - F_ideal| over the grid, relative to the cost range.

    Realizations are averaged at the cost level before taking the absolute
    difference. Points with no valid realization are skipped; a graph with a
    flat cost spectrum (zero range) reports zero error.
    """
    mean, _ = _realization_stats(grid.F_measured, 2)
    diffs = np.abs(mean - grid.F_ideal)[np.isfinite(mean)]
    if not diffs.size:
        raise ValueError("no valid points in grid")
    if grid.cost_range == 0.0:
        return 0.0
    return float(np.mean(diffs) / grid.cost_range)


@dataclass(frozen=True)
class OptimizeResult:
    best_params: QaoaParams
    best_F: float
    trace: tuple[tuple[tuple[float, ...], tuple[float, ...], float], ...]

    @property
    def evaluations(self) -> int:
        return len(self.trace)


def optimize(config: ScanConfig, strategy: str = "grid_then_refine", refine_tolerance: float = 1e-3) -> OptimizeResult:
    """Minimize the (measured or ideal) cost over the 2p angle coordinates.

    Both strategies start from the best point of the configured coarse grid
    (all layers sharing each grid (beta, gamma); ties broken toward the
    lexicographically smallest pair). ``grid_then_refine`` then runs
    coordinate descent over all 2p coordinates, halving the steps until they
    drop below ``refine_tolerance`` radians; ``simplex`` hands the best grid
    point to Nelder-Mead. Sampled-mode evaluations consume consecutive point
    indices of the master seed, so a given call sequence is reproducible.
    """
    if strategy not in ("grid_then_refine", "simplex"):
        raise ValueError(f"unknown strategy {strategy!r}")
    p = config.p
    trace: list[tuple[tuple[float, ...], tuple[float, ...], float]] = []
    eval_index = count()

    def evaluate(betas: tuple[float, ...], gammas: tuple[float, ...]) -> float:
        params = QaoaParams(betas, gammas)
        if config.mode == "ideal":
            value = ideal_cost(config.graph, params)
        else:
            record = measure_point(config, params, 0, point_index=next(eval_index))
            if not record.valid:
                raise ValueError(f"measurement failed during optimization: {record.error}")
            value = record.F_measured
        trace.append((betas, gammas, value))
        return value

    best_value = math.inf
    best_pair = None
    for beta in config.betas():
        for gamma in config.gammas():
            value = evaluate((float(beta),) * p, (float(gamma),) * p)
            if value < best_value:
                best_value = value
                best_pair = (float(beta), float(gamma))
    x = np.array([best_pair[0]] * p + [best_pair[1]] * p)

    if strategy == "simplex":
        def objective(vec: np.ndarray) -> float:
            return evaluate(tuple(vec[:p]), tuple(vec[p:]))

        minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-12, "maxfev": 20_000},
        )
        best = min(trace, key=lambda entry: (entry[2], entry[0], entry[1]))
        return OptimizeResult(QaoaParams(best[0], best[1]), best[2], tuple(trace))

    base_steps = np.array([config.beta_range[2]] * p + [config.gamma_range[2]] * p)
    scale = 1.0
    value = best_value
    grid_evals = len(trace)
    # A shot-noise objective can keep producing spurious "improvements"
    # forever, so the descent gets a hard evaluation budget on top of the
    # step-size stopping rule. The budget is far above anything an ideal
    # objective needs.
    budget = 10_000
    while (base_steps * scale).max() >= refine_tolerance:
        while len(trace) - grid_evals < budget:
            improved = False
            for coord in range(2 * p):
                step = base_steps[coord] * scale
                candidates = []
                for delta in (-step, +step):
                    trial = x.copy()
                    trial[coord] += delta
                    trial_value = evaluate(tuple(trial[:p]), tuple(trial[p:]))
                    candidates.append((trial_value, tuple(trial)))
                candidates.sort(key=lambda item: (item[0], item[1]))
                if candidates[0][0] < value:
                    value = candidates[0][0]
                    x = np.array(candidates[0][1])
                    improved = True
            if not improved:
                break
        scale *= 0.5
    return OptimizeResult(QaoaParams(tuple(x[:p]), tuple(x[p:])), value, tuple(trace))


@dataclass(frozen=True, eq=False)
class ConvergenceProfile:
    """Population and norm estimates at every checkpoint, aggregated over realizations."""

    checkpoint_shots: np.ndarray
    mean_pops: np.ndarray
    std_pops: np.ndarray
    mean_norm: np.ndarray
    std_norm: np.ndarray
    realizations: int
    num_qubits: int


def convergence_profile(config: ScanConfig, params: QaoaParams, point_index: int = 0) -> ConvergenceProfile:
    """Reconstruct populations from the running means at every checkpoint.

    Uses exactly the same substreams as :func:`measure_point`, so when
    ``shots`` is a multiple of ``checkpoint_every`` the final checkpoint
    reproduces that point's estimate. Standard deviations are sample standard
    deviations across realizations (NaN when fewer than two are valid).
    """
    if config.mode != "sampled":
        raise ValueError("convergence_profile requires mode='sampled'")
    if config.shots < config.checkpoint_every:
        raise ValueError("need at least one full checkpoint block")
    size = 1 << config.graph.num_vertices
    num_checkpoints = config.shots // config.checkpoint_every
    pops_runs = np.full((config.realizations, num_checkpoints, size), math.nan)
    norm_runs = np.full((config.realizations, num_checkpoints), math.nan)
    for realization in range(config.realizations):
        true_cal, streams = _point_streams(config, realization, point_index)
        cal_records, flip_records, _ = _measure_subcircuits(config, params, true_cal, streams)
        # one row per checkpoint, one column per sub-circuit
        empirical = np.stack([record.checkpoints for record in cal_records], axis=1)
        means = np.stack([record.checkpoints for record in flip_records], axis=1)
        for k in range(num_checkpoints):
            try:
                table = true_cal if config.exact_calibration else CalibrationTable(empirical[k])
                estimate = reconstruct(table, means[k])
            except ValueError:
                continue
            pops_runs[realization, k] = estimate.pops
            norm_runs[realization, k] = estimate.norm

    mean_pops, std_pops = _realization_stats(pops_runs, 0)
    mean_norm, std_norm = _realization_stats(norm_runs, 0)
    shots_axis = config.checkpoint_every * np.arange(1, num_checkpoints + 1)
    return ConvergenceProfile(
        checkpoint_shots=shots_axis,
        mean_pops=mean_pops,
        std_pops=std_pops,
        mean_norm=mean_norm,
        std_norm=std_norm,
        realizations=config.realizations,
        num_qubits=config.graph.num_vertices,
    )


def write_landscape_csv(grid: LandscapeGrid, destination) -> None:
    """CSV with one row per (point, realization); 10 significant digits, pops joined with '|'."""
    shape = grid.F_measured.shape
    beta, gamma, realization = np.meshgrid(grid.betas, grid.gammas, np.arange(shape[2]), indexing="ij")
    F_ideal = np.broadcast_to(grid.F_ideal[:, :, None], shape)
    abs_diff = np.abs(grid.F_measured - F_ideal)
    columns = [_format_10g(beta), _format_10g(gamma), realization.ravel().astype(str)]
    columns += [_format_10g(values) for values in (grid.F_measured, F_ideal, abs_diff, grid.norm)]
    columns.append(["|".join(_format_10g(pops)) for pops in grid.pops.reshape(-1, grid.pops.shape[-1])])
    rows = (",".join(fields) for fields in zip(*columns))
    _write_text(destination, "\n".join([CSV_HEADER, *rows]) + "\n")


def write_convergence_csv(profile: ConvergenceProfile, destination) -> None:
    labels = all_bitstrings(profile.num_qubits)
    header = (
        ["shots"]
        + [f"p{label}" for label in labels]
        + ["norm"]
        + [f"std_p{label}" for label in labels]
        + ["std_norm"]
    )
    lines = [",".join(header)]
    for k, shots in enumerate(profile.checkpoint_shots):
        row = [str(int(shots))]
        row += _format_10g(profile.mean_pops[k]) + _format_10g(profile.mean_norm[k])
        row += _format_10g(profile.std_pops[k]) + _format_10g(profile.std_norm[k])
        lines.append(",".join(row))
    _write_text(destination, "\n".join(lines) + "\n")


def scan_summary(grid: LandscapeGrid, config: ScanConfig) -> dict:
    """Deterministic summary (JSON-friendly) of a finished scan."""
    try:
        error = landscape_error(grid)
    except ValueError:
        error = None
    return {
        "landscape_error": error,
        "num_beta": int(grid.betas.size),
        "num_gamma": int(grid.gammas.size),
        "realizations": grid.realizations,
        "points_total": int(grid.F_measured.size),
        "points_invalid": int(np.count_nonzero(~grid.valid)),
        "cost_range": grid.cost_range,
        "config": config_to_dict(config),
    }


def config_to_dict(config: ScanConfig) -> dict:
    """Fully resolved, JSON-serializable echo of a scan configuration."""
    return {
        "graph": {
            "num_vertices": config.graph.num_vertices,
            "edges": [[i, j, w] for i, j, w in config.graph.edges()],
        },
        "p": config.p,
        "beta_range": list(config.beta_range),
        "gamma_range": list(config.gamma_range),
        "shots": config.shots,
        "realizations": config.realizations,
        "mode": config.mode,
        "noise": config.noise.to_dict() if config.noise is not None else None,
        "calibration": (
            [float(v) for v in config.calibration.intensities] if config.calibration is not None else None
        ),
        "master_seed": config.master_seed,
        "checkpoint_every": config.checkpoint_every,
        "exact_calibration": config.exact_calibration,
    }


def config_from_dict(data: dict) -> ScanConfig:
    """Inverse of config_to_dict; a missing or mistyped field raises ValueError naming it."""
    _check_fields(data, _CONFIG_FIELDS, "config.")
    _check_fields(data["graph"], {"num_vertices": int, "edges": list}, "config.graph.")
    graph = Graph.from_edges(data["graph"]["num_vertices"], data["graph"]["edges"])
    noise = NoiseConfig.from_dict(data["noise"]) if data["noise"] is not None else None
    calibration = (
        CalibrationTable(np.array(data["calibration"], dtype=float))
        if data["calibration"] is not None
        else None
    )
    return ScanConfig(
        graph=graph,
        p=data["p"],
        beta_range=tuple(data["beta_range"]),
        gamma_range=tuple(data["gamma_range"]),
        shots=data["shots"],
        realizations=data["realizations"],
        mode=data["mode"],
        noise=noise,
        calibration=calibration,
        master_seed=data["master_seed"],
        checkpoint_every=data["checkpoint_every"],
        exact_calibration=data.get("exact_calibration", False),
    )


def _check_fields(section: dict, fields: dict, prefix: str) -> None:
    """Raise ValueError naming the first field of ``section`` that is missing or not of its type."""
    for name, kind in fields.items():
        if name not in section:
            raise ValueError(f"missing field {prefix + name!r}")
        value = section[name]
        # bool is an int subclass, so it passes only where bool is asked for
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"field {prefix + name!r} has the wrong type {type(value).__name__}")


def _ideal_point(graph: Graph, params: QaoaParams, diag: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact populations and cost at one point."""
    pops = populations(simulate(build_ansatz(graph, params)))
    return pops, float(np.dot(pops, diag))


def _realization_stats(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 standard deviation over the finite (valid) entries along ``axis``.

    The mean is NaN where no entry is valid and the deviation NaN where fewer
    than two are. The sums run realization by realization, in index order.
    """
    runs = np.moveaxis(values, axis, 0)
    valid = np.isfinite(runs)
    count = valid.sum(axis=0)
    mean = np.full(runs.shape[1:], math.nan)
    std = np.full(runs.shape[1:], math.nan)
    np.divide(sum(np.where(valid, runs, 0.0)), count, out=mean, where=count > 0)
    deviations = np.where(valid, runs - mean, 0.0)
    np.divide(sum(deviations * deviations), count - 1, out=std, where=count > 1)
    return mean, np.sqrt(std)


def _format_10g(values) -> list[str]:
    return [format(v, ".10g") for v in np.ravel(values)]


def _point_streams(config: ScanConfig, realization_index: int, point_index: int):
    """True calibration (possibly perturbed) plus one substream per sub-circuit."""
    size = 1 << config.graph.num_vertices
    root = np.random.SeedSequence(config.master_seed, spawn_key=(point_index, realization_index))
    streams = root.spawn(1 + 2 * size)
    true_cal = config.calibration
    if config.noise is not None and config.noise.calibration_sigma > 0.0:
        true_cal = perturb_calibration(true_cal, config.noise.calibration_sigma, streams[0])
    return true_cal, streams[1:]


def _measure_subcircuits(config: ScanConfig, params: QaoaParams, true_cal, streams):
    """Measure the 2^n basis preparations and the 2^n flip variants of the ansatz.

    Returns the calibration records, the flip records, and the ansatz
    populations when they are noiseless (None otherwise).
    """
    n = config.graph.num_vertices
    size = 1 << n
    noise = config.noise
    shots, every = config.shots, config.checkpoint_every
    ansatz = build_ansatz(config.graph, params)
    if noise is not None and noise.is_stochastic:
        # The channel also acts on the appended X gates, and every sub-circuit
        # and block draws its own trajectory, so each one is simulated.
        circuits = calibration_circuits(n) + [append_flips(ansatz, pattern) for pattern in flip_patterns(n)]
        records = [measure_circuit(c, true_cal, shots, seed, every, noise) for c, seed in zip(circuits, streams)]
        return records[:size], records[size:], None
    gate_noise = noise is not None and (noise.overrotation_frac != 0.0 or noise.phase_offset != 0.0)
    pops = populations(simulate_noisy(ansatz, noise) if gate_noise else simulate(ansatz))
    # An X on qubit q flips bit n-1-q of the basis index, so flip pattern x
    # reads out pops[idx ^ x] and basis preparation s is the delta at s.
    idx = np.arange(size)
    readouts = list(np.eye(size)) + [pops[idx ^ x] for x in range(size)]
    records = [sample_shots(true_cal, p, shots, seed, every) for p, seed in zip(readouts, streams)]
    return records[:size], records[size:], None if gate_noise else pops


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text)
