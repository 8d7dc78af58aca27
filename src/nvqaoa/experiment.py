"""Cost-landscape scans, the shot-based measurement protocol, and optimization.

A "point" is one (beta, gamma) grid cell evaluated either exactly (ideal mode)
or through the full measurement pipeline (sampled mode). A sampled point
prepares the ansatz with each readout flip pattern, records mean photon
counts, estimates the calibration empirically from basis-state preparations
taken with the same shot budget, reconstructs populations, and scores them
against the diagonal cost.

Every deterministic ansatz state comes from the QAOA-structured simulator
``simulate_qaoa`` on the cost diagonal: the exact state of ideal points and of
``F_ideal``, and, with overrotation and phase offset folded in, the state a
sampled point reads without a stochastic channel (without either channel it is
the ``F_ideal`` state itself). Under depolarizing noise a point reads the
exact channel-averaged populations of the ansatz instead
(``noise.density_populations``): every shot is a fresh run with its own
errors, so each shot's basis state is a draw from them. ``run_scan`` makes
those populations once per point and reads them in every realization. Each
flip pattern only permutes them and each basis preparation is a delta vector;
under depolarizing noise an X or Y error after an appended X undoes its flip,
with probability 2p/3 per flipped qubit. So the 2^(n+1) readouts are the rows
of one matrix, and one multinomial and one Poisson call per realization draw
all their records (``readout.read_records``). Depolarizing scans are capped at
``MAX_DEPOLARIZING_VERTICES``, since rho has 4^n entries.

Reproducibility contract: every (grid point, realization) derives its random
substreams from ``SeedSequence(master_seed, spawn_key=(point_index,
realization_index))``, so results are independent of evaluation order. Its
children 0, 1 and 2 perturb the calibration, draw the records and split them
into checkpoint blocks (``convergence_profile`` only), so the final checkpoint
equals ``measure_point`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from numbers import Integral
from typing import Sequence

import numpy as np

from ._bitstrings import all_bitstrings
from ._format10g import write_rows
from .circuits import (
    QaoaParams,
    build_ansatz,
    # unused here: perfbench's test_tracer_wraps_every_binding_and_restores_them
    # checks that the tracer wraps this binding
    simulate,
    simulate_qaoa,
)
from .graph_problem import MAX_VERTICES, Graph, diagonal_costs
from .noise import NoiseConfig, density_populations, perturb_calibration
from .readout import CalibrationTable, read_records
from .reconstruction import DegenerateCalibrationError, reconstruct
from .statevector import populations

DEFAULT_BETA_RANGE = (0.1 * math.pi, 0.6 * math.pi, 0.025 * math.pi)
DEFAULT_GAMMA_RANGE = (0.1 * math.pi, 2.1 * math.pi, 0.05 * math.pi)
DEFAULT_SHOTS = 300_000
DEFAULT_REALIZATIONS = 4
DEFAULT_CHECKPOINT_EVERY = 1000
DEFAULT_SEED = 1

# A depolarizing point holds its density matrix: 4^n complex entries, 16 MiB at n = 10.
MAX_DEPOLARIZING_VERTICES = 10

CSV_HEADER = "beta,gamma,realization,F_measured,F_ideal,abs_diff,norm,pops"

# Coordinate descent halves its steps until they drop below REFINE_TOLERANCE
# radians. A shot-noise objective can keep producing spurious "improvements"
# forever, so the descent also stops after REFINE_BUDGET evaluations past the
# grid, far above anything an ideal objective needs.
REFINE_TOLERANCE = 1e-3
REFINE_BUDGET = 10_000

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
    "exact_calibration": bool,
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
        for name in ("p", "shots", "realizations", "checkpoint_every", "master_seed"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.graph.num_vertices > MAX_VERTICES:
            raise ValueError(f"graph has {self.graph.num_vertices} vertices; scans are capped at {MAX_VERTICES}")
        if self.shots < 1 or self.realizations < 1 or self.checkpoint_every < 1:
            raise ValueError("shots, realizations and checkpoint_every must be positive")
        object.__setattr__(self, "beta_range", tuple(float(v) for v in self.beta_range))
        object.__setattr__(self, "gamma_range", tuple(float(v) for v in self.gamma_range))
        grid_axis(self.beta_range)
        grid_axis(self.gamma_range)
        if self.mode == "sampled":
            n = self.graph.num_vertices
            if self.noise is not None and self.noise.is_stochastic and n > MAX_DEPOLARIZING_VERTICES:
                raise ValueError(
                    f"graph has {n} vertices; depolarizing scans are capped at {MAX_DEPOLARIZING_VERTICES}"
                )
            if self.calibration is None:
                raise ValueError("sampled mode requires a calibration table")
            if self.calibration.num_qubits != self.graph.num_vertices:
                raise ValueError(
                    f"calibration covers {self.calibration.num_qubits} qubit(s) "
                    f"but the graph has {self.graph.num_vertices} vertices"
                )
        if self.master_seed < 0:
            raise ValueError(f"master seed must be nonnegative, got {self.master_seed}")

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
    error: DegenerateCalibrationError | None = None


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
    return _ideal_point(diagonal_costs(graph), params)[1]


def measure_point(
    config: ScanConfig,
    params: QaoaParams,
    realization_index: int = 0,
    point_index: int = 0,
    *,
    state: tuple[float, np.ndarray] | None = None,
) -> PointRecord:
    """Run the full measurement protocol at one parameter point.

    The point's substreams are children of (master_seed, point_index,
    realization_index). The calibration used for reconstruction is estimated
    empirically from basis-state preparations unless ``exact_calibration`` is
    set, in which case the true generating table (including any
    per-realization perturbation) is used to isolate shot noise.

    ``state`` is the point's ``(F_ideal, read populations)`` pair from
    ``_point_state`` when the caller has already simulated it; ``run_scan``
    passes it so every realization of a point reads one simulation.

    A degenerate calibration, empirical or perturbed into all-dark
    intensities, makes the point invalid rather than raising, so long scans
    survive unlucky draws; ``error`` then holds the
    ``DegenerateCalibrationError``.
    """
    if config.mode != "sampled":
        raise ValueError("measure_point requires mode='sampled'")
    diag = diagonal_costs(config.graph)
    F_ideal, pops = _point_state(config, params, diag) if state is None else state
    try:
        true_cal, root = _point_streams(config, realization_index, point_index)
        means, _ = _measure_subcircuits(config, true_cal, _child_seed(root, 1), pops)
        size = diag.size
        table = true_cal if config.exact_calibration else CalibrationTable(means[:size])
        estimate = reconstruct(table, means[size:])
    except DegenerateCalibrationError as exc:
        nans = np.full(diag.size, math.nan)
        return PointRecord(nans, math.nan, math.nan, F_ideal, valid=False, error=exc)
    return PointRecord(estimate.pops, estimate.norm, float(np.dot(estimate.pops, diag)), F_ideal)


def run_scan(config: ScanConfig) -> LandscapeGrid:
    """Evaluate the full (beta, gamma) grid.

    Ideal mode ignores shot settings and collapses to one exact evaluation per
    point. Sampled mode simulates a point's state once for all its
    realizations.
    """
    betas = config.betas()
    gammas = config.gammas()
    realizations = 1 if config.mode == "ideal" else config.realizations
    diag = diagonal_costs(config.graph)
    shape = (betas.size, gammas.size, realizations)
    F_measured, norm, F_ideal = np.empty(shape), np.empty(shape), np.empty(shape[:2])
    pops = np.empty(shape + diag.shape)
    for bi, gi in np.ndindex(shape[:2]):
        params = QaoaParams((float(betas[bi]),) * config.p, (float(gammas[gi]),) * config.p)
        if config.mode == "ideal":
            pops[bi, gi, 0], F_ideal[bi, gi] = _ideal_point(diag, params)
            F_measured[bi, gi, 0], norm[bi, gi, 0] = F_ideal[bi, gi], pops[bi, gi, 0].sum()
            continue
        state = _point_state(config, params, diag)
        F_ideal[bi, gi] = state[0]
        for r in range(realizations):
            record = measure_point(config, params, r, bi * gammas.size + gi, state=state)
            pops[bi, gi, r], norm[bi, gi, r], F_measured[bi, gi, r] = record.pops, record.norm, record.F_measured
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


def optimize(config: ScanConfig, strategy: str = "grid_then_refine") -> OptimizeResult:
    """Minimize the (measured or ideal) cost over the 2p angle coordinates.

    Both strategies start from the best point of the configured coarse grid
    (all layers sharing each grid (beta, gamma)). The grid is walked in
    (beta, gamma) order and a later point wins only with a strictly smaller
    value, so exactly equal values keep the lexicographically smallest pair.
    Optima that are tied only mathematically usually differ in the last ulp,
    and then float rounding picks the winner. ``grid_then_refine`` then runs
    coordinate descent over all 2p coordinates, halving the steps until they
    drop below ``REFINE_TOLERANCE`` radians; ``simplex`` hands the best grid
    point to Nelder-Mead. Sampled-mode evaluations consume consecutive point
    indices of the master seed, so a given call sequence is reproducible; a
    degenerate empirical calibration at any of them raises
    ``DegenerateCalibrationError``.
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
                raise record.error
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
        from scipy.optimize import minimize  # imported here so other commands never load scipy

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
    while (base_steps * scale).max() >= REFINE_TOLERANCE:
        while len(trace) - grid_evals < REFINE_BUDGET:
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
    """Population and norm estimates at every checkpoint, aggregated over realizations.

    ``checkpoints_invalid`` counts the (realization, checkpoint) estimates left
    out because their table was degenerate, all checkpoints of an all-dark one.
    """

    checkpoint_shots: np.ndarray
    mean_pops: np.ndarray
    std_pops: np.ndarray
    mean_norm: np.ndarray
    std_norm: np.ndarray
    realizations: int
    num_qubits: int
    checkpoints_invalid: int


def convergence_profile(config: ScanConfig, params: QaoaParams, point_index: int = 0) -> ConvergenceProfile:
    """Reconstruct populations from the running means at every checkpoint.

    Draws the same records on the same substream as :func:`measure_point` and
    splits them into checkpoint blocks on a third (``readout.split_totals``), so
    when ``shots`` is a multiple of ``checkpoint_every`` the final checkpoint
    reproduces that point's estimate. Each realization inverts all its
    checkpoints in one stacked ``reconstruct`` call, which leaves a checkpoint
    with a degenerate table NaN. Standard deviations are sample standard
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
    pops = _sampled_state_pops(config, params, diagonal_costs(config.graph))
    for realization in range(config.realizations):
        try:
            true_cal, root = _point_streams(config, realization, point_index)
        except DegenerateCalibrationError:  # the perturbed table went all dark
            continue
        # one row per sub-circuit, one column per checkpoint
        draws, split = _child_seed(root, 1), _child_seed(root, 2)
        _, checkpoints = _measure_subcircuits(config, true_cal, draws, pops, split)
        table = true_cal if config.exact_calibration else checkpoints[:size].T
        estimate = reconstruct(table, checkpoints[size:].T)
        pops_runs[realization] = estimate.pops
        norm_runs[realization] = estimate.norm

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
        checkpoints_invalid=int(np.count_nonzero(~np.isfinite(norm_runs))),
    )


def write_landscape_csv(grid: LandscapeGrid, handle) -> None:
    """CSV with one row per (point, realization); 10 significant digits, pops joined with '|'."""
    shape = grid.F_measured.shape
    beta, gamma, realization = np.meshgrid(grid.betas, grid.gammas, np.arange(shape[2]), indexing="ij")
    F_ideal = np.broadcast_to(grid.F_ideal[:, :, None], shape)
    abs_diff = np.abs(grid.F_measured - F_ideal)
    columns = [beta, gamma, realization, grid.F_measured, F_ideal, abs_diff, grid.norm]
    pops = grid.pops.reshape(-1, grid.pops.shape[-1])
    table = np.column_stack([np.ravel(column) for column in columns] + [pops])
    handle.write(CSV_HEADER + "\n")
    seps = "," * len(columns) + "|" * (pops.shape[1] - 1) + "\n"
    write_rows(handle, table, seps, {2: [str(r) for r in realization.ravel().tolist()]})


def write_convergence_csv(profile: ConvergenceProfile, handle) -> None:
    labels = all_bitstrings(profile.num_qubits)
    header = (
        ["shots"]
        + [f"p{label}" for label in labels]
        + ["norm"]
        + [f"std_p{label}" for label in labels]
        + ["std_norm"]
    )
    handle.write(",".join(header) + "\n")
    shots = np.asarray(profile.checkpoint_shots)
    columns = [shots.astype(float), profile.mean_pops, profile.mean_norm, profile.std_pops, profile.std_norm]
    table = np.column_stack(columns)
    seps = "," * (table.shape[1] - 1) + "\n"
    write_rows(handle, table, seps, {0: [str(int(s)) for s in shots.tolist()]})


def write_trace_csv(result: OptimizeResult, handle) -> None:
    """CSV with one row per evaluation in call order: index, the 2p angles and F, 10 significant digits."""
    p = result.best_params.p
    header = ["index", *(f"beta{k}" for k in range(p)), *(f"gamma{k}" for k in range(p)), "F"]
    handle.write(",".join(header) + "\n")
    rows = [(i, *betas, *gammas, value) for i, (betas, gammas, value) in enumerate(result.trace)]
    table = np.array(rows, dtype=float).reshape(len(rows), 2 * p + 2)
    seps = "," * (2 * p + 1) + "\n"
    write_rows(handle, table, seps, {0: [str(i) for i in range(len(rows))]})


def scan_summary(grid: LandscapeGrid, config: ScanConfig) -> dict:
    """Deterministic summary (JSON-friendly) of a finished scan; ``landscape_error`` is None without a valid point."""
    return {
        "landscape_error": landscape_error(grid) if grid.valid.any() else None,
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
    noise = None
    if data["noise"] is not None:
        _check_fields(data["noise"], dict.fromkeys(NoiseConfig().to_dict(), (int, float)), "config.noise.")
        noise = NoiseConfig.from_dict(data["noise"])
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
        exact_calibration=data["exact_calibration"],
    )


def _check_integer(name: str, value) -> int:
    """``value`` as an int; bool and non-integral values raise ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_fields(section: dict, fields: dict, prefix: str) -> None:
    """Raise ValueError naming the first field of ``section`` that is missing or not of its type."""
    for name, kind in fields.items():
        if name not in section:
            raise ValueError(f"missing field {prefix + name!r}")
        value = section[name]
        # bool is an int subclass, so it passes only where bool is asked for
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"field {prefix + name!r} has the wrong type {type(value).__name__}")


def _ideal_point(diag: np.ndarray, params: QaoaParams) -> tuple[np.ndarray, float]:
    """Exact populations and cost at one point, from the structured simulator."""
    pops = populations(simulate_qaoa(diag, params))
    return pops, float(np.dot(pops, diag))


def _point_state(config: ScanConfig, params: QaoaParams, diag: np.ndarray) -> tuple[float, np.ndarray]:
    """``F_ideal`` and the populations a sampled point reads (``_sampled_state_pops``)."""
    # _ideal_point's body, inlined: perfbench's tracer counts every _ideal_point
    # call as an evaluation of its own
    ideal_pops = populations(simulate_qaoa(diag, params))
    return float(np.dot(ideal_pops, diag)), _sampled_state_pops(config, params, diag, ideal_pops)


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


def _point_streams(config: ScanConfig, realization_index: int, point_index: int):
    """True calibration (possibly perturbed) and the root substream of a point.

    Children 0, 1 and 2 of the root, SeedSequence(master_seed,
    spawn_key=(point_index, realization_index)), perturb the table, draw the
    records and split them into checkpoint blocks.
    """
    root = np.random.SeedSequence(config.master_seed, spawn_key=(point_index, realization_index))
    true_cal = config.calibration
    if config.noise is not None and config.noise.calibration_sigma > 0.0:
        true_cal = perturb_calibration(true_cal, config.noise.calibration_sigma, _child_seed(root, 0))
    return true_cal, root


def _child_seed(root: np.random.SeedSequence, k: int) -> np.random.SeedSequence:
    """Child k of ``root``, as ``root.spawn`` would make it on a fresh sequence, without changing ``root``."""
    return np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (k,), pool_size=root.pool_size)


def _measure_subcircuits(config: ScanConfig, true_cal, draws, pops, split=None):
    """Read out the 2^n basis preparations and the 2^n flip variants of the ansatz.

    ``pops`` is the state the point reads (``_sampled_state_pops``). Returns
    ``readout.read_records`` of their rows: every record's mean photon count,
    calibration records first, and, given a ``split`` substream, the running
    means at each full checkpoint block with one row per record (otherwise
    None).
    """
    n = config.graph.num_vertices
    size = 1 << n
    # An X on qubit q flips bit n-1-q of the basis index, so flip pattern x
    # reads out pops[idx ^ x] and basis preparation s is the delta at s.
    idx = np.arange(size)
    rows = np.concatenate([np.eye(size), pops[idx ^ idx[:, None]]])
    # An X or Y error after an appended X undoes it: on each qubit whose bit is
    # set in the pattern (k mod 2^n), record k mixes (1 - r) of its row with
    # r = 2p/3 of its row read at idx ^ bit, which is the row of record k ^ bit.
    # At p = 0 the mixing is an identity, skipped because its numpy calls cost
    # a noiseless K2 point about 7%.
    undo = 2.0 * config.noise.depolarizing_prob / 3.0 if config.noise is not None else 0.0
    if undo:
        for bit in (1 << np.arange(n)).tolist():
            pairs = rows.reshape(-1, 2, bit, size)  # axis 1 is this bit of the record index
            pairs[:, 1] = (1.0 - undo) * pairs[:, 1] + undo * pairs[:, 0]
    return read_records(true_cal.intensities, rows, config.shots, draws, split, config.checkpoint_every)


def _sampled_state_pops(config: ScanConfig, params: QaoaParams, diag: np.ndarray, ideal_pops=None):
    """Populations of the ansatz state a point reads, every noise channel included.

    Under a depolarizing channel these are the exact channel-averaged
    populations. Otherwise they are ``ideal_pops`` when given and neither
    overrotation nor phase offset is set.
    """
    noise = config.noise
    if noise is not None and noise.is_stochastic:
        return density_populations(build_ansatz(config.graph, params), noise)
    if ideal_pops is not None and (noise is None or not (noise.overrotation_frac or noise.phase_offset)):
        return ideal_pops
    return populations(simulate_qaoa(diag, params, noise, len(config.graph.edges())))

