"""Cost-landscape scans, the shot-based measurement protocol, and optimization.

A "point" is one (beta, gamma) grid cell evaluated either exactly (ideal mode)
or through the full measurement pipeline (sampled mode). A sampled point
prepares the ansatz with each readout flip pattern, records mean photon
counts, estimates the calibration empirically from basis-state preparations
taken with the same shot budget, reconstructs populations, and scores them
against the diagonal cost.

Every deterministic ansatz state comes from the QAOA-structured simulator
``qaoa_amplitudes`` on the cost diagonal: the exact state of ideal points and
of ``F_ideal`` (``_exact_states``), and, with overrotation and phase offset
folded in, the state a sampled point reads without a stochastic channel
(without either channel it is the ``F_ideal`` state itself). Under
depolarizing noise a point reads the exact channel-averaged populations of the
ansatz instead (``noise.density_populations``): every shot is a fresh run with
its own errors, so each shot's basis state is a draw from them. Each flip
pattern only permutes those populations and each basis preparation is a delta
vector; under depolarizing noise an X or Y error after an appended X undoes
its flip, with probability 2p/3 per flipped qubit. So a point's 2^(n+1)
readouts are the rows of one matrix (``_point_rows``), and one multinomial and
one Poisson call per realization draw all their records
(``readout.read_records``), or all the records of a stream block of points.
Sampled scans are capped at ``MAX_SAMPLED_VERTICES``, since a point's rows
hold 2 * 4^n floats, and depolarizing ones at ``MAX_DEPOLARIZING_VERTICES``,
since its rho holds 4^n complex entries and each gate sweeps them.
Every bound a run is refused for raises ``ConfigError`` before any array is
made: ``ScanConfig``'s when it is made, and, when called, those of
``run_scan``, ``optimize``, ``convergence_profile`` and ``measure_point``,
among them that the largest cost phase is finite (``_check_cost_phase``).

One block reader (``_read_block``) serves every evaluation. ``_grid_blocks``
reads every grid with it, in stream blocks of ``_block_points`` consecutive
points, a number that depends on n alone and bounds a block's batch arrays by
``_CHUNK_ENTRIES`` floats: ``run_scan`` stores the blocks and ``optimize``
keeps their F. ``measure_point``, ``optimize``'s trials off the grid and
``convergence_profile`` read one point as a block of one, the last with the
checkpoint split. Every read inverts the same pair (``_read_point``): a
calibration row and the flip means. An all-dark perturbed table is drawn like
any other, and ``reconstruct`` alone judges a table.

Reproducibility contract: a cell is a function of (master seed, n, grid,
point, realization). Realization r of the block whose first grid index is i
derives its random substreams from ``SeedSequence(master_seed, spawn_key=(i,
r))``, so results are independent of evaluation order and of the realization
count. Its children 0, 1 and 2 perturb the block's calibration tables (one
normal draw of shape ``(points, 2^n)``), draw the block's records (one
multinomial and one Poisson call) and split them into checkpoint blocks
(``convergence_profile`` only). A point read as a block of one at index i
draws on the substreams of (i, r), so the final checkpoint equals
``measure_point`` bit for bit, and so does the cell of a one-point grid.
``_read_point`` builds each child directly.

Landscapes and ``optimize`` run on the calling thread. ``convergence_profile``
shares its realizations among one ``_read_block`` worker per available CPU
(``_split_workers``), each on a thread of its own, the caller being worker 0:
worker k reads realizations k, k + W, k + 2W, ... from the point's one set of
rows. The hypergeometric split, which dominates a realization, runs numpy's C
routine without the GIL and takes it back only briefly between calls. A split
too short to pay for a thread stays on the calling thread. Each realization
draws on its own generators, so the profile does not depend on the CPU count;
the statistics across realizations stay serial.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import count, product
from numbers import Integral
from typing import Sequence

import numpy as np

from ._bitstrings import all_bitstrings
from ._format10g import write_rows
from .circuits import (
    QaoaParams,
    _cost_phase,
    _even_amplitudes,
    qaoa_amplitudes,
    # unused here: perfbench's test_tracer_wraps_every_binding_and_restores_them
    # checks that the tracer wraps this binding
    simulate,
)
from .graph_problem import MAX_VERTICES, Graph, diagonal_costs
from .noise import NoiseConfig, density_populations, perturb_calibration
from .readout import _MAX_SPLIT_SHOTS, CalibrationTable, check_rows, read_records
from .reconstruction import DegenerateCalibrationError, reconstruct
from .statevector import populations

DEFAULT_BETA_RANGE = (0.1 * math.pi, 0.6 * math.pi, 0.025 * math.pi)
DEFAULT_GAMMA_RANGE = (0.1 * math.pi, 2.1 * math.pi, 0.05 * math.pi)
DEFAULT_SHOTS = 300_000
DEFAULT_REALIZATIONS = 4
DEFAULT_CHECKPOINT_EVERY = 1000
DEFAULT_SEED = 1

# The paper runs one layer. Every layer adds (points, p) angle stacks, about
# 8 KB a layer for each stream block of a sampled scan, so p = 10^6 would
# exhaust a desktop; this cap is far above any depth a desk-scale run needs.
MAX_LAYERS = 1000

# A depolarizing point holds its density matrix: 4^n complex entries, 16 MiB at n = 10.
MAX_DEPOLARIZING_VERTICES = 10

# A sampled point holds three (2^(n+1), 2^n) arrays: its rows, the index matrix
# that permutes them and its int64 occupations. At n = 13 they take 1, 0.5 and
# 1 GiB, 2.5 GiB before check_rows copies the rows; at n = 14, 4, 2 and 4 GiB.
MAX_SAMPLED_VERTICES = 12

# A record is split into checkpoint blocks (readout.split_totals), which takes
# fewer than 10^9 shots. This is over 3000 times DEFAULT_SHOTS.
MAX_SHOTS = _MAX_SPLIT_SHOTS - 1

# A record's photon total is one Poisson draw whose mean is at most shots x
# the brightest intensity; numpy's Poisson takes means up to about 9.2e18.
# This cap leaves a factor of about 9000 for --cal-sigma's jitter 1 + N(0,
# sigma), so a perturbed mean overflows only at a draw of 9000 / sigma
# standard deviations, 90 at noise.MAX_CALIBRATION_SIGMA.
MAX_RECORD_PHOTONS = 1e15

# Scans hold arrays per (beta, gamma) point, so the grid is capped before any is made.
MAX_GRID_POINTS = 10**6

# A landscape scan's populations hold points x realizations x 2^n floats (one
# realization in ideal mode), and a convergence profile's largest array
# checkpoints x max(realizations, 2) x 2^n; each is capped before it is made:
# 2^27 float64 entries are 1 GiB. optimize holds one block at a time.
MAX_SCAN_ENTRIES = 1 << 27

# A scan reads its grid in stream blocks of points whose batch arrays
# hold at most this many floats (64 KiB), below glibc's default 128 KiB mmap
# threshold. Freeing a block above it raises that threshold for the rest of the
# process. It also sets which points share a block's generators
# (_block_points: 256 points at n = 2, 16 at n = 4, 4 at n = 5, 1 from n = 6),
# so changing it re-baselines every sampled landscape with blocks of more than
# one point.
_CHUNK_ENTRIES = 1 << 13

# convergence_profile splits realizations on threads only where that pays. A
# split's hypergeometric calls (readout._fill_slots) run without the GIL for
# about 0.13 us a block and hold it for about 5 us a call between them, and
# starting a thread takes about 0.5 ms (2-vCPU Xeon VM, numpy 2.4). So a record
# must split into at least _THREAD_MIN_BLOCKS blocks, and a realization's
# records into at least _THREAD_MIN_SPLIT blocks in all; below either, two
# threads ran up to 1.5x slower than one.
_THREAD_MIN_BLOCKS = 1 << 8
_THREAD_MIN_SPLIT = 1 << 13

STRATEGIES = ("grid_then_refine", "simplex")

CSV_HEADER = "beta,gamma,realization,F_measured,F_ideal,abs_diff,norm,pops"

# Coordinate descent halves its steps until they drop below REFINE_TOLERANCE
# radians. A shot-noise objective can keep producing spurious "improvements"
# forever, so the descent also stops after REFINE_BUDGET evaluations past the
# grid, far above anything an ideal objective needs.
REFINE_TOLERANCE = 1e-3
REFINE_BUDGET = 10_000

# The fields of ScanConfig, in order, each with the type config_from_dict reads.
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


class ConfigError(ValueError):
    """A configuration, or a run of it, that breaks a bound or a setting; the CLI exits 2."""


def grid_axis(range_spec: Sequence[float]) -> np.ndarray:
    """Inclusive arithmetic grid start:stop:step, robust to float endpoint error."""
    start, step, num = _axis(range_spec)
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
            raise ConfigError(f"mode must be 'ideal' or 'sampled', got {self.mode!r}")
        for name in ("p", "shots", "realizations", "checkpoint_every", "master_seed"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        if not 1 <= self.p <= MAX_LAYERS:
            raise ConfigError(f"p must be at least 1 and is capped at {MAX_LAYERS}, got {self.p}")
        if self.graph.num_vertices > MAX_VERTICES:
            raise ConfigError(f"graph has {self.graph.num_vertices} vertices; scans are capped at {MAX_VERTICES}")
        if self.shots < 1 or self.realizations < 1 or self.checkpoint_every < 1:
            raise ConfigError("shots, realizations and checkpoint_every must be positive")
        if self.shots > MAX_SHOTS:
            raise ConfigError(f"{self.shots} shots; records are capped at {MAX_SHOTS}")
        object.__setattr__(self, "beta_range", tuple(float(v) for v in self.beta_range))
        object.__setattr__(self, "gamma_range", tuple(float(v) for v in self.gamma_range))
        num_points = _axis(self.beta_range)[2] * _axis(self.gamma_range)[2]
        if num_points > MAX_GRID_POINTS:
            raise ConfigError(f"grid has {num_points} (beta, gamma) points; scans are capped at {MAX_GRID_POINTS}")
        if self.mode == "sampled":
            n = self.graph.num_vertices
            if self.noise is not None and self.noise.is_stochastic and n > MAX_DEPOLARIZING_VERTICES:
                raise ConfigError(
                    f"graph has {n} vertices; depolarizing scans are capped at {MAX_DEPOLARIZING_VERTICES}"
                )
            if n > MAX_SAMPLED_VERTICES:
                raise ConfigError(f"graph has {n} vertices; sampled scans are capped at {MAX_SAMPLED_VERTICES}")
            if self.calibration is None:
                raise ConfigError("sampled mode requires a calibration table")
            if self.calibration.num_qubits != self.graph.num_vertices:
                raise ConfigError(
                    f"calibration covers {self.calibration.num_qubits} qubit(s) "
                    f"but the graph has {self.graph.num_vertices} vertices"
                )
            brightest = float(self.calibration.intensities.max())
            if self.shots * brightest > MAX_RECORD_PHOTONS:
                raise ConfigError(
                    f"{self.shots} shots at a brightest intensity of {brightest:g} expect {self.shots * brightest:g} "
                    f"photons a record; records are capped at {MAX_RECORD_PHOTONS:g}"
                )
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be nonnegative, got {self.master_seed}")

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


def ideal_cost(graph: Graph, params: QaoaParams) -> float:
    """Expected cost of the exact ansatz state."""
    return _exact_states(diagonal_costs(graph), [params.betas], [params.gammas])[1][0]


def measure_point(
    config: ScanConfig, params: QaoaParams, realization_index: int = 0, point_index: int = 0
) -> PointRecord:
    """Run the full measurement protocol at one parameter point, as ``optimize`` reads a trial off its grid.

    ``_read_block`` reads the point as a stream block of one on the children
    of (master_seed, point_index, realization_index), so it equals the cell at
    that index of a grid of one-point blocks (from n = 6 on, or a one-point
    grid) bit for bit; a cell of a larger block is drawn with the block's
    other points and equals it in distribution. Both indices must be
    nonnegative integers. The calibration is estimated from basis-state
    preparations unless ``exact_calibration`` is set, which inverts with the
    true, possibly perturbed, table to isolate shot noise. A table that
    ``reconstruct`` judges degenerate, an all-dark one among them, makes the
    point invalid; its lone table is then inverted again, and ``error`` holds
    the ``DegenerateCalibrationError`` that names the parity.
    """
    if config.mode != "sampled":
        raise ConfigError("measure_point requires mode 'sampled'")
    realizations = [_check_integer("realization_index", realization_index, 0)]
    point = _check_integer("point_index", point_index, 0)
    _check_cost_phase(config, params.gammas)
    diag = diagonal_costs(config.graph)
    (F_ideal,), pops, norm, F, read = _read_block(config, diag, [params.betas], [params.gammas], point, realizations)
    error = None if np.isfinite(F[0, 0]) else _degenerate_error(read)
    return PointRecord(pops[0, 0], float(norm[0, 0]), float(F[0, 0]), F_ideal, error is None, error)


def _check_scan_entries(config: ScanConfig, checkpoints: bool = False) -> None:
    """Raise ConfigError if ``run_scan``, or given ``checkpoints`` ``convergence_profile``, would exceed ``MAX_SCAN_ENTRIES``.

    A scan holds points x realizations x 2^n populations, one realization in
    ideal mode. A convergence profile holds realizations x checkpoints x 2^n
    populations, and ``readout.split_totals`` 2^(n+1) x checkpoints block
    totals, so its largest array holds checkpoints x max(realizations, 2) x
    2^n entries. Its W workers (``_split_workers``, at most one per CPU and
    per realization) share the point's rows, 2 x 4^n floats, and each holds
    one realization's block arrays at a time, so its live set is about
    (realizations + 2 W) x checkpoints x 2^n + 2 x 4^n floats besides each
    split's temporaries; ``_realization_stats`` then adds a few arrays of one
    realization's size, however many realizations there are.
    """
    n = config.graph.num_vertices
    if checkpoints:
        count, copies = config.shots // config.checkpoint_every, max(config.realizations, 2)
        what, unit = "convergence profile", "entries"
    else:
        count = _axis(config.beta_range)[2] * _axis(config.gamma_range)[2]
        copies = config.realizations if config.mode == "sampled" else 1
        what, unit = "scan", "populations"
    entries = count * copies << n
    if entries > MAX_SCAN_ENTRIES:
        raise ConfigError(f"{what} would hold {count} x {copies} x 2^{n} = {entries} {unit}; capped at {MAX_SCAN_ENTRIES}")


def _check_cost_phase(config: ScanConfig, gammas=None) -> None:
    """Raise ConfigError if a cost phase gamma x C at ``gammas``, by default the gamma grid, could overflow.

    Every phase is bounded by ``_phase_bound``, which must be finite; an
    overflowed phase would turn every amplitude NaN.
    """
    gamma = float(np.max(np.abs(config.gammas() if gammas is None else gammas)))
    if not math.isfinite(_phase_bound(config, gamma)):
        raise ConfigError(
            f"cost phase overflows: |gamma| {gamma:g} x (1 + |overrotation| {_overrotation(config):g}) "
            f"x total edge weight {config.graph.total_weight():g} is not finite"
        )


def _phase_bound(config: ScanConfig, gamma: float) -> float:
    """|gamma| x (1 + |overrotation|) x the total edge weight: no cost phase at ``gamma`` is larger; inf on overflow."""
    # Python floats overflow to inf without a numpy warning
    return abs(float(gamma)) * (1.0 + _overrotation(config)) * config.graph.total_weight()


def _overrotation(config: ScanConfig) -> float:
    """|overrotation| a run applies: none in ideal mode, which ignores every noise channel."""
    return abs(config.noise.overrotation_frac) if config.mode == "sampled" and config.noise is not None else 0.0


def run_scan(config: ScanConfig) -> LandscapeGrid:
    """Evaluate the full (beta, gamma) grid: every realization of every stream block ``_grid_blocks`` reads.

    Ideal mode ignores shot and noise settings and stores the exact
    populations, their cost as ``F_measured`` and their sum as ``norm``.
    """
    _check_scan_entries(config)
    _check_cost_phase(config)
    betas, gammas = config.betas(), config.gammas()
    realizations = 1 if config.mode == "ideal" else config.realizations
    diag = diagonal_costs(config.graph)
    # F_ideal, pops, norm and F_measured, each indexed [beta, gamma(, realization(, basis state))]
    arrays = [np.empty((betas.size, gammas.size) + rest) for rest in ((), (realizations, diag.size), (realizations,))]
    arrays.append(np.empty_like(arrays[-1]))
    for points, *block in _grid_blocks(config, diag, realizations):
        for array, values in zip(arrays, block):  # grid index bi * gammas.size + gi; the last read has no array
            array.reshape(-1, *array.shape[2:])[points] = values
        del block, values  # the next block is made with none of this one's arrays alive
    F_ideal, pops, norm, F_measured = arrays
    return LandscapeGrid(betas, gammas, F_measured, norm, pops, F_ideal, float(diag.max() - diag.min()))


def _grid_blocks(config: ScanConfig, diag: np.ndarray, realizations: int):
    """Read the grid in stream blocks of ``_block_points`` points, one-point blocks a gamma column at a time.

    Each block yields its grid-index slice and what ``_read_block`` returns
    for realizations 0 to ``realizations - 1``. Its exact states share one
    cost phase on the half diagonal, made once per block or, for one-point
    blocks, per gamma.
    """
    betas, gammas = config.betas(), config.gammas()
    half = diag[: diag.size >> 1]  # diagonal_costs equals its reverse
    step, total = _block_points(diag.size), betas.size * gammas.size
    # one-point blocks in column order, so consecutive blocks share a gamma and its phase
    starts = range(0, total, step) if step > 1 else np.arange(total).reshape(betas.size, -1).T.ravel().tolist()
    phase_gi = None
    for start in starts:
        points = slice(start, min(start + step, total))
        bi, gi = np.divmod(np.arange(points.start, points.stop), gammas.size)
        if not np.array_equal(gi, phase_gi):
            phase, phase_gi = _cost_phase(half, gammas[gi]), gi
        # (points, p) angle stacks: every layer shares its point's (beta, gamma)
        point_betas, point_gammas = betas[bi, None].repeat(config.p, 1), gammas[gi, None].repeat(config.p, 1)
        yield points, *_read_block(config, diag, point_betas, point_gammas, start, range(realizations), phase)


def _read_block(config: ScanConfig, diag: np.ndarray, betas, gammas, start: int, realizations, phase=None,
                checkpoints=False, workers=1):
    """F_ideal, pops ``(points, R, 2^n)``, norm and F_measured ``(points, R)`` of the block at ``(points, p)`` angles.

    ``start`` is the block's first point index and ``realizations`` the R
    realization indices read; last comes the ``_read_point`` pair of the last
    (ideal: None). The exact states come from one ``_exact_states`` call
    (``phase`` as there); ideal mode returns them as its one realization.
    Sampled mode builds the block's rows once, and each realization draws and
    inverts them at once: a degenerate table turns its row NaN. ``checkpoints``
    also splits the records, adds a checkpoint axis after R and leaves
    F_measured None. W = ``workers`` workers (``_map_threads``) share the
    rows: worker k reads the k-th, (k + W)-th, ... realization, one at a time.
    """
    ideal, F_ideal = _exact_states(diag, betas, gammas, phase)
    if config.mode == "ideal":
        return F_ideal, ideal[:, None], ideal.sum(-1)[:, None], np.array(F_ideal)[:, None], None
    # the results before the rows: made after the rows' large temporaries are freed, they cost peak RSS
    shape = (len(F_ideal), len(realizations)) + ((config.shots // config.checkpoint_every,) if checkpoints else ())
    pops, norm = np.empty(shape + (diag.size,)), np.empty(shape)
    rows = _point_rows(config, diag, betas, gammas, ideal)

    def work(worker: int):
        for k in range(worker, len(realizations), workers):
            read = estimate = None  # the next read starts with none of the last one's arrays alive
            read = _read_point(config, rows, realizations[k], start, checkpoints)
            estimate = reconstruct(*read)
            pops[:, k], norm[:, k] = estimate.pops, estimate.norm
        return read

    read = _map_threads(work, range(workers))[(len(realizations) - 1) % workers]
    # row by row, so a point's cost has the same bits in a block of any size
    F = None if checkpoints else np.array([[np.dot(row, diag) for row in point] for point in pops])
    return F_ideal, pops, norm, F, read


def _degenerate_error(read) -> DegenerateCalibrationError | None:
    """The error naming the first degenerate parity of a ``_read_point`` pair's first table, inverted alone."""
    try:
        reconstruct(read[0][0], read[1][0])
    except DegenerateCalibrationError as exc:
        return exc


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

    Both strategies start from the first minimum over the valid values of the
    coarse grid (all layers sharing each grid (beta, gamma)), so exactly equal
    values keep the lexicographically smallest pair; values tied only
    mathematically usually differ in the last ulp. The grid is read by
    ``run_scan``'s block loop with one realization: the first trace rows equal
    a one-realization landscape's ``F_measured`` in grid order, bit for bit.
    ``grid_then_refine`` then runs coordinate descent over all 2p coordinates,
    halving the steps until they drop below ``REFINE_TOLERANCE`` radians;
    ``simplex`` hands the best grid point to Nelder-Mead, whose value tolerance
    is 1e-12 of the cost's range (1e-12 for a constant cost). Every trial, in
    either mode, is read by ``_read_block`` as a block of one with
    realization 0, at point indices from the grid size upward, so trial k
    equals ``measure_point`` at index grid size + k. An evaluation with a degenerate calibration is recorded as
    NaN and counts as +inf; with no valid grid point, the first block's first
    table is inverted alone, which raises ``DegenerateCalibrationError``. A
    trial whose cost phase could overflow (``_phase_bound``) is skipped: it is
    not evaluated or recorded, and it counts as +inf.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {', '.join(STRATEGIES)}, got {strategy!r}")
    _check_cost_phase(config)
    p = config.p
    diag = diagonal_costs(config.graph)
    values = np.empty(_axis(config.beta_range)[2] * _axis(config.gamma_range)[2])
    for points, _, _, _, F, _ in _grid_blocks(config, diag, 1):
        values[points] = F[:, 0]
    if np.isnan(values).all():
        # the first block's draw again, its first table inverted alone names the parity
        raise _degenerate_error(next(_grid_blocks(config, diag, 1))[-1])
    grid = product(config.betas().tolist(), config.gammas().tolist())
    trace = [((beta,) * p, (gamma,) * p, value) for (beta, gamma), value in zip(grid, values.tolist())]
    eval_index = count(len(trace))

    def evaluate(betas: tuple[float, ...], gammas: tuple[float, ...]) -> float:
        if not math.isfinite(_phase_bound(config, max(map(abs, gammas)))):
            return math.inf
        params = QaoaParams(betas, gammas)
        # a block of one at the next point index
        _, _, _, F, _ = _read_block(config, diag, [params.betas], [params.gammas], next(eval_index), [0])
        value = float(F[0, 0])
        trace.append((betas, gammas, value))
        return math.inf if math.isnan(value) else value

    betas, gammas, value = trace[int(np.nanargmin(values))]
    x = np.array(betas + gammas)

    if strategy == "simplex":
        from scipy.optimize import minimize  # imported here so other commands never load scipy

        def objective(vec: np.ndarray) -> float:
            return evaluate(tuple(vec[:p]), tuple(vec[p:]))

        fatol = 1e-12 * (float(diag.max() - diag.min()) or 1.0)
        minimize(objective, x, method="Nelder-Mead", options={"xatol": 1e-7, "fatol": fatol, "maxfev": 20_000})
        best = min((entry for entry in trace if not math.isnan(entry[2])), key=lambda entry: (entry[2], *entry[:2]))
        return OptimizeResult(QaoaParams(best[0], best[1]), best[2], tuple(trace))

    base_steps = np.array([config.beta_range[2]] * p + [config.gamma_range[2]] * p)
    scale = 1.0
    while (base_steps * scale).max() >= REFINE_TOLERANCE:
        while len(trace) - values.size < REFINE_BUDGET:
            improved = False
            for coord in range(2 * p):
                step = base_steps[coord] * scale
                trials = [(*x[:coord], x[coord] + delta, *x[coord + 1 :]) for delta in (-step, step)]
                trial_value, trial = min((evaluate(t[:p], t[p:]), t) for t in trials)  # the smaller trial on a tie
                if trial_value < value:
                    value, x, improved = trial_value, np.array(trial), True
            if not improved:
                break
        scale *= 0.5
    return OptimizeResult(QaoaParams(tuple(x[:p]), tuple(x[p:])), value, tuple(trace))


@dataclass(frozen=True, eq=False)
class ConvergenceProfile:
    """Population and norm estimates at every checkpoint, aggregated over realizations.

    ``checkpoints_invalid`` counts the (realization, checkpoint) estimates
    whose table ``reconstruct`` judged degenerate, every checkpoint of an
    all-dark realization among them.
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

    One ``_read_block`` call reads the point as :func:`measure_point` does, a
    block of one at ``point_index``, and splits its records into checkpoint
    blocks on a third substream (``readout.split_totals``): when ``shots`` is
    a multiple of ``checkpoint_every`` the final checkpoint is that point's
    estimate. Its W workers (``_split_workers``: one per available CPU, 1 for
    a short split) share the point's rows, and the profile is the same bit for
    bit whatever W. A checkpoint with a degenerate table, every one of an
    all-dark realization, is NaN. Standard deviations are sample standard
    deviations across realizations (NaN when fewer than two are valid).
    """
    if config.mode != "sampled":
        raise ConfigError("convergence requires mode 'sampled'")
    if config.shots < config.checkpoint_every:
        raise ConfigError(
            f"convergence needs at least one full checkpoint block: {config.shots} shots "
            f"< checkpoint every {config.checkpoint_every}"
        )
    point_index = _check_integer("point_index", point_index, 0)
    _check_scan_entries(config, checkpoints=True)
    _check_cost_phase(config, params.gammas)
    _, (pops,), (norm,), _, _ = _read_block(config, diagonal_costs(config.graph), [params.betas], [params.gammas],
                                            point_index, range(config.realizations), None, True, _split_workers(config))
    (mean_pops, std_pops), (mean_norm, std_norm) = _realization_stats(pops, 0), _realization_stats(norm, 0)
    return ConvergenceProfile(
        checkpoint_shots=config.checkpoint_every * np.arange(1, len(mean_norm) + 1),
        mean_pops=mean_pops,
        std_pops=std_pops,
        mean_norm=mean_norm,
        std_norm=std_norm,
        realizations=config.realizations,
        num_qubits=config.graph.num_vertices,
        checkpoints_invalid=int(np.count_nonzero(~np.isfinite(norm))),
    )


def write_landscape_csv(grid: LandscapeGrid, handle) -> None:
    """CSV with one row per (point, realization); 10 significant digits, pops joined with '|'.

    Where every pops row reads the same backwards, bit for bit (every ideal
    grid: an ansatz state is even under flipping all qubits), only the first
    half of each row is formatted, and the writer's column map mirrors it.
    """
    shape = grid.F_measured.shape
    beta, gamma, realization = np.meshgrid(grid.betas, grid.gammas, np.arange(shape[2]), indexing="ij")
    F_ideal = np.broadcast_to(grid.F_ideal[:, :, None], shape)
    abs_diff = np.abs(grid.F_measured - F_ideal)
    columns = [beta, gamma, realization, grid.F_measured, F_ideal, abs_diff, grid.norm]
    pops = np.asarray(grid.pops, dtype=float).reshape(-1, grid.pops.shape[-1])
    size = pops.shape[1]
    seps = "," * len(columns) + "|" * (size - 1) + "\n"
    mirror = None
    if np.array_equal(pops.view(np.int64), pops[:, ::-1].view(np.int64)):
        pops = pops[:, : size // 2]
        half = np.arange(len(columns) + size // 2)
        mirror = np.concatenate((half, half[: len(columns) - 1 : -1]))
    table = np.column_stack([np.ravel(column) for column in columns] + [pops])
    handle.write(CSV_HEADER.encode("ascii") + b"\n")
    write_rows(handle, table, seps, mirror)


def write_convergence_csv(profile: ConvergenceProfile, handle) -> None:
    labels = all_bitstrings(profile.num_qubits)
    header = ["shots", *(f"p{label}" for label in labels), "norm", *(f"std_p{label}" for label in labels), "std_norm"]
    handle.write(",".join(header).encode("ascii") + b"\n")
    columns = [profile.checkpoint_shots, profile.mean_pops, profile.mean_norm, profile.std_pops, profile.std_norm]
    table = np.column_stack(columns)
    write_rows(handle, table, "," * (table.shape[1] - 1) + "\n")


def write_trace_csv(result: OptimizeResult, handle) -> None:
    """CSV with one row per evaluation in call order: index, the 2p angles and F, 10 significant digits."""
    p = result.best_params.p
    header = ["index", *(f"beta{k}" for k in range(p)), *(f"gamma{k}" for k in range(p)), "F"]
    handle.write(",".join(header).encode("ascii") + b"\n")
    rows = [(i, *betas, *gammas, value) for i, (betas, gammas, value) in enumerate(result.trace)]
    table = np.array(rows, dtype=float).reshape(len(rows), 2 * p + 2)
    write_rows(handle, table, "," * (2 * p + 1) + "\n")


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
    data = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    data["graph"] = {"num_vertices": config.graph.num_vertices, "edges": [list(e) for e in config.graph.edges()]}
    data["beta_range"], data["gamma_range"] = list(config.beta_range), list(config.gamma_range)
    if config.noise is not None:
        data["noise"] = config.noise.to_dict()
    if config.calibration is not None:
        data["calibration"] = config.calibration.intensities.tolist()
    return data


def config_from_dict(data: dict) -> ScanConfig:
    """Inverse of config_to_dict; a missing or mistyped field raises ConfigError naming it."""
    _check_fields(data, _CONFIG_FIELDS, "config.")
    _check_fields(data["graph"], {"num_vertices": int, "edges": list}, "config.graph.")
    fields = {name: data[name] for name in _CONFIG_FIELDS}  # ScanConfig makes the ranges tuples of floats
    fields["graph"] = Graph.from_edges(data["graph"]["num_vertices"], data["graph"]["edges"])
    if data["noise"] is not None:
        _check_fields(data["noise"], dict.fromkeys(NoiseConfig().to_dict(), (int, float)), "config.noise.")
        fields["noise"] = NoiseConfig.from_dict(data["noise"])
    if data["calibration"] is not None:
        fields["calibration"] = CalibrationTable(np.array(data["calibration"], dtype=float))
    return ScanConfig(**fields)


def _axis(range_spec: Sequence[float]) -> tuple[float, float, int]:
    """Start, step and point count of ``grid_axis(range_spec)``, counted without making the axis.

    A range that is not finite, not increasing by a positive step, or of more
    than ``MAX_GRID_POINTS`` points raises ConfigError naming it.
    """
    start, stop, step = (float(v) for v in range_spec)
    text = f"grid range {start!r}:{stop!r}:{step!r}"
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"{text} must be finite")
    if step <= 0:
        raise ConfigError(f"{text}: step must be positive")
    if stop < start:
        raise ConfigError(f"{text}: stop must not precede start")
    span = (stop - start) / step + 1e-9  # inf when the count overflows a float
    if span >= MAX_GRID_POINTS:
        raise ConfigError(f"{text} has more than {MAX_GRID_POINTS} points")
    return start, step, int(math.floor(span)) + 1


def _check_integer(name: str, value, minimum=None) -> int:
    """``value`` as an int; bool, non-integral values and any below ``minimum`` raise ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _check_fields(section: dict, fields: dict, prefix: str) -> None:
    """Raise ConfigError naming the first field of ``section`` that is missing or not of its type."""
    for name, kind in fields.items():
        if name not in section:
            raise ConfigError(f"missing field {prefix + name!r}")
        value = section[name]
        # bool is an int subclass, so it passes only where bool is asked for
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ConfigError(f"field {prefix + name!r} has the wrong type {type(value).__name__}")


def _exact_states(diag: np.ndarray, betas, gammas, phase=None) -> tuple[np.ndarray, list[float]]:
    """Exact populations ``(points, 2^n)`` at ``(points, p)`` angle stacks, and each row's cost.

    ``phase``, when given, is the cost phase on the half diagonal that every
    layer shares (``circuits._cost_phase`` of each point's gamma, or one
    ``(1, 2^(n-1))`` row for all points); ``_even_amplitudes`` then reuses it
    with the same bits as without it. Each cost is its row's ``np.dot``, so a
    point scores the same bits in any stack.
    """
    if phase is None:
        amps = qaoa_amplitudes(diag, betas, gammas)
    else:
        amps = _even_amplitudes(diag.size.bit_length() - 1, [phase] * len(betas[0]), betas)
    pops = populations(amps)
    return pops, [float(np.dot(row, diag)) for row in pops]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_workers(config: ScanConfig) -> int:
    """Workers ``convergence_profile`` shares its realizations among: one per available CPU, at most all.

    Each worker reads, splits and inverts its realizations one at a time. A
    split too short to pay for a thread (``_THREAD_MIN_BLOCKS``,
    ``_THREAD_MIN_SPLIT``) gets one worker, the calling thread.
    """
    blocks = config.shots // config.checkpoint_every
    if blocks < _THREAD_MIN_BLOCKS or blocks << (config.graph.num_vertices + 1) < _THREAD_MIN_SPLIT:
        return 1
    return min(_available_cpus(), config.realizations)


def _map_threads(function, items: Sequence) -> list:
    """``[function(item) for item in items]``, every item but the first on a thread of its own.

    The calling thread takes the first item, so a single item starts no
    thread. Every thread is joined before the first exception, in item order,
    is raised here.
    """
    results, errors = [None] * len(items), [None] * len(items)

    def run(k: int) -> None:
        try:
            results[k] = function(items[k])
        except BaseException as exc:  # raised in the caller once every thread is joined
            errors[k] = exc

    threads = []
    try:
        for k in range(1, len(items)):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _realization_stats(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 standard deviation over the finite (valid) entries along ``axis``.

    The mean is NaN where no entry is valid and the deviation NaN where fewer
    than two are. Each sum adds one realization at a time, in index order.
    """
    count = total = squares = 0
    for run in np.moveaxis(values, axis, 0):  # in place after the first: the same additions, in the same order
        valid = np.isfinite(run)
        count += valid
        total += np.where(valid, run, 0.0)
    mean = np.full(count.shape, math.nan)
    np.divide(total, count, out=mean, where=count > 0)
    del total, valid  # so one realization's temporaries at a time are alive
    for run in np.moveaxis(values, axis, 0):
        squares += np.square(np.where(np.isfinite(run), run - mean, 0.0))
    std = np.full(count.shape, math.nan)
    np.divide(squares, count - 1, out=std, where=count > 1)
    return mean, np.sqrt(std)


def _block_points(size: int) -> int:
    """Points per stream block of a scan, at least one: a function of n alone, never of the realizations.

    The block's record rows and occupations, (points, 2 size, size), and
    complex state stack, (points, size), each fit ``_CHUNK_ENTRIES`` floats. A
    depolarizing block also holds a (points, size^2) complex rho stack: 2
    size^2 floats a point, as many as its rows, so it fits too. Realizations
    are reconstructed one at a time, (2, points, size).
    """
    return max(1, _CHUNK_ENTRIES // (2 * size * size))


def _point_rows(config: ScanConfig, diag: np.ndarray, betas, gammas, ideal_pops=None) -> np.ndarray:
    """Checked record rows ``(points, 2^(n+1), 2^n)`` of each point of ``(points, p)`` angle stacks.

    A point's 2^n basis preparations come first, then its 2^n flip variants
    of the populations it reads, every noise channel included: under a depolarizing channel the exact channel-averaged
    ones from one ``density_populations`` call, else ``ideal_pops`` when given
    and neither overrotation nor phase offset is set, else one stacked
    ``qaoa_amplitudes`` call.
    """
    noise = config.noise
    if noise is not None and noise.is_stochastic:
        reads = density_populations(config.graph, betas, gammas, noise)
    elif ideal_pops is not None and (noise is None or not (noise.overrotation_frac or noise.phase_offset)):
        reads = ideal_pops
    else:
        reads = populations(qaoa_amplitudes(diag, betas, gammas, noise, len(config.graph.edges())))
    size = reads.shape[-1]
    # An X on qubit q flips bit n-1-q of the basis index, so flip pattern x
    # reads out reads[idx ^ x] and basis preparation s is the delta at s.
    idx = np.arange(size)
    rows = np.empty(reads.shape[:-1] + (2 * size, size))
    rows[..., :size, :] = np.eye(size)
    rows[..., size:, :] = reads[..., idx ^ idx[:, None]]
    # An X or Y error after an appended X undoes it: on each qubit whose bit is
    # set in the pattern (k mod 2^n), record k mixes (1 - r) of its row with
    # r = 2p/3 of its row read at idx ^ bit, which is the row of record k ^ bit.
    # At p = 0 the mixing is an identity, skipped because its numpy calls cost
    # a noiseless K2 point about 7%.
    undo = 2.0 * noise.depolarizing_prob / 3.0 if noise is not None else 0.0
    if undo:
        for bit in (1 << np.arange(size.bit_length() - 1)).tolist():
            # axis 1 is this bit of the record index; blocks never straddle two points
            pairs = rows.reshape(-1, 2, bit, size)
            pairs[:, 1] = (1.0 - undo) * pairs[:, 1] + undo * pairs[:, 0]
    return check_rows(rows, size)


def _read_point(config: ScanConfig, rows: np.ndarray, realization_index: int, point_index: int, checkpoints=False):
    """The calibration rows and flip means one realization of a stream block inverts.

    ``rows`` are a block's ``_point_rows``, ``(points, 2^(n+1), 2^n)``, whose
    first point is ``point_index`` (``_read_block``); each result is
    ``(points, 2^n)``, or given ``checkpoints`` ``(points, checkpoints, 2^n)``,
    one row per checkpoint. Child k of the block's substream is
    SeedSequence(master_seed, spawn_key=(point_index, realization_index, k)),
    which is what ``spawn`` makes. Child 0 perturbs the tables, one normal
    draw of shape ``rows.shape[:-2] + (2^n,)``; unperturbed, the one table is
    shared by the block. The records are drawn on child 1 and, given
    ``checkpoints``, split on child 2. The calibration row is the true,
    possibly perturbed, intensities under ``exact_calibration`` and the basis
    preparations' means otherwise.
    """

    def child(k: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(config.master_seed, spawn_key=(point_index, realization_index, k))

    size = rows.shape[-1]
    intensities = config.calibration.intensities
    if config.noise is not None and config.noise.calibration_sigma > 0.0:
        shape = rows.shape[:-2] + (size,)
        intensities = perturb_calibration(np.broadcast_to(intensities, shape), config.noise.calibration_sigma, child(0))
    split = child(2) if checkpoints else None
    means, blocks = read_records(intensities, rows, config.shots, child(1), split, config.checkpoint_every)
    if checkpoints:
        means, intensities = blocks.swapaxes(-1, -2), intensities[..., None, :]
    flips = means[..., size:]
    return (np.broadcast_to(intensities, flips.shape) if config.exact_calibration else means[..., :size]), flips
