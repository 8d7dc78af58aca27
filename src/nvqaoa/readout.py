"""Fluorescence-style non-projective readout.

A single shot collapses the register onto a basis state s (with probability
pops[s]) and reports a photon count drawn from Poisson(I_s), where I_s is the
calibrated mean intensity of that state. Individual shots therefore do not
identify s; all information sits in the running mean photon count, which
converges to sum_s pops[s] * I_s.

Sampling is deterministic given (calibration, populations, shot count,
checkpoint cadence, retain flag, seed): the same arguments reproduce the same
record bit for bit. The aggregate path and the retained per-shot path consume
the seed differently but target the identical distribution, because a sum of
independent Poisson counts over a multinomial occupation is itself Poisson.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._bitstrings import all_bitstrings, bits_to_index, index_to_bits
from .circuits import Circuit, simulate
from .noise import NoiseConfig, TrajectorySampler, simulate_noisy
from .statevector import populations as state_populations

#: Example intensity table used throughout the tests: brighter states first.
DEFAULT_INTENSITIES = (5.0, 3.0, 2.0, 1.0)

_POPS_TOLERANCE = 1e-9

#: Walsh coefficients |c_t| at or below this cannot be divided by.
DEGENERACY_TOLERANCE = 1e-9


class DegenerateCalibrationError(ValueError):
    """Raised when a Walsh coefficient of the calibration is too small to divide by."""

    def __init__(self, t_label: str, value: float, tolerance: float):
        self.t_label = t_label
        self.value = float(value)
        self.tolerance = float(tolerance)
        super().__init__(
            f"calibration is degenerate along parity t={t_label}: "
            f"|c_t| = {abs(value):.3e} <= {tolerance:.3e}"
        )


@dataclass(frozen=True, eq=False)
class CalibrationTable:
    """Mean photon intensity of every basis state, indexed like the state vector."""

    intensities: np.ndarray

    def __post_init__(self):
        arr = np.array(self.intensities, dtype=float)
        if arr.ndim != 1 or arr.size < 2 or arr.size & (arr.size - 1):
            raise ValueError(f"intensity table must have a power-of-two length >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("intensities must be finite and nonnegative")
        if np.all(arr == arr[0]):
            # an all-equal table has c_t = 0 exactly for every parity t != 0
            n = arr.size.bit_length() - 1
            raise DegenerateCalibrationError(index_to_bits(1, n), 0.0, DEGENERACY_TOLERANCE)
        arr.setflags(write=False)
        object.__setattr__(self, "intensities", arr)

    @property
    def num_qubits(self) -> int:
        return int(self.intensities.size).bit_length() - 1


def default_calibration() -> CalibrationTable:
    return CalibrationTable(np.array(DEFAULT_INTENSITIES))


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Outcome of a measurement run.

    ``checkpoints`` is a 1-D float array of the running mean after each full
    checkpoint block, so entry k covers (k + 1) * checkpoint_every shots and a
    partial tail block adds no entry. ``counts`` holds the per-shot photon
    counts only when explicitly retained (they are large and usually not
    needed).
    """

    num_shots: int
    running_mean: float
    checkpoints: np.ndarray
    counts: np.ndarray | None = None


def observable_expectation(calibration: CalibrationTable, pops: np.ndarray) -> float:
    """Exact mean photon count sum_s pops[s] * I_s for a population vector."""
    p = _validate_pops(pops, calibration.intensities.size, normalize=False)
    return float(np.dot(calibration.intensities, p))


def sample_shots(
    calibration: CalibrationTable,
    pops: np.ndarray,
    num_shots: int,
    seed,
    checkpoint_every: int = 1000,
    retain_counts: bool = False,
) -> ShotRecord:
    """Simulate ``num_shots`` readout shots against fixed populations.

    By default shots are aggregated block-by-block (fast, no per-shot storage);
    ``retain_counts=True`` draws every shot individually and keeps the counts.
    """
    _check_shot_args(num_shots, checkpoint_every)
    p = _validate_pops(pops, calibration.intensities.size, normalize=True)
    rng = np.random.default_rng(_seed_sequence(seed))
    intensities = calibration.intensities
    if retain_counts:
        counts = _draw_shot_counts(rng, intensities, p, num_shots)
        return _record_from_counts(counts, checkpoint_every)
    num_full, remainder = divmod(num_shots, checkpoint_every)
    block_totals = np.zeros(num_full, dtype=np.int64)
    if num_full:
        occupation = rng.multinomial(checkpoint_every, p, size=num_full)
        block_totals = rng.poisson(occupation * intensities).sum(axis=1)
    tail = 0
    if remainder:
        occupation = rng.multinomial(remainder, p)
        tail = int(rng.poisson(occupation * intensities).sum())
    return _assemble_record(block_totals, tail, num_shots, checkpoint_every)


def measure_circuit(
    circuit: Circuit,
    calibration: CalibrationTable,
    num_shots: int,
    seed,
    checkpoint_every: int = 1000,
    noise: NoiseConfig | None = None,
    retain_counts: bool = False,
) -> ShotRecord:
    """Simulate the circuit and read it out for ``num_shots`` shots.

    Without stochastic noise the final populations are fixed, so this is
    ``sample_shots`` on the exact (or deterministically perturbed) state. With
    a stochastic channel active, a fresh trajectory is drawn for every
    checkpoint block and its shots are drawn from that trajectory's
    populations, mimicking slow drift between logging intervals. Trajectories
    come from one ``TrajectorySampler`` per call: a block whose trajectory
    draws no Pauli error reuses the cached error-free state and its validated
    populations, and any other block replays the circuit from its first
    error only; the states equal ``simulate_noisy``'s bit for bit. Substreams
    are spawned per block from ``seed``, so results are independent of any
    outer scheduling.
    """
    if circuit.num_qubits != calibration.num_qubits:
        raise ValueError(
            f"circuit acts on {circuit.num_qubits} qubit(s) but calibration covers {calibration.num_qubits}"
        )
    _check_shot_args(num_shots, checkpoint_every)
    root = _seed_sequence(seed)
    if noise is None or not noise.is_stochastic:
        if noise is None or noise.is_trivial:
            state = simulate(circuit)
        else:
            state = simulate_noisy(circuit, noise)
        return sample_shots(
            calibration, state_populations(state), num_shots, root, checkpoint_every, retain_counts
        )

    num_full, remainder = divmod(num_shots, checkpoint_every)
    sizes = [checkpoint_every] * num_full + ([remainder] if remainder else [])
    children = root.spawn(2 * len(sizes))
    intensities = calibration.intensities
    block_totals = np.zeros(num_full, dtype=np.int64)
    tail = 0
    retained: list[np.ndarray] = []
    trajectories = TrajectorySampler(
        circuit, noise, lambda state: _validate_pops(state_populations(state), intensities.size, normalize=True)
    )
    for k, size in enumerate(sizes):
        p = trajectories.sample(np.random.default_rng(children[2 * k]))
        rng = np.random.default_rng(children[2 * k + 1])
        if retain_counts:
            counts = _draw_shot_counts(rng, intensities, p, size)
            retained.append(counts)
            total = int(counts.sum())
        else:
            occupation = rng.multinomial(size, p)
            total = int(rng.poisson(occupation * intensities).sum())
        if k < num_full:
            block_totals[k] = total
        else:
            tail = total
    counts = np.concatenate(retained) if retain_counts else None
    return _assemble_record(block_totals, tail, num_shots, checkpoint_every, counts)


def parse_basis_values(text: str, value_name: str = "intensity", width: int | None = None) -> np.ndarray:
    """Parse ``<bitstring> <value>`` lines covering every basis state exactly once.

    Returns the values in basis-index order. The first label sets the register
    width unless ``width`` is given. Errors name the offending line.
    """
    entries: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected '<bitstring> <{value_name}>', got {line!r}")
        label, value = fields
        try:
            index = bits_to_index(label)
        except ValueError:
            raise ValueError(f"line {lineno}: bad basis label {label!r}") from None
        if width is None:
            width = len(label)
        elif len(label) != width:
            raise ValueError(f"line {lineno}: label {label!r} has width {len(label)}, expected {width}")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: bad {value_name} {value!r}") from None
        if index in entries:
            raise ValueError(f"line {lineno}: duplicate entry for state {label!r}")
        entries[index] = number
    if width is None:
        raise ValueError("file has no entries")
    expected = 1 << width
    if len(entries) != expected:
        missing = sorted(set(range(expected)) - set(entries))
        raise ValueError(f"file covers {len(entries)} of {expected} states (missing index {missing[0]})")
    return np.array([entries[k] for k in range(expected)])


def parse_calibration(text: str) -> CalibrationTable:
    """Parse ``<bitstring> <intensity>`` lines covering every basis state exactly once."""
    intensities = parse_basis_values(text)
    try:
        return CalibrationTable(intensities)
    except ValueError as exc:
        raise ValueError(f"invalid calibration: {exc}") from None


def format_calibration(calibration: CalibrationTable) -> str:
    labels = all_bitstrings(calibration.num_qubits)
    lines = [f"{label} {format(value, '.17g')}" for label, value in zip(labels, calibration.intensities)]
    return "\n".join(lines) + "\n"


def load_calibration(path) -> CalibrationTable:
    return parse_calibration(Path(path).read_text())


def save_calibration(path, calibration: CalibrationTable) -> None:
    Path(path).write_text(format_calibration(calibration))


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _check_shot_args(num_shots: int, checkpoint_every: int) -> None:
    if num_shots < 1:
        raise ValueError("num_shots must be at least 1")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")


def _validate_pops(pops, size: int, normalize: bool) -> np.ndarray:
    p = np.asarray(pops, dtype=float)
    if p.shape != (size,):
        raise ValueError(f"populations must have shape ({size},), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("populations must be finite")
    if np.any(p < -_POPS_TOLERANCE):
        raise ValueError(f"populations must be nonnegative within {_POPS_TOLERANCE}")
    total = float(p.sum())
    if abs(total - 1.0) > _POPS_TOLERANCE:
        raise ValueError(f"populations must sum to 1 within {_POPS_TOLERANCE}, got {total}")
    if not normalize:
        return p
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def _draw_shot_counts(rng: np.random.Generator, intensities: np.ndarray, p: np.ndarray, size: int) -> np.ndarray:
    """Per-shot outcomes (inverse-CDF on the populations) followed by Poisson counts."""
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    outcomes = np.searchsorted(cdf, rng.random(size), side="right")
    return rng.poisson(intensities[outcomes])


def _record_from_counts(counts: np.ndarray, checkpoint_every: int) -> ShotRecord:
    num_full = counts.size // checkpoint_every
    block_totals = counts[: num_full * checkpoint_every].reshape(num_full, checkpoint_every).sum(axis=1)
    tail = int(counts[num_full * checkpoint_every :].sum())
    return _assemble_record(block_totals, tail, counts.size, checkpoint_every, counts)


def _assemble_record(
    block_totals: np.ndarray, tail: int, num_shots: int, checkpoint_every: int, counts: np.ndarray | None = None
) -> ShotRecord:
    cumulative = np.cumsum(block_totals)
    checkpoints = cumulative / (checkpoint_every * np.arange(1, block_totals.size + 1))
    grand_total = (int(cumulative[-1]) if block_totals.size else 0) + tail
    return ShotRecord(num_shots, grand_total / num_shots, checkpoints, counts)
