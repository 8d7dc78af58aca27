"""Fluorescence-style non-projective readout.

A single shot collapses the register onto a basis state s (with probability
pops[s]) and reports a photon count drawn from Poisson(I_s), where I_s is the
calibrated mean intensity of that state. Individual shots therefore do not
identify s; all information sits in the running mean photon count, which
converges to sum_s pops[s] * I_s.

A record is drawn from its sufficient statistics: one multinomial for the
basis-state occupations of all its shots and one Poisson for its photon total
(``draw_totals``), which is exact because a sum of independent multinomials
(Poissons) is multinomial (Poisson) again. ``split_totals`` splits records into
checkpoint blocks by the exact conditional law of i.i.d. shots given those
totals. ``sample_shots`` is the two for one row; ``retain_counts=True`` draws
every shot instead and keeps the counts, the slow path both are checked
against. ``measure_circuit`` reads a gate-level circuit: it is ``sample_shots``
of the circuit's exact channel-averaged populations
(``noise.density_populations``), so under depolarizing noise too each shot
reads its own errors. A scan reads its sub-circuits as index flips instead and
keeps it as their oracle. Sampling is deterministic given its arguments and
the seed: a ``SeedSequence`` passed in is only read, never spawned from, so
the same arguments reproduce the same record bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._bitstrings import all_bitstrings, bits_to_index, index_to_bits
from .circuits import Circuit
from .noise import NoiseConfig, density_populations

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

    By default the record's totals are drawn once (``draw_totals``) and split
    into checkpoint blocks afterwards (``split_totals``), both on one
    generator; ``retain_counts=True`` draws every shot individually and keeps
    the counts.
    """
    _check_shot_args(num_shots, checkpoint_every)
    p = _validate_pops(pops, calibration.intensities.size, normalize=True)
    rng = np.random.default_rng(_seed_sequence(seed))
    intensities = calibration.intensities
    if retain_counts:
        return _record_from_counts(_draw_shot_counts(rng, intensities, p, num_shots), checkpoint_every)
    occupations, totals = draw_totals(rng, intensities, p[None], num_shots)
    blocks, tails = split_totals(rng, intensities, occupations, totals, checkpoint_every)
    return _assemble_record(blocks[0], int(tails[0]), num_shots, checkpoint_every)


def draw_totals(
    rng: np.random.Generator, intensities: np.ndarray, rows: np.ndarray, num_shots
) -> tuple[np.ndarray, np.ndarray]:
    """Occupations and photon totals of whole records, one record per row of populations.

    Row r is read ``num_shots`` (an int, or one per row) times: its basis-state
    occupations are one multinomial draw and its photon total one Poisson
    draw with mean occupations . intensities. This is exactly the sum of the
    per-shot counts, since a sum of independent multinomials (Poissons) with
    common probabilities (any means) is multinomial (Poisson) again. Rows are
    validated and renormalized like ``sample_shots``' populations.
    """
    p = _validate_pops(rows, intensities.size, normalize=True, rows=True)
    occupations = rng.multinomial(num_shots, p)
    return occupations, rng.poisson(occupations @ intensities)


def split_totals(
    rng: np.random.Generator,
    intensities: np.ndarray,
    occupations: np.ndarray,
    totals: np.ndarray,
    checkpoint_every: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``draw_totals``' records, all of one shot count, into checkpoint blocks exactly in distribution.

    Given a record's occupations, its shots in time order are a uniformly
    random arrangement of their states. So state by state, the shots of that
    state fill a uniformly random subset of the slots still free, and their
    numbers per block (a partial tail is the last cell) are multivariate
    hypergeometric over the free slots per cell; the last state present takes
    the slots left. Given the block occupations, the block counts are
    independent Poissons with means L_b = occupations_b . intensities, so
    their law given the total is multinomial(total, L_b / sum L). A record
    with sum L = 0 has total 0 and gets no counts. Returns the full block
    totals, shape (records, full blocks), and the tail totals.
    """
    num_shots = int(occupations[0].sum())
    cells = _block_sizes(num_shots, checkpoint_every)
    num_full = num_shots // checkpoint_every
    means = np.zeros((len(occupations), cells.size))
    for r, row in enumerate(occupations):
        free = cells.copy()
        *drawn_states, last = np.flatnonzero(row)
        for s in drawn_states:
            drawn = rng.multivariate_hypergeometric(free, row[s])
            means[r] += drawn * intensities[s]
            free -= drawn
        means[r] += free * intensities[last]
    total = means.sum(axis=1, keepdims=True)
    p = np.divide(means, total, out=np.full_like(means, 1.0 / cells.size), where=total > 0)
    counts = rng.multinomial(totals, p)
    return counts[:, :num_full], counts[:, num_full:].sum(axis=1)


def measure_circuit(
    circuit: Circuit,
    calibration: CalibrationTable,
    num_shots: int,
    seed,
    checkpoint_every: int = 1000,
    noise: NoiseConfig | None = None,
    retain_counts: bool = False,
) -> ShotRecord:
    """Read the circuit out for ``num_shots`` shots: ``sample_shots`` of ``noise.density_populations``.

    Every shot is a fresh run of the circuit, so under a depolarizing
    ``noise`` it draws its own Pauli errors, and its basis state has the law
    of the channel-averaged populations.
    """
    if circuit.num_qubits != calibration.num_qubits:
        raise ValueError(
            f"circuit acts on {circuit.num_qubits} qubit(s) but calibration covers {calibration.num_qubits}"
        )
    pops = density_populations(circuit, noise or NoiseConfig())
    return sample_shots(calibration, pops, num_shots, seed, checkpoint_every, retain_counts)


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


def _block_sizes(num_shots: int, checkpoint_every: int) -> np.ndarray:
    """Shots per checkpoint block, a partial tail block last."""
    num_full, remainder = divmod(num_shots, checkpoint_every)
    return np.array([checkpoint_every] * num_full + ([remainder] if remainder else []))


def _validate_pops(pops, size: int, normalize: bool, rows: bool = False) -> np.ndarray:
    """Checked populations: one vector, or with ``rows`` one per row of a matrix.

    ``normalize`` clips each to nonnegative values and rescales it to sum 1.
    """
    p = np.asarray(pops, dtype=float)
    if p.ndim != 1 + rows or p.shape[-1] != size:
        expected = f"(rows, {size})" if rows else f"({size},)"
        raise ValueError(f"populations must have shape {expected}, got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("populations must be finite")
    if (p < -_POPS_TOLERANCE).any():
        raise ValueError(f"populations must be nonnegative within {_POPS_TOLERANCE}")
    total = p.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0)
    if (off > _POPS_TOLERANCE).any():
        raise ValueError(f"populations must sum to 1 within {_POPS_TOLERANCE}, got {float(total.flat[off.argmax()])}")
    if not normalize:
        return p
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


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
