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
totals, calling the C routine behind ``Generator.multivariate_hypergeometric``
directly where numpy exports it (``_marginals``), with the same draws.
``check_rows`` checks population rows once, however many records are later
drawn from them; ``read_records`` is the one path from checked rows to
records: it runs the two draws on their own generators and returns every
record's mean and its running means at each full checkpoint block. A stack of
points' rows takes the same two draws, each one call on one generator, and the
same split, record by record in stack order. Reading is deterministic given its
arguments and seeds: a ``SeedSequence`` passed in is only read, never spawned
from, so the same arguments reproduce the same records bit for bit.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from ._bitstrings import all_bitstrings, bits_to_index, index_to_bits
from .reconstruction import DEGENERACY_TOLERANCE, DegenerateCalibrationError
from .statevector import MAX_QUBITS

#: Example intensity table used throughout the tests: brighter states first.
DEFAULT_INTENSITIES = (5.0, 3.0, 2.0, 1.0)

_POPS_TOLERANCE = 1e-9


@cache
def _marginals():
    """numpy's C routine behind ``Generator.multivariate_hypergeometric``'s marginals method, or None.

    numpy exports the C distributions of ``Generator`` from its
    ``_generator`` extension, where its "Extending via CFFI" example calls
    them on a bit generator's interface. Called on a generator's own bit
    generator, the routine draws what the method draws, bit for bit. The
    method checks its arguments for about 10 us a call with the GIL held, a
    ctypes call takes about 1.4 us, and ctypes releases the GIL while the
    routine runs: concurrent splits (``experiment.convergence_profile``) then
    seldom wait on each other for it. Where numpy does not export the
    routine, the split calls the method. Looked up at the first split, since
    reading ``np.random`` imports it.
    """
    try:
        function = ctypes.CDLL(np.random._generator.__file__).random_multivariate_hypergeometric_marginals
    except (AttributeError, OSError):
        return None
    # (bitgen, total, num_colors, colors, nsample, num_variates, variates)
    function.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_int64, ctypes.c_size_t,
        ctypes.c_void_p,
    )
    function.restype = None
    return function


# The marginals method takes fewer than 10^9 items, for its draws' precision.
_MAX_SPLIT_SHOTS = 10**9


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
            # an all-equal table has c_t = 0 exactly for every parity t != 0, so reconstruction's rule refuses it
            n = arr.size.bit_length() - 1
            raise DegenerateCalibrationError(index_to_bits(1, n), 0.0, DEGENERACY_TOLERANCE)
        arr.setflags(write=False)
        object.__setattr__(self, "intensities", arr)

    @property
    def num_qubits(self) -> int:
        return int(self.intensities.size).bit_length() - 1


def default_calibration() -> CalibrationTable:
    return CalibrationTable(np.array(DEFAULT_INTENSITIES))


def check_rows(rows, size: int) -> np.ndarray:
    """Population rows ``(..., records, size)``, checked and each clipped to nonnegative values and rescaled to sum 1.

    Every row must be a population vector within 1e-9. The records drawn from
    the result (``draw_totals``, ``read_records``) are not checked again.
    """
    p = np.asarray(rows, dtype=float)
    if p.ndim < 2 or p.shape[-1] != size:
        raise ValueError(f"populations must have shape (..., rows, {size}), got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("populations must be finite")
    if (p < -_POPS_TOLERANCE).any():
        raise ValueError(f"populations must be nonnegative within {_POPS_TOLERANCE}")
    total = p.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0)
    if (off > _POPS_TOLERANCE).any():
        raise ValueError(f"populations must sum to 1 within {_POPS_TOLERANCE}, got {float(total.flat[off.argmax()])}")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def draw_totals(
    rng: np.random.Generator, intensities: np.ndarray, p: np.ndarray, num_shots
) -> tuple[np.ndarray, np.ndarray]:
    """Occupations and photon totals of whole records, one record per row of ``check_rows`` output.

    ``p`` is one point's rows ``(records, 2^n)``, read with ``intensities``
    ``(2^n,)``, or a stack of points' rows ``(points, records, 2^n)``, read
    with one intensity row per point ``(points, 2^n)`` or one shared by all.
    Row r is read ``num_shots`` (an int, or one per row of one point) times:
    its basis-state occupations are one multinomial draw and its photon total
    one Poisson draw with mean occupations . intensities. This is exactly the
    sum of the per-shot counts, since a sum of independent multinomials
    (Poissons) with common probabilities (any means) is multinomial (Poisson)
    again. A stack makes the same two calls on all its records, in point order.
    """
    occupations = rng.multinomial(num_shots, p.reshape(-1, p.shape[-1])).reshape(p.shape)
    # one matrix-vector product per point: a point's means are those of its rows alone, bit for bit
    return occupations, rng.poisson(np.matmul(occupations, intensities[..., None])[..., 0])


def split_totals(
    rng: np.random.Generator,
    intensities: np.ndarray,
    occupations: np.ndarray,
    totals: np.ndarray,
    checkpoint_every: int,
) -> np.ndarray:
    """Split ``draw_totals``' records, all of one shot count, into checkpoint blocks exactly in distribution.

    Given a record's occupations, its shots in time order are a uniformly
    random arrangement of their states. So state by state, the shots of that
    state fill a uniformly random subset of the slots still free, and their
    numbers per block (a partial tail is the last cell) are multivariate
    hypergeometric over the free slots per cell; the last state present takes
    the slots left. Given the block occupations, the block counts are
    independent Poissons with means L_b = occupations_b . intensities, so
    their law given the total is multinomial(total, L_b / sum L). A record
    with sum L = 0 has total 0 and gets no counts. Records and intensities
    come as ``draw_totals`` takes them, one point's or a stack of points', and
    are split in that order. Returns the full block totals, shape
    ``occupations.shape[:-1] + (full blocks,)``; a record's partial tail holds
    the rest of its total.
    """
    records = occupations.reshape(-1, occupations.shape[-1])
    tables = np.broadcast_to(intensities[..., None, :], occupations.shape).reshape(records.shape)
    num_shots = int(records[0].sum())
    # the C routine checks nothing: each record must fill exactly its cells, below
    # the marginals method's own limit
    if num_shots >= _MAX_SPLIT_SHOTS or (records.sum(axis=1) != num_shots).any():
        raise ValueError(f"records to split must share one shot count below {_MAX_SPLIT_SHOTS}")
    cells = _block_sizes(num_shots, checkpoint_every)
    num_full = num_shots // checkpoint_every
    means = np.empty((len(records), cells.size))
    for r, row in enumerate(records):
        states = np.flatnonzero(row)
        slots = np.zeros((states.size, cells.size), dtype=np.int64)
        slots[-1] = cells
        _fill_slots(rng, row[states[:-1]], slots)
        # reducing the outer axis of a C-contiguous array adds its rows one at a
        # time, in state order: the running sum of the method's loop, bit for bit.
        # A lone cell is a contiguous axis, summed pairwise, but its share is 1 anyway.
        means[r] = np.add.reduce(slots * tables[r, states, None], axis=0)
    total = means.sum(axis=1, keepdims=True)
    p = np.divide(means, total, out=np.full_like(means, 1.0 / cells.size), where=total > 0)
    counts = rng.multinomial(totals.reshape(-1), p)
    return counts[:, :num_full].reshape(occupations.shape[:-1] + (num_full,))


def _fill_slots(rng: np.random.Generator, counts: np.ndarray, slots: np.ndarray) -> None:
    """Draw state k's ``counts[k]`` shots per cell into ``slots[k]``, over the free slots held in ``slots[-1]``.

    State by state, each row is multivariate hypergeometric over the slots
    still free (``Generator.multivariate_hypergeometric``, marginals method),
    which are then taken out of ``slots[-1]``; it ends holding the slots no
    state took. Every row but the last must start at 0: the C routine writes
    only the cells it draws.
    """
    free = slots[-1]
    marginals = _marginals()
    if marginals is None:
        for k, count in enumerate(counts):
            slots[k] = rng.multivariate_hypergeometric(free, count)
            free -= slots[k]
        return
    bitgen = rng.bit_generator.ctypes.bit_generator
    address, stride = slots.ctypes.data, slots.strides[0]
    free_address = address + (len(slots) - 1) * stride
    left = int(free.sum())
    with rng.bit_generator.lock:
        for k, count in enumerate(counts.tolist()):
            marginals(bitgen, left, free.size, free_address, count, 1, address + k * stride)
            free -= slots[k]
            left -= count


def read_records(
    intensities: np.ndarray, p: np.ndarray, num_shots: int, draws, split=None, checkpoint_every: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Mean photon count of every record, one record per row of ``check_rows`` output, and its checkpoint means.

    The records, one point's or a stack of points' (``draw_totals``), are
    drawn on a generator seeded with ``draws``. Given a ``split`` seed they are
    also split into ``checkpoint_every``-shot blocks (``split_totals``) on a
    second generator, and the running means at each full block come back along
    a last axis, so entry k covers (k + 1) * checkpoint_every shots. Otherwise
    the second value is None.
    """
    occupations, totals = draw_totals(np.random.default_rng(draws), intensities, p, num_shots)
    if split is None:
        return totals / num_shots, None
    blocks = split_totals(np.random.default_rng(split), intensities, occupations, totals, checkpoint_every)
    return totals / num_shots, np.cumsum(blocks, axis=-1) / (checkpoint_every * np.arange(1, blocks.shape[-1] + 1))


def parse_basis_values(text: str, value_name: str = "intensity", width: int | None = None) -> np.ndarray:
    """Parse ``<bitstring> <value>`` lines covering every basis state exactly once.

    Returns the values in basis-index order. The first label sets the register
    width unless ``width`` is given; a label wider than ``MAX_QUBITS`` is
    refused at its line. Values must be finite. Errors name the offending line.
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
        if len(label) > MAX_QUBITS:
            raise ValueError(f"line {lineno}: basis label has {len(label)} bits; labels are capped at {MAX_QUBITS}")
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
        if not np.isfinite(number):
            raise ValueError(f"line {lineno}: {value_name} {value!r} is not finite")
        if index in entries:
            raise ValueError(f"line {lineno}: duplicate entry for state {label!r}")
        entries[index] = number
    if width is None:
        raise ValueError("file has no entries")
    expected = 1 << width
    if len(entries) != expected:
        # every index is below 2^width, so the first missing one is at most len(entries)
        missing = next(k for k in range(expected) if k not in entries)
        raise ValueError(f"file covers {len(entries)} of {expected} states (missing index {missing})")
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


def _block_sizes(num_shots: int, checkpoint_every: int) -> np.ndarray:
    """Shots per checkpoint block, a partial tail block last."""
    num_full, remainder = divmod(num_shots, checkpoint_every)
    return np.array([checkpoint_every] * num_full + ([remainder] if remainder else []))
