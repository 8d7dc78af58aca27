"""Population recovery from flip-pattern readout means.

Appending the bit-flip pattern x before readout makes state s fluoresce with
intensity I_{s XOR x}, so the recorded mean for pattern x is

    m_x = sum_s I_{s XOR x} * pops_s.

Writing the intensity table in its Walsh spectrum c_t = 2^{-n} sum_s I_s (-1)^{s.t}
diagonalizes that XOR convolution: each parity correlator <Z^t> is read off as

    <Z^t> = (2^n c_t)^{-1} sum_x (-1)^{x.t} m_x,

and an inverse transform of the correlators gives the populations. The t = 0
correlator estimates the total population and should sit near 1; it is
reported as ``norm`` and deliberately never used to rescale anything.
Reconstruction is exactly linear in the means, so shot noise propagates
without bias. It fails only when some |c_t| is (near) zero, i.e. when the
calibration carries no signal along parity t.

``reconstruct`` also inverts stacked rows of means, ``(..., 2^n)``, all in one
transform along the last axis. A degenerate table raises for a single vector
but only turns its own row NaN in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bitstrings import index_to_bits
# The error is defined next to CalibrationTable, which raises it too, and is
# re-exported here where the reconstruction callers look for it.
from .readout import DEGENERACY_TOLERANCE, CalibrationTable, DegenerateCalibrationError


@dataclass(frozen=True, eq=False)
class PopulationEstimate:
    """Reconstructed populations plus the parity correlators they came from."""

    pops: np.ndarray
    correlators: np.ndarray
    norm: float | np.ndarray

    def __post_init__(self):
        pops = np.array(self.pops, dtype=float)
        corr = np.array(self.correlators, dtype=float)
        pops.setflags(write=False)
        corr.setflags(write=False)
        object.__setattr__(self, "pops", pops)
        object.__setattr__(self, "correlators", corr)
        norm = np.array(self.norm, dtype=float)
        norm.setflags(write=False)
        object.__setattr__(self, "norm", float(norm) if norm.ndim == 0 else norm)


def fwht(values) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform: out[t] = sum_s (-1)^(s.t) in[s].

    Involution up to the factor 2^n. Input length must be a power of two.
    """
    v = np.array(values, dtype=float)
    if v.ndim != 1 or v.size == 0 or v.size & (v.size - 1):
        raise ValueError(f"transform needs a power-of-two length vector, got shape {v.shape}")
    _butterfly(v)
    return v


def _butterfly(v: np.ndarray) -> None:
    """Transform the C-contiguous array ``v`` in place along its last axis, a power of two long."""
    h = 1
    while h < v.shape[-1]:
        # each row is a whole number of blocks, so the blocks never straddle two rows
        blocks = v.reshape(-1, 2 * h)
        left = blocks[:, :h].copy()
        blocks[:, :h] += blocks[:, h:]
        blocks[:, h:] = left - blocks[:, h:]
        h *= 2


def walsh_coefficients(calibration: CalibrationTable) -> np.ndarray:
    """Normalized Walsh spectrum c_t = 2^-n sum_s I_s (-1)^(s.t) of the table, indexed by parity mask t."""
    return fwht(calibration.intensities) / (1 << calibration.num_qubits)


def forward_means(calibration: CalibrationTable, pops) -> np.ndarray:
    """Exact readout means for every flip pattern: m_x = sum_s I_{s XOR x} pops_s."""
    size = calibration.intensities.size
    p = np.asarray(pops, dtype=float)
    if p.shape != (size,):
        raise ValueError(f"populations must have shape ({size},), got {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < -DEGENERACY_TOLERANCE):
        raise ValueError("populations must be finite and nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("populations must sum to 1")
    c = walsh_coefficients(calibration)
    # XOR convolution via the spectrum: transform, multiply, transform back.
    return fwht(c * fwht(p))


def reconstruct(calibration: CalibrationTable | np.ndarray, means) -> PopulationEstimate:
    """Invert flip-pattern means to populations and parity correlators.

    ``means`` is one vector of 2^n means or stacked rows of them, ``(...,
    2^n)``. ``calibration`` is a :class:`CalibrationTable` shared by every row,
    or an array of intensity rows of the same shape as ``means``. The estimate
    has the shape of ``means``; its ``norm`` (the t = 0 correlator) is a float
    for one vector and an array of shape ``means.shape[:-1]`` for stacked rows.

    A table with some |c_t| <= ``DEGENERACY_TOLERANCE`` raises
    :class:`DegenerateCalibrationError` (naming the first such parity mask)
    for a single vector; for stacked rows its row comes back NaN. Mismatched
    shapes, non-finite means and non-finite or negative intensities raise
    ``ValueError``. No clipping and no renormalization: negative entries and
    norm != 1 are honest noise indicators that callers may inspect.
    """
    m = np.asarray(means, dtype=float)
    if isinstance(calibration, CalibrationTable):
        intensities = calibration.intensities  # broadcast over the rows below
    else:
        intensities = np.asarray(calibration, dtype=float)
        if intensities.shape != m.shape:
            raise ValueError(f"intensity rows of shape {intensities.shape} do not match means of shape {m.shape}")
        if not np.isfinite(intensities).all() or (intensities < 0).any():
            raise ValueError("intensities must be finite and nonnegative")
    size = intensities.shape[-1] if intensities.ndim else 0
    if m.shape[-1:] != (size,) or size < 2 or size & (size - 1):
        raise ValueError(f"means of shape {m.shape} do not fit a power-of-two table of length {size}")
    if not np.isfinite(m).all():
        raise ValueError("means must be finite")
    # the tables and the means go through one transform together
    spectra = np.empty((2,) + m.shape)
    spectra[0], spectra[1] = intensities, m
    _butterfly(spectra)
    c = spectra[0] / size
    small = np.abs(c) <= DEGENERACY_TOLERANCE
    if m.ndim > 1:
        # NaN spreads through a degenerate row without a floating-point warning
        c[small.any(axis=-1)] = np.nan
    elif small.any():
        t = int(np.argmax(small))
        raise DegenerateCalibrationError(index_to_bits(t, size.bit_length() - 1), c[t], DEGENERACY_TOLERANCE)
    correlators = spectra[1] / (size * c)
    pops = correlators.copy()
    _butterfly(pops)
    pops /= size
    return PopulationEstimate(pops=pops, correlators=correlators, norm=correlators[..., 0])
