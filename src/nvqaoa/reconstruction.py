"""Population recovery from flip-pattern readout means.

Appending the bit-flip pattern x before readout makes state s fluoresce with
intensity I_{s XOR x}, so the recorded mean for pattern x is

    m_x = sum_s I_{s XOR x} * pops_s.

Writing the intensity table in its Walsh spectrum c_t = 2^{-n} sum_s I_s (-1)^{s.t}
diagonalizes that XOR convolution: each parity correlator <Z^t> is read off as

    <Z^t> = (2^n c_t)^{-1} sum_x (-1)^{x.t} m_x,

and an inverse transform of the correlators gives the populations. The t = 0
correlator, the norm, estimates the total population and should sit near 1;
it is deliberately never used to rescale anything. Reconstruction is exactly
linear in the means, so shot noise propagates without bias. It fails only
when some |c_t| is (near) zero, i.e. when the calibration carries no signal
along parity t: the rule (``DEGENERACY_TOLERANCE``) lives here.

``reconstruct`` inverts stacked rows of means, ``(..., 2^n)``, in one
transform against intensities that broadcast to them. A degenerate table
raises for a single vector but only turns its own row NaN in a stack.
"""

from __future__ import annotations

import numpy as np

from ._bitstrings import index_to_bits

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


def walsh_coefficients(intensities) -> np.ndarray:
    """Normalized Walsh spectrum c_t = 2^-n sum_s I_s (-1)^(s.t) of an intensity table, indexed by parity mask t."""
    spectrum = fwht(intensities)
    return spectrum / spectrum.size


def forward_means(intensities, pops) -> np.ndarray:
    """Exact readout means for every flip pattern of an intensity table: m_x = sum_s I_{s XOR x} pops_s."""
    c = walsh_coefficients(intensities)
    if not np.isfinite(c).all() or (np.asarray(intensities) < 0).any():
        raise ValueError("intensities must be finite and nonnegative")
    p = np.asarray(pops, dtype=float)
    if p.shape != c.shape:
        raise ValueError(f"populations must have shape {c.shape}, got {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < -DEGENERACY_TOLERANCE):
        raise ValueError("populations must be finite and nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("populations must sum to 1")
    # XOR convolution via the spectrum: transform, multiply, transform back.
    return fwht(c * fwht(p))


def reconstruct(intensities, means) -> tuple[np.ndarray, np.ndarray]:
    """Populations and parity correlators of flip-pattern means, each of the shape of ``means``.

    ``means`` is one vector of 2^n means or stacked rows of them, ``(...,
    2^n)``; ``intensities`` is one table shared by every row, or intensity
    rows of any shape that broadcasts to ``means``. The norm is the t = 0
    correlator, ``correlators[..., 0]``.

    A table with some |c_t| <= ``DEGENERACY_TOLERANCE`` raises
    :class:`DegenerateCalibrationError` (naming the first such parity mask)
    for a single vector; for stacked rows its row comes back NaN. Shapes that
    do not fit, non-finite means and non-finite or negative intensities raise
    ``ValueError``. No clipping and no renormalization: negative entries and
    norm != 1 are honest noise indicators that callers may inspect.
    """
    m = np.asarray(means, dtype=float)
    intensities = np.asarray(intensities, dtype=float)
    size = m.shape[-1] if m.ndim else 0
    if size < 2 or size & (size - 1):
        raise ValueError(f"means of shape {m.shape} do not fit a power-of-two table")
    if not np.isfinite(intensities).all() or (intensities < 0).any():
        raise ValueError("intensities must be finite and nonnegative")
    if not np.isfinite(m).all():
        raise ValueError("means must be finite")
    # the tables and the means go through one transform together
    spectra = np.empty((2,) + m.shape)
    spectra[0], spectra[1] = intensities, m  # intensities that do not broadcast to the means raise ValueError
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
    return pops, correlators
