"""Exact dense state-vector simulation of small qubit registers.

Conventions, fixed once here and relied on everywhere else:

* qubit 0 is the most significant bit of the basis index (|10> is index 2),
* rotations follow exp(-i theta P / 2) for Pauli string P, so
  RZZ(theta) = diag(e^{-i theta/2}, e^{+i theta/2}, e^{+i theta/2}, e^{-i theta/2}),
* CNOT targets are written (control, target).

A state is a plain 1-D complex array of 2**n amplitudes; ``apply_matrix``
checks a caller's and returns a new one. States are never renormalized behind
the caller's back; norm drift is a bug signal, not something to hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24  # 2**24 complex amplitudes ~ 256 MiB; hard stop past that

SINGLE_QUBIT_KINDS = frozenset({"H", "X", "RX", "RY", "RZ"})
TWO_QUBIT_KINDS = frozenset({"CNOT", "RZZ"})
GATE_KINDS = SINGLE_QUBIT_KINDS | TWO_QUBIT_KINDS
ROTATION_KINDS = frozenset({"RX", "RY", "RZ", "RZZ"})

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    phase = np.exp(-0.5j * theta)
    return np.array([[phase, 0.0], [0.0, np.conj(phase)]], dtype=complex)


def rzz_matrix(theta: float) -> np.ndarray:
    lo, hi = np.exp(-0.5j * theta), np.exp(+0.5j * theta)
    return np.diag([lo, hi, hi, lo]).astype(complex)


@dataclass(frozen=True)
class Gate:
    """A named gate on explicit targets; rotations carry an angle, fixed gates must not."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        expected = 1 if self.kind in SINGLE_QUBIT_KINDS else 2
        if len(targets) != expected:
            raise ValueError(f"{self.kind} takes {expected} target(s), got {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate targets must be distinct, got {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"gate targets must be nonnegative, got {targets}")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} requires a finite angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


def gate_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == "H":
        return _H
    if gate.kind == "X":
        return _X
    if gate.kind == "RX":
        return rx_matrix(gate.angle)
    if gate.kind == "RY":
        return ry_matrix(gate.angle)
    if gate.kind == "RZ":
        return rz_matrix(gate.angle)
    if gate.kind == "CNOT":
        return _CNOT
    if gate.kind == "RZZ":
        return rzz_matrix(gate.angle)
    raise ValueError(f"unknown gate kind {gate.kind!r}")  # unreachable after Gate validation


def init_zero(num_qubits: int) -> np.ndarray:
    """|00...0> on ``num_qubits`` qubits, a new array of 2**num_qubits amplitudes."""
    if not isinstance(num_qubits, int) or not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def apply_matrix(state: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a 2**k x 2**k ``matrix`` to the k ``targets`` of ``state`` as a new array; ``state`` is never written."""
    shape = np.shape(state)
    n = shape[0].bit_length() - 1 if len(shape) == 1 else 0
    if not 1 <= n <= MAX_QUBITS or shape != (1 << n,):
        raise ValueError(f"a state is 2**n amplitudes, n in 1..{MAX_QUBITS}; got shape {shape}")
    targets = tuple(int(t) for t in targets)
    k = len(targets)
    if k == 0 or len(set(targets)) != k:
        raise ValueError(f"targets must be nonempty and distinct, got {targets}")
    if any(not 0 <= t < n for t in targets):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {u.shape} does not act on {k} qubit(s)")
    psi = np.asarray(state, dtype=complex).reshape((2,) * n)
    u = u.reshape((2,) * (2 * k))
    out = np.tensordot(u, psi, axes=(tuple(range(k, 2 * k)), targets))
    out = np.moveaxis(out, tuple(range(k)), targets)
    return out.reshape(-1)


def butterfly(amps: np.ndarray, matrix, qubits) -> None:
    """Apply a 2x2 ``matrix`` (array or nested pairs) to each of ``qubits`` of ``amps``, in place.

    ``amps`` is one flat register or a ``(rows, 2^n)`` stack of them. For a
    stack an entry may be a ``(rows, 1, 1)`` array, one value per row.

    Qubit q pairs rows of 2^(n-1-q) amplitudes, so the last qubits loop over
    rows of 2 and 4. ``butterfly_all`` applies a gate to every qubit with the
    same bits and whole-half rows; this one applies the single-qubit gates of
    ``noise.density_populations``.
    """
    (a, b), (c, d) = matrix
    for q in qubits:
        # axis -2 is qubit q: qubit 0 is the most significant bit of the index
        pair = amps.reshape(amps.shape[:-1] + (1 << q, 2, -1))
        lo, hi = pair[..., 0, :], pair[..., 1, :]
        new_lo = a * lo + b * hi
        hi *= d
        hi += c * lo
        lo[...] = new_lo


def butterfly_all(amps: np.ndarray, matrix) -> None:
    """Apply a 2x2 ``matrix`` (array or nested pairs) to every qubit of ``amps``, in place, in constant geometry.

    ``amps`` is one flat register of 2^m amplitudes or a ``(rows, 2^m)`` stack
    of them. For a stack an entry may be a ``(rows, 1)`` array, one value per row.

    Each stage pairs index z of the two contiguous halves, z and z + 2^(m-1),
    which differ in the leading bit, and writes the pair's results to 2z and
    2z + 1 of a scratch state. That rotates the index bits left by one, so the
    next stage's halves pair the next qubit, and after m stages the bits are
    back in order (M. C. Pease, J. ACM 15, 252 (1968)). Every amplitude takes
    the operations of ``butterfly(amps, matrix, range(m))`` in its order, so
    the result is the same bit for bit, but every stage reads whole halves.
    It holds one scratch state and a half-state temporary; for odd m the
    result is copied back from the scratch.
    """
    (a, b), (c, d) = matrix
    rows, size = amps.shape[:-1], amps.shape[-1]
    half = size >> 1
    src, dst = amps, np.empty(amps.shape, dtype=amps.dtype)
    tmp = np.empty(rows + (half,), dtype=amps.dtype)
    for _ in range(size.bit_length() - 1):
        lo, hi = src[..., :half], src[..., half:]
        pairs = dst.reshape(rows + (half, 2))
        new_lo, new_hi = pairs[..., 0], pairs[..., 1]
        np.multiply(a, lo, out=new_lo)
        new_lo += np.multiply(b, hi, out=tmp)
        np.multiply(hi, d, out=new_hi)
        new_hi += np.multiply(c, lo, out=tmp)
        src, dst = dst, src
    if src is not amps:
        amps[...] = src


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    return apply_matrix(state, gate_matrix(gate), gate.targets)


def populations(amps: np.ndarray) -> np.ndarray:
    """Basis-state probabilities |amplitude|^2 (not renormalized) of an array of amplitudes."""
    return amps.real**2 + amps.imag**2


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|, insensitive to global phase."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"states of shapes {np.shape(a)} and {np.shape(b)} act on different registers")
    return float(abs(np.vdot(a, b)))
