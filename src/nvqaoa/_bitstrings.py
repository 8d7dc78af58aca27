"""Shared bit-string helpers.

Register labels are written most-significant-bit first: qubit (or vertex) 0 is
the leftmost character, so on two qubits index 2 is "10".
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

BitString = Union[str, Sequence[int]]


def index_to_bits(index: int, width: int) -> str:
    """Return the basis-state label of ``index`` on a ``width``-bit register."""
    if width < 1:
        raise ValueError("register width must be at least 1")
    if not 0 <= index < (1 << width):
        raise ValueError(f"index {index} out of range for {width} bits")
    return format(index, f"0{width}b")


def bits_to_index(bits: BitString) -> int:
    arr = as_bit_array(bits)
    index = 0
    for b in arr:
        index = (index << 1) | int(b)
    return index


def as_bit_array(bits: BitString, width: int | None = None) -> np.ndarray:
    """Normalize a bit string ("011", [0, 1, 1], uint8 array) to a flat uint8 array."""
    if isinstance(bits, str):
        if not bits or any(ch not in "01" for ch in bits):
            raise ValueError(f"bit string must be nonempty and contain only 0/1, got {bits!r}")
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bit string must be a nonempty flat sequence")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("bit string entries must all be 0 or 1")
        arr = arr.astype(np.uint8)
    if width is not None and arr.size != width:
        raise ValueError(f"bit string has length {arr.size}, expected {width}")
    return arr


def all_bitstrings(width: int) -> list[str]:
    """All labels of a ``width``-bit register in basis-index order."""
    return [index_to_bits(k, width) for k in range(1 << width)]


def iter_edges(adjacency: np.ndarray) -> Iterable[tuple[int, int, float]]:
    """Yield (i, j, weight) for the upper triangle of a symmetric matrix, nonzero entries only."""
    n = adjacency.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            w = float(adjacency[i, j])
            if w != 0.0:
                yield i, j, w
