"""CSV rows of floats, each printed as ``format(v, ".10g")``, a whole array at a time.

``write_rows`` writes a table row by row, every field followed by its
separator, in chunks of ``CHUNK`` values, so the text of a whole file is never
held. A table under ``SMALL`` values is formatted value by value, which is
faster there than the array kernel's fixed cost.

Fast path, for a finite nonzero v whose decimal exponent e = floor(log10|v|)
lies in the exact-scaling range: 10^|9-e| is an exact double, so
m = |v| * 10^(9-e) (a division by 10^(e-9) for e > 9) is one correctly rounded
operation, within 2^-20 of the exact product. Where m lies in [1e9, 1e10) and
its fractional part is farther than ``TIE`` from 0.5, rounding m gives the
correctly rounded 10-digit mantissa. Its digits come from a two-digit table,
and the value's bytes are laid out by one template per notation (fixed at
each exponent, or scientific with either exponent sign) and count of
significant digits; a positive value skips the template's leading minus.

Every other value goes through ``"%.10g" % v``, which gives the same bytes as
``format(v, ".10g")``: a near-tie, 0, -0.0, NaN, +-inf, anything outside the
exact-scaling range, and a value so near a power of ten that log10 misplaces
it. Integer columns are floats too: below 10^10 "%.10g" prints them as str.
"""

from __future__ import annotations

import numpy as np

# Values per chunk. At 4096 a chunk's index temporaries (about 0.5 MB once
# take() widens them to intp) raise glibc's dynamic mmap threshold for the rest
# of the process. That moves the timing of unrelated code: perfbench's
# reference kernel ran 35% faster after a convergence scan, so that workload
# read 15% slower in reference seconds while its host time fell. At 2048 they
# are about 250 KB, and ideal-k14 wall_s is about 7% above its value at 4096.
CHUNK = 2048
SMALL = 1024  # the kernel's fixed cost breaks even at about 1000 values
TIE = 1e-5  # m is within 2^-20 of the exact mantissa; nearer a tie than this, fall back

# Exponents e whose scale 10^|9 - e| is an exact double; m is |v| * _UP / _DOWN
# at index e - _E_MIN, where one of the two factors is 1.
_E_MIN, _E_MAX = -13, 31
_UP = np.array([float(10 ** max(9 - e, 0)) for e in range(_E_MIN, _E_MAX + 1)])
_DOWN = np.array([float(10 ** max(e - 9, 0)) for e in range(_E_MIN, _E_MAX + 1)])
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), dtype=np.uint16)
# _SIGNIFICANT[k, r]: significant digits of a mantissa whose last nonzero pair is r, at pair k
_SIGNIFICANT = np.array([[0] + [2 * k + 2 - (r % 10 == 0) for r in range(1, 100)] for k in range(5)], dtype=np.intp)

# Source slots of each value's bytes: the 10 mantissa digits, two exponent
# digits, the constant characters, and the separator. A value formatted per
# value has its text in slots 0..16.
_EXP, _MINUS, _POINT, _ZERO, _E, _PLUS, _SEP = 10, 12, 13, 14, 15, 16, 17
_WIDTH = 17
_CONSTANTS = np.frombuffer(b"-.0e+", dtype=np.uint8)


def _slots(style: int, digits: int) -> list[int]:
    """Source slots of a negative value's text and its separator; a positive value skips the minus."""
    if style in (0, 15):  # scientific, d.ddd then e-XX or e+XX
        body = [0] + ([_POINT, *range(1, digits)] if digits > 1 else [])
        body += [_E, _MINUS if style == 0 else _PLUS, _EXP, _EXP + 1]
    elif style < 5:  # fixed, 0.000ddd
        body = [_ZERO, _POINT] + [_ZERO] * (4 - style) + list(range(digits))
    else:  # fixed, ddd.ddd
        whole = style - 4
        body = list(range(whole)) + ([_POINT, *range(whole, digits)] if digits > whole else [])
    return [_MINUS, *body, _SEP]


# A value of exponent e has style _STYLE[e - _E_MIN]: fixed notation for e in
# -4..9 (styles 1..14), scientific below (0) and above (15). A mantissa rounded
# up to 10^10 carries into _E_MAX + 1.
_STYLE = np.clip(np.arange(_E_MIN, _E_MAX + 2) + 5, 0, 15)


# Layout 11 * style + s lays out s significant digits; layout _VERBATIM + L
# copies L bytes of text and is read as positive. _SLOTS holds them end to
# end, from _START for _LENGTH slots.
_LAYOUTS = [_slots(style, s) for style in range(16) for s in range(11)]
_VERBATIM = len(_LAYOUTS)
_LAYOUTS += [[_MINUS, *range(length), _SEP] for length in range(_WIDTH + 1)]
_LENGTH = np.array([len(slots) for slots in _LAYOUTS], dtype=np.int32)
_START = np.cumsum(_LENGTH, dtype=np.int32) - _LENGTH
_SLOTS = np.array([slot for slots in _LAYOUTS for slot in slots], dtype=np.uint8)
del _LAYOUTS


def write_rows(handle, table, seps: str) -> None:
    """Write each row of the 2-D float ``table`` to the text ``handle``.

    Field c of every row reads as ``format(v, ".10g")`` and is followed by ``seps[c]``.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    flat = table.ravel()
    if flat.size < SMALL:
        handle.write(_per_value(flat, seps * rows))
        return
    codes = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    for start in range(0, flat.size, CHUNK):
        stop = min(start + CHUNK, flat.size)
        handle.write(_format_chunk(flat[start:stop], codes[np.arange(start, stop) % cols]))


def _per_value(values: np.ndarray, seps: str) -> str:
    """The text of ``values``, each as "%.10g" % v followed by its separator."""
    return "".join(map(str.__add__, ["%.10g" % v for v in values.tolist()], seps))


def _format_chunk(values: np.ndarray, seps: np.ndarray) -> str:
    """``_per_value`` of ``values`` with separator bytes ``seps``, by the array kernel."""
    size = values.size
    with np.errstate(all="ignore"):
        a = np.abs(values)
        e = np.floor(np.log10(a))
        fast = (e >= _E_MIN) & (e <= _E_MAX)
        e = np.where(fast, e, 0.0).astype(np.intp)
        m = a * _UP.take(e - _E_MIN) / _DOWN.take(e - _E_MIN)
        fast &= (m >= 1e9) & (m < 1e10) & (np.abs(m - np.floor(m) - 0.5) >= TIE)
    mantissa = np.where(fast, np.rint(m), 1e9).astype(np.int64)
    carry = mantissa == 10**10  # rounded up to the next power of ten
    mantissa[carry] = 10**9
    e += carry

    src = np.empty((size, _SEP + 1), dtype=np.uint8)
    pairs = src.view(np.uint16)  # slots 2k and 2k + 1 are pair k
    digits = np.zeros(size, dtype=np.intp)
    for k in range(4, -1, -1):
        rest = mantissa // 100
        pair = mantissa - 100 * rest
        pairs[:, k] = _PAIRS.take(pair)
        np.maximum(digits, _SIGNIFICANT[k].take(pair), out=digits)
        mantissa = rest
    pairs[:, _EXP // 2] = _PAIRS.take(np.abs(e))
    src[:, _MINUS : _PLUS + 1] = _CONSTANTS
    src[:, _SEP] = seps
    layout = _STYLE.take(e - _E_MIN) * 11 + digits
    positive = (values >= 0).astype(np.int32)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.10g" % v for v in values[slow].tolist()]
        lengths = np.fromiter(map(len, text), dtype=np.intp, count=slow.size)
        src[slow, :_WIDTH] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(slow.size, _WIDTH)
        layout[slow] = _VERBATIM + lengths
        positive[slow] = 1

    # One output byte per slot of each value's layout, read from its row of
    # src. The per-byte index arrays are int32 to halve the memory a chunk touches.
    length = _LENGTH.take(layout) - positive
    ends = np.cumsum(length, dtype=np.int32)
    index = np.repeat(_START.take(layout) + positive - (ends - length), length)
    index += np.arange(ends[-1], dtype=np.int32)
    slots = _SLOTS.take(index)
    index = np.repeat(np.arange(0, src.size, src.shape[1], dtype=np.int32), length)
    index += slots
    return src.ravel().take(index).tobytes().decode("ascii")
