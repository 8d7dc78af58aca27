"""CSV rows of floats, each printed as ``format(v, ".10g")``, a whole array at a time.

``write_rows`` writes a table row by row to a binary file, as ASCII bytes,
every field followed by its separator. An optional column map lets one source
column stand for several fields, so a row that repeats its values (an ideal
state's populations, which read the same backwards) has each distinct value
formatted once. The table is formatted in blocks of whole rows, about
``CHUNK`` values each, and written ``CHUNK`` fields at a time, so the text of
a whole file is never held. A row longer than ``CHUNK`` is cut into pieces of
``CHUNK``, and a remainder under ``CHUNK // 2`` joins the last piece, in the
kernel and in the writes alike. A table under ``SMALL`` fields is formatted
value by value, which is faster there than the array kernel's fixed cost.

Fast path, for a finite nonzero v whose decimal exponent e = floor(log10|v|)
lies in the exact-scaling range: 10^|9-e| is an exact double, so
m = |v| * 10^(9-e) (a division by 10^(e-9) for e > 9) is one correctly rounded
operation, within 2^-20 of the exact product. Where m lies in [1e9, 1e10) and
its fractional part is farther than ``TIE`` from 0.5, rounding m gives the
correctly rounded 10-digit mantissa. Its digits come from two 4-digit groups
and one 2-digit group (float floor divisions, exact for an integer below
1e10), each read from a table. One template per notation (fixed at each
exponent, or scientific with either exponent sign), count of significant
digits and sign then gathers the value's text into a zero-padded row of
``_WIDTH`` bytes and a separator byte; a field is that row with the zero
bytes dropped.

Every other value goes through ``"%.10g" % v``, which gives the same bytes as
``format(v, ".10g")``: a near-tie, 0, -0.0, NaN, +-inf, anything outside the
exact-scaling range, and a value so near a power of ten that log10 misplaces
it. Integer columns are floats too: below 10^10 "%.10g" prints them as str.
"""

from __future__ import annotations

import numpy as np

# Values per kernel call, and fields per write; a remainder under CHUNK // 2
# joins the last piece, so a piece holds at most _PIECE. A piece's largest
# temporary is its (_PIECE, _WIDTH + 1) uint16 gather index, 108 KiB, under
# glibc's 128 KiB mmap threshold. At 4096, with an intp index, a chunk's
# temporaries (about 0.5 MB) raised glibc's dynamic mmap threshold for the
# rest of the process, which moved the timing of unrelated code: perfbench's
# reference kernel ran 35% faster after a convergence scan.
CHUNK = 2048
_PIECE = CHUNK + CHUNK // 2 - 1
# Tables of fewer fields are formatted value by value. The kernel's fixed cost
# breaks even at about 180 full-precision values, and at about 280 fields of a
# landscape CSV, whose grid and realization fields are short.
SMALL = 256
TIE = 1e-5  # m is within 2^-20 of the exact mantissa; nearer a tie than this, fall back

# Exponents e whose scale 10^|9 - e| is an exact double; m is |v| * _UP / _DOWN
# at index e - _E_MIN, where one of the two factors is 1.
_E_MIN, _E_MAX = -13, 31
_UP = np.array([float(10 ** max(9 - e, 0)) for e in range(_E_MIN, _E_MAX + 1)])
_DOWN = np.array([float(10 ** max(e - 9, 0)) for e in range(_E_MIN, _E_MAX + 1)])

# _PAIRS[k] holds the bytes of "%02d" % k, and _QUADS[k] those of "%04d" % k.
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), dtype=np.uint16)
_QUADS = np.empty((100, 100, 2), dtype=np.uint16)
_QUADS[:, :, 0] = _PAIRS[:, None]
_QUADS[:, :, 1] = _PAIRS
_QUADS = _QUADS.reshape(-1).view(np.uint32)

# Significant digits of a mantissa whose last nonzero group is the high group
# (_HIGH), the middle group (_MID) or the low pair (_LOW), at that group's
# value; 0 for a zero group, so the mantissa has the largest of the three.
_LAST2 = np.array([0] + [2 - (k % 10 == 0) for k in range(1, 100)], dtype=np.int8)
_HIGH = np.where(_LAST2 > 0, _LAST2 + 2, _LAST2[:, None]).astype(np.int8).ravel()
_MID = np.where(_HIGH > 0, _HIGH + 4, 0).astype(np.int8)
_LOW = np.where(_LAST2 > 0, _LAST2 + 8, 0).astype(np.int8)

# Source slots of each value's text, a row of _ROW bytes: the 10 mantissa
# digits, the two exponent digits, the constant characters, and zero bytes.
_EXP, _MINUS, _POINT, _ZERO, _E, _PLUS, _NUL = 10, 12, 13, 14, 15, 16, 17
_ROW = 20
_CONSTANTS = np.frombuffer(b"-.0e+\0\0\0", dtype=np.uint32)  # slots 12..19
_WIDTH = 17  # the longest text, "-1.234567891e+300"


def _slots(style: int, digits: int) -> list[int]:
    """Source slots of a negative value's text; a positive value skips the minus."""
    if style in (0, 15):  # scientific, d.ddd then e-XX or e+XX
        body = [0] + ([_POINT, *range(1, digits)] if digits > 1 else [])
        body += [_E, _MINUS if style == 0 else _PLUS, _EXP, _EXP + 1]
    elif style < 5:  # fixed, 0.000ddd
        body = [_ZERO, _POINT] + [_ZERO] * (4 - style) + list(range(digits))
    else:  # fixed, ddd.ddd
        whole = style - 4
        body = list(range(whole)) + ([_POINT, *range(whole, digits)] if digits > whole else [])
    return [_MINUS, *body]


# A value of exponent e has style _STYLE[e - _E_MIN]: fixed notation for e in
# -4..9 (styles 1..14), scientific below (0) and above (15). A mantissa rounded
# up to 10^10 carries into _E_MAX + 1.
_STYLE = np.clip(np.arange(_E_MIN, _E_MAX + 2) + 5, 0, 15)

# _TEMPLATES[2 * (11 * style + digits) + positive]: the slots of a value's
# text, padded with zero-byte slots to _WIDTH + 1; the last byte is its
# separator's. Built through bytes: as a nested list it raised perfbench's
# sampled-k2 peak_rss_mb by 0.3 MB. Gather indices are uint16, faster to take
# than intp; row r's slots start at _OFFSETS[r], below _ROW * _PIECE < 2^16.
_TEMPLATES = np.frombuffer(
    bytes(
        slot
        for style in range(16)
        for digits in range(11)
        for text in (_slots(style, digits), _slots(style, digits)[1:])
        for slot in (text + [_NUL] * _WIDTH)[: _WIDTH + 1]
    ),
    dtype=np.uint8,
).reshape(-1, _WIDTH + 1).astype(np.uint16)
_OFFSETS = np.repeat(np.arange(0, _ROW * _PIECE, _ROW, dtype=np.uint16), _WIDTH + 1).reshape(_PIECE, _WIDTH + 1)


def write_rows(handle, table, seps: str, columns=None) -> None:
    """Write each row of the 2-D float ``table`` to the binary ``handle`` as ASCII bytes.

    Field c of every row reads as ``format(v, ".10g")`` of source column
    ``columns[c]`` (column c when ``columns`` is None) and is followed by ``seps[c]``.
    """
    table = np.asarray(table, dtype=float)
    rows, width = table.shape
    if rows * len(seps) < SMALL:
        handle.write(_per_value((table if columns is None else table[:, columns]).ravel(), seps * rows))
        return
    block = min(rows, max(1, CHUNK // width))
    # source row of each field of a block, in output order; None when that is the source order
    order = None if columns is None else (width * np.arange(block)[:, None] + columns).ravel()
    codes = np.tile(np.frombuffer(seps.encode("ascii"), dtype=np.uint8), block)
    for first in range(0, rows, block):
        values = table[first : first + block].ravel()
        text = np.concatenate([_format_chunk(values[start:stop]) for start, stop in _pieces(values.size)])
        for start, stop in _pieces(values.size // width * len(seps)):
            chunk = text[start:stop] if order is None else text.take(order[start:stop], axis=0)
            handle.write(_join(chunk, codes[start:stop]))


def _pieces(count: int) -> list[tuple[int, int]]:
    """Bounds of ``CHUNK``-sized pieces of ``count`` items, a remainder under ``CHUNK // 2`` joined to the last."""
    starts = list(range(0, max(count - CHUNK // 2 + 1, 1), CHUNK))
    return list(zip(starts, starts[1:] + [count]))


def _per_value(values: np.ndarray, seps: str) -> bytes:
    """The ASCII bytes of ``values``, each as "%.10g" % v followed by its separator."""
    return "".join(map(str.__add__, ["%.10g" % v for v in values.tolist()], seps)).encode("ascii")


def _join(text: np.ndarray, seps: np.ndarray) -> bytes:
    """The bytes of each text row of ``text`` with its last byte set to its separator, zero bytes dropped."""
    text[:, _WIDTH] = seps
    return text.tobytes().translate(None, b"\0")


def _format_chunk(values: np.ndarray) -> np.ndarray:
    """The text of each of ``values`` as "%.10g" % v, a zero-padded row of ``_WIDTH`` + 1 bytes each."""
    size = values.size
    with np.errstate(all="ignore"):
        a = np.abs(values)
        e = np.floor(np.log10(a))
        fast = (e >= _E_MIN) & (e <= _E_MAX)
        e = np.where(fast, e, 0.0).astype(np.intp)
        m = a * _UP.take(e - _E_MIN) / _DOWN.take(e - _E_MIN)
        fast &= (m >= 1e9) & (m < 1e10) & (np.abs(m - np.floor(m) - 0.5) >= TIE)
    m = np.where(fast, np.rint(m), 1e9)
    carry = m == 1e10  # rounded up to the next power of ten
    m[carry] = 1e9
    e += carry

    high = np.floor(m / 1e6)
    low = m - high * 1e6
    mid = np.floor(low / 100)
    low -= mid * 100
    high, mid, low = high.astype(np.intp), mid.astype(np.intp), low.astype(np.intp)
    src = np.empty((size, _ROW), dtype=np.uint8)
    quads = src.view(np.uint32)  # slots 4k..4k + 3 are quad k
    quads[:, 0] = _QUADS.take(high)
    quads[:, 1] = _QUADS.take(mid)
    quads[:, 3], quads[:, 4] = _CONSTANTS
    pairs = src.view(np.uint16)  # slots 2k and 2k + 1 are pair k
    pairs[:, 4] = _PAIRS.take(low)
    pairs[:, _EXP // 2] = _PAIRS.take(np.abs(e))
    digits = np.maximum(_HIGH.take(high), _MID.take(mid))
    np.maximum(digits, _LOW.take(low), out=digits)
    layout = 22 * _STYLE.take(e - _E_MIN) + 2 * digits + (values >= 0)

    index = _TEMPLATES.take(layout, axis=0)
    index += _OFFSETS[:size]
    text = src.ravel().take(index)
    slow = np.flatnonzero(~fast)
    if slow.size:
        strings = ["%.10g" % v for v in values[slow].tolist()]
        text[slow, :_WIDTH] = np.array(strings, dtype=f"S{_WIDTH}").view(np.uint8).reshape(slow.size, _WIDTH)
    return text
