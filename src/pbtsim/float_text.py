"""Python's "%.17g" for whole float64 arrays, byte for byte, and its inverse.

``format_rows`` gives the text ``resources.save_resource`` writes for a chunk
of matrix rows; ``percent_format`` is Python's own formatting, entry by entry,
for the numbers the integer route does not take.  ``text_blocks`` and
``parse_numbers`` read such text back as ``np.fromstring(text, sep=" ")``
does (see "reading" below).

A number with 1e-11 <= |x| < 1, as most density-matrix entries are,
takes an exact integer route: with x = m 2^e (m < 2^53), decimal exponent X
and p = 16 - X, its 17 digits are D = m 5^p 2^(e + p) rounded half to even,
one 128-bit product of uint64 halves (5^p < 2^63 for p <= 27) shifted right
by 36..62 bits.  X comes from log10 and counts only if floor(D) >= 10^16 and
D < 10^17.  Each number becomes a fixed-width row of bytes, and the bytes
"%.17g" does not write are NUL:

  column  0  1  2  3..5  6   7  8..23      24..27  28
          -  0  .  000   d0  .  16 digits  e-XX    separator

The template of X = -1..-4 ("%f" style) holds "0." and -X - 1 zeros, that
of X = -5..-11 "." and "e-XX"; the sign is NUL for x > 0, and so are the
trailing zeros of the 16 digits, and the "." of "e" style when all 16 are 0.
A zero is "0" or "-0".  Every other number (|x| >= 1, |x| < 1e-11,
subnormal, nan, inf, or a failed exponent check) goes through Python's own
"%.17g".  A call holds about 90 bytes per number at its peak, as each step
drops what it no longer needs.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_ZERO, _FALLBACK = 11, 12  # token kinds after the eleven exponents, kind -1 - X
# one row per kind; "?" is filled in per number
_TEMPLATE = np.frombuffer(b"".join(
    [b"\0" + b"0." + b"0" * kind + b"\0" * (3 - kind) + b"?\0" + b"?" * 16 + b"\0" * 4 + b" "
     for kind in range(4)]
    + [b"\0" * 6 + b"?." + b"?" * 16 + b"e-%02d " % (kind + 1) for kind in range(4, 11)]
    + [b"\0" * 6 + b"?" + b"\0" * 21 + b" ",  # _ZERO
       b"\0" * 28 + b" "]),  # _FALLBACK
    dtype=np.uint8).reshape(13, 29)
_POW5 = np.array([5 ** (17 + kind) for kind in range(11)], dtype=np.uint64)  # 5^p


@cache  # built on the first write, so that importing pbtsim costs nothing
def _digit_groups() -> np.ndarray:
    """The four digits of 0..9999, one uint32 each, then again with their
    trailing zeros NUL."""
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (np.arange(10 ** 4, dtype=np.uint16)[:, None] // place % 10 + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    groups = np.concatenate([digits, digits * kept]).view(np.uint32).ravel()
    groups.flags.writeable = False
    return groups


def _seventeen_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The token kind of each number (-1 - X, _ZERO or _FALLBACK) and, for
    the kinds -1 - X, its 17 digits as one integer."""
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1)
    a[~fast] = 0.5  # a number of the range, so that no step warns
    frac, exp2 = np.frexp(a)
    kind = np.minimum(-1 - np.floor(np.log10(a)), 10).astype(np.intp)  # -1 - X
    shift = (36 - exp2 - kind).astype(np.uint64)  # -(e + p), in 36..62
    m = (frac * 2.0 ** 53).astype(np.uint64)
    del a, frac, exp2
    # m 5^p = hi 2^64 + lo, from 32-bit halves: m >> 32 < 2^21, 5^p >> 32 < 2^31
    b = _POW5[kind]
    m_hi, b_hi = m >> 32, b >> 32
    m &= 0xFFFFFFFF
    b &= 0xFFFFFFFF
    lo = m * b
    cross = m * b_hi
    cross += m_hi * b
    hi = m_hi * b_hi
    del m, b, m_hi, b_hi
    mid = (lo >> 32) + (cross & 0xFFFFFFFF)
    lo &= 0xFFFFFFFF
    lo |= mid << 32
    hi += (cross >> 32) + (mid >> 32)
    del cross, mid
    d = (lo >> shift) | (hi << (64 - shift))
    fast &= d >= 10 ** 16
    # half to even: the bits shifted out, moved to the top of a word, exceed
    # 2^63, one half, or equal it and d is odd
    lo <<= 64 - shift
    d += (lo + (d & 1)) > 2 ** 63
    fast &= d < 10 ** 17
    kind = np.where(fast, kind, np.where(x == 0, _ZERO, _FALLBACK))
    d *= fast  # 0 off the route: a zero's d0 reads "0"; fallback rows are overwritten
    return kind, d.view(np.int64)  # d < 2^60; intp indexes the tables fastest


def percent_format(x: np.ndarray) -> np.ndarray:
    """Python's own "%.17g" of each number, NUL-padded to 28 bytes."""
    return np.array(["%.17g" % v for v in x.tolist()], dtype="S28")


def _tokens(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """A fixed-width row of bytes for each number x, ending in its separator,
    with NUL where "%.17g" writes nothing."""
    kind, d = _seventeen_digits(x)
    buf = _TEMPLATE.take(kind, axis=0)
    buf[:, 0] = np.signbit(x) * ord("-")
    buf[:, -1] = sep
    lead, rest = np.divmod(d, 10 ** 16)
    buf[:, 6] = lead + ord("0")
    del d, lead
    tail = np.ones(x.size, dtype=bool)  # the digits after this group are all 0
    for col in (20, 16, 12, 8):
        rest, group = np.divmod(rest, 10 ** 4)
        buf[:, col:col + 4] = _digit_groups()[group + 10 ** 4 * tail].view(np.uint8).reshape(-1, 4)
        tail &= group == 0
    buf[:, 7] *= ~tail
    f = np.flatnonzero(kind == _FALLBACK)
    if f.size:
        buf[f, :-1] = percent_format(x[f]).view(np.uint8).reshape(f.size, -1)
    return buf


def format_rows(values: np.ndarray) -> np.ndarray:
    """The bytes "%.17g" gives a 2-D float array: its rows as lines, their
    numbers separated by single spaces."""
    x = values.ravel()
    # "0" and the separator after each number: all there is of a +0
    pairs = np.full((x.size, 2), ord("0"), dtype=np.uint8)
    pairs[:, 1] = ord(" ")
    pairs[values.shape[1] - 1::values.shape[1], 1] = ord("\n")
    i = np.flatnonzero(x.view(np.uint64))  # all but +0
    if 2 * i.size >= x.size:  # mostly nonzero: a +0 takes a row as well
        buf = _tokens(x, pairs[:, 1])
        return buf[buf != 0]
    # mostly +0: rows for the rest only, their bytes moved on by the pairs of
    # the +0 before them, and those pairs in the bytes left over
    buf = _tokens(x[i], pairs[i, 1])
    kept = buf != 0
    tokens = buf[kept]
    at = np.repeat(2 * (i - np.arange(i.size)), kept.sum(axis=1)) + np.arange(tokens.size)
    text = np.empty(2 * (x.size - i.size) + tokens.size, dtype=np.uint8)
    left = np.ones(text.size, dtype=bool)
    left[at] = False
    text[left] = np.delete(pairs.view(np.uint16).ravel(), i).view(np.uint8)
    text[at] = tokens
    return text


# ----------------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------------
#
# A block of text becomes float64 values bit for bit as np.fromstring(text,
# sep=" ") gives them, with its errors.  Tokens are the runs of bytes
# between the six separators numpy skips.  "0" and "-0" are set directly.
# A token of the writer's shapes, [-]d.ddd... or [-]d.ddd...e-XX, has its
# digits after the point read eight to a uint64 word (SWAR) into one integer
# n < 10^17, its value being n 10^-e; a float candidate for it is taken, or
# else one of its two neighbours an ulp away, only if _seventeen_digits, the
# writer's own route, gives back n's 17 digits and exponent.  Since 17
# digits name one double, that double is the correctly rounded value.  Every
# other token (other shapes, more digits, values outside [1e-11, 1), a
# candidate and both neighbours missing) is handed to np.fromstring alone,
# and a block with a control byte other than \t\n\v\f\r goes to it whole.

_BLOCK = 1 << 18  # bytes of text parsed at once; the parse holds up to 15 bytes per byte of it
_PAD = 32  # separator bytes around a block, so that every window read stays inside
_SEPARATORS = b" \t\n\v\f\r"  # what np.fromstring(text, sep=" ") skips between numbers
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(_SEPARATORS)))
_U64 = np.uint64
_POW10 = np.array([10 ** p for p in range(20)], dtype=_U64)
# twice 32 - 4 c shifts out all but the c digits a word holds of k = 0..20 after the point
_HALF = np.array([[32 - 4 * min(max(k - 8 * j, 0), 8) for j in range(3)] for k in range(21)], dtype=_U64)
_MAX_SCALE = 27  # n 10^-e with 17 digits or fewer and a value of 1e-11 or more has e <= 27


@cache  # built on the first read, so that importing pbtsim costs nothing
def _tens() -> np.ndarray:
    """10^-e for e = 0.._MAX_SCALE, one row each: hi, the nearest double, as
    a top half of 26 bits and a bottom half of 27 bits (Veltkamp's split),
    then hi itself and lo, the nearest double to 10^-e - hi."""
    rows = []
    for e in range(_MAX_SCALE + 1):
        hi = 1 / 10 ** e  # int division rounds correctly
        num, den = hi.as_integer_ratio()
        top = hi * (2 ** 27 + 1)
        top -= top - hi
        rows.append([top, hi - top, hi, (den - num * 10 ** e) / (den * 10 ** e)])
    tens = np.array(rows)
    tens.flags.writeable = False
    return tens


def text_blocks(f, size: int = _BLOCK):
    """The rest of the binary file f in pieces of about size bytes, each cut
    just after a separator or at the end of the file, so that no number is
    split between two pieces."""
    carry = b""
    while chunk := f.read(size):
        text = carry + chunk
        cut = len(text.rstrip(_NOT_SEPARATORS))  # after the last separator
        carry = text[cut:]
        if cut:
            yield text[:cut]
    if carry:
        yield carry


def _fromstring(text: bytes) -> np.ndarray:
    """numpy's own reading, for every token the fast route does not take."""
    return np.fromstring(text, sep=" ")


def _windows(b: np.ndarray, at: np.ndarray, width: int, dtype) -> np.ndarray:
    """The bytes b[at:at + width * itemsize] of each position, as width
    little-endian words."""
    item = np.dtype(dtype).itemsize
    view = np.ndarray((b.size - width * item + 1, width), dtype=dtype, buffer=b, strides=(1, item))
    return view[at]


def _confirmed(x: np.ndarray, n: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Whether the writer's route gives each x the value n 10^-e: a kind
    -1 - X and the 17 digits n 10^(17 - sig), where n has sig = e - kind
    digits.  Then x is the double nearest to n 10^-e, as 17 digits name one
    double only."""
    kind, digits = _seventeen_digits(x)
    scale = np.clip(17 + kind - e, 0, 17)  # 17 - sig
    return ((kind <= 10) & (17 + kind - e == scale) & (n < _POW10[17 - scale].view(np.int64))
            & (digits == n * _POW10[scale].view(np.int64)))


def _parse_tokens(b: np.ndarray, at: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each token b[at:at + length], and whether it was read:
    0 and -0 directly, and [-]d.ddd... and [-]d.ddd...e-XX with 17
    significant digits or fewer and a value in [1e-11, 1), each confirmed by
    the writer's route."""
    neg = b[at] == ord("-")
    at = at + neg
    length = length - neg
    lead = b[at] - np.uint8(ord("0"))
    tail = _windows(b, at + length - 4, 1, "<u4")[:, 0]  # the last four bytes
    is_e = ((tail & 0xFFFF) == ord("e") | ord("-") << 8) & (length >= 7)
    tail >>= 16
    tail -= 0x3030  # the exponent's two digits, if any
    k = length - 2 - 4 * is_e  # digits after the point
    ok = (b[at + 1] == ord(".")) & (lead <= 9) & (k >= 1) & (k <= 20)
    ok &= ~is_e | ((tail & 0xF0F0) == 0) & ((tail & 0xFF) <= 9) & ((tail >> 8) <= 9)
    k[~ok] = 1
    # the digits after the point, eight to a word, the first in its lowest
    # byte; the bytes after the last digit shift out at the top, and the
    # leading zeros shifted in at the bottom are digits 0
    v = _windows(b, at + 2, 3, "<u8")
    v -= _U64(0x3030303030303030)
    half = _HALF.take(k, axis=0)
    v <<= half
    v <<= half
    del half
    bad = (v + _U64(0x7676767676767676)) | v  # a high bit where a byte is not 0..9
    ok &= ((bad[:, 0] | bad[:, 1] | bad[:, 2]) & _U64(0x8080808080808080)) == 0
    del bad
    v *= _U64(10 * 256 + 1)  # pairs of digits, then fours, then eights
    v >>= _U64(8)
    v &= _U64(0x00FF00FF00FF00FF)
    v *= _U64(100 * 65536 + 1)
    v >>= _U64(16)
    v &= _U64(0x0000FFFF0000FFFF)
    v *= _U64(10000 * 2 ** 32 + 1)
    v >>= _U64(32)
    # n = the digits as one integer, under 10^17 so that nothing wraps
    first = np.minimum(k, 8)
    n = np.minimum(lead, 9) * _POW10[first] + v[:, 0]
    ok &= n < _POW10[17 - k + first]
    n *= _POW10[k - first]
    n += v[:, 1] * _POW10[np.maximum(k - 16, 0)] + v[:, 2]
    del v
    e = k + is_e * ((tail & 0xFF) * 10 + (tail >> 8))  # the value is n 10^-e
    ok &= (n > 0) & (e <= _MAX_SCALE)
    e[~ok] = 0
    # n 10^-e from n = top + (n - top), top of 26 bits: top times the halves
    # of hi is exact, so the sum is the nearest double unless n 10^-e lies
    # within 2^-26 ulp of a tie
    top_hi, bottom_hi, hi, lo = _tens().take(e, axis=0).T
    n = n.view(np.int64)
    top = n >> 31 << 31
    x = top.astype(float)
    rest = x * bottom_hi
    rest += (n - top).astype(float) * hi
    rest += n.astype(float) * lo
    x *= top_hi
    x += rest
    del top, rest, top_hi, bottom_hi, hi, lo
    # else its neighbour one ulp down or up
    miss = np.flatnonzero(ok & ~_confirmed(x, n, e))
    for toward in (0.0, np.inf):
        y = np.nextafter(x[miss], toward)
        hit = _confirmed(y, n[miss], e[miss])
        x[miss[hit]] = y[hit]
        miss = miss[~hit]
    ok[miss] = False
    zero = (lead == 0) & (length == 1)
    x[zero] = 0.0
    ok |= zero
    np.copysign(x, 0.5 - neg, out=x)
    return x, ok


def _parse_block(text: bytes) -> tuple[int, np.ndarray | None, np.ndarray]:
    """np.fromstring(text, sep=" ") for text holding at least one number, as
    (count, index, x): count numbers, 0 but for x at index, or x itself when
    index is None."""
    b = np.empty(len(text) + 2 * _PAD, dtype=np.uint8)
    b[:_PAD] = b[-_PAD:] = ord(" ")
    b[_PAD:-_PAD] = np.frombuffer(text, dtype=np.uint8)
    control = np.count_nonzero(b < 32)
    if control > np.count_nonzero(b == ord("\n")) and control > np.count_nonzero(b - 9 < 5):
        x = _fromstring(text)  # a control byte other than \t\n\v\f\r
        return x.size, None, x
    inside = b > 32  # the bytes of tokens
    edge = inside[1:] != inside[:-1]  # a token starts or ends at b[i + 1]
    if 8 * np.count_nonzero(edge) < b.size:  # tokens of 8 bytes or more on average
        edges = np.flatnonzero(edge) + 1
        at, length = edges[::2], edges[1::2] - edges[::2]
        del inside, edge, edges
        count, index = at.size, None
    else:
        # mostly "0": the other tokens, found with both edges of every "0" dropped
        zero = (b[1:-1] == ord("0")) & edge[:-1] & edge[1:]  # a "0" at b[i + 1]
        edge[:-1] &= ~zero
        edge[1:] &= ~zero
        edges = np.flatnonzero(edge) + 1
        at, length = edges[::2], edges[1::2] - edges[::2]
        del inside, edge, edges
        # each token's place: the other tokens before it, and the "0": those
        # of the 8-byte words before its own, then those of its own word
        ones = np.zeros(-(-b.size // 8) * 8, dtype=np.uint8)
        ones[1:b.size - 1] = zero
        del zero
        words = ones.view(_U64)
        per_word = ((words * _U64(0x0101010101010101)) >> _U64(56)).view(np.int64)
        word, byte = np.divmod(at, 8)
        own = words[word] & ((_U64(1) << (8 * byte).astype(_U64)) - _U64(1))
        own = ((own * _U64(0x0101010101010101)) >> _U64(56)).view(np.int64)
        count = at.size + int(per_word.sum())
        index = np.arange(at.size) + (np.cumsum(per_word) - per_word)[word] + own
        del ones, words, per_word, word, byte, own
    x, ok = _parse_tokens(b, at, length)
    rest = np.flatnonzero(~ok)
    if rest.size:
        # those tokens alone, each with the separator after it
        at, size = at[rest], length[rest] + 1
        values = _fromstring(b[np.repeat(at - np.cumsum(size) + size, size) + np.arange(size.sum())].tobytes())
        if values.size != rest.size:
            x = _fromstring(text)
            return x.size, None, x
        x[rest] = values
    return count, index, x


def parse_numbers(blocks, size: int = 0) -> np.ndarray:
    """The numbers of a text given in blocks cut after separators (see
    text_blocks), bit for bit as np.fromstring(text, sep=" ") reads them and
    with its errors, but none for a text of separators alone.  They are
    gathered in one array of size numbers, grown in place if more come."""
    values = np.empty(size)
    filled = 0
    for text in blocks:
        if text.isspace():
            continue
        count, index, x = _parse_block(text)
        if filled + count > values.size:
            values.resize(max(filled + count, 2 * values.size), refcheck=False)
        if index is None:
            values[filled:filled + count] = x
        else:
            values[filled:filled + count] = 0.0
            values[filled + index] = x
        filled += count
    values.resize(filled, refcheck=False)
    return values
