"""Python's "%.17g" for whole float64 arrays, byte for byte.

``format_rows`` gives the text ``resources.save_resource`` writes for a chunk
of matrix rows; ``percent_format`` is Python's own formatting, entry by entry,
for the numbers the integer route does not take.

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
    cross = m * b_hi + m_hi * b
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
