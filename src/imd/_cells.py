"""CSV rows of numeric columns, with the bytes of ``%d`` and ``%.17g`` cells,
built by NumPy.

A chunk of rows is one matrix of 8-byte words.  Each cell is a run of words
that holds its text, with NUL wherever the text has no character; deleting
the NULs leaves the rows.  The words are composed from tables by integer
operations on whole columns, so no Python code runs per cell; where every
cell of a chunk has the same index (decade, which most chunks of a law
share, sign or dot), the table entry is read once and broadcast.

Integers (non-negative) are 4-digit ASCII groups from a table, right-aligned
in their words with the separator in the last byte.  A finite non-zero float
x takes its 17 correctly rounded digits (Steele & White 1990; Gay 1990) from
a table of powers of ten in double-double form.  With d the decimal exponent
of |x| = m 2^e (``np.frexp``) and 10^(16 - d) = (A + B) 2^F, Dekker's exact
product (Dekker 1971) of m and A, plus m B, times 2^(e + F) (a double built
from its exponent bits, exact as both terms stay normal), gives
|x| 10^(16 - d), which lies in [1e16, 1e17), as hi + lo within 2^-103
relative; the integer it rounds to, half to even as %.17g rounds, is
hi + rint(lo).  For 0 <= 16 - d <= 22, 10^(16 - d) is a double (B = 0) and
hi + lo is exact.  Otherwise a cell whose lo lies within the error bound of
a half-integer, where the rounding direction is not certain, goes to
Python's %.17g (Adams, "Ryu", PLDI 2018, settles such cells exactly; here
they are too rare to need it).  d itself is exact: each binade
[2^(e-1), 2^e) holds at most one power of ten, and comparing |x| with the
least double at or above it decides d.  The digits go into three words as
%.17g writes them: fixed notation for -4 <= d <= 16, d.dddde+XX otherwise,
with trailing zeros stripped and no dot after a single digit.  Zeros,
infinities and NaN go to Python's %.17g too (``percent_cells``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows"]


# "0000" ... "9999" as uint64 ASCII, then (at 10000 + g) with the zeros after
# the last non-zero digit as NUL, all NUL for 0: digit k stays if digits
# k ... 3 are not all zero
_G = np.arange(10000, dtype=np.int16)[:, None]
_PLACES = np.array([1000, 100, 10, 1], np.int16)
_DIGITS = (_G // _PLACES % 10 + 48).astype(np.uint8)
_WIDE = np.concatenate([_DIGITS, np.where(_G % (10 * _PLACES) > 0, _DIGITS, 0)]
                       ).view(np.uint32)[:, 0].astype(np.uint64)
# for int cells: the groups with leading zeros as NUL (all NUL for 0), then
# in full; and the same moved to bytes 3 ... 6 of a word, with the bare 0 as
# "0" in _INT_LOW_ZERO, for a number's last group
_INT_HIGH = np.concatenate([np.where(_G >= _PLACES, _DIGITS, 0), _DIGITS]
                           ).view(np.uint32)[:, 0].astype(np.uint64)
_INT_LOW = _INT_HIGH << 24
_INT_LOW_ZERO = _INT_LOW.copy()
_INT_LOW_ZERO[0] = ord("0") << 48
del _G, _PLACES, _DIGITS


def _split(a):
    """Veltkamp's split of the array a into 26-bit halves, a = high + low."""
    high = a * 134217729.0  # 2^27 + 1
    low = high - a
    high -= low
    return high, np.subtract(a, high, out=low)


# Decimal exponents d = -324 ... 308 of the finite non-zero doubles, indexed
# by i = d - _D_MIN.  10^(16 - d) = (A + B) 2^F with A in [0.5, 1] the
# 53-bit rounding of a 128-bit rounding of it, and B the double nearest the
# rest: A + B is within 2^-107 of 10^(16 - d) / 2^F, and equal to it when
# 10^(16 - d) is a double (0 <= 16 - d <= 22, _EXACT).  All from Python
# integers, which build the table in a few milliseconds.
_D_MIN, _D_MAX = -324, 308


def _power(p):
    """(A, B, F, exact) for 10^p, from its 128-bit rounding x 2^(F - 128)."""
    if p >= 0:
        n = 10**p
        shift = n.bit_length()
        x = n << (128 - shift) if shift <= 128 else (n + (1 << (shift - 129))) >> (shift - 128)
    else:
        t = 10**-p
        shift = 1 - t.bit_length()
        x = ((1 << (128 - shift + 1)) + t) // (2 * t)
    a = (x + (1 << 74)) >> 75
    rest = x - (a << 75)
    # 10^p = 5^p 2^p is a double if 5^p < 2^53, and then rest = 0
    exact = 0 <= p and 5**p < 2**53
    return float(a) * 2.0**-53, float(rest) * 2.0**-128, shift, exact


_A, _B, _F, _EXACT = (np.array(c) for c in zip(*(_power(16 - d)
                                                   for d in range(_D_MIN, _D_MAX + 1))))
_A_HIGH, _A_LOW = _split(_A)


def _at_least(d):
    """The least double >= 10^d (inf above the largest double)."""
    x = float(f"1e{d}")
    n, den = x.as_integer_ratio() if x < np.inf else (1, 0)
    if (n * 10**-d < den) if d < 0 else (n < den * 10**d):
        x = float(np.nextafter(x, np.inf))
    return x


# By binade, e = -1073 ... 1024 as frexp gives it (|x| in [2^(e-1), 2^e),
# subnormals included), offset by -_E_MIN: i of 2^(e-1), and the least double
# >= the power of ten above it, which lies above the binade or starts the
# next decade in it
_E_MIN = -1073
_E = np.arange(_E_MIN, 1025)
# with e offset by -_E_MIN as the kernel indexes by it, e + _F is the power
# of two that scales m (A + B) to |x| 10^(16 - d)
_F = (_F + _E_MIN).astype(np.intp)
# (e - 1) log10(2) is floored exactly: for 0 < |e - 1| < 2100 it lies more
# than 4e-4 from an integer (at e - 1 = 485), and at e - 1 = 0 it is 0
_DECADE = np.floor((_E - 1) * np.log10(2.0)).astype(np.intp) - _D_MIN
_NEXT = np.array([_at_least(d) for d in range(_D_MIN + 1, _D_MAX + 2)])[_DECADE]
del _E

# The text of a float, 24 bytes: byte 0 holds the sign and the 17 digits
# start at byte 1, with trailing zeros after the units digit stripped.  By
# its decimal exponent d a cell is written
#   in fixed notation (-4 <= d <= 16): "0." and -d - 1 zeros at bytes
#     1 ... 1 - d and the digits after them (d < 0), or digits 0 ... d, the
#     dot if a non-zero digit follows, and the digits after it (d >= 0);
#   in exponent notation: digit 0, the dot if a non-zero digit follows, the
#     other digits, and "e", the exponent's sign and two or three digits at
#     bytes 19 ... 23.
# The digits are composed once, digit j at byte j + 1, as G, with the zeros
# after the last non-zero digit as NUL.  The text is
#   head | (tail << _SHIFT) | _CONST[i, dot, sign],
# where head = G & _HEAD is the digits that stay (up to the units digit in
# fixed notation with d >= 0, the first digit in exponent notation), tail is
# the rest, moved by a word-wise shift that opens the dot's byte (1 byte) or
# the prefix "0." and zeros (1 - d bytes), and _CONST holds the sign, the
# dot if the tail is not empty, the prefix, the zeros of the units digits
# that G strips (0x30, which leaves a digit as it is) and the exponent.
_HEAD = np.zeros((_D_MAX - _D_MIN + 1, 24), np.uint8)
_CONST = np.zeros((_D_MAX - _D_MIN + 1, 2, 2, 24), np.uint8)
_CONST[:, :, 1, 0] = ord("-")
_SHIFT = np.full(_D_MAX - _D_MIN + 1, 8, np.uint64)
for _d in range(_D_MIN, _D_MAX + 1):
    _i = _d - _D_MIN
    if -4 <= _d < 0:
        _CONST[_i, :, :, 1:2 - _d] = np.frombuffer(b"0.000"[:1 - _d], np.uint8)
        _SHIFT[_i] = 8 * (1 - _d)
    elif 0 <= _d <= 16:
        _HEAD[_i, 1:2 + _d] = 0xFF
        _CONST[_i, :, :, 2:2 + _d] = ord("0")
        _CONST[_i, 1, :, 2 + _d] = ord(".")
    else:
        _HEAD[_i, 1] = 0xFF
        _CONST[_i, 1, :, 2] = ord(".")
        _CONST[_i, :, :, 19:] = np.frombuffer(b"e%+03d" % _d + b"\0" * (abs(_d) < 100), np.uint8)
_HEAD = _HEAD.view(np.uint64).T.copy()
_CONST = _CONST.reshape(-1, 24).view(np.uint64).T.copy()
del _i, _d

# the largest double; and the bound on lo's distance from a half-integer
# below which a cell leaves the kernel: |hi + lo - |x| 10^(16 - d)| is below
# 2^-103 (hi + lo) < 2^-46.5 for an inexact power
_MAX = np.finfo(np.float64).max
_TIE = 2.0**-44


def percent_cells(x) -> np.ndarray:
    """'%.17g' % x for the float64 values x, as the (len(x), 3) uint64 words
    of their text padded with NUL: Python's formatting, for the cells the
    kernel does not write."""
    return np.array(["%.17g" % v for v in x.tolist()], dtype="S24").view(np.uint64).reshape(-1, 3)


def float_cells(x, out) -> None:
    """Write '%.17g' % x for the float64 values x into the rows of the
    uint64 words out, three to a cell, with NUL where the text has no
    character.  A chunk in one decade reads its table entries once."""
    ax = np.abs(x)
    kernel = ax <= _MAX
    kernel &= ax > 0.0
    # every other cell is computed as 1.0 here and rewritten below, so no
    # operation sees a zero, infinity or NaN
    if not kernel.all():
        ax[~kernel] = 1.0
    m, e = np.frexp(ax)
    e = np.subtract(e, _E_MIN, dtype=np.intp)
    i = _DECADE[e]
    i += ax >= _NEXT[e]
    if i.size and i.min() == i.max():
        i = i[0]
    # m (A + B) = h + l within 2^-105 of m 10^(16 - d) / 2^F: Dekker's
    # product h + l' = m A, with m and A split into 26-bit halves, plus m B
    m_high, m_low = _split(m)
    a_high, a_low = _A_HIGH[i], _A_LOW[i]
    h = a_high + a_low
    h *= m
    l = m_high * a_high
    np.subtract(h, l, out=l)
    part = m_low * a_high
    l -= part
    np.multiply(m_high, a_low, out=part)
    l -= part
    np.multiply(m_low, a_low, out=part)
    np.subtract(part, l, out=l)
    np.multiply(m, _B[i], out=part)
    l += part
    # times 2^(e + F), the double with exponent bits e + F + 1023
    e += _F[i] + 1023
    e <<= 52
    h *= e.view(np.float64)
    l *= e.view(np.float64)
    # h is an even integer, so h + rint(l) rounds h + l half to even; for an
    # inexact power an l near a half-integer leaves the kernel
    r = np.rint(l)
    if i.ndim or not _EXACT[i]:
        l -= r
        near = np.abs(l, out=l) > 0.5 - _TIE
        if near.any():
            kernel &= ~near | _EXACT[i]
    D = h.astype(np.int64)
    D += r.astype(np.int64)
    # h + l rounds up to 10^17: the next decade's 10^16
    top = D == 10**17
    if top.any():
        D[top] = 10**16
        i += top
    # digit 0 and the groups of digits 1-4, 5-8, 9-12 and 13-16
    g1 = D // 10**8
    D -= g1 * 10**8
    d0 = g1 // 10**8
    g1 -= d0 * 10**8
    g2 = g1 // 10**4
    g1, g2 = g2, g1 - g2 * 10**4
    g3 = D // 10**4
    D -= g3 * 10**4
    g4 = D
    # the groups full, or stripped where every later group is 0 (offset 10000)
    g4 += 10000
    zero = g4 == 10000
    if zero.any():
        g3 += 10000 * zero
        zero &= g3 == 10000
        g2 += 10000 * zero
        zero &= g2 == 10000
        g1 += 10000 * zero
    # G: digit 0 at byte 1, the groups at bytes 2, 6, 10 and 14
    d0 += 48
    g = [_WIDE[g1], _WIDE[g3], _WIDE[g4]]
    g[0] <<= 16
    g[0] |= d0.view(np.uint64) << 8
    w2 = _WIDE[g2]
    g[0] |= w2 << 48
    g[1] <<= 16
    g[1] |= w2 >> 16
    g[1] |= g[2] << 48
    g[2] >>= 16
    # head, the digits that stay, and tail, the rest of G
    shift = _SHIFT[i]
    right = 64 - shift
    head = [_HEAD[j][i] for j in range(3)]
    for j, h in enumerate(head):
        if h.ndim or h:  # a chunk-wide mask of no byte splits nothing
            head[j] = h = h & g[j]
            g[j] ^= h
    # the sign and a dot after the head, chunk-wide where every cell agrees
    i <<= 2
    for k, f in (1, np.signbit(x)), (2, (g[0] | g[1] | g[2]) != 0):
        i += k * (f if f.any() != f.all() else f[0])
    carry = None
    for j, tail in enumerate(g):
        word = tail << shift
        for h in head[j], carry:
            if np.ndim(h):  # not a chunk-wide empty head, nor word 0's carry
                word |= h
        np.bitwise_or(word, _CONST[j][i], out=out[:, j])
        carry = np.right_shift(tail, right, out=tail)
    if not kernel.all():
        rows = np.flatnonzero(~kernel)
        out[rows] = percent_cells(x[rows])


def _int_words(v) -> int:
    """The words that hold every value of v, non-negative ints, in full
    with a separator."""
    return len(str(int(v.max(initial=0)))) // 8 + 1


def int_cells(v, out, sep) -> None:
    """Write the non-negative int64 values v in full into the rows of the
    uint64 words out, right-aligned before the last byte, which holds the
    byte sep.  Word j (from the right) holds the last three characters of
    its 8-digit block's upper group, the lower group, and the first
    character of the next block's upper group or sep."""
    rest = v
    byte7 = np.uint64(sep) << np.uint64(56)
    low = _INT_LOW_ZERO
    for j in range(out.shape[1] - 1, -1, -1):
        block = rest
        if j:
            high = rest // 10**8
            block = rest - high * 10**8
            ahead = high > 0
        a = block // 10**4
        b = block - a * 10**4
        if j:
            b += 10000 * (ahead | (a > 0))
            a += 10000 * ahead
        else:  # chunk-wide where no cell has fewer than five digits
            b += 10000 if a.all() else 10000 * (a > 0)
        upper = _INT_HIGH[a]
        np.bitwise_or(upper >> 8 | low[b], byte7, out=out[:, j])
        byte7 = upper << 56
        low = _INT_LOW
        if j:
            rest = high


def csv_rows(columns, end="\r\n") -> str:
    """The CSV rows of equal-length columns, each row ending in end (at most
    8 characters): float64 arrays, written as '%.17g', or non-negative int64
    arrays, written in full."""
    last = len(columns) - 1
    # a float cell is followed by a word with its separator, unless end
    # follows it; an int cell holds its separator
    widths = [(3 if k == last else 4) if c.dtype.kind == "f" else _int_words(c)
              for k, c in enumerate(columns)]
    matrix = np.empty((len(columns[0]), sum(widths) + 1), np.uint64)
    at = 0
    for k, (c, width) in enumerate(zip(columns, widths)):
        cell = matrix[:, at:at + width]
        if c.dtype.kind == "f":
            float_cells(c, cell[:, :3])
            if k < last:
                cell[:, 3] = ord(",")
        else:
            int_cells(c, cell, np.uint64(ord(",") if k < last else 0))
        at += width
    matrix[:, at] = int.from_bytes(end.encode("ascii"), "little")
    return matrix.tobytes().translate(None, b"\0").decode("ascii")
