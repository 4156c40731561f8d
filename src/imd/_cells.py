"""CSV rows of numeric columns, with the bytes of ``%d`` and ``%.17g`` cells,
built by NumPy.

A chunk of rows is one uint8 matrix.  Each cell is a run of 8-byte words
that holds its text, with NUL wherever the text has no character, and ends in
its separator; deleting the NULs leaves the rows.  The words are composed from
tables by integer operations on whole columns, so no Python code runs per
cell.  Integers (non-negative) are 4-digit ASCII groups from a table.  A float
x with 1e-4 <= |x| < 1e16 takes its 17 correctly rounded digits (Steele &
White 1990; Gay 1990) from int64 arithmetic: with d the decimal exponent of
|x|, |x| 10^(16 - d) lies in [1e16, 1e17), Dekker's exact product (Dekker
1971) writes it as hi + lo, and the integer it rounds to, half to even as
%.17g rounds, is hi + rint(lo).  %.17g writes such an x in fixed notation.
Every other float (|x| < 1e-4, |x| >= 1e16, zeros, subnormals, infinities and
NaN) is formatted by Python's %.17g.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows"]


# "0000" ... "9999", and with leading zeros as NUL (all NUL for 0), as uint32
# lanes; and the same digits spread to the even bytes of uint64 words
_G = np.arange(10000, dtype=np.int16)[:, None]
_PLACES = np.array([1000, 100, 10, 1], np.int16)
_DIGITS = (_G // _PLACES % 10 + 48).astype(np.uint8)
_GROUPS = _DIGITS.view(np.uint32)[:, 0]
_BARE = np.where(_G >= _PLACES, _DIGITS, 0).view(np.uint32)[:, 0]
_ZERO = np.frombuffer(b"\0\0\x000", np.uint32)[0]
_SPREAD = np.zeros((10000, 8), np.uint8)
_SPREAD[:, ::2] = _DIGITS
_SPREAD = _SPREAD.view(np.uint64)[:, 0]
# _LAST[j][g]: the place of the last non-zero digit of a group g of the digits
# 4j + 1 ... 4j + 4, or 0 for g = 0
_LAST = (4 - sum(_G[:, 0] % p == 0 for p in (10, 100, 1000))).astype(np.int8)
_LAST = np.where(_G[:, 0] > 0, np.arange(0, 16, 4, dtype=np.int8)[:, None] + _LAST, 0)
del _G, _PLACES, _DIGITS

# The text of a float in the kernel, 40 bytes: the sign, the integer part 0,
# dot and zeros of |x| < 1, then the 17 digits, each followed by a dot slot,
# and the separator.  Word 0 holds the sign, "0.000" (or a shorter part of
# it, or nothing), the leading digit and dot slot 0; words 1 to 4 four digits
# and their dot slots each.  The layout of a cell follows from its decimal
# exponent d = -4 ... 15 and the place of its last non-zero digit, last =
# 0 ... 16, through shape = 17 (d + 4) + last: the digits after max(d, last)
# are trailing zeros, and the dot follows digit d >= 0 when last > d.
FLOAT_WIDTH = 40
_d, _last = np.divmod(np.arange(20 * 17), 17)
_d -= 4
# by shape: 0xff for a digit shown, "." in the dot's slot and the prefix
_LAYOUT = np.zeros((20 * 17, FLOAT_WIDTH), np.uint8)
_LAYOUT[:, 1:6] = np.frombuffer(b"".join(b"0.000"[:1 - d].ljust(5, b"\0") if d < 0 else
                                         b"\0" * 5 for d in range(-4, 16)), np.uint8
                                ).reshape(20, 5)[_d + 4]
_LAYOUT[:, 6::2] = np.where(np.arange(17) <= np.maximum(_d, _last)[:, None], 0xFF, 0)
_LAYOUT[:, 7:-1:2] = np.where((np.arange(16) == _d[:, None]) & (_last > _d)[:, None],
                              ord("."), 0)
del _d, _last
# word 0 by (shape, sign, leading digit)
_HEAD = np.repeat(_LAYOUT[:, None, :8], 20, axis=1).reshape(-1, 2, 10, 8)
_HEAD[:, 1, :, 0] = ord("-")
_HEAD[..., 6] = 48 + np.arange(10)
_HEAD = _HEAD.reshape(-1, 8).view(np.uint64)[:, 0]
# words 1 to 4 by shape: the dot, and the trailing zeros to clear, as a mask
# that XOR takes off a group's spread digits
_TAIL = _LAYOUT[:, 8:].copy()
_TAIL[:, ::2] = np.where(_TAIL[:, ::2] == 0xFF, 0, ord("0"))
_TAIL = _TAIL.view(np.uint64).T.copy()

# the kernel's range, and _EDGE[d + 4]: the least double >= 10^d, d = -4 ... 16,
# which is the nearest one to 10^d: 10^d itself, or above it for d < 0
_LO, _HI = 1e-4, 1e16
_EDGE = np.array([float(f"1e{d}") for d in range(-4, 17)])


def _split(a):
    """Veltkamp's split of a into 26-bit halves, a = high + low exactly."""
    c = a * 134217729.0  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


# 10^p, p = 0 ... 20 (exact doubles), and its halves for Dekker's product
_TEN = np.array([float(10**p) for p in range(21)])
_TEN_HIGH, _TEN_LOW = _split(_TEN)


def _int_groups(v) -> int:
    """The 4-digit groups that hold every value of v, non-negative ints."""
    return -(-len(str(int(v.max(initial=0)))) // 4)


def int_cells(v, out) -> None:
    """Write the non-negative int64 values v in full into the rows of the
    uint32 lanes out, one 4-digit group to a lane, right-aligned in the first
    _int_groups(v) lanes: each group from _GROUPS, or from _BARE where no
    higher group is non-zero."""
    rest = v
    for j in range(_int_groups(v) - 1, -1, -1):
        high = rest // 10000
        g = rest - 10000 * high
        out[:, j] = np.where(high > 0, _GROUPS[g], _BARE[g])
        rest = high
    out[:, 0] |= (v == 0) * _ZERO


def float_cells(x, out) -> None:
    """Write '%.17g' % x for the float64 values x into the rows of the
    uint64 words out, five to a cell, with NUL where the text has no
    character; the separator byte is left NUL."""
    ax = np.abs(x)
    kernel = (ax >= _LO) & (ax < _HI)
    # every other cell is computed as 1.0 here and rewritten below, so no
    # operation sees a zero, subnormal, infinity or NaN
    ax = np.where(kernel, ax, 1.0)
    # log10 is off by far less than 1e-12 here, so d is exact or one too small
    d = np.floor(np.log10(ax) - 1e-12).astype(np.int64)
    d += ax >= _EDGE[d + 5]
    # ax 10^(16 - d) = hi + lo exactly (Dekker's TwoProduct), hi in [1e16, 1e17]
    p = 16 - d
    hi = ax * _TEN[p]
    ax_high, ax_low = _split(ax)
    ten_high, ten_low = _TEN_HIGH[p], _TEN_LOW[p]
    lo = ax_low * ten_low - (((hi - ax_high * ten_high) - ax_low * ten_high)
                             - ax_high * ten_low)
    # hi is an even integer, so hi + rint(lo) rounds hi + lo half to even.
    # D < 1e17: rounding up to 10^(d + 1) would need |x| within 5e-18
    # relative below it, and every double below a power of ten lies at least
    # 5e-17 relative below it (10^0 ... 10^16 are doubles; the nearest
    # doubles to 1e-3, 1e-2 and 1e-1 lie above them)
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the groups of digits 1-4, 5-8, 9-12 and 13-16, and the last non-zero digit
    groups = [None] * 4
    last = np.zeros(len(x), np.int8)
    for j in range(3, -1, -1):
        rest = D // 10000
        groups[j] = D - 10000 * rest
        np.maximum(last, _LAST[j][groups[j]], out=last)
        D = rest
    shape = 17 * (d + 4) + last
    out[:, 0] = _HEAD[(2 * shape + np.signbit(x)) * 10 + D]
    for j, g in enumerate(groups):
        out[:, j + 1] = _SPREAD[g] ^ _TAIL[j][shape]
    if not kernel.all():
        rows = np.flatnonzero(~kernel)
        text = np.array(["%.17g" % v for v in x[rows].tolist()], dtype=f"S{FLOAT_WIDTH}")
        out[rows] = text.view(np.uint64).reshape(-1, 5)


def csv_rows(columns) -> str:
    """The CSV rows, each ending in \\r\\n, of equal-length columns:
    float64 arrays, written as '%.17g', or non-negative int64 arrays, written
    in full."""
    widths = [FLOAT_WIDTH if c.dtype.kind == "f" else 8 * (_int_groups(c) // 2 + 1)
              for c in columns]
    matrix = np.zeros((len(columns[0]), sum(widths) + 8), np.uint8)
    at = 0
    for c, width in zip(columns, widths):
        cell = matrix[:, at:at + width]
        if c.dtype.kind == "f":
            float_cells(c, cell.view(np.uint64))
        else:
            int_cells(c, cell.view(np.uint32))
        at += width
        matrix[:, at - 1] = ord(",")
    matrix[:, at - 1:at + 1] = np.frombuffer(b"\r\n", np.uint8)
    return matrix.tobytes().translate(None, b"\0").decode("ascii")
