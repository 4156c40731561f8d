"""Exact finite-N Gibbs statistics of the monomer count on the complete graph.

The Hamiltonian depends on a dimer configuration D only through the monomer
density m = (N - 2|D|)/N, so the law of the monomer count S_N collapses to an
explicit weighted sum over the dimer number k = |D|:

    w_k = C(N, k) * N^{-k} * exp( N [ (h-J) m_k + J m_k^2 ] ),
    C(N, k) = N! / ( (N-2k)! 2^k k! ),   m_k = (N - 2k)/N,

with S_N = N - 2k supported on one parity class.  All weights are kept in log
space (they span e^{+-N} scales); probabilities are materialized only after a
log-sum-exp shift.

Only a window of atoms carries probability: every atom whose log weight lies
more than 750 below the largest has probability exactly 0 in double precision
(exp underflows below -745.2).  ``monomer_law`` finds that window on the
atoms: the increments of the log weight are closed-form and change
direction at most twice, so integer bisections find its one or two peaks
and the edge atoms 750 below the highest.  It evaluates gammaln, exp and the
normalization only inside the window: O(sqrt(N)) atoms away from
coexistence.  At coexistence the window is one interval per phase: two
intervals around the valley between the phases, whose atoms lie more than
750 below both peaks, or one when the two meet.  ``log_partition_pure``
finds each field's window on the atoms too, by one row-vectorized bisection
for all its fields, since the J = 0 weights are log-concave in k.  Both
reduce their windows through one windowed log-sum-exp, ``_logsumexp_rows``,
which gives scipy's logsumexp over the full support bit for bit: its sums,
like every other full-length sum of a law here, go through ``_padded_sum``,
which walks NumPy's pairwise summation tree and reduces only the nodes that
meet the windows, so they keep the bits of a sum over the zero-padded
support without building it.

One type, ``AtomLaw``, holds the law: one probability array per window
interval, and a value column evaluated by atom index, the log weight here
or the position of ``limits.scaled_law``, which reads the same atoms in
increasing S through reversed views.  Its full-support ``probabilities``
are built only on first read.  Its one writer streams the atoms as CSV or
JSON in chunks of _CSV_ROWS, evaluating the columns chunk by chunk, so
writing a law takes O(_CSV_ROWS) memory beyond its windows.  The CSV cells
have the bytes of %d and %.17g and come from a NumPy kernel, ``_cells``:
every finite non-zero float, subnormals included, from its 17 correctly
rounded digits, taken from a double-double table of powers of ten by
Dekker's product, and zeros, infinities, NaN and the rare cell within the
table's error bound of a rounding tie from Python's %.17g.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
import json
import math

import numpy as np
from scipy.special import gammaln, logsumexp

from .quadrature import TAIL_DROP
from .thermo import _H_MAX, ModelParams

__all__ = [
    "AtomLaw",
    "matching_count_log",
    "monomer_law",
    "log_partition",
    "pressure",
    "log_partition_pure",
    "SmoothedDensity",
]


# atoms more than this below the largest log weight have probability 0
_WINDOW_DROP = 750.0


def matching_count_log(N: int, k) -> float:
    """log of the number of k-dimer matchings of the complete graph K_N,
    log[ N! / ((N-2k)! 2^k k!) ], via log-gamma."""
    kk = np.asarray(k)
    if np.any((kk < 0) | (2 * kk > N)):
        raise ValueError(f"dimer count k must satisfy 0 <= k <= N/2, got k={k}, N={N}")
    val = _log_matchings(N, kk)
    return float(val) if np.ndim(k) == 0 else val


def _log_matchings(N: int, k):
    """matching_count_log at dimer counts k known to lie in [0, N/2]."""
    return gammaln(N + 1.0) - gammaln(N - 2.0 * k + 1.0) - k * math.log(2.0) - gammaln(k + 1.0)


# atoms per chunk in AtomLaw.write: at 16 384 the CSV kernel's temporaries
# (128 KB each) moved perfbench large_n's peak RSS between 80 and 89 MB from
# run to run, at 4096 it stays at 83.9 MB
_CSV_ROWS = 1 << 12


class AtomLaw:
    """Exact law of the monomer count S_N = N - 2k on its N//2 + 1 atoms.

    The atoms are read by an index i: in increasing k (k = i) for the
    monomer law, or in increasing S (k = N//2 - i) for a scaled law, one with
    ``eta`` and ``u``.  ``windows`` holds one or two increasing intervals
    [a, b) of indices and ``parts`` the probabilities on each; every other
    atom has probability 0, and at coexistence the valley between two
    intervals holds probability 0.  ``probabilities``, every atom's
    probability in that order, is built from them on first read.
    ``values_at(i)`` gives the value column at indices i: the log weight of
    the monomer law, or the position (S - N u)/N^eta of a scaled law.
    ``values`` (``log_weights``, ``positions``) evaluates it at every atom on
    first read.  Moments are those of S for the monomer law and of the
    position for a scaled law, over the hull of the windows.
    """

    def __init__(self, N: int, params: ModelParams, log_Z: float, parts, windows,
                 values_at, eta: float | None = None, u: float | None = None):
        self.N = N
        self.params = params
        self.log_Z = log_Z
        self.parts = parts
        self.windows = windows
        self.values_at = values_at
        self.eta = eta
        self.u = u
        self.size = N // 2 + 1
        self._values = None

    @functools.cached_property
    def probabilities(self):
        return _padded(self.parts, self.windows, 0, self.size)

    @property
    def values(self):
        if self._values is None:
            self._values = self.values_at(np.arange(self.size))
        return self._values

    log_weights = positions = values

    def _k(self, i):
        return i if self.eta is None else self.N // 2 - i

    @property
    def k_values(self):
        return self._k(np.arange(self.size))

    @property
    def s_values(self):
        """Support of S_N, in the law's order (same parity as N)."""
        return self.N - 2 * self.k_values

    def _hull(self):
        """The probabilities over the hull of the windows, and S (the monomer
        law) or the positions (a scaled law) there."""
        lo, hi = self.windows[0][0], self.windows[-1][1]
        i = np.arange(lo, hi)
        return (_padded(self.parts, self.windows, lo, hi),
                self.N - 2 * i if self.eta is None else self.values_at(i))

    def mean(self) -> float:
        p, x = self._hull()
        return float(np.dot(p, x))

    def central_moment(self, order: int) -> float:
        p, x = self._hull()
        return float(np.dot(p, (x - self.mean()) ** order))

    def variance(self) -> float:
        return self.central_moment(2)

    def write(self, fh, fmt: str = "csv") -> None:
        """Write the atoms to fh as CSV (fmt "csv") or JSON (fmt "json"), in
        chunks of _CSV_ROWS atoms, so memory stays O(_CSV_ROWS) beyond the
        windows' probabilities whatever the number of atoms.

        CSV: one atom per row, ``k,S,<value name>,probability``.  Integers
        are written in full and floats with 17 significant digits (``%.17g``,
        which round-trips every double), rows end in ``\\r\\n``: the same
        bytes as ``csv.writer`` with ``format(x, ".17g")`` cells.  Rows
        outside the windows have probability 0, written as the constant row
        end ``,0\\r\\n``.  ``_cells.csv_rows`` builds a chunk's rows as one
        NumPy matrix of 8-byte words: the integers from a table of 4-digit
        groups, and every finite non-zero float, in fixed or exponent
        notation as %.17g writes it, from its 17 correctly rounded digits,
        taken from a double-double table of powers of ten by Dekker's
        product.  Python's %.17g formats zeros, infinities, NaN and the
        rare cell within the table's error bound of a rounding tie.

        JSON: the bytes of ``json.dumps(payload, indent=2, sort_keys=True)
        + "\\n"`` for the payload N, h, J, then log Z, k, S and the log
        weights (the monomer law) or eta, u and the positions (a scaled law),
        and the probabilities.  Keys go out sorted and each column chunk by
        chunk through json's own encoder, so floats are their ``repr`` and
        non-finite values read ``NaN``, ``Infinity`` and ``-Infinity``; the
        probability chunks are built from the windows, zero between them.

        The log weights carry the error of their gammaln terms, of order
        2e-16 N log N (ROADMAP item 11): measured against 50-digit mpmath,
        the probabilities are off by up to 1.6e-11 relative at N = 1e4,
        2.7e-9 at 1e6 and 2.1e-8 at 1e7, so of the 17 digits written about
        8 or 9 hold at N = 1e6.

        ValueError for any other fmt, before anything is written.
        """
        if fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
        n = self.size
        name = "log_weight" if self.eta is None else "position"
        columns = {"k": self._k, "S": lambda i: self.N - 2 * self._k(i), name: self.values_at,
                   "probability": lambda i: _padded(self.parts, self.windows, i[0], i[0] + len(i))}
        if fmt == "json":
            fields = {"N": self.N, "h": self.params.h, "J": self.params.J}
            if self.eta is None:
                fields |= {"log_Z": self.log_Z} | columns
            else:
                fields |= {"eta": self.eta, "u": self.u, name: columns[name],
                           "probability": columns["probability"]}
            head = "{\n"
            for key in sorted(fields):
                fh.write(f"{head}  {json.dumps(key)}: ")
                head = ",\n"
                if not callable(fields[key]):
                    fh.write(json.dumps(fields[key]))
                    continue
                item = "[\n    "
                for c in range(0, n, _CSV_ROWS):
                    chunk = fields[key](np.arange(c, min(n, c + _CSV_ROWS))).tolist()
                    fh.write(item + json.dumps(chunk, separators=(",\n    ", ": "))[1:-1])
                    item = ",\n    "
                fh.write("\n  ]")
            fh.write("\n}\n")
            return
        # imported here, not at the top: only the CSV writer needs its tables
        from . import _cells

        fh.write(f"k,S,{name},probability\r\n")
        # runs of zero probability alternate with the windows' intervals
        edges = [0] + [e for window in self.windows for e in window] + [n]
        for run, (a, b) in enumerate(zip(edges, edges[1:])):
            for c in range(a, b, _CSV_ROWS):
                i = np.arange(c, min(b, c + _CSV_ROWS))
                cells = [columns[key](i) for key in ("k", "S", name)]
                # a zero run's probabilities are the constant end ",0"
                if run % 2:
                    fh.write(_cells.csv_rows(cells + [self.parts[run // 2][i - a]]))
                else:
                    fh.write(_cells.csv_rows(cells, ",0\r\n"))


def _log_weights(N: int, params: ModelParams, k) -> np.ndarray:
    """log w_k at dimer counts k; between atoms, the gammaln interpolation."""
    m = (N - 2.0 * k) / N
    return (
        _log_matchings(N, k)
        - k * math.log(N)
        + N * ((params.h - params.J) * m + params.J * m * m)
    )


def _first_atom(a: int, b: int, reached) -> int:
    """The first integer i in [a, b) at which reached(i) holds, or b if none,
    by bisection on plain ints: reached is False and then True on [a, b)."""
    return bisect.bisect_left(range(b), True, lo=a, key=reached)


def _window(N: int, params: ModelParams) -> list[tuple[int, int, np.ndarray]]:
    """The disjoint, increasing intervals [lo, hi) of dimer counts whose log
    weight L lies within _WINDOW_DROP of the largest, one or two, each with
    its atoms' log weights; every other atom's probability is 0.

    Found on the atoms by integer bisections.  The increments
    D(k) = L(k+1) - L(k) = log[(N-2k)(N-2k-1)/(2(k+1)N)] - 2(h-J) - 4J(N-2k-1)/N
    have concave differences C(k), so D falls, rises on the one run [d1, d2)
    where C > 0, and falls again: L has one peak, or two around the valley
    atom where D turns positive on that run.  C(k) averages the continuous
    L'' = -4 psi'(N-2k+1) - psi'(k+1) + 8J/N over [k, k+2], and as
    psi'(x) > 1/x, L'' < 0 everywhere when 8J/N <= (2 + sqrt 2)^2 / (N + 3):
    then C is not searched.  L rises to each side's peak and falls after it,
    so a bisection on each flank finds the edge at _WINDOW_DROP below the
    highest peak.  A side whose peak lies below that floor is left out; two
    kept sides give two intervals, or one when they touch.  The finder
    evaluates L in Python floats with math.lgamma: the window need only hold
    every atom within 745.13 of the largest, where exp underflows, so
    rounding that moves the floor by less than 4.87 changes no bit.
    """
    h, J, K = params.h, params.J, N // 2
    lg_N, log_2N = math.lgamma(N + 1.0), math.log(2.0 * N)

    def L(k):
        m = (N - 2 * k) / N
        return (lg_N - math.lgamma(N - 2 * k + 1.0) - math.lgamma(k + 1.0) - k * log_2N
                + N * ((h - J) * m + J * m * m))

    def D(k):
        a = N - 2 * k
        return math.log(a * (a - 1) / (2 * (k + 1) * N)) - 2.0 * (h - J) - 4.0 * J * (a - 1) / N

    def C(k):  # D(k + 1) - D(k)
        a = N - 2 * k
        return math.log1p(-2 / a) + math.log1p(-2 / (a - 1)) - math.log1p(1 / (k + 1)) + 8.0 * J / N

    sides = [(0, K + 1)]  # [first atom, one past the last) per side
    if K >= 2 and 8.0 * J / N > (2.0 + math.sqrt(2.0)) ** 2 / (N + 3.0):
        top = _first_atom(0, K - 2, lambda k: C(k + 1) <= C(k))
        if C(top) > 0.0:
            d1 = _first_atom(0, top, lambda k: C(k) > 0.0)
            d2 = _first_atom(top, K - 1, lambda k: C(k) <= 0.0)
            # D falls on [0, d1], rises on [d1, d2] and falls on [d2, K)
            if D(d1) < 0.0 < D(d2):
                v = _first_atom(d1, d2, lambda k: D(k) > 0.0)
                sides = [(0, v + 1), (v + 1, K + 1)]
    # each side's peak: the first atom after which L does not rise
    tops = [_first_atom(a, b - 1, lambda k: D(k) <= 0.0) for a, b in sides]
    peaks = [L(p) for p in tops]
    floor = max(peaks) - _WINDOW_DROP
    kept = []
    for (a, b), p, peak in zip(sides, tops, peaks):
        # at |h| near 4e306 the floor rounds to the peak: a side is dropped
        # only when its peak lies below the floor
        if peak < floor:
            continue
        lo = _first_atom(a, p, lambda k: L(k) >= floor)
        hi = _first_atom(p + 1, b, lambda k: L(k) < floor)
        if kept and kept[-1][1] >= lo:
            lo = kept.pop()[0]
        kept.append((lo, hi))
    return [(lo, hi, _log_weights(N, params, np.arange(lo, hi))) for lo, hi in kept]


def monomer_law(N: int, params: ModelParams) -> AtomLaw:
    """Construct the exact monomer-count law for system size N.

    The law holds one array per window interval, O(window) memory and time
    whatever N.  log Z and the normalization are reduced by
    _logsumexp_rows and _padded_sum over the windows alone, with the bits of
    NumPy's pairwise sums over the full support, zero outside the windows.

    Each log weight is off by the rounding of its gammaln terms, of order
    2e-16 N log N (ROADMAP item 11): against 50-digit mpmath, up to 1.6e-11
    at N = 1e4, 2.7e-9 at 1e6 and 2.1e-8 at 1e7.  The probabilities carry
    the same relative error, and log Z is off by 1.1e-9 at N = 1e6.
    ValueError unless N (|h| + 2J), a bound on the log weights
    N [(h - J) m + J m^2], is at most thermo._H_MAX.
    """
    if N < 1:
        raise ValueError(f"system size must be positive, got N={N}")
    if not N * (abs(params.h) + 2.0 * params.J) <= _H_MAX:
        raise ValueError(f"N (|h| + 2J) at N={N}, h={params.h!r}, J={params.J!r} is outside "
                         f"the representable range <= {_H_MAX:.6g}: the log weights overflow")
    kept = _window(N, params)
    windows = [(c, d) for c, d, _ in kept]
    parts = [lw.copy() for _, _, lw in kept]
    log_Z = float(_logsumexp_rows([p[None] for p in parts], windows, N // 2 + 1)[0])
    for part, (_, _, lw) in zip(parts, kept):
        np.exp(lw - log_Z, out=part)
    total = _padded_sum(parts, windows, N // 2 + 1)
    for part in parts:
        part /= total
    return AtomLaw(N, params, log_Z, parts, windows, functools.partial(_log_weights, N, params))


def log_partition(N: int, params: ModelParams) -> float:
    """log Z_N for the full model."""
    return monomer_law(N, params).log_Z


def pressure(N: int, params: ModelParams) -> float:
    """Finite-N pressure density log(Z_N)/N."""
    return log_partition(N, params) / N


# (field or point, atom) cells per block in log_partition_pure and
# SmoothedDensity.log_mixture: 256 KB per temporary
_CELLS = 1 << 15
# up to this many atoms, log_partition_pure takes whole rows
_FULL_ROWS = 2001


def log_partition_pure(N: int, fields) -> np.ndarray | float:
    """log Z_N of the pure hard-core model (J = 0) at one or many external
    fields; vectorized over fields for quadrature callbacks.

    Fields are processed in blocks of max(1, _CELLS // (N//2 + 1)) rows in
    one reused buffer, so the temporaries take O(_CELLS) memory whatever the
    number of fields (one row of N//2 + 1 cells when that exceeds _CELLS) and
    are not handed back to the allocator block by block; each field's result
    is bitwise the same as from a single fields x atoms broadcast.

    Beyond _FULL_ROWS atoms, a block works only on the union of its fields'
    windows (_pure_windows): it writes their log weights there and reduces
    them by _logsumexp_rows, whose sums have the bits of the full rows with
    0 outside the window, what exp gives there.  A block with a field whose
    peak log weight is not finite takes the full rows.

    The log weights are monomer_law's at J = 0 and carry the same gammaln
    error (ROADMAP item 11): log Z_N is off by about 1.6e-11 relative at
    N = 1e4, well within the 1e-8 gates of its callers."""
    hs = np.atleast_1d(np.asarray(fields, dtype=np.float64))
    base, s = _pure_atoms(N)
    n = len(s)
    rows = max(1, _CELLS // n)
    out = np.empty(len(hs))
    block = np.empty((min(rows, len(hs)), n))
    windowed = n > _FULL_ROWS
    if windowed:
        lo, hi, peak = _pure_windows(base, s, hs)
    for i in range(0, len(hs), rows):
        if windowed and np.isfinite(peak[i:i + rows]).all():
            a0, b0 = lo[i:i + rows].min(), hi[i:i + rows].max()
        else:
            a0, b0 = 0, n
        w = block[:min(rows, len(hs) - i), :b0 - a0]
        np.multiply(hs[i:i + rows, None], s[a0:b0], out=w)
        w += base[a0:b0]
        out[i:i + rows] = _logsumexp_rows([w], [(a0, b0)], n)
    return float(out[0]) if np.ndim(fields) == 0 else out


def _pure_atoms(N: int):
    """base = log C(N, k) - k log N and s = N - 2k at every atom k: the J = 0
    log weight at field h is base + h s."""
    k = np.arange(N // 2 + 1)
    return _log_matchings(N, k) - k * math.log(N), N - 2.0 * k


def _pure_windows(base, s, hs):
    """For every field h: [lo, hi), the atoms whose log weight base + h s is
    at least its value at the peak atom k* minus _WINDOW_DROP, and that peak
    value.  Every other atom lies more than _WINDOW_DROP below the row's
    maximum, so its exp underflows to 0.

    Exact on the atoms for log-concave weights, which these are at J = 0: the
    increments of base fall in k, since C(N, k+1)/C(N, k)/N
    = (N-2k)(N-2k-1)/(2(k+1)N) does, and those of base + h s lie 2h below
    them.  k* is the number of increments above 2h (a searchsorted), the log
    weight rises up to k* and falls after it, and a bisection on each side
    finds where it crosses the threshold, evaluating base + h s at the atoms
    with the same floating-point operations as the block."""
    n = len(base)
    top = np.searchsorted(-np.diff(base), -2.0 * hs)
    peak = hs * s[top] + base[top]
    floor = peak - _WINDOW_DROP

    def below(i):
        j = np.minimum(i, n - 1)  # a finished row's midpoint may be n
        return (hs * s[j] + base[j]) < floor

    return (_first_reached(np.zeros_like(top), top, lambda i: ~below(i)),
            _first_reached(top + 1, np.full_like(top, n), below), peak)


def _first_reached(a, b, reached):
    """For every row of the index arrays a <= b, the first i in [a, b) at
    which reached(i) holds, or b if none, by bisection: reached, False and
    then True along a row, takes all rows' midpoints (finished rows' too)."""
    while True:
        active = a < b
        if not active.any():
            return a
        mid = (a + b) // 2
        hit = reached(mid)
        b = np.where(active & hit, mid, b)
        a = np.where(active & ~hit, mid + 1, a)


def _logsumexp_rows(parts, windows, n: int) -> np.ndarray:
    """scipy's logsumexp(a, axis=1), bit for bit, for rows a of n columns,
    computed in the parts' storage.

    parts[j] holds the row blocks' columns of windows[j], one or two
    increasing intervals [lo, hi); the other columns hold values whose exp
    underflows against their row's maximum, so they are never read (a
    window narrower than the row is passed only for rows with a finite
    maximum).  The maximum, its multiplicity m and exp(a - max) are taken
    window by window, and the row sum s, by _padded_sum, has the bits of a
    sum over every column; then scipy's log1p(s / m) + log m + max, in
    scipy's order.  scipy's second, direct pass only replaces results that
    are not finite, which needs a non-finite row maximum: such rows, always
    passed whole as one window, go to scipy."""
    a_max = parts[0].max(axis=1, keepdims=True)
    for w in parts[1:]:
        np.maximum(a_max, w.max(axis=1, keepdims=True), out=a_max)
    if not np.isfinite(a_max).all():
        return logsumexp(parts[0], axis=1)
    m = 0.0
    for w in parts:
        at_max = w == a_max
        m = m + at_max.sum(axis=1, keepdims=True, dtype=np.float64)
        w -= a_max
        np.exp(w, out=w)
        w[at_max] = 0.0
    s = _padded_sum(parts, windows, n)[:, None]
    return (np.log1p(np.where(s == 0.0, s, s / m)) + np.log(m) + a_max)[:, 0]


def _padded(parts, windows, a: int, b: int) -> np.ndarray:
    """Columns [a, b) of the layout that holds parts[j] on windows[j] = [lo, hi)
    along its last axis and 0.0 elsewhere; the windows may reach past [a, b)."""
    out = np.zeros(parts[0].shape[:-1] + (b - a,))
    for (lo, hi), p in zip(windows, parts):
        c, d = max(lo, a), min(hi, b)
        if c < d:
            out[..., c - a:d - a] = p[..., c - lo:d - lo]
    return out


# nodes of NumPy's pairwise summation tree of up to this many atoms are summed
# zero-padded, in one call
_LEAF = 1 << 13


def _padded_sum(parts, windows, b: int, a: int = 0):
    """np.sum(_padded(parts, windows, a, b), axis=-1) bit for bit, one sum
    for 1-D parts and one per row for 2-D ones, in O(window + log(b - a))
    time and O(_LEAF) memory per row beyond the parts.  The values must not
    be -0.0 (here they are exps and probabilities); the windows may reach
    past [a, b).

    NumPy sums a contiguous or strided axis of doubles as 0.0 plus the
    pairwise sum of its n values (``pairwise_sum`` in NumPy's loops: in
    order below 8, in 8 accumulators up to 128, and above that the two
    halves split at n/2 rounded down to a multiple of 8).  A node of that
    tree that meets no window sums to +0.0; one inside a window, or of at
    most _LEAF atoms, goes to np.add.reduce(..., initial=0.0), which walks
    the same sub-tree, so only the nodes on the windows' edges are split
    here.  The hypothesis test in test_exact holds this against the pinned
    NumPy."""
    hit = [(lo, hi, p) for (lo, hi), p in zip(windows, parts) if lo < b and a < hi]
    if not hit:
        return 0.0
    lo, hi, p = hit[0]
    if lo <= a and b <= hi:
        return np.add.reduce(p[..., a - lo:b - lo], axis=-1, initial=0.0)
    if b - a <= _LEAF:
        return np.add.reduce(_padded(parts, windows, a, b), axis=-1, initial=0.0)
    half = (b - a) // 2
    half -= half % 8
    return _padded_sum(parts, windows, a + half, a) + _padded_sum(parts, windows, b, a + half)


def _n_log_shape(N: int, params: ModelParams, y):
    """N F_N(y) = -N J y^2 + log Z0_N(2 J y + h - J), vectorized in y."""
    yy = np.asarray(y, dtype=np.float64)
    fields = 2.0 * params.J * yy + params.h - params.J
    return -N * params.J * yy * yy + log_partition_pure(N, fields)


class SmoothedDensity:
    """Law of W / N^{1/2-eta} + (S_N - N u) / N^{1-eta} for an independent
    Gaussian W ~ N(0, 1/(2J)), J > 0.

    Two exact representations are carried side by side:

    * ``mixture``: the finite Gaussian mixture with component means
      (S_k - N u)/N^{1-eta} and common variance N^{2eta-1}/(2J), weighted by
      the exact monomer law;
    * ``analytic``: C_N exp(N F_N(x/N^eta + u)) with
      F_N(y) = -J y^2 + log(Z0_N(2Jy + h - J))/N, through the pure partition
      function, and the normalizer C_N in closed form from log Z_N.

    Both routes divide by the same Z_N, so their pointwise agreement checks
    the shape: the Gaussian identity behind F_N, on the pure partition
    function against the law's log weights.  Criterion 5 checks C_N apart,
    by integrating the analytic density with the quadrature over
    ``integration_domain()``.  Only ``law`` depends on (N, params) alone;
    ``rescaled(eta, u)`` gives a sibling sharing it by reference.
    """

    def __init__(self, N: int, params: ModelParams, eta: float = 0.0, u: float = 0.0):
        if params.J <= 0.0:
            raise ValueError("Gaussian smoothing requires J > 0")
        self.N = int(N)
        self.params = params
        self.law = monomer_law(N, params)
        self._scale(eta, u)

    def rescaled(self, eta: float = 0.0, u: float = 0.0) -> SmoothedDensity:
        """This density at (eta, u): a sibling sharing its law."""
        sibling = copy.copy(self)
        sibling._scale(eta, u)
        return sibling

    def _scale(self, eta, u):
        if eta < 0:
            raise ValueError(f"scaling exponent eta must be >= 0, got {eta}")
        self.eta = float(eta)
        self.u = float(u)
        self.component_var = self.N ** (2.0 * eta - 1.0) / (2.0 * self.params.J)
        # a sibling copied by rescaled evaluates its own means on first read
        self.__dict__.pop("component_means", None)

    def _means(self, k):
        """The means (S_k - N u)/N^(1-eta) of the components at atoms k."""
        return (self.N - 2 * k - self.N * self.u) / self.N ** (1.0 - self.eta)

    @functools.cached_property
    def component_means(self):
        return self._means(self.law.k_values)

    # -- mixture route -----------------------------------------------------
    def log_mixture(self, x):
        """log of the mixture density at x.

        Beyond _FULL_ROWS components, most points need only the window's: a
        component left out lies more than _WINDOW_DROP - 4.87 below the
        largest in log weight (_window), so its term
        -(x - mean)^2 / (2 var) + log p lies more than 745.2 below the row's
        maximum, where exp underflows to 0, once its Gaussian term exceeds by
        at least 1 (plus a 1e-12 relative allowance for rounding) the gap
        between the largest log weight and the term of one of the windows'
        peak components, each a lower bound on the row's maximum.  The means
        fall in k, so on each run of left-out atoms the mean nearest x bounds
        the run's Gaussian terms.  Those points are reduced over the windows,
        with the sums of the full rows (_logsumexp_rows); every other point
        takes its full row of N//2 + 1 components."""
        xx = np.atleast_1d(np.asarray(x, dtype=np.float64))
        law, n = self.law, self.law.size
        out = np.empty(len(xx))
        full = slice(None)  # the points that take full rows
        if n > _FULL_ROWS:
            k = np.concatenate([np.arange(lo, hi) for lo, hi in law.windows])
            means, log_p = self._means(k), law.values_at(k) - law.log_Z

            def gauss(d):  # |Gaussian term| at distance d, rounded as in _log_rows
                return d * d / (2.0 * self.component_var)

            cuts = list(itertools.accumulate([hi - lo for lo, hi in law.windows], initial=0))
            peaks = [c + int(np.argmax(log_p[c:d])) for c, d in zip(cuts, cuts[1:])]
            gap = np.min([log_p.max() - log_p[i] + gauss(xx - means[i]) for i in peaks], axis=0)
            q_near = np.full(len(xx), np.inf)
            edges = [0] + [e for window in law.windows for e in window] + [n]
            for c, d in zip(edges[::2], edges[1::2]):
                if c < d:
                    top, bottom = self._means(np.array([c, d - 1]))
                    q_near = np.minimum(q_near, gauss(np.maximum(np.maximum(bottom - xx, xx - top),
                                                                 0.0)))
            with np.errstate(invalid="ignore"):  # inf - inf at infinite x: a full row
                windowed = q_near - gap > 1.0 + 1e-12 * gap
            out[windowed] = self._log_rows(xx[windowed], means, log_p, law.windows)
            full = ~windowed
        rest = xx[full]
        if len(rest):
            out[full] = self._log_rows(rest, self.component_means,
                                       law.log_weights - law.log_Z, [(0, n)])
        out -= 0.5 * math.log(2.0 * math.pi * self.component_var)
        return out[0] if np.ndim(x) == 0 else out

    def _log_rows(self, xs, means, log_p, windows):
        """logsumexp over the components of windows (means and log_p run over
        them in turn) of -(x - mean)^2 / (2 var) + log p at every x of xs, in
        blocks of max(1, _CELLS // len(means)) points built in one reused
        buffer: each point's row is reduced on its own, so the blocks give the
        bits of one points x components broadcast in O(_CELLS) memory."""
        cuts = list(itertools.accumulate([hi - lo for lo, hi in windows], initial=0))
        rows = max(1, _CELLS // len(means))
        out = np.empty(len(xs))
        block = np.empty((min(rows, len(xs)), len(means)))
        for i in range(0, len(xs), rows):
            # -(x - mean)^2 / (2 var) + log p, the operations in that order
            a = block[:min(rows, len(xs) - i)]
            np.subtract(xs[i:i + rows, None], means, out=a)
            np.multiply(a, a, out=a)
            np.negative(a, out=a)
            a /= 2.0 * self.component_var
            a += log_p
            out[i:i + rows] = _logsumexp_rows([a[:, c:d] for c, d in zip(cuts, cuts[1:])],
                                              windows, self.law.size)
        return out

    def mixture(self, x):
        return np.exp(self.log_mixture(x))

    # -- analytic route ----------------------------------------------------
    @property
    def log_normalizer(self) -> float:
        """log C_N with C_N^{-1} = integral of exp(N F_N(x/N^eta + u)) dx,
        in closed form: -(eta log N + log Z_N + log sqrt(pi/(N J))).

        Completing the square in -N J y^2 + 2 J y S_k gives
        exp(N F_N(y)) = sum_k w_k exp(-N J (y - S_k/N)^2) with the law's
        weights w_k, a Gaussian of integral sqrt(pi/(N J)) per atom, so the
        y-integral is Z_N sqrt(pi/(N J)), and x = N^eta (y - u) multiplies
        it by N^eta.  Exact at every (N, J), with no quadrature."""
        return -(self.eta * math.log(self.N) + self.law.log_Z
                 + 0.5 * math.log(math.pi / (self.N * self.params.J)))

    def integration_domain(self) -> tuple[float, float]:
        """The x-interval outside which the analytic density lies at least
        quadrature.TAIL_DROP below its maximum, in closed form.

        In y = x/N^eta + u, exp(N F_N(y)) = sum_k w_k exp(-N J (y - S_k/N)^2)
        with every S_k/N in [0, 1].  Its maximum is at least
        max_k w_k >= Z_N/(N//2 + 1), and farther than
        delta = sqrt((TAIL_DROP + log(N//2 + 1))/(N J)) from [0, 1] it is at
        most Z_N e^{-N J delta^2}, e^-TAIL_DROP of that; x = N^eta (y - u).
        """
        delta = math.sqrt((TAIL_DROP + math.log(self.N // 2 + 1))
                          / (self.N * self.params.J))
        scale = self.N**self.eta
        return (-delta - self.u) * scale, (1.0 + delta - self.u) * scale

    def log_analytic(self, x):
        xx = np.asarray(x, dtype=np.float64)
        y = xx / self.N**self.eta + self.u
        return self.log_normalizer + _n_log_shape(self.N, self.params, y)

    def analytic(self, x):
        return np.exp(self.log_analytic(x))
