"""Finite-N scaled laws, limiting distributions, and convergence metrics.

The exact monomer-count law is mapped through the affine scaling
(S - N u) / N^eta and compared, in Kolmogorov-Smirnov distance, against the
limiting distribution the theory predicts for those exponents:

  * eta = 1, u = 0:      point mass at the equilibrium density (LLN);
  * eta = 1/2, u = m*:   Gaussian with variance -1/lambda - 1/(2J) (CLT);
  * eta = 3/4, u = m_c:  quartic density C exp(lambda_c x^4 / 24) at the
                         critical point, where the Gaussian scaling breaks;
  * on the coexistence curve: a two-point mixture rho1 delta_{m1} +
                         rho2 delta_{m2}, resolved here via basin masses.

The scaled law is the exact law's ``exact.AtomLaw`` read in increasing S,
with its positions evaluated by atom index.  The KS distance of a discrete
law against any of these is attained at the jump points, so it is evaluated
exactly at the atoms (left and right limits), with no smoothing: parity
wobble of the lattice is tolerated by the trend flag instead.  It reads the
window's intervals and the end atoms of the zero-probability runs between
them, never the hull of the window or the full support.  Over those atoms
it evaluates the limit CDF by bracketing: every limit CDF (and any
``law.cdf`` passed in, which must be nondecreasing) and both discrete limits
increase with the atom index, so the end atoms of a block bound every gap
inside it.  Blocks whose bound is below the largest gap found, less a 1e-12
slack for ulp-level non-monotonicity, are dropped unread; at the critical
point, N = 1e6, the quartic CDF is evaluated at 7 797 of 163 518 atoms.  The
mass below a limit law's atom, and ``coexistence_masses``' cut, end at an
atom index found by ``exact._first_atom``, a bisection on plain ints, and
are summed by ``exact._padded_sum`` over the windows' share of the prefix
or suffix, with the bits of a sum over the full-support prefix or suffix.
The limit laws reject parameters that would make their CDF NaN or leave
[0, 1].
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, gamma, gammainc

from . import exact, phase
from .thermo import ModelParams

__all__ = [
    "PointMass",
    "Gaussian",
    "Quartic",
    "TwoPointMixture",
    "scaled_law",
    "ks_distance",
    "StudyRow",
    "StudyTable",
    "convergence_study",
    "coexistence_masses",
]


def scaled_law(N: int, params: ModelParams, eta: float, u: float) -> exact.AtomLaw:
    """The exact law's atoms read in increasing S, at positions
    (S - N u)/N^eta, evaluated on read; the probabilities are the monomer
    law's windows, reversed as views."""
    if eta < 0:
        raise ValueError(f"scaling exponent eta must be >= 0, got {eta}")
    law = exact.monomer_law(N, params)
    try:
        scale = float(N**eta)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"eta={eta!r} makes N^eta = {N}^{eta!r} non-finite in double precision")
    shift = N * u
    if not math.isfinite(shift):
        raise ValueError(f"u={u!r} makes N*u = {N}*{u!r} non-finite in double precision")
    size = law.size

    def positions(i):
        return (N % 2 + 2 * i - shift) / scale

    return exact.AtomLaw(N, params, law.log_Z, [p[::-1] for p in reversed(law.parts)],
                         [(size - b, size - a) for a, b in reversed(law.windows)],
                         positions, eta=eta, u=u)


# --------------------------------------------------------------------------
# limiting laws
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMass:
    m: float

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise ValueError(f"point mass m must be finite, got {self.m}")

    def cdf(self, x):
        return (np.asarray(x, dtype=np.float64) >= self.m).astype(float)

    @property
    def atoms(self):
        return (self.m,)


@dataclass(frozen=True)
class Gaussian:
    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"Gaussian mean must be finite, got {self.mean}")
        if not (0.0 < self.variance < math.inf):
            raise ValueError(f"Gaussian variance must be positive and finite, got {self.variance}")

    def cdf(self, x):
        z = (np.asarray(x, dtype=np.float64) - self.mean) / math.sqrt(2.0 * self.variance)
        return 0.5 * (1.0 + erf(z))


@dataclass(frozen=True)
class TwoPointMixture:
    rho1: float
    m1: float
    rho2: float
    m2: float

    def __post_init__(self):
        for name in ("m1", "m2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"mixture atom {name} must be finite, got {getattr(self, name)}")
        for name in ("rho1", "rho2"):
            if not (getattr(self, name) >= 0.0):
                raise ValueError(f"mixture weight {name} must be >= 0, got {getattr(self, name)}")
        if abs(self.rho1 + self.rho2 - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")

    def cdf(self, x):
        xx = np.asarray(x, dtype=np.float64)
        return self.rho1 * (xx >= self.m1) + self.rho2 * (xx >= self.m2)

    @property
    def atoms(self):
        return (self.m1, self.m2)


class Quartic:
    """Symmetric quartic-exponential law with density C exp(lambda_c x^4 / 24).

    With s = -lambda_c / 24 the CDF is 1/2 + sign(x) P(1/4, s x^4) / 2, P the
    regularized lower incomplete gamma function, and C = 1/(2 Gamma(5/4) s^(-1/4)).
    """

    def __init__(self, lambda_c: float):
        if not (-math.inf < lambda_c < 0.0):
            raise ValueError(f"quartic law requires a finite lambda_c < 0, got {lambda_c}")
        self.lambda_c = float(lambda_c)
        self.scale = -self.lambda_c / 24.0  # density ~ exp(-scale * x^4)
        self.normalization = 1.0 / (2.0 * gamma(1.25) * self.scale**-0.25)

    @property
    def variance(self) -> float:
        return math.sqrt(24.0 / -self.lambda_c) * gamma(0.75) / gamma(0.25)

    def density(self, x):
        xx = np.asarray(x, dtype=np.float64)
        return self.normalization * np.exp(-self.scale * xx**4)

    def cdf(self, x):
        xx = np.asarray(x, dtype=np.float64)
        out = 0.5 + 0.5 * np.sign(xx) * gammainc(0.25, self.scale * xx**4)
        return float(out) if np.ndim(x) == 0 else out


_GRID = 1024  # interval atoms on ks_distance's first grid (its stride is ceil(n / _GRID))
_SLACK = 1e-12  # ks_distance keeps a block whose bound is within this of the best gap


def _mass_below(scaled: exact.AtomLaw, x: float, side: str) -> float:
    """P(position < x) (side "left") or P(position <= x) (side "right"),
    with the bits of a sum over the full-support prefix, the layout of a mask
    over every atom.  The positions increase, so the prefix ends where a
    bisection on the atom index finds them reach x."""
    beyond = operator.ge if side == "left" else operator.gt
    j = exact._first_atom(0, scaled.size, lambda i: beyond(scaled.values_at(i), x))
    return float(exact._padded_sum(scaled.parts, scaled.windows, j))


def ks_distance(scaled: exact.AtomLaw, law) -> float:
    """Exact Kolmogorov-Smirnov distance between a discrete scaled law and a
    limiting law: the supremum is attained at a jump point of either CDF, so
    left and right limits are compared at all such points.

    Only the window's intervals are read.  Their cumulative sums run over
    the intervals in turn, which gives the bits of a sum over every atom,
    since the atoms between them add exact zeros.  Around and between the
    intervals the atoms form runs of zero probability on which the discrete
    CDF is constant (0 below the window; between two intervals, the first's
    total; above, the window's total, and 1 at the last atom); every limit
    CDF is monotone, so the supremum over a run is reached at its end atoms,
    and only those are read.

    Over these n atoms, in increasing index, the limit CDF F (``law.cdf``,
    which must be nondecreasing) and its left limit G are evaluated by
    bracketing.  The discrete limits ``right`` and ``left`` and the
    positions increase with the index too, so at an atom strictly between
    evaluated atoms i < j every gap is at most the block's bound
    max(right[j-1] - F[i], F[j] - right[i+1], left[j-1] - G[i], G[j] - left[i+1]).
    The first grid has stride ceil(n / _GRID) and holds the last atom; a
    block is dropped once its bound is below the largest gap found, less
    _SLACK, which covers ulp-level non-monotonicity of left = right - p and
    of erf and gammainc; the others are split at their midpoints until none
    has an interior atom.  The distance is the largest of the same gaps at a
    superset of the atoms where it can be reached, so it keeps every bit.
    Each block carries F and G at its ends, and left is written over the
    probabilities, so beyond the law only the indices, right and left of
    these atoms take O(n) memory."""
    # the intervals, and the end atoms of the zero-probability runs [c, d)
    # below, between and above them, in increasing index
    edges = [0] + [e for window in scaled.windows for e in window] + [scaled.size]
    runs = [(j, c, d) for j, (c, d) in enumerate(zip(edges, edges[1:])) if c < d]
    atoms = np.concatenate([np.arange(c, d) if j % 2 else np.array(sorted({c, d - 1}))
                            for j, c, d in runs])
    p = np.concatenate([scaled.parts[j // 2] if j % 2 else np.zeros(len({c, d - 1}))
                        for j, c, d in runs])
    right = np.cumsum(p)
    right[-1] = 1.0
    left = np.subtract(right, p, out=p)
    law_atoms = np.asarray(getattr(law, "atoms", ()), dtype=np.float64)
    d = 0.0
    for a in law_atoms:
        d = max(d, abs(_mass_below(scaled, a, "left")
                       - float(law.cdf(a - np.spacing(abs(a) + 1.0)))),
                abs(_mass_below(scaled, a, "right") - float(law.cdf(a))))

    def evaluate(k):
        """F and G at the atoms k, after taking their gaps into d."""
        nonlocal d
        pos = scaled.values_at(atoms[k])
        F = law.cdf(pos)
        # the left limit of a discrete CDF just below its own atoms
        G = law.cdf(pos - np.spacing(np.abs(pos) + 1.0)) if law_atoms.size else F
        d = max(d, float(np.max(np.abs(right[k] - F))), float(np.max(np.abs(left[k] - G))))
        return F, G

    n = len(p)
    stride = -(-n // _GRID)
    k = np.minimum(np.arange(0, n - 1 + stride, stride), n - 1)
    F, G = evaluate(k)
    # the blocks [lo, hi) with F and G at both ends
    ends = k[:-1], k[1:], F[:-1], F[1:], G[:-1], G[1:]
    while True:
        inner = ends[1] - ends[0] > 1
        lo, hi, F_lo, F_hi, G_lo, G_hi = (e[inner] for e in ends)
        bound = np.maximum(np.maximum(right[hi - 1] - F_lo, F_hi - right[lo + 1]),
                           np.maximum(left[hi - 1] - G_lo, G_hi - left[lo + 1]))
        kept = bound >= d - _SLACK
        if not kept.any():
            return min(d, 1.0)
        lo, hi, F_lo, F_hi, G_lo, G_hi = (e[kept] for e in (lo, hi, F_lo, F_hi, G_lo, G_hi))
        k = (lo + hi) // 2
        F, G = evaluate(k)
        ends = (np.concatenate([lo, k]), np.concatenate([k, hi]),
                np.concatenate([F_lo, F]), np.concatenate([F, F_hi]),
                np.concatenate([G_lo, G]), np.concatenate([G, G_hi]))


@dataclass(frozen=True)
class StudyRow:
    N: int
    ks: float
    decreasing: bool  # strictly below the previous N's distance


@dataclass(frozen=True)
class StudyTable:
    rows: tuple[StudyRow, ...]

    @property
    def trend_ok(self) -> bool:
        """Monotone decrease up to at most one inversion (lattice parity)."""
        return sum(not r.decreasing for r in self.rows[1:]) <= 1

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["N", "ks", "decreasing"])
        for r in self.rows:
            writer.writerow([r.N, format(r.ks, ".17g"), str(r.decreasing).lower()])


def convergence_study(params: ModelParams, eta: float, u: float, law, N_list) -> StudyTable:
    """KS distance to the limiting law across increasing system sizes."""
    Ns = [int(n) for n in N_list]
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError(f"N_list must be strictly increasing, got {N_list}")
    distances = [ks_distance(scaled_law(n, params, eta, u), law) for n in Ns]
    rows = []
    prev = None
    for n, d in zip(Ns, distances):
        rows.append(StudyRow(N=n, ks=d, decreasing=(prev is None or d < prev)))
        prev = d
    return StudyTable(rows=tuple(rows))


def coexistence_masses(N: int, point: phase.GammaPoint) -> tuple[float, float]:
    """Exact probabilities of the two phase basins at finite N.

    The support of the monomer density is split at the interior minimizer of
    the variational pressure between m1 and m2; the two masses converge to the
    limiting weights (rho1, rho2).
    """
    params = ModelParams(point.h, point.J)
    stationary = phase.solve_consistency(params)
    wells = [p for p in stationary if not p.is_maximum
             and point.m1 < p.m < point.m2]
    if not wells:
        raise ValueError(
            f"no interior minimizer between m1={point.m1} and m2={point.m2}: "
            f"(h={point.h}, J={point.J}) is not a coexistence point"
        )
    cut = wells[0].m
    law = exact.monomer_law(N, params)
    # the atoms below the cut are the k >= j; summed with the bits of a sum
    # over the full-support suffix, as a mask over every atom would be.  The
    # density falls in k, so a bisection finds j with the mask's comparison
    j = exact._first_atom(0, law.size, lambda k: (N - 2 * k) / N < cut)
    mass1 = float(exact._padded_sum(law.parts, law.windows, law.size, j))
    return mass1, 1.0 - mass1
