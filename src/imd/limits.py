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

The KS distance of a discrete law against any of these is attained at the
jump points, so it is evaluated exactly at the atoms (left and right limits),
with no smoothing: parity wobble of the lattice is tolerated by the trend
flag instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, gamma, gammainc

from . import exact, phase
from .parallel import parallel_map
from .thermo import ModelParams

__all__ = [
    "ScaledLaw",
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


class ScaledLaw:
    """Atoms of (S_N - N u)/N^eta in increasing order, with the exact Gibbs
    probabilities.

    Probability sits on the atoms lo <= i < hi, at ``window_positions``,
    less the ``valley`` [a, b) of zero-probability atoms between the two
    phases when that is not None.  ``positions`` and ``probabilities`` hold
    every atom of the support: the second is zero outside [lo, hi), the first
    is evaluated there on first read.  The constructor takes the positions of
    [lo, hi), every atom's probability, lo and the valley; given every atom's
    position (lo = 0), [lo, hi) is the whole support.
    """

    def __init__(self, N: int, params: ModelParams, eta: float, u: float,
                 positions, probabilities, lo: int = 0,
                 valley: tuple[int, int] | None = None):
        self.N = N
        self.params = params
        self.eta = eta
        self.u = u
        self.probabilities = probabilities
        self.window_positions = positions
        self.lo = lo
        self.hi = lo + len(positions)
        self.valley = valley
        self._positions = positions if len(positions) == len(probabilities) else None

    def _positions_at(self, i):
        """Positions of the atoms with indices i (S = N mod 2 + 2 i)."""
        if self._positions is not None:
            return self._positions[i]
        return (self.N % 2 + 2 * np.asarray(i) - self.N * self.u) / self.N**self.eta

    @property
    def positions(self):
        if self._positions is None:
            self._positions = self._positions_at(np.arange(len(self.probabilities)))
        return self._positions

    def mean(self) -> float:
        return float(np.dot(self.probabilities[self.lo:self.hi], self.window_positions))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot(self.probabilities[self.lo:self.hi],
                            (self.window_positions - mu) ** 2))

    def write_csv(self, fh) -> None:
        def atoms(i):
            return self.N // 2 - i, self.N % 2 + 2 * i, self._positions_at(i)

        exact._write_atom_csv(fh, "position", atoms, self.probabilities, self.lo, self.hi)

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "h": self.params.h,
            "J": self.params.J,
            "eta": self.eta,
            "u": self.u,
            "position": self.positions.tolist(),
            "probability": self.probabilities.tolist(),
        }


def scaled_law(N: int, params: ModelParams, eta: float, u: float) -> ScaledLaw:
    """Affine rescaling of the exact law; probabilities are untouched."""
    if eta < 0:
        raise ValueError(f"scaling exponent eta must be >= 0, got {eta}")
    law = exact.monomer_law(N, params)
    size = len(law.probabilities)
    lo, hi = size - law.hi, size - law.lo  # increasing S is decreasing k
    s = N - 2 * np.arange(law.hi - 1, law.lo - 1, -1)
    probs = np.zeros(size)
    probs[lo:hi] = law.probabilities[law.lo:law.hi][::-1]
    valley = None if law.valley is None else (size - law.valley[1], size - law.valley[0])
    return ScaledLaw(N=N, params=params, eta=eta, u=u,
                     positions=(s - N * u) / N**eta, probabilities=probs, lo=lo,
                     valley=valley)


# --------------------------------------------------------------------------
# limiting laws
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMass:
    m: float

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
        if self.variance <= 0:
            raise ValueError(f"Gaussian variance must be positive, got {self.variance}")

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
        if lambda_c >= 0:
            raise ValueError(f"quartic law requires lambda_c < 0, got {lambda_c}")
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


def _mass_below(scaled: ScaledLaw, x: float, side: str) -> float:
    """P(position < x) (side "left") or P(position <= x) (side "right"),
    summed over the full-support prefix so that the pairwise summation sees
    the same layout as a mask over every atom."""
    pos = scaled.window_positions
    j = scaled.lo + int(np.searchsorted(pos, x, side))
    if j == scaled.hi and j < len(scaled.probabilities):
        j = int(np.searchsorted(scaled.positions, x, side))
    return float(np.sum(scaled.probabilities[:j]))


def ks_distance(scaled: ScaledLaw, law) -> float:
    """Exact Kolmogorov-Smirnov distance between a discrete scaled law and a
    limiting law: the supremum is attained at a jump point of either CDF, so
    left and right limits are compared at all such points.

    Outside [lo, hi) the atoms form two runs of zero probability on which
    the discrete CDF is constant (0 below; above, the window's total, and 1 at
    the last atom), and the valley between two phases is a third (the mass
    below it); every limit CDF is monotone, so the supremum over a run is
    reached at its end atoms, and only those are evaluated."""
    lo, hi = scaled.lo, scaled.hi
    last = len(scaled.probabilities) - 1
    p = scaled.probabilities[lo:hi]
    right = np.cumsum(p)
    if hi > last:
        right[-1] = 1.0
    left = right - p
    pos = scaled.window_positions
    if scaled.valley is not None:
        # the cumulative sums are flat across the valley: keep its end atoms
        a, b = scaled.valley[0] - lo, scaled.valley[1] - lo
        keep = np.r_[:a + 1, b - 1:hi - lo]
        right, left, pos = right[keep], left[keep], pos[keep]
    ends = np.array(sorted({i for i in (0, lo - 1, hi, last - 1, last)
                            if 0 <= i < lo or hi <= i <= last}), dtype=np.int64)
    flat = np.where(ends < lo, 0.0, right[-1])
    flat[ends == last] = 1.0
    pos = np.concatenate([pos, scaled._positions_at(ends)])
    right = np.concatenate([right, flat])
    left = np.concatenate([left, flat])
    lim_at = np.asarray(law.cdf(pos), dtype=np.float64)
    law_atoms = np.asarray(getattr(law, "atoms", ()), dtype=np.float64)
    if law_atoms.size:
        # left limit of a discrete CDF just below its own atoms
        lim_left = np.asarray(law.cdf(pos - np.spacing(np.abs(pos) + 1.0)))
        d_extra = []
        for a in law_atoms:
            d_extra.append(abs(_mass_below(scaled, a, "left")
                               - float(law.cdf(a - np.spacing(abs(a) + 1.0)))))
            d_extra.append(abs(_mass_below(scaled, a, "right") - float(law.cdf(a))))
        d = max(
            float(np.max(np.abs(right - lim_at))),
            float(np.max(np.abs(left - lim_left))),
            max(d_extra),
        )
    else:
        d = max(
            float(np.max(np.abs(right - lim_at))),
            float(np.max(np.abs(left - lim_at))),
        )
    return min(d, 1.0)


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
    distances = parallel_map(
        lambda n: ks_distance(scaled_law(n, params, eta, u), law), Ns
    )
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
    # the atoms below the cut are the k >= j; summed over the full-support
    # suffix, as a mask over every atom would be
    dens = (N - 2 * np.arange(law.lo, law.hi)) / N
    if dens[0] < cut and law.lo > 0:
        j = int(np.count_nonzero(law.densities >= cut))
    else:
        j = law.lo + int(np.count_nonzero(dens >= cut))
    mass1 = float(np.sum(law.probabilities[j:]))
    return mass1, 1.0 - mass1
