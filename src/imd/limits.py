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
from dataclasses import dataclass, field

import numpy as np

from . import exact, phase
from .parallel import parallel_map
from .quadrature import gauss_legendre
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


@dataclass(frozen=True, eq=False)
class ScaledLaw:
    """Atoms of (S_N - N u)/N^eta with the exact Gibbs probabilities."""

    N: int
    params: ModelParams
    eta: float
    u: float
    positions: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)

    def mean(self) -> float:
        return float(np.dot(self.probabilities, self.positions))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot(self.probabilities, (self.positions - mu) ** 2))

    def cdf_left_right(self):
        right = np.cumsum(self.probabilities)
        right[-1] = 1.0
        left = right - self.probabilities
        return left, right

    def write_csv(self, fh) -> None:
        s_vals = np.rint(self.positions * self.N**self.eta + self.N * self.u).astype(int)
        exact._write_atom_csv(fh, "position", (self.N - s_vals) // 2, s_vals,
                              self.positions, self.probabilities)

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
    pos = (law.s_values - N * u) / N**eta
    return ScaledLaw(
        N=N, params=params, eta=eta, u=u,
        positions=pos[::-1].copy(), probabilities=law.probabilities[::-1].copy(),
    )


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
        from scipy.special import erf

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

    The CDF is served from a cached cumulative table built with per-segment
    Gauss-Legendre integration (exact to roundoff for this analytic density),
    plus a partial-segment completion for off-node arguments.
    """

    _SEGMENTS = 2048
    _GL_ORDER = 16

    def __init__(self, lambda_c: float):
        if lambda_c >= 0:
            raise ValueError(f"quartic law requires lambda_c < 0, got {lambda_c}")
        self.lambda_c = float(lambda_c)
        self.scale = -self.lambda_c / 24.0  # density ~ exp(-scale * x^4)
        # half-range where the density has dropped e^-80 below its peak
        half = (80.0 / self.scale) ** 0.25
        self._edges = np.linspace(0.0, half, self._SEGMENTS + 1)
        nodes, weights = gauss_legendre(self._GL_ORDER)
        mid = 0.5 * (self._edges[:-1] + self._edges[1:])
        hw = 0.5 * (self._edges[1] - self._edges[0])
        x = mid[:, None] + hw * nodes[None, :]
        seg = hw * (np.exp(-self.scale * x**4) @ weights)
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.half_mass_unnormalized = float(self._cum[-1])
        self.normalization = 1.0 / (2.0 * self.half_mass_unnormalized)

    @property
    def variance(self) -> float:
        from scipy.special import gamma

        return math.sqrt(24.0 / -self.lambda_c) * gamma(0.75) / gamma(0.25)

    def density(self, x):
        xx = np.asarray(x, dtype=np.float64)
        return self.normalization * np.exp(-self.scale * xx**4)

    def _half_integral(self, r):
        """integral of exp(-scale x^4) from 0 to r (vectorized, r >= 0)."""
        rr = np.minimum(np.asarray(r, dtype=np.float64), self._edges[-1])
        idx = np.searchsorted(self._edges, rr, side="right") - 1
        idx = np.clip(idx, 0, self._SEGMENTS - 1)
        lo = self._edges[idx]
        nodes, weights = gauss_legendre(self._GL_ORDER)
        hw = 0.5 * (rr - lo)
        x = (lo + hw)[..., None] + hw[..., None] * nodes
        partial = hw * (np.exp(-self.scale * x**4) @ weights)
        return self._cum[idx] + partial

    def cdf(self, x):
        xx = np.asarray(x, dtype=np.float64)
        half = self._half_integral(np.abs(xx)) * self.normalization
        out = np.where(xx >= 0.0, 0.5 + half, 0.5 - half)
        return float(out) if np.ndim(x) == 0 else out


def ks_distance(scaled: ScaledLaw, law) -> float:
    """Exact Kolmogorov-Smirnov distance between a discrete scaled law and a
    limiting law: the supremum is attained at a jump point of either CDF, so
    left and right limits are compared at all such points."""
    pos = scaled.positions
    left, right = scaled.cdf_left_right()
    lim_at = np.asarray(law.cdf(pos), dtype=np.float64)
    law_atoms = np.asarray(getattr(law, "atoms", ()), dtype=np.float64)
    if law_atoms.size:
        # left limit of a discrete CDF just below its own atoms
        lim_left = np.asarray(law.cdf(pos - np.spacing(np.abs(pos) + 1.0)))
        d_extra = []
        for a in law_atoms:
            below = float(np.sum(scaled.probabilities[pos < a]))
            at_or_below = float(np.sum(scaled.probabilities[pos <= a]))
            d_extra.append(abs(below - float(law.cdf(a - np.spacing(abs(a) + 1.0)))))
            d_extra.append(abs(at_or_below - float(law.cdf(a))))
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
    mass1 = float(np.sum(law.probabilities[law.densities < cut]))
    return mass1, 1.0 - mass1
