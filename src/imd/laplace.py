"""Gaussian-moment representation of the pure partition function and an
extended Laplace method for integrals of n-dependent integrands.

The pure hard-core partition function admits the exact representation

    Z0_N(h) = sqrt(N / 2 pi) * integral of Psi_N(x)^N dx,
    Psi_N(x) = (x + e^h) exp(-x^2 / 2),

which this module evaluates by log-scale quadrature and compares against the
Laplace asymptote

    integral of psi_n^n  ~  exp(n f_n(xhat_n)) sqrt(2 pi / (-n f''(xhat))),

valid when f_n = log psi_n has an interior maximizer with negative limiting
curvature.  For Psi_N the maximizer satisfies xhat^2 + e^h xhat - 1 = 0, the
peak height is p0(h) and the curvature is g(h) - 2, which ties the quadrature,
the combinatorial partition function and the closed-form thermodynamics into
one consistency loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from .exact import log_partition_pure
from .quadrature import IntegrationDomainError, peaked_components, signed_log_integral
from .thermo import ModelParams, g, p0, tilde_p

__all__ = [
    "LaplaceConditionError",
    "IntegrandFamily",
    "LaplaceResult",
    "psi_family",
    "quad_log_integral",
    "gaussian_rep_log_partition",
    "laplace_approx",
    "pure_asymptote_ratio",
    "prefactor_ratio",
]

class LaplaceConditionError(ValueError):
    """An integrand family violates the conditions of the Laplace asymptote."""


@dataclass(frozen=True)
class IntegrandFamily:
    """Family psi_n with log|psi_n| and sign supplied as vectorized callables.

    ``window`` is a compact interval known to contain the maximizer of
    log psi_n, on which psi_n > 0.  Analytic derivatives of log psi_n are
    optional; finite differences are used when they are absent.
    """

    log_abs: Callable[[int, np.ndarray], np.ndarray]
    window: tuple[float, float]
    sign: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    dlog: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    d2log: Optional[Callable[[int, np.ndarray], np.ndarray]] = None


def psi_family(u: float) -> IntegrandFamily:
    """The monomer-dimer family Psi_n(x) = (x + a) e^{-x^2/2} with a = exp(u),
    the same for every n."""
    a = math.exp(u)

    def log_abs(n, x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(x + a)) - x * x / 2.0

    def sign(n, x):
        return np.sign(x + a)

    def dlog(n, x):
        return 1.0 / (x + a) - x

    def d2log(n, x):
        return -1.0 / (x + a) ** 2 - 1.0

    # the maximizer xhat = e^{-u} g(u) lies well inside this window
    xhat = math.exp(-u) * g(u)
    window = (xhat / 4.0, xhat + 1.0)
    return IntegrandFamily(log_abs=log_abs, window=window, sign=sign, dlog=dlog, d2log=d2log)


def _integration_pieces(family: IntegrandFamily, n: int):
    """Integration domain for psi_n^n: the span of the region where n log|psi_n|
    lies within quadrature.TAIL_DROP of its peak, split at sign changes."""

    def nlog(x):
        return n * np.asarray(family.log_abs(n, x), dtype=np.float64)

    a, b = family.window
    pieces = peaked_components(nlog, a, b)
    lo, hi = pieces[0][0], pieces[-1][1]

    if family.sign is None:
        return [(lo, hi)]
    probe = np.linspace(lo, hi, 4097)
    s = np.asarray(family.sign(n, probe), dtype=np.float64)
    flips = np.flatnonzero(np.diff(np.sign(s + 0.5)) != 0)  # treat 0 as negative side
    cuts = [lo]
    for j in flips:
        left, right = probe[j], probe[j + 1]
        for _ in range(60):  # bisect the flip point
            mid = 0.5 * (left + right)
            if family.sign(n, np.asarray([mid]))[0] == s[j]:
                left = mid
            else:
                right = mid
        cuts.append(0.5 * (left + right))
    cuts.append(hi)
    return list(zip(cuts[:-1], cuts[1:]))


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"system size must be positive, got N={n}")


def quad_log_integral(family: IntegrandFamily, n: int) -> float:
    """log of integral psi_n(x)^n dx by signed, shifted-log quadrature;
    ValueError for n < 1."""
    _check_size(n)
    pieces = _integration_pieces(family, n)
    logs, signs = [], []
    for a, b in pieces:
        la, sg = signed_log_integral(
            lambda x: n * np.asarray(family.log_abs(n, x), dtype=np.float64),
            a,
            b,
            sign_f=(None if family.sign is None
                    else (lambda x: np.asarray(family.sign(n, x), dtype=np.float64) ** n)),
        )
        if math.isfinite(la):
            logs.append(la)
            signs.append(sg)
    if not logs:
        raise IntegrationDomainError("integrand vanished on the whole domain")
    total_log, total_sign = logsumexp(logs, b=signs, return_sign=True)
    if total_sign <= 0:
        raise IntegrationDomainError("integral of psi_n^n is not positive")
    return float(total_log)


def gaussian_rep_log_partition(N: int, h: float) -> float:
    """log Z0_N(h) through the Gaussian-moment representation
    sqrt(N/2pi) * integral Psi_N^N; independent of the combinatorial sum."""
    _check_size(N)
    fam = psi_family(h)
    return 0.5 * math.log(N / (2.0 * math.pi)) + quad_log_integral(fam, N)


@dataclass(frozen=True)
class LaplaceResult:
    log_integral_quadrature: float
    log_asymptote: float
    maximizer: float
    second_derivative: float

    @property
    def log_ratio(self) -> float:
        """Quadrature minus asymptote: tends to 0 as n grows."""
        return self.log_integral_quadrature - self.log_asymptote


def _fd(f, x, order, step=1e-5):
    if order == 1:
        return (f(np.asarray([x + step]))[0] - f(np.asarray([x - step]))[0]) / (2 * step)
    return (
        f(np.asarray([x + step]))[0]
        - 2.0 * f(np.asarray([x]))[0]
        + f(np.asarray([x - step]))[0]
    ) / step**2


def laplace_approx(family: IntegrandFamily, n: int) -> LaplaceResult:
    """Quadrature value of integral psi_n^n and its Laplace asymptote.

    The maximizer of f_n = log psi_n is located by bounded minimization on the
    window followed by Newton polish on f_n'; the conditions "interior
    maximizer" and "negative curvature" are enforced and violations raise
    LaplaceConditionError; n < 1 raises ValueError.
    """
    _check_size(n)
    a, b = family.window

    def f_n(x):
        return np.asarray(family.log_abs(n, x), dtype=np.float64)

    res = minimize_scalar(lambda x: -float(f_n(np.asarray([x]))[0]),
                          bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12})
    xhat = float(res.x)

    for _ in range(8):  # Newton polish on the stationarity condition
        d1 = (family.dlog(n, np.asarray([xhat]))[0] if family.dlog is not None
              else _fd(f_n, xhat, 1))
        d2 = (family.d2log(n, np.asarray([xhat]))[0] if family.d2log is not None
              else _fd(f_n, xhat, 2))
        if d2 == 0.0:
            break
        delta = d1 / d2
        xhat -= delta
        if abs(delta) < 1e-15 * max(1.0, abs(xhat)):
            break

    # strictly inside, by more than 1e-9 relative to the edge or the
    # maximizer: psi_family's window starts at xhat/4, and xhat = e^{-u} g(u)
    # is below 1e-9 for u above about 20.4, so an absolute margin would not do
    if any(abs(xhat - e) <= 1e-9 * max(abs(xhat), abs(e)) for e in (a, b)) \
            or not a < xhat < b:
        raise LaplaceConditionError(
            f"maximizer {xhat:.6g} sits on the boundary of the window [{a}, {b}]"
        )
    curv = (family.d2log(n, np.asarray([xhat]))[0] if family.d2log is not None
            else _fd(f_n, xhat, 2))
    curv = float(curv)
    # curvature indistinguishable from zero makes the asymptote diverge, so it
    # is rejected together with the genuinely convex case
    if curv >= -1e-9:
        raise LaplaceConditionError(
            f"log-integrand curvature {curv:.6g} at the maximizer is not "
            f"negative (bounded away from zero)"
        )

    log_quad = quad_log_integral(family, n)
    log_asym = n * float(f_n(np.asarray([xhat]))[0]) + 0.5 * math.log(
        2.0 * math.pi / (-n * curv)
    )
    return LaplaceResult(
        log_integral_quadrature=log_quad,
        log_asymptote=log_asym,
        maximizer=xhat,
        second_derivative=curv,
    )


def pure_asymptote_ratio(N: int, u: float, t: float = 0.0, eta: float = 0.0) -> float:
    """Ratio R_N = Z0_N(u + t/N^eta) * exp(-N p0(u + t/N^eta)) * sqrt(2 - g(u)).

    The Laplace expansion of the Gaussian representation predicts R_N -> 1
    with O(1/N) error; Z0_N is taken from the exact combinatorial sum, so this
    measures the quality of the asymptote, not of the quadrature.
    """
    _check_size(N)
    if eta < 0:
        raise ValueError(f"scaling exponent eta must be >= 0, got {eta}")
    w = u + (t / N**eta if t else 0.0)
    log_r = log_partition_pure(N, w) - N * p0(w)
    return math.exp(log_r) * math.sqrt(2.0 - g(u))


def prefactor_ratio(N: int, y: float, params: ModelParams) -> float:
    """exp(N (F_N(y) - ptilde(y))) * sqrt(2 - g(2Jy + h - J)) -> 1.

    F_N is the smoothed finite-N pressure shape -J y^2 + log(Z0_N(2Jy+h-J))/N;
    its gap to ptilde contributes exactly the hard-core prefactor
    (2 - g)^{-1/2} in the limit laws, which this ratio isolates.
    """
    x = params.effective_field(y)
    n_f = -N * params.J * y * y + log_partition_pure(N, x)
    n_p = N * tilde_p(y, params)
    return math.exp(n_f - n_p) * math.sqrt(2.0 - g(x))
