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

Psi_N changes sign once, at x = -e^h, and |Psi_N| has one maximum on each
side: at xhat, and at the other root -1/xhat of the same quadratic.  The
quadrature integrates the two lobes as separate pieces, the left one with
sign (-1)^N.  The Laplace asymptote is the right lobe's: the left lobe's
share of the integral, e^{N (peak- - peak+)}, vanishes as N grows.  For odd
N at very negative h the lobes nearly cancel, and the quadrature raises
IntegrationDomainError rather than return digits it does not have.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .exact import _n_log_shape, log_partition_pure
from .quadrature import (TAIL_DROP, IntegrationDomainError, peaked_components,
                         signed_log_integral)
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
    """Family psi_n with log|psi_n| supplied as a vectorized callable.

    ``window`` is a compact interval known to contain the maximizer of
    log psi_n, on which psi_n > 0.  Without a ``cut``, psi_n > 0 everywhere.
    A family with a ``cut`` is Psi's: psi_n > 0 right of the cut, psi_n < 0
    left of it.  ``dlog`` and ``d2log`` are the first and second derivatives
    of log|psi_n|, vectorized like ``log_abs``.
    """

    log_abs: Callable[[int, np.ndarray], np.ndarray]
    dlog: Callable[[int, np.ndarray], np.ndarray]
    d2log: Callable[[int, np.ndarray], np.ndarray]
    window: tuple[float, float]
    cut: float | None = None


# e^u and e^{-u} are doubles only for |u| below log(DBL_MAX) = 709.78...
_LOG_MAX = math.log(sys.float_info.max)


def psi_family(u: float) -> IntegrandFamily:
    """The monomer-dimer family Psi_n(x) = (x + a) e^{-x^2/2} with a = exp(u),
    the same for every n; ValueError unless |u| < log(DBL_MAX)."""
    if not abs(u) < _LOG_MAX:
        raise ValueError(
            f"field h={u!r} is outside the representable range |h| < "
            f"{_LOG_MAX:.6g} (log of the largest double): exp(h) or exp(-h) "
            f"overflows")
    a = math.exp(u)

    def log_abs(n, x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(x + a)) - x * x / 2.0

    def dlog(n, x):
        return 1.0 / (x + a) - x

    def d2log(n, x):
        # (x + a)^2 overflows to inf from u of about 355: the value is then
        # its limit -1
        with np.errstate(over="ignore"):
            return -1.0 / (x + a) ** 2 - 1.0

    # the maximizer xhat = e^{-u} g(u) lies well inside this window
    xhat = math.exp(-u) * g(u)
    window = (xhat / 4.0, xhat + 1.0)
    return IntegrandFamily(log_abs=log_abs, window=window, cut=-a, dlog=dlog, d2log=d2log)


# odd n: the lobes converge to 1e-12 relative each, so I+ - I- carries the
# 1e-8 that criterion 3 gates only while it is at least 1e-4 of I+ + I-
_CANCELLATION = 1e-4


def _integration_pieces(family: IntegrandFamily, n: int):
    """Integration domain for psi_n^n as (a, b, sign) pieces: on each side of
    the cut, the span where n log|psi_n| lies within quadrature.TAIL_DROP of
    that side's peak, clipped at the cut.

    Psi's lobes peak at the roots x+ = 1/t and x- = -t of x^2 + a x - 1 = 0,
    t = (a + sqrt(a^2 + 4))/2, with heights -log|x| - x^2/2 since
    x (x + a) = 1.  The right lobe comes first; the left lobe, of sign
    (-1)^n, is left out when its peak is TAIL_DROP below the right one's.
    """

    cut = -math.inf if family.cut is None else family.cut

    def span(lo, hi, side):
        def nlog(x):  # -inf off this side of the cut
            vals = n * np.asarray(family.log_abs(n, x), dtype=np.float64)
            return np.where(side * (x - cut) > 0, vals, -np.inf)

        pieces = peaked_components(nlog, lo, hi)
        lo, hi = pieces[0][0], pieces[-1][1]
        return (max(lo, cut), hi) if side > 0 else (lo, min(hi, cut))

    pieces = [(*span(*family.window, 1), 1.0)]
    if family.cut is not None:
        t = (-cut + math.hypot(cut, 2.0)) / 2.0
        gap = 2.0 * math.log(t) + (t * t - 1.0 / (t * t)) / 2.0  # peak+ - peak-
        if n * gap <= TAIL_DROP:
            pieces.append((*span(-t - 1.0, cut, -1), (-1.0) ** n))
    return pieces


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"system size must be positive, got N={n}")


def quad_log_integral(family: IntegrandFamily, n: int) -> float:
    """log of integral psi_n(x)^n dx by shifted-log quadrature, one piece per
    lobe; ValueError for n < 1, IntegrationDomainError when the lobes cancel
    to below _CANCELLATION of their sum."""
    _check_size(n)

    def nlog(x):
        return n * np.asarray(family.log_abs(n, x), dtype=np.float64)

    lobes = [(signed_log_integral(nlog, a, b)[0], sign)
             for a, b, sign in _integration_pieces(family, n)]
    top = max(la for la, _ in lobes)
    if not math.isfinite(top):
        raise IntegrationDomainError("integrand vanished on the whole domain")
    net = sum(sign * math.exp(la - top) for la, sign in lobes)
    gross = sum(math.exp(la - top) for la, _ in lobes)
    if net < _CANCELLATION * gross:
        raise IntegrationDomainError(
            f"the two lobes of psi_n^n cancel to {net / gross:.2g} of their sum "
            f"(N={n}): the quadrature cannot resolve the difference")
    return top + math.log(net)


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
        d1 = family.dlog(n, np.asarray([xhat]))[0]
        d2 = family.d2log(n, np.asarray([xhat]))[0]
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
    curv = float(family.d2log(n, np.asarray([xhat]))[0])
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
    n_gap = _n_log_shape(N, params, y) - N * tilde_p(y, params)
    return math.exp(n_gap) * math.sqrt(2.0 - g(params.effective_field(y)))
