"""Gaussian-moment representation of the pure partition function and its
Laplace asymptote.

The pure hard-core partition function admits the exact representation

    Z0_N(h) = sqrt(N / 2 pi) * integral of Psi(x)^N dx,
    Psi(x) = (x + e^h) exp(-x^2 / 2),

which this module evaluates by log-scale quadrature and compares against the
Laplace asymptote

    integral of Psi^N  ~  exp(N f(xhat)) sqrt(2 pi / (-N f''(xhat))),

with f = log Psi.  The maximizer is the positive root of x^2 + e^h x - 1 = 0,
taken in closed form; the peak height is p0(h) and the curvature g(h) - 2,
which ties the quadrature, the combinatorial partition function and the
closed-form thermodynamics into one consistency loop.

Psi changes sign once, at x = -e^h, and |Psi| has one maximum on each side:
at xhat, and at the other root -1/xhat of the same quadratic.  The
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

import numpy as np

from .exact import log_partition_pure
from .quadrature import TAIL_DROP, IntegrationDomainError, signed_log_integral
from .thermo import g, p0

__all__ = [
    "LaplaceResult",
    "quad_log_integral",
    "gaussian_rep_log_partition",
    "laplace_approx",
    "pure_asymptote_ratio",
]

# e^h and e^{-h} are doubles only for |h| below log(DBL_MAX) = 709.78...
_LOG_MAX = math.log(sys.float_info.max)


def _log_psi(x, a):
    """log|Psi(x)| = log|x + a| - x^2/2, vectorized."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x + a)) - x * x / 2.0


def _curvature(x: float, a: float) -> float:
    """f''(x) = -1/(x + a)^2 - 1; the square overflows to inf from a of
    about 1e154, and the value is then its limit -1."""
    return -1.0 / ((x + a) * (x + a)) - 1.0


def _maximizer(h: float) -> tuple[float, float]:
    """a = e^h and xhat, the positive root of x^2 + a x - 1 = 0; ValueError
    unless |h| < log(DBL_MAX).

    xhat = 2 / (a + sqrt(a^2 + 4)), written so that neither a^2 nor the sum
    overflows, then one Newton step on f'(x) = 1/(x + a) - x, which takes
    the closed form's error from about 1 ulp to within 2^-52 relative.
    """
    if not abs(h) < _LOG_MAX:
        raise ValueError(
            f"field h={h!r} is outside the representable range |h| < "
            f"{_LOG_MAX:.6g} (log of the largest double): exp(h) or exp(-h) "
            f"overflows")
    a = math.exp(h)
    if a <= 1.0:
        x = 2.0 / (a + math.hypot(a, 2.0))
    else:
        x = (2.0 / a) / (1.0 + math.hypot(1.0, 2.0 / a))
    x -= (1.0 / (x + a) - x) / _curvature(x, a)
    return a, x


# odd n: the lobes converge to 1e-12 relative each, so I+ - I- carries the
# 1e-8 that criterion 3 gates only while it is at least 1e-4 of I+ + I-
_CANCELLATION = 1e-4


def _integration_pieces(a: float, xhat: float, n: int):
    """The lobes of Psi^n as (lo, hi, sign, peak, drop) pieces, with each
    domain in closed form and drop = n (f(xhat) - f(peak)) >= 0.

    The lobes peak at the roots xhat and -t = -1/xhat of x^2 + a x - 1 = 0,
    one on each side of the cut x = -a.  There f = log|x + a| - x^2/2 has
    f'' = -1/(x + a)^2 - 1 <= -1, so n f(x) <= n f(peak) - n (x - peak)^2 / 2:
    outside peak +- sqrt(2 TAIL_DROP / n), clipped at the cut, n f lies
    quadrature.TAIL_DROP or more below its lobe's peak.  The right lobe
    comes first; the left lobe, of sign (-1)^n, is left out when its peak is
    TAIL_DROP below the right one's.  That gap, f(xhat) - f(-t), is
    2 log t + a (t + xhat)/2 with t + xhat = sqrt(a^2 + 4), and
    t - 1 = a (1 + a / (sqrt(a^2 + 4) + 2)) / 2 without cancellation.
    """
    cut = -a
    r = math.sqrt(2.0 * TAIL_DROP / n)
    pieces = [(max(xhat - r, cut), xhat + r, 1.0, xhat, 0.0)]
    root = math.hypot(a, 2.0)
    gap = 2.0 * math.log1p(a * (1.0 + a / (root + 2.0)) / 2.0) + a * root / 2.0
    if n * gap <= TAIL_DROP:
        t = 1.0 / xhat
        pieces.append((-t - r, min(-t + r, cut), (-1.0) ** n, -t, n * gap))
    return pieces


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"system size must be positive, got N={n}")


def _n_peak(a: float, xhat: float, n: int) -> float:
    """n f(xhat), the log of Psi^n at its maximum."""
    return n * float(_log_psi(np.asarray([xhat]), a)[0])


def _log_lobes(a: float, xhat: float, n: int) -> float:
    """log of integral (Psi(x)/Psi(xhat))^n dx at a = e^h, an O(1) number.

    Each lobe is integrated relative to its own peak p, with the integrand
    n (f(x) - f(p)) written without terms of size n: both peaks solve
    p (p + a) = 1, so (x + a)/(p + a) = 1 + p (x - p) and
    f(x) - f(p) = log1p(p (x - p)) - (x - p)(x + p)/2.
    """
    def lobe(p):
        def nlog(x):
            d = x - p
            with np.errstate(divide="ignore"):
                return n * (np.log1p(p * d) - d * (x + p) / 2.0)
        return nlog

    lobes = [(signed_log_integral(lobe(peak), lo, hi)[0] - drop, sign)
             for lo, hi, sign, peak, drop in _integration_pieces(a, xhat, n)]
    top = max(la for la, _ in lobes)
    if not math.isfinite(top):
        raise IntegrationDomainError("integrand vanished on the whole domain")
    net = sum(sign * math.exp(la - top) for la, sign in lobes)
    gross = sum(math.exp(la - top) for la, _ in lobes)
    if net < _CANCELLATION * gross:
        raise IntegrationDomainError(
            f"the two lobes of Psi^n cancel to {net / gross:.2g} of their sum "
            f"(N={n}): the quadrature cannot resolve the difference")
    return top + math.log(net)


def quad_log_integral(h: float, n: int) -> float:
    """log of integral Psi(x)^n dx at field h by shifted-log quadrature, one
    piece per lobe; ValueError for n < 1 or |h| >= log(DBL_MAX),
    IntegrationDomainError when the lobes cancel to below _CANCELLATION of
    their sum."""
    a, xhat = _maximizer(h)
    _check_size(n)
    return _n_peak(a, xhat, n) + _log_lobes(a, xhat, n)


def gaussian_rep_log_partition(N: int, h: float) -> float:
    """log Z0_N(h) through the Gaussian-moment representation
    sqrt(N/2pi) * integral Psi^N; independent of the combinatorial sum."""
    _check_size(N)
    return 0.5 * math.log(N / (2.0 * math.pi)) + quad_log_integral(h, N)


@dataclass(frozen=True)
class LaplaceResult:
    log_integral_quadrature: float
    log_asymptote: float
    maximizer: float
    second_derivative: float
    log_ratio: float
    """Quadrature over asymptote, from the O(1) integral of
    (Psi/Psi(xhat))^n: tends to 0 as n grows."""


def laplace_approx(h: float, n: int) -> LaplaceResult:
    """Quadrature value of integral Psi^n at field h and its Laplace
    asymptote at the closed-form maximizer; ValueError as quad_log_integral."""
    a, xhat = _maximizer(h)
    _check_size(n)
    curv = _curvature(xhat, a)
    peak = _n_peak(a, xhat, n)
    log_width = 0.5 * math.log(2.0 * math.pi / (-n * curv))
    log_lobes = _log_lobes(a, xhat, n)
    return LaplaceResult(
        log_integral_quadrature=peak + log_lobes,
        log_asymptote=peak + log_width,
        maximizer=xhat,
        second_derivative=curv,
        log_ratio=log_lobes - log_width,
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
