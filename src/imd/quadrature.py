"""Adaptive quadrature on a shifted log scale for sharply peaked integrands.

Integrands are supplied as vectorized callables returning log|f| (and
optionally a sign).  Panel sums are accumulated after subtracting the running
maximum, so integrals of functions spanning e^{+-N} scales never overflow.
Composite Gauss-Legendre with panel doubling is used throughout: every
integrand in this package is analytic on the integration window, so the rule
converges spectrally and the doubling test is a reliable error estimate.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

__all__ = [
    "IntegrationDomainError",
    "PrecisionWarning",
    "gauss_legendre",
    "log_integral",
    "signed_log_integral",
    "peaked_components",
]

# signed_log_integral: composite Gauss-Legendre with _ORDER nodes per panel,
# from _INITIAL_PANELS panels, doubled until log|I| moves by at most _REL_TOL
_ORDER = 24
_INITIAL_PANELS = 16
_MAX_DOUBLINGS = 12
_REL_TOL = 1e-12
# peaked_components: contributions below exp(-TAIL_DROP) of the peak are
# discarded (well under every tolerance used here); the probe window of
# _N_PROBE points grows at most _MAX_EXPAND times
TAIL_DROP = 80.0
_N_PROBE = 2001
_MAX_EXPAND = 40


class IntegrationDomainError(ValueError):
    """Raised when an integrand fails to decay over any tractable domain."""


class PrecisionWarning(UserWarning):
    """Emitted when sign cancellation erodes the achievable accuracy."""


@lru_cache(maxsize=8)
def gauss_legendre(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _composite_nodes(a: float, b: float, panels: int, order: int):
    nodes, weights = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    x = (centers[:, None] + half * nodes[None, :]).ravel()
    w = np.broadcast_to(half * weights[None, :], (panels, order)).ravel()
    return x, w


def signed_log_integral(log_f, a: float, b: float, sign_f=None):
    """Return (log|I|, sign) for I = integral of sign_f * exp(log_f) on [a, b]."""
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    panels = _INITIAL_PANELS
    prev = None
    for _ in range(_MAX_DOUBLINGS + 1):
        x, w = _composite_nodes(a, b, panels, _ORDER)
        lf = np.asarray(log_f(x), dtype=np.float64)
        s = np.ones_like(lf) if sign_f is None else np.asarray(sign_f(x), dtype=np.float64)
        m = float(np.max(lf))
        if not math.isfinite(m):
            return -math.inf, 0.0
        terms = w * np.exp(lf - m)
        total = float(np.dot(s, terms))
        gross = float(np.dot(np.abs(s), terms))
        if sign_f is not None and gross > 0 and abs(total) < 1e-12 * gross:
            warnings.warn(
                "sign oscillation cancels the integral to below 1e-12 of its "
                "gross magnitude; the log-scale result is unreliable",
                PrecisionWarning,
                stacklevel=2,
            )
        if total == 0.0:
            return -math.inf, 0.0
        log_abs = m + math.log(abs(total))
        sign = math.copysign(1.0, total)
        if prev is not None and abs(log_abs - prev) <= _REL_TOL:
            return log_abs, sign
        prev = log_abs
        panels *= 2
    raise IntegrationDomainError(
        f"quadrature failed to converge to rel_tol={_REL_TOL} on [{a}, {b}]"
    )


def log_integral(log_f, a: float, b: float) -> float:
    """log of the integral of a positive integrand given as log_f."""
    log_abs, sign = signed_log_integral(log_f, a, b)
    if sign <= 0:
        raise IntegrationDomainError("integrand is not positive on the domain")
    return log_abs


def peaked_components(log_f, lo: float, hi: float, drop: float = TAIL_DROP):
    """Disjoint intervals covering {x : log_f(x) > max log_f - drop}.

    The probe window [lo, hi] is grown geometrically while the super-level
    set touches its boundary, so callers only need a window containing the
    peak region, not the whole decay range.
    """
    for _ in range(_MAX_EXPAND):
        xs = np.linspace(lo, hi, _N_PROBE)
        vals = np.asarray(log_f(xs), dtype=np.float64)
        vmax = float(np.max(vals))
        if not math.isfinite(vmax):
            raise IntegrationDomainError("integrand has no finite values on the window")
        mask = vals > vmax - drop
        if mask[0] or mask[-1]:
            width = hi - lo
            lo, hi = lo - width, hi + width
            continue
        idx = np.flatnonzero(mask)
        pieces = []
        start = idx[0]
        for j, i in enumerate(idx):
            if j and i != idx[j - 1] + 1:
                pieces.append((xs[max(start - 1, 0)], xs[min(idx[j - 1] + 1, _N_PROBE - 1)]))
                start = i
        pieces.append((xs[max(start - 1, 0)], xs[min(idx[-1] + 1, _N_PROBE - 1)]))
        return pieces
    raise IntegrationDomainError(
        f"super-level set still touches the window boundary after "
        f"{_MAX_EXPAND} expansions; integrand appears not to decay"
    )
