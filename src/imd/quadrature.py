"""Adaptive quadrature on a shifted log scale for sharply peaked integrands.

Integrands are positive and supplied as vectorized callables returning
log f.  Panel sums are accumulated after subtracting the running maximum, so
integrals of functions spanning e^{+-N} scales never overflow.  A signed
integrand is integrated by its caller one sign at a time: laplace cuts Psi_N
at its one sign change, x = -e^h, integrates each lobe here and combines the
two with their signs, where it also checks their cancellation.  Composite
Gauss-Legendre with panel doubling is used throughout: every integrand in
this package is analytic on the integration window, so the rule converges
spectrally and the doubling test is a reliable error estimate.  The panels
run 4, 8, ..., 65 536: cut to its e^-80 super-level set
(``peaked_components``, on a probe grid), every integrand of verify passes
at the first pair (4, 8); from 2, criteria 3 and 5 need a third level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "IntegrationDomainError",
    "gauss_legendre",
    "log_integral",
    "signed_log_integral",
    "peaked_components",
]

# signed_log_integral: composite Gauss-Legendre with _ORDER nodes per panel,
# from _INITIAL_PANELS panels, doubled until log|I| moves by at most _REL_TOL,
# up to 4 * 2**14 = 65 536 panels (the module docstring says why 4)
_ORDER = 24
_INITIAL_PANELS = 4
_MAX_DOUBLINGS = 14
_REL_TOL = 1e-12
# peaked_components: contributions below exp(-TAIL_DROP) of the peak are
# discarded (well under every tolerance used here); the probe window of
# N_PROBE points grows at most _MAX_EXPAND times
TAIL_DROP = 80.0
N_PROBE = 2001
_MAX_EXPAND = 40


class IntegrationDomainError(ValueError):
    """Raised when an integrand fails to decay over any tractable domain."""


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


def signed_log_integral(log_f, a: float, b: float):
    """Return (log I, sign) for I = integral of exp(log_f) on [a, b]: sign is
    1.0, or 0.0 with log I = -inf when log_f has no finite maximum."""
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    panels = _INITIAL_PANELS
    logs = []  # log|I| per level
    for _ in range(_MAX_DOUBLINGS + 1):
        x, w = _composite_nodes(a, b, panels, _ORDER)
        lf = np.asarray(log_f(x), dtype=np.float64)
        m = float(np.max(lf))
        if not math.isfinite(m):
            return -math.inf, 0.0
        terms = w * np.exp(lf - m)
        # a dot with ones, not terms.sum(): its summation order fixes the
        # bits of imd laplace's quadrature column
        total = float(np.dot(np.ones_like(lf), terms))
        logs.append(m + math.log(total))  # total >= the weight at the maximum
        if len(logs) > 1 and abs(logs[-1] - logs[-2]) <= _REL_TOL:
            return logs[-1], 1.0
        panels *= 2
    # changes that stall well above zero are log_f's own rounding floor
    last = ", ".join(f"{d:.1e}" for d in np.abs(np.diff(logs[-4:])))
    raise IntegrationDomainError(f"quadrature failed to converge to rel_tol={_REL_TOL} on "
                                 f"[{a}, {b}]; |change of log I| at the last 3 doublings: {last}")


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
        xs = np.linspace(lo, hi, N_PROBE)
        vals = np.asarray(log_f(xs), dtype=np.float64)
        vmax = float(np.max(vals))
        if not math.isfinite(vmax):
            raise IntegrationDomainError("integrand has no finite values on the window")
        mask = vals > vmax - drop
        if not mask.any():
            raise IntegrationDomainError(
                f"super-level set is empty: a drop of {drop:g} is below the "
                f"resolution of the peak value {vmax:.6g}"
            )
        if mask[0] or mask[-1]:
            width = hi - lo
            lo, hi = lo - width, hi + width
            continue
        return _pieces(xs, np.flatnonzero(mask))
    raise IntegrationDomainError(
        f"super-level set still touches the window boundary after "
        f"{_MAX_EXPAND} expansions; integrand appears not to decay"
    )


def _pieces(xs, idx):
    """(xs[a - 1], xs[b + 1]) per run a..b of consecutive indices in idx, clamped."""
    gap = np.flatnonzero(np.diff(idx) > 1)
    starts, ends = [idx[0], *idx[gap + 1]], [*idx[gap], idx[-1]]
    return [(xs[max(a - 1, 0)], xs[min(b + 1, N_PROBE - 1)]) for a, b in zip(starts, ends)]

