"""Adaptive quadrature on a shifted log scale for sharply peaked integrands.

Integrands are positive and supplied as vectorized callables returning
log f.  Panel sums are accumulated after subtracting the running maximum, so
integrals of functions spanning e^{+-N} scales never overflow.  A signed
integrand is integrated by its caller one sign at a time: laplace cuts Psi_N
at its one sign change, x = -e^h, integrates each lobe here and combines the
two with their signs, where it also checks their cancellation.  Composite
Gauss-Legendre with panel doubling is used throughout: every integrand in
this package is analytic on the integration window, so the rule converges
spectrally and the doubling test is a reliable error estimate.

``peaked_components`` finds the super-level set {log f > max - drop} on a
probe grid.  Given a pointwise upper bound ``upper`` of log f, it evaluates
log f at the bound's argmax (value v0), then only where the bound exceeds
v0 - drop or is NaN, and takes -inf elsewhere: every point of the set, and
the grid maximum vmax >= v0, has bound >= value > vmax - drop >= v0 - drop,
so it is evaluated, and the pieces keep their bits.
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
# from _INITIAL_PANELS panels, doubled until log|I| moves by at most _REL_TOL
_ORDER = 24
_INITIAL_PANELS = 16
_MAX_DOUBLINGS = 12
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
    prev = None
    for _ in range(_MAX_DOUBLINGS + 1):
        x, w = _composite_nodes(a, b, panels, _ORDER)
        lf = np.asarray(log_f(x), dtype=np.float64)
        m = float(np.max(lf))
        if not math.isfinite(m):
            return -math.inf, 0.0
        terms = w * np.exp(lf - m)
        # a dot with ones, not terms.sum(): its summation order fixes the
        # bits of SmoothedDensity.log_normalizer
        total = float(np.dot(np.ones_like(lf), terms))
        log_abs = m + math.log(total)  # total >= the weight at the maximum
        if prev is not None and abs(log_abs - prev) <= _REL_TOL:
            return log_abs, 1.0
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


def peaked_components(log_f, lo: float, hi: float, drop: float = TAIL_DROP,
                      upper=None):
    """Disjoint intervals covering {x : log_f(x) > max log_f - drop}.

    The probe window [lo, hi] is grown geometrically while the super-level
    set touches its boundary, so callers only need a window containing the
    peak region, not the whole decay range.

    ``upper(xs)``, when given, bounds log_f from above pointwise (NaN where
    it knows no bound), and log_f is evaluated only where the bound can reach
    the super-level set (see the module docstring); the pieces are the same.
    """
    for _ in range(_MAX_EXPAND):
        xs = np.linspace(lo, hi, N_PROBE)
        if upper is None:
            vals = np.asarray(log_f(xs), dtype=np.float64)
        else:
            vals = _bounded_probe(log_f, upper, xs, drop)
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


def _bounded_probe(log_f, upper, xs, drop):
    """log_f on the probe points whose bound ``upper`` can reach the
    super-level set, -inf on the others (see peaked_components)."""
    bound = np.asarray(upper(xs), dtype=np.float64)
    unknown = np.isnan(bound)
    top = int(np.argmax(np.where(unknown, -np.inf, bound)))
    v0 = float(np.asarray(log_f(xs[top:top + 1]), dtype=np.float64)[0])
    vals = np.full(len(xs), -np.inf)
    vals[top] = v0
    todo = (bound > v0 - drop) | unknown
    todo[top] = False
    if todo.any():
        vals[todo] = log_f(xs[todo])
    return vals
