"""Closed-form thermodynamics of the mean-field imitative monomer-dimer model.

The pure hard-core model (no imitation) has limiting pressure

    p0(h) = -(1 - g(h))/2 - log(1 - g(h))/2,

where g(h), the limiting monomer density, is the root in (0, 1) of

    g^2 + e^{2h} g - e^{2h} = 0,   i.e.   g(h) = e^h (sqrt(e^{2h} + 4) - e^h) / 2.

Switching on an imitative coupling J >= 0 replaces the pressure by the
variational problem

    p(h, J) = sup_{m in [0,1]}  ptilde(m),
    ptilde(m) = -J m^2 + p0((2m - 1) J + h),

whose maximizers solve the consistency equation m = g((2m-1)J + h).
consistency_roots is the one solver of that equation; the pressure here and
the phase classification in imd.phase are both built on its roots.  The
same limit is reproduced by the large-deviation route

    p(h, J) = sup_m [ (h - J) m + J m^2 - rate_function(m) ],

with the entropy-like rate of the weighted configuration counts.  Everything
here is a pure function of (h, J, m); no state, safe to call from anywhere.

Each function has two routes.  A real scalar (``float``, which includes
``np.float64``) takes the scalar route: plain comparisons check that it is
finite and in range, an ``if`` evaluates only the branch that applies, and
a Python float comes back.  Anything else becomes a float64 array and takes
the vectorized route, where ``np.where`` joins both branches.  The root
finders call these functions one float at a time, so the scalar route
spares them the array overhead.  Each formula is written once, in a helper
that both routes share, and the routes must give the same bits: a scalar
gives exactly what a 0-d array gives.  The rule that keeps this true is
same ufuncs, same order, no ``math.*`` transcendentals.  ``math.exp`` and
``math.log1p`` round differently from ``np.exp`` and ``np.log1p`` on a
fraction of inputs.  For the same reason integer powers of a scalar stay
scalar ``**`` (C ``pow``), which ``np.power`` on an array does not match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

__all__ = [
    "ModelParams",
    "g",
    "g_derivative",
    "p0",
    "p0_second_form",
    "log_one_minus_g",
    "tilde_p",
    "rate_function",
    "printed_rate_offset",
    "consistency_roots",
    "variational_pressure",
    "variational_pressure_via_rate",
]


@dataclass(frozen=True)
class ModelParams:
    """External field h and imitative coupling J >= 0."""

    h: float
    J: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.h) and math.isfinite(self.J)):
            raise ValueError(f"parameters must be finite, got h={self.h}, J={self.J}")
        if self.J < 0:
            raise ValueError(f"coupling J must be nonnegative, got J={self.J}")

    def effective_field(self, m):
        """Field seen by the pure model at monomer density m: (2m-1)J + h."""
        if not isinstance(m, float):
            m = np.asarray(m)
        return (2.0 * m - 1.0) * self.J + self.h


def _checked(x, name):
    """x as a finite float (scalar route) or a finite float64 array."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
        return float(x)
    a = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _checked_density(x, name):
    """x checked finite and inside [0, 1]."""
    v = _checked(x, name)
    if isinstance(v, float):
        outside = not 0.0 <= v <= 1.0
    else:
        outside = np.any((v < 0.0) | (v > 1.0))
    if outside:
        raise ValueError(f"density {name} must lie in [0, 1], got {x}")
    return v


def _scalar_like(x, val):
    return float(val) if isinstance(x, float) or np.ndim(x) == 0 else val


# below this field e^{-2h} overflows and the rationalized form degenerates
_G_BRANCH = -350.0


def _g_rational(h):
    return 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * np.exp(-2.0 * h)))


def _g_deep(h):
    eh = np.exp(h)
    return eh * (np.sqrt(eh * eh + 4.0) - eh) / 2.0


def g(h):
    """Limiting monomer density of the pure hard-core model, in (0, 1).

    The textbook difference sqrt(e^{2h}+4) - e^h cancels catastrophically for
    large h, so the rationalized form 2 / (1 + sqrt(1 + 4 e^{-2h})) is used
    on the whole representable range; a single formula also keeps the float
    evaluation monotone across h = 0, which a branch switch there breaks at
    the last ulp.  Only below h = -350, where e^{-2h} overflows, does the
    evaluation fall back to the printed difference (= e^h there).
    """
    a = _checked(h, "h")
    if isinstance(a, float):
        return float(_g_rational(a) if a > _G_BRANCH else _g_deep(a))
    val = np.where(a > _G_BRANCH, _g_rational(np.maximum(a, _G_BRANCH)),
                   _g_deep(np.minimum(a, _G_BRANCH)))
    return _scalar_like(h, val)


def _log_one_minus_g_positive(h):
    return math.log(4.0) - 2.0 * h - 2.0 * np.log1p(np.sqrt(1.0 + 4.0 * np.exp(-2.0 * h)))


def log_one_minus_g(h):
    """log(1 - g(h)), stable in the monomer-saturated tail.

    From the quadratic for g, 1 - g = 4 e^{-2h} / (1 + sqrt(1 + 4 e^{-2h}))^2,
    so the log never sees an underflowing difference.
    """
    a = _checked(h, "h")
    if isinstance(a, float):
        return float(_log_one_minus_g_positive(a) if a > 0.0 else np.log1p(-g(a)))
    val = np.where(a > 0, _log_one_minus_g_positive(np.maximum(a, 0.0)),
                   np.log1p(-g(np.minimum(a, 0.0))))
    return _scalar_like(h, val)


def g_derivative(h, k=1):
    """k-th derivative of g, k in {1, 2, 3}, from the closed chain-rule forms.

    g' = 2g(1-g)/(2-g) =: G(g); then g'' = G'(g) g' and
    g''' = G''(g) g'^2 + G'(g) g'' with
    G'(g) = 2 (g^2 - 4g + 2)/(2-g)^2 and G''(g) = -8/(2-g)^3.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {k}")
    gg = g(h)
    d1 = 2.0 * gg * (1.0 - gg) / (2.0 - gg)
    if k == 1:
        return _scalar_like(h, d1)
    G1 = 2.0 * (gg * gg - 4.0 * gg + 2.0) / (2.0 - gg) ** 2
    d2 = G1 * d1
    if k == 2:
        return _scalar_like(h, d2)
    G2 = -8.0 / (2.0 - gg) ** 3
    d3 = G2 * d1 * d1 + G1 * d2
    return _scalar_like(h, d3)


def p0(h):
    """Limiting pressure of the pure hard-core model: -(1-g)/2 - log(1-g)/2."""
    lg = log_one_minus_g(h)
    return _scalar_like(h, -np.exp(lg) / 2.0 - 0.5 * lg)


def p0_second_form(h):
    """Equivalent printed form -(1-g)/2 - log(g) + h (the g-quadratic forces
    log(1-g) = 2 log g - 2h, so this must agree with p0 to roundoff).  Below
    h = -350, g = e^h q with q = (sqrt(e^{2h} + 4) - e^h) / 2, and -log(g) + h
    is evaluated as -log(q), which stays finite where g underflows."""
    a = _checked(h, "h")
    gg = g(a)
    deep = np.less(a, _G_BRANCH)
    eh = np.exp(np.minimum(a, _G_BRANCH))
    minus_log_q = -np.log((np.sqrt(eh * eh + 4.0) - eh) / 2.0)
    val = np.where(deep, -(1.0 - gg) / 2.0 + minus_log_q,
                   -(1.0 - gg) / 2.0 - np.log(np.where(deep, 1.0, gg)) + a)
    return _scalar_like(h, val)


def tilde_p(m, params: ModelParams, order: int = 0):
    """Variational pressure curve ptilde(m) = -J m^2 + p0((2m-1)J + h), or its
    m-derivative of the given order (0..4).

    Orders 1..4 use the chain rule through the pure-model field x = (2m-1)J+h:
    ptilde'  = 2J (g(x) - m),        ptilde'' = -2J + (2J)^2 g'(x),
    ptilde''' = (2J)^3 g''(x),       ptilde'''' = (2J)^4 g'''(x).
    """
    mm = _checked_density(m, "m")
    x = params.effective_field(mm)
    J = params.J
    if order == 0:
        val = -J * mm * mm + p0(x)
    elif order == 1:
        val = 2.0 * J * (g(x) - mm)
    elif order == 2:
        val = -2.0 * J + (2.0 * J) ** 2 * g_derivative(x, 1)
    elif order == 3:
        val = (2.0 * J) ** 3 * g_derivative(x, 2)
    elif order == 4:
        val = (2.0 * J) ** 4 * g_derivative(x, 3)
    else:
        raise ValueError(f"derivative order must be in 0..4, got {order}")
    return _scalar_like(m, val)


def rate_function(z):
    """Entropy-like rate of the weighted dimer-configuration counts:

        I(z) = z log z + ((1-z)/2) log(1-z) + (1-z)/2,

    with z log z := 0 at z = 0.  Convex on [0, 1]; minimized at z = g(0)
    with minimum value -p0(0), so that sup_z (h z - I(z)) = p0(h).
    No additive constant is included; see printed_rate_offset().
    """
    zz = _checked_density(z, "z")
    # log sees max(z, 1e-300), never 0; 0 * log(1e-300) gives 0 log 0 := 0
    floor = max if isinstance(zz, float) else np.maximum
    w = 1.0 - zz
    val = zz * np.log(floor(zz, 1e-300)) + 0.5 * (w * np.log(floor(w, 1e-300))) + w / 2.0
    return _scalar_like(z, val)


def printed_rate_offset():
    """The additive constant -p0(0) that some conventions attach to the rate
    function.  Kept separate: with the constant included, the supremum
    sup_m(f(m) - I(m)) no longer reproduces the J=0 pressure."""
    return -p0(0.0)


def _local_maximum_brackets(v, grid):
    """(lo, hi) around every grid sample no lower than its neighbours,
    interior samples first, then the two end cells when they qualify."""
    inner = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])) + 1
    brackets = [(grid[i - 1], grid[i + 1]) for i in inner]
    if v[0] >= v[1]:
        brackets.append((grid[0], grid[1]))
    if v[-1] >= v[-2]:
        brackets.append((grid[-2], grid[-1]))
    return brackets


def _refine_local_maxima(fun, grid_vals, grid):
    """Brent-polish every local maximum of fun sampled on grid, including
    maximizers hiding between the last grid cell and the domain boundary."""
    candidates = [grid_vals[0], grid_vals[-1]]
    for lo, hi in _local_maximum_brackets(grid_vals, grid):
        res = minimize_scalar(
            lambda m: -fun(m), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-13},
        )
        candidates.append(-res.fun)
    return max(candidates)


# consistency scan: bracketing grid and Newton stopping residual
_ROOT_GRID = np.linspace(0.0, 1.0, 401)
_ROOT_TOL = 1e-13


def consistency_roots(params: ModelParams) -> list[float]:
    """All solutions of m = g((2m-1)J + h) in [0, 1], in increasing order.

    The residual m - g((2m-1)J + h) is scanned on a 401-point grid; every
    sign change is solved by brentq and polished by Newton to residual
    < 1e-13, and polish results closer than 1e-9 are merged.  At J = 0 the
    equation reads m = g(h).
    """
    if params.J == 0.0:
        return [float(g(params.h))]

    def residual(m):
        return m - g(params.effective_field(m))

    grid = _ROOT_GRID
    res = residual(grid)
    roots = [float(m) for m in grid[res == 0.0]]
    for i in np.flatnonzero(res[:-1] * res[1:] < 0.0):
        roots.append(float(brentq(residual, grid[i], grid[i + 1], xtol=1e-15)))
    polished = []
    for m in roots:
        for _ in range(6):  # Newton: residual' = 1 - 2J g'(x)
            r = float(residual(m))
            d = 1.0 - 2.0 * params.J * float(g_derivative(params.effective_field(m), 1))
            if d == 0.0 or abs(r) < _ROOT_TOL:
                break
            m = min(max(m - r / d, 0.0), 1.0)
        polished.append(m)
    # an odd-multiplicity root always exists; dedupe near-coincident polish results
    polished.sort()
    out = []
    for m in polished:
        if not out or m - out[-1] > 1e-9:
            out.append(m)
    return out


def variational_pressure(params: ModelParams) -> float:
    """Limiting pressure sup_m ptilde(m): the largest value of ptilde over the
    endpoints of [0, 1] and the consistency roots, where ptilde' vanishes.
    (The companion routine variational_pressure_via_rate maximizes a
    different functional with a derivative-free method, so the two suprema
    are independently computed.)
    """
    return float(max(tilde_p(m, params) for m in (0.0, 1.0, *consistency_roots(params))))


def variational_pressure_via_rate(params: ModelParams) -> float:
    """Same limit by the large-deviation route sup_m (f(m) - I(m)) with
    f(m) = (h - J) m + J m^2; an independent cross-check of the sup."""
    h, J = params.h, params.J

    def objective(m):
        return (h - J) * m + J * m * m - rate_function(m)

    grid = np.linspace(0.0, 1.0, 1001)
    vals = np.asarray(objective(grid))
    return float(_refine_local_maxima(objective, vals, grid))
