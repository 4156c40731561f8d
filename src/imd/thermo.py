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
the phase classification in imd.phase are both built on its roots.  It
walks the residual m - g((2m-1)J + h) piece by piece: the closed-form
spinodal densities cut [0, 1] into at most three pieces on which the
residual is monotone, so the signs at a piece's ends tell whether it holds
a root, and a bisection over grid nodes (first those around any hinted
roots) finds the cell that brentq solves.  consistency_roots and
variational_pressure take one ModelParams, whose walk runs on Python
floats, or a sequence of them, which takes the lane route: each step of
the walk for all rows at once in NumPy arrays, with brentq's lane-wise
port.  Both routes do the same double operations, so a batch gives each
row the scalar walk's bits, whatever the other rows are.
The same limit is reproduced by the large-deviation route

    p(h, J) = sup_m [ (h - J) m + J m^2 - rate_function(m) ],

with the entropy-like rate I of the weighted configuration counts, for a
whole batch of (h, J) at once: the closed forms of I' and I'' cut [0, 1]
into pieces that hold at most one maximum each, and a bracketed Newton
solves every piece lane-wise, sharing no code with the consistency route.
Everything here is a pure function of (h, J, m); no state, safe to call
from anywhere.

Each function has two routes.  A real scalar (``float``, which includes
``np.float64``) takes the scalar route: plain comparisons check that it is
finite and in range, an ``if`` evaluates only the branch that applies, and
a Python float comes back.  Anything else becomes a float64 array and takes
the vectorized route, where ``np.where`` joins both branches.  The root
finders call these functions one float at a time, so the scalar route
spares them the array overhead.  Each formula is written once, in a helper
that both routes share, and the routes must give the same bits: a scalar
gives exactly what a 0-d array gives.  The rule that keeps this true is
same operations, same order, no ``math.*`` transcendentals.  ``math.exp`` and
``math.log1p`` round differently from ``np.exp`` and ``np.log1p`` on a
fraction of inputs.  ``math.sqrt`` is allowed: like ``np.sqrt`` it is
correctly rounded, so ``g``'s scalar route runs on Python floats with
``np.exp`` as its only ufunc.  For the same reason integer powers of a scalar
stay scalar ``**`` (C ``pow``), which ``np.power`` on an array does not match.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq, brentq_lanes

__all__ = [
    "ModelParams",
    "g",
    "g_derivative",
    "p0",
    "p0_second_form",
    "log_one_minus_g",
    "tilde_p",
    "rate_function",
    "consistency_roots",
    "variational_pressure",
    "variational_pressure_via_rate",
]


# the representable range: above _J_MAX, 1 - m+ of the upper spinodal
# density, about 1/(4J), is too close to 0 (it rounds to 0 from J = 2^51);
# above _H_MAX the doubled field 2((2m-1)J + h) in p0 overflows
_J_MAX = 2.0**50
_H_MAX = np.finfo(np.float64).max / 4.0


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
        if self.J > _J_MAX:
            raise ValueError(f"coupling J={self.J!r} is outside the representable range J <= "
                             f"2^50 = {_J_MAX:.6g}: 1 - m+ at the spinodal, about 1/(4J), "
                             f"is too small")
        if abs(self.h) > _H_MAX:
            raise ValueError(f"field h={self.h!r} is outside the representable range |h| <= "
                             f"{_H_MAX:.6g}: 2((2m-1)J + h) in p0 overflows")

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


def _g_rational(e, sqrt):
    """g from e = e^{-2h}."""
    return 2.0 / (1.0 + sqrt(1.0 + 4.0 * e))


def _g_prime_rational(e, sqrt):
    """g' from e = e^{-2h}: with r = sqrt(1 + 4e) and g = 2/(1 + r),
    2g(1-g)/(2-g) reduces to 4e / (1 + 4e + r(1 + 2e)), free of cancellation."""
    t = 1.0 + 4.0 * e
    return 4.0 * e / (t + sqrt(t) * (1.0 + 2.0 * e))


def _g_deep(eh, sqrt):
    """g from eh = e^h."""
    return eh * (sqrt(eh * eh + 4.0) - eh) / 2.0


def _g_scalar(a: float) -> float:
    """g's scalar route on a finite float, unchecked: the root walks call it
    directly."""
    if a > _G_BRANCH:
        return _g_rational(float(np.exp(-2.0 * a)), math.sqrt)
    return _g_deep(float(np.exp(a)), math.sqrt)


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
        return _g_scalar(a)
    return _scalar_like(h, _g_array(a))


def _g_array(a):
    """g's array route on a finite float64 array, unchecked: the lane walk
    calls it directly."""
    return np.where(a > _G_BRANCH, _g_rational(np.exp(-2.0 * np.maximum(a, _G_BRANCH)), np.sqrt),
                    _g_deep(np.exp(np.minimum(a, _G_BRANCH)), np.sqrt))


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
    For h > 0, g' comes from e = e^{-2h} (_g_prime_rational), since 1 - g
    formed from g rounds to 0 from h ~ 19.  g'' and g''' keep that form: the
    critical point's brentq reads g'' at x = 3, and its bits follow.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {k}")
    a = _checked(h, "h")
    if k == 1 and isinstance(a, float) and a > 0.0:
        return _g_prime_rational(float(np.exp(-2.0 * a)), math.sqrt)
    gg = g(a)
    d1 = 2.0 * gg * (1.0 - gg) / (2.0 - gg)
    if k == 1:
        if not isinstance(a, float):
            d1 = np.where(a > 0.0, _g_prime_rational(np.exp(-2.0 * np.maximum(a, 0.0)), np.sqrt),
                          d1)
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
    No additive constant is included: the -p0(0) that some conventions add
    would break that identity.
    """
    zz = _checked_density(z, "z")
    # log sees max(z, 1e-300), never 0; 0 * log(1e-300) gives 0 log 0 := 0
    floor = max if isinstance(zz, float) else np.maximum
    w = 1.0 - zz
    val = zz * np.log(floor(zz, 1e-300)) + 0.5 * (w * np.log(floor(w, 1e-300))) + w / 2.0
    return _scalar_like(z, val)


# rate route: Newton on phi = f' - I' stops once its step is below
# _RATE_XTOL (in log m or -log(1 - m)); _RATE_STEPS caps it
_M_C = 2.0 - math.sqrt(2.0)  # phi'' = 1/m^2 - 1/(2(1-m)^2) vanishes only here
_RATE_XTOL = 1e-10
_RATE_STEPS = 40


def _rate_phi(t, right, h, J):
    """phi = (h - J) + 2Jm - log m + log(1 - m)/2 and dphi/dt = p (2J - I''(m))
    in t = log m, p = m on the left pieces and in t = -log(1 - m), p = 1 - m
    on the right ones (right True); phi falls in t on both."""
    x = np.where(right, -t, t)  # log p
    p = np.exp(x)
    q = -np.expm1(x)  # 1 - p, at least 1 - _M_C on every piece
    log_q = np.log(q)
    phi = ((h - J) + 2.0 * J * np.where(right, q, p) - np.where(right, log_q, t)
           + 0.5 * np.where(right, -t, log_q))
    return phi, 2.0 * J * p - p / np.where(right, q, 2.0 * q) - np.where(right, 0.5, 1.0)


def _rate_candidates(h, J):
    """(row, m, steps): the candidates m = 0, 1, c-, c+ of every row of the
    float64 arrays h and J, then the maximum of each piece that holds one,
    and how many phi evaluations each piece's Newton took (_RATE_STEPS where
    the cap stopped it); see variational_pressure_via_rate."""
    n = h.size
    turning = 4.0 * J - 3.0 > 2.0 * math.sqrt(2.0)  # J > J_c
    Jt = np.where(turning, J, 1.0)  # keeps the unused lanes finite
    b = 4.0 * Jt - 3.0
    c_hi = np.where(turning, (b + 4.0 + np.sqrt(np.maximum(b * b - 8.0, 0.0))) / (8.0 * Jt), _M_C)
    c_lo = np.where(turning, 1.0 / (2.0 * Jt * c_hi), _M_C)  # the roots' product is 1/(2J)
    right = np.repeat([False, True], n)
    h2, J2 = np.tile(h, 2), np.tile(J, 2)
    t_cut = np.concatenate([np.log(c_lo), -np.log1p(-c_hi)])
    phi, _ = _rate_phi(t_cut, right, h2, J2)
    k = np.flatnonzero(np.where(right, phi > 0.0, phi < 0.0))
    right, h2, J2, t_cut = right[k], h2[k], J2[k], t_cut[k]
    # phi > 0 below u = h - J - 1, where 2Jm >= 0 and log(1 - m)/2 > -0.45;
    # phi < 0 above s = 2(h + J) + 2, where 2Jm <= 2J and -log m < 0.54
    lo = np.where(right, t_cut, h2 - J2 - 1.0)
    hi = np.where(right, 2.0 * (h2 + J2) + 2.0, t_cut)
    t = np.where(np.tile(turning, 2)[k], np.where(right, hi, lo), t_cut)
    tol = 2.0**-53 * (1.0 + np.abs(h2) + J2)  # the objective's rounding
    steps = np.zeros(k.size, dtype=np.intp)
    i = np.arange(k.size)
    for _ in range(_RATE_STEPS):
        if not i.size:
            break
        f, slope = _rate_phi(t[i], right[i], h2[i], J2[i])
        steps[i] += 1
        lo[i] = np.where(f > 0.0, t[i], lo[i])
        hi[i] = np.where(f < 0.0, t[i], hi[i])
        # the objective can gain at most p |phi| (hi - lo) <= |phi| (hi - lo)
        flat = np.abs(f) * (hi[i] - lo[i]) <= tol[i]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = np.where(flat, t[i], t[i] - f / slope)
        done = flat | (np.abs(new - t[i]) <= _RATE_XTOL)
        t[i] = np.where(done | ((lo[i] < new) & (new < hi[i])), new, 0.5 * (lo[i] + hi[i]))
        i = i[~done]
    x = np.where(right, -t, t)
    every = np.tile(np.arange(n), 4)
    return (np.concatenate([every, k % n]),
            np.concatenate([np.zeros(n), np.ones(n), c_lo, c_hi,
                            np.where(right, -np.expm1(x), np.exp(x))]), steps)


# consistency walk: the grid whose cells bracket the roots
_ROOT_NODES = np.linspace(0.0, 1.0, 401)
_ROOT_GRID = _ROOT_NODES.tolist()
# the roots (3 +- 2 sqrt 2)/4 of the spinodal discriminant 16J^2 - 24J + 1
_J_C = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
_J_C_LOW = 1.0 / (16.0 * _J_C)


def _spinodal(J: float) -> tuple[tuple[float, float], ...]:
    """((x-, m-), (x+, m+)): the fields where 2J g'(x) = 1, the only turns of
    the residual m - g((2m-1)J + h), and m = g(x); empty below J_c.  With
    g' = 2g(1-g)/(2-g) the condition reads 4J m^2 - (4J+1) m + 2 = 0, and
    g^2 = e^{2x}(1-g) gives x = log(m^2/(1-m))/2."""
    if J < _J_C:
        return ()
    m_hi = (4.0 * J + 1.0 + 4.0 * math.sqrt((J - _J_C) * (J - _J_C_LOW))) / (8.0 * J)
    m_lo = 1.0 / (2.0 * J * m_hi)  # the product of the two roots is 1/(2J)
    return tuple((0.5 * math.log(m * m / (1.0 - m)), m) for m in (m_lo, m_hi))


def _rounding_bound(h, J):
    """A bound on the rounding error of the computed residual: the field
    (2m-1)J + h errs by at most 2^-53 (3J + |h|), g' <= 6 - 4 sqrt 2, and g
    and the difference add a few ulps of 1.  Floats or arrays of them."""
    return 2.0**-52 * (3.0 + J + abs(h))


def _opposite(ra: float, rb: float) -> bool:
    """Strictly opposite signs, compared rather than multiplied (a product
    of two tiny residuals underflows to -0.0)."""
    return ra < 0.0 < rb or rb < 0.0 < ra


def _piece_roots(residual, a: float, b: float, ra: float, rb: float,
                 noise: float, hints=()) -> list[float]:
    """The roots that a scan of every grid node in the monotone piece [a, b]
    finds: nodes where the residual is 0 and cells whose ends have opposite
    signs, each cell solved by brentq; zeros at a and b are left out.

    Only near a root can rounding make the sampled residual anything but
    monotone, and the rounding band around it is far narrower than a grid
    cell.  So an end whose residual lies within noise of 0 is walked in node
    by node, as a scan would see it, until the residual clears noise; past
    that, and from an end that is clear already, the residual keeps one sign
    up to the root, and a bisection over the grid nodes in between finds the
    one cell (or node) where the sign changes.  It first probes the nodes
    around each hint (a guess at a root) strictly inside its range: on one
    sign change that saves evaluations and never moves the cell.
    """
    roots = []
    lo = bisect.bisect_right(_ROOT_GRID, a) - 1  # the nodes strictly inside
    hi = bisect.bisect_left(_ROOT_GRID, b)  # [a, b] are lo + 1 .. hi - 1
    while abs(ra) <= noise and hi - lo > 1:
        lo += 1
        m, r = _ROOT_GRID[lo], residual(_ROOT_GRID[lo])
        if r == 0.0:
            roots.append(m)
        elif _opposite(ra, r):
            roots.append(float(brentq(residual, a, m, xtol=1e-15, fa=ra, fb=r)))
        a, ra = m, r
    while abs(rb) <= noise and hi - lo > 1:
        hi -= 1
        m, r = _ROOT_GRID[hi], residual(_ROOT_GRID[hi])
        if r == 0.0:
            roots.append(m)
        elif _opposite(r, rb):
            roots.append(float(brentq(residual, m, b, xtol=1e-15, fa=r, fb=rb)))
        b, rb = m, r
    if not _opposite(ra, rb):
        return roots
    a_negative = ra < 0.0
    near = [k - d for k in (bisect.bisect_right(_ROOT_GRID, m) for m in hints) for d in (0, 1)]
    while hi - lo > 1:
        mid = near.pop() if near else (lo + hi) // 2
        if not lo < mid < hi:
            continue
        m = _ROOT_GRID[mid]
        r = residual(m)
        if r == 0.0:
            return roots + [m]
        if (r < 0.0) == a_negative:
            lo, a, ra = mid, m, r
        else:
            hi, b, rb = mid, m, r
    return roots + [float(brentq(residual, a, b, xtol=1e-15, fa=ra, fb=rb))]


def _middle_bound(h: float, J: float) -> float:
    """How far from zero both cut residuals must be for the middle piece to
    leave the maxima alone: beyond it the roots with ptilde'' < 0 are those
    of the two outer pieces, where r rises (ptilde' = -2J r).

    Why: let rho be the smaller cut residual, eps the rounding bound of r
    and m0 the middle root.  On the outer pieces 0 < r' <= 1, so each outer
    root lies at least rho - eps from its cut, with r' >= rho - eps there.
    On the middle piece |r'| rises from 0 at each cut towards the inflection
    of g, so |r'(m0)| >= rho - eps.  A computed root is off by about
    eps / |r'|, which moves r' by at most |r''| eps / |r'|, and
    |r''| = 4J^2 |g''| <= J^2.  So rho >= eps + 2 (1 + J) sqrt(eps) + 2e-9
    keeps r'(m0) < 0, that is ptilde''(m0) > 0, by far more than its
    rounding, and keeps m0 more than 1e-9 from both outer roots, which the
    merge then leaves as they are.  Below the bound, or with fewer than two
    cuts in (0, 1), all three pieces are solved.
    """
    eps = _rounding_bound(h, J)
    return eps + 2.0 * (1.0 + J) * math.sqrt(eps) + 2e-9


def _walk_roots(params: ModelParams, maxima_only: bool, hints=()) -> list[float]:
    """Roots of the consistency equation from the residual's monotone
    pieces: all of them, or with maxima_only the two outer pieces' alone
    where _middle_bound shows that the middle piece cannot matter."""
    if params.J == 0.0:
        return [float(g(params.h))]
    h, J = params.h, params.J

    def residual(m):
        return m - _g_scalar((2.0 * m - 1.0) * J + h)

    cuts = [(x - h) / (2.0 * J) + 0.5 for x, _ in _spinodal(J)]
    ends = [0.0, *(c for c in cuts if 0.0 < c < 1.0), 1.0]
    r_ends = [residual(m) for m in ends]
    noise = 2.0 * _rounding_bound(h, J)
    pieces = range(len(ends) - 1)
    if (maxima_only and len(ends) == 4
            and min(abs(r_ends[1]), abs(r_ends[2])) > _middle_bound(h, J)):
        pieces = (0, 2)
    roots = [m for m, r in zip(ends, r_ends) if r == 0.0]
    for k in pieces:
        roots += _piece_roots(residual, *ends[k:k + 2], *r_ends[k:k + 2], noise, hints)
    # an odd-multiplicity root always exists; roots within rounding noise
    # of one near-double root (walk-in cells, a zero at a node) count once
    roots.sort()
    out = []
    for m in roots:
        if not out or m - out[-1] > 1e-9:
            out.append(m)
    return out


def _opposite_lanes(ra, rb):
    """_opposite, lane by lane."""
    return ((ra < 0.0) & (rb > 0.0)) | ((rb < 0.0) & (ra > 0.0))


def _lane_residual(m, h, J):
    return m - _g_array((2.0 * m - 1.0) * J + h)


def _lane_cells(h, J):
    """The piece ends and the walk of _piece_roots for every row of the
    float64 arrays h and J (J > 0) at once: the (row, m) of the roots found
    at ends and nodes, and the (row, a, b, fa, fb) of the cells that brentq
    solves."""
    grid = _ROOT_NODES
    # the ends 0, c-, c+, 1 of every row, the cuts outside (0, 1) left out;
    # the cuts come from the scalar _spinodal (math.log), once per J
    spinodal = {j: [x for x, _ in _spinodal(j)] or [math.nan] * 2 for j in set(J.tolist())}
    x = np.array([spinodal[j] for j in J.tolist()]).reshape(-1, 2)
    ends = np.zeros((J.size, 4))
    ends[:, 1:3] = (x - h[:, None]) / (2.0 * J[:, None]) + 0.5
    ends[:, 3] = 1.0
    inside = np.ones(ends.shape, dtype=bool)
    inside[:, 1:3] = (0.0 < ends[:, 1:3]) & (ends[:, 1:3] < 1.0)
    er, col = np.nonzero(inside)
    em = ends[er, col]
    r_end = _lane_residual(em, h[er], J[er])
    roots = [(er[r_end == 0.0], em[r_end == 0.0])]
    # the monotone pieces: consecutive ends of one row
    k = np.flatnonzero(er[:-1] == er[1:])
    row, a, b, ra, rb = er[k], em[k], em[k + 1], r_end[k], r_end[k + 1]
    lo = np.searchsorted(grid, a, side="right") - 1  # the nodes strictly inside
    hi = np.searchsorted(grid, b, side="left")  # [a, b] are lo + 1 .. hi - 1
    noise = 2.0 * _rounding_bound(h, J)[row]
    cells = []

    def at_nodes(i, nodes):
        m = grid[nodes]
        r = _lane_residual(m, h[row[i]], J[row[i]])
        roots.append((row[i[r == 0.0]], m[r == 0.0]))
        return m, r

    # the walk-in from an end whose residual lies within noise of 0
    while (i := np.flatnonzero((np.abs(ra) <= noise) & (hi - lo > 1))).size:
        lo[i] += 1
        m, r = at_nodes(i, lo[i])
        c = _opposite_lanes(ra[i], r)
        cells.append((row[i[c]], a[i[c]], m[c], ra[i[c]], r[c]))
        a[i], ra[i] = m, r
    while (i := np.flatnonzero((np.abs(rb) <= noise) & (hi - lo > 1))).size:
        hi[i] -= 1
        m, r = at_nodes(i, hi[i])
        c = _opposite_lanes(r, rb[i])
        cells.append((row[i[c]], m[c], b[i[c]], r[c], rb[i[c]]))
        b[i], rb[i] = m, r
    # the node bisection of the pieces whose ends differ in sign
    pending = _opposite_lanes(ra, rb)
    a_negative = ra < 0.0
    while (i := np.flatnonzero(pending & (hi - lo > 1))).size:
        mid = (lo[i] + hi[i]) // 2
        m, r = at_nodes(i, mid)
        pending[i[r == 0.0]] = False
        up = (r != 0.0) & ((r < 0.0) == a_negative[i])
        down = (r != 0.0) & ~up
        lo[i[up]], a[i[up]], ra[i[up]] = mid[up], m[up], r[up]
        hi[i[down]], b[i[down]], rb[i[down]] = mid[down], m[down], r[down]
    cells.append((row[pending], a[pending], b[pending], ra[pending], rb[pending]))
    return [np.concatenate(v) for v in zip(*roots)], [np.concatenate(v) for v in zip(*cells)]


def _row_columns(row, n):
    """For entries sorted by row in 0..n-1: the indices of every row's first
    entry, then those of every row's second entry, and so on."""
    place = np.arange(row.size) - np.searchsorted(row, np.arange(n))[row]
    return [np.flatnonzero(place == j) for j in range(place.max(initial=-1) + 1)]


def _lane_roots(h, J):
    """_walk_roots(ModelParams(h[i], J[i]), False) for every row i of the
    float64 arrays h and J at once, as (row, m) arrays sorted by row and
    then by m.  Every step of the scalar walk is taken by all lanes in step
    on the same double operations: the piece ends, the walk-in, the node
    bisection, brentq (brentq_lanes) and the merge."""
    coupled = np.flatnonzero(J != 0.0)
    hc, Jc = h[coupled], J[coupled]
    (row, m), (crow, a, b, fa, fb) = _lane_cells(hc, Jc)
    ch, cJ = hc[crow], Jc[crow]
    solved = brentq_lanes(lambda x: _lane_residual(x, ch, cJ), a, b, xtol=1e-15, fa=fa, fb=fb)
    # at J = 0 the equation reads m = g(h)
    uncoupled = np.flatnonzero(J == 0.0)
    row = np.concatenate([uncoupled, coupled[row], coupled[crow]])
    m = np.concatenate([_g_array(h[uncoupled]), m, solved])
    order = np.lexsort((m, row))
    row, m = row[order], m[order]
    # merge each row's roots closer than 1e-9 to the last one kept
    keep = np.zeros(row.size, dtype=bool)
    last = np.full(h.size, -math.inf)
    for i in _row_columns(row, h.size):
        keep[i] = m[i] - last[row[i]] > 1e-9
        last[row[i[keep[i]]]] = m[i[keep[i]]]
    return row[keep], m[keep]


def _lanes(params):
    """The h and J of a sequence of ModelParams as float64 arrays."""
    plist = list(params)
    return (np.array([p.h for p in plist], dtype=np.float64),
            np.array([p.J for p in plist], dtype=np.float64))


def consistency_roots(params):
    """All solutions of m = g((2m-1)J + h) in [0, 1], in increasing order.

    The residual r(m) = m - g((2m-1)J + h) turns only at the spinodal
    densities, so the cuts c- < c+ that fall in (0, 1) split [0, 1] into at
    most three pieces on which r is strictly monotone: [0, c-], [c-, c+] and
    [c+, 1].  Each piece holds at most one root, and it holds one exactly
    when r has opposite signs at its ends.  The signs are compared, never
    multiplied, so a subnormal r(0) still counts.  On such a piece a
    bisection over the nodes of the 401-point grid inside it finds the cell
    where r changes sign, and brentq (imd._brent, a bit-exact port of
    scipy's) solves it to xtol 1e-15; its root is the one returned.  A
    zero of r at a piece end or at a node is a root, and roots closer than
    1e-9 are merged.  An end whose residual is within rounding noise of 0 is
    walked in node by node (_piece_roots), so the roots are those of a sign
    scan over every node of the grid cut at c- and c+, to the bit.  For one
    ModelParams r is evaluated by g's scalar route only: the piece ends, at
    most 9 nodes per bisection (2 if a hint, the gamma bisection's last
    maxima, hits the cell; 2 more per hint if not) and brentq's inner
    points, as it is handed the cell's end residuals; g' is never
    evaluated.  At J = 0 the equation reads m = g(h).

    A sequence of ModelParams takes the lane route and returns one list of
    roots per row.  The cuts come from the scalar _spinodal (math.log, which
    np.log does not match bit for bit), once per distinct J.  Every later
    step runs on all rows in step with the scalar walk's double operations:
    the residual at the piece ends, the walk-in, the node bisection,
    brentq_lanes and the merge.  So each row's roots are those of
    the one-row call, to the bit.
    """
    if isinstance(params, ModelParams):
        return _walk_roots(params, maxima_only=False)
    h, J = _lanes(params)
    row, m = _lane_roots(h, J)
    bounds = np.searchsorted(row, np.arange(h.size + 1)).tolist()
    return [m[start:stop].tolist() for start, stop in zip(bounds, bounds[1:])]


def variational_pressure(params):
    """Limiting pressure sup_m ptilde(m): the largest value of ptilde over the
    endpoints of [0, 1] and the consistency roots, where ptilde' vanishes.
    (The companion routine variational_pressure_via_rate maximizes a
    different functional, f - I, by Newton on the closed form of I' with
    no g and no consistency roots, so the two suprema are independently
    computed.)

    Takes one ModelParams (a float comes back) or a sequence of them (an
    array of their sups).  A sequence takes consistency_roots' lane route
    and evaluates ptilde once over every row's candidates; each row's sup
    is the one-row call's, to the bit.
    """
    if isinstance(params, ModelParams):
        return float(max(tilde_p(m, params) for m in (0.0, 1.0, *consistency_roots(params))))
    h, J = _lanes(params)
    row, m = _lane_roots(h, J)
    # ptilde at every row's candidates 0, 1 and its roots, in one pass
    n = h.size
    at = np.concatenate([np.arange(n), np.arange(n), row])
    m = np.concatenate([np.zeros(n), np.ones(n), m])
    value = -J[at] * m * m + p0((2.0 * m - 1.0) * J[at] + h[at])
    # max() keeps the first of its largest values, so the candidates are
    # taken in that order
    sup = np.where(value[n:2 * n] > value[:n], value[n:2 * n], value[:n])
    value = value[2 * n:]
    for i in _row_columns(row, n):
        sup[row[i]] = np.where(value[i] > sup[row[i]], value[i], sup[row[i]])
    return sup


def variational_pressure_via_rate(params):
    """Same limit by the large-deviation route sup_m (f(m) - I(m)) with
    f(m) = (h - J) m + J m^2; an independent cross-check of the sup.

    Takes one ModelParams (a float comes back) or a sequence of them (an
    array of their sups).  It uses I, I'(m) = log m - log(1 - m)/2 and I''
    only: no g, no consistency roots, no brentq, no _spinodal.  phi = f' - I'
    has phi'' = 1/m^2 - 1/(2(1-m)^2), so phi' = 2J - I'' peaks only at
    2 - sqrt 2, and its zeros c- < c+ solve 4J m^2 - (4J+1) m + 2 = 0 for
    J > J_c (else both are 2 - sqrt 2).  phi falls on [0, c-] from +inf and
    on [c+, 1] to -inf: they hold a maximum iff phi(c-) < 0 and iff
    phi(c+) > 0, each solved lane-wise by Newton in u = log m or in
    s = -log(1 - m) (which keep m = e^-1000 and 1 - m = e^-2000 off the
    ends), bisecting where a step leaves the bracket.  Above J_c phi is
    convex in u on the left and concave in s on the right, so Newton from
    the far end converges monotonically (Fourier's condition).  Each row
    stops on its own test and is frozen, so its sup does not depend on the
    other rows.  The sup is the largest objective over m = 0, 1, c-, c+ and
    the maxima: each is a lower bound, and the turns cover a maximum that
    merges with one where rounding decides the sign of phi there.
    """
    single = isinstance(params, ModelParams)
    h, J = _lanes([params] if single else params)
    row, m, _ = _rate_candidates(h, J)
    sup = np.full(h.size, -np.inf)
    np.maximum.at(sup, row, (h[row] - J[row]) * m + J[row] * m * m - rate_function(m))
    return float(sup[0]) if single else sup
