"""Phase structure of the imitative monomer-dimer model.

The equilibrium densities are the global maximizers of the variational
pressure ptilde(m) = -J m^2 + p0((2m-1)J + h); they solve the consistency
equation m = g((2m-1)J + h), whose roots all come from the one solver
thermo.consistency_roots.  Depending on (h, J) the maximizer set is

  * a single point m* (uniqueness region),
  * two points m1 < m2 of equal height (the coexistence curve h = gamma(J),
    defined for J above the critical coupling),
  * one point m_c where the second and third m-derivatives of ptilde vanish
    simultaneously (the critical point, endpoint of the curve).

At coexistence the two phases carry limiting weights rho_l proportional to
b_l = (-lambda_l (2 - m_l))^{-1/2}, where lambda_l is the curvature of ptilde
at m_l and the (2 - m_l) factor is the hard-core contribution.  Away from
coexistence the monomer-count fluctuations are Gaussian with variance
sigma^2 = -1/lambda - 1/(2J).
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields

from ._brent import brentq
from .thermo import (ModelParams, _spinodal, _walk_roots, consistency_roots, g, g_derivative,
                     tilde_p)

__all__ = [
    "NearDegenerateError",
    "StationaryPoint",
    "PhaseReport",
    "GammaPoint",
    "CriticalPoint",
    "solve_consistency",
    "classify",
    "find_critical_point",
    "trace_gamma",
    "phase_weight",
    "mixture_ratio_closed_form",
    "clt_variance",
    "clt_variance_reduced",
    "gamma_points_to_csv",
]

# classification bands: the three regimes are separated by orders of
# magnitude at double precision, anything inside a band is reported, never
# silently classified
EQUAL_HEIGHT_TOL = 1e-11
EQUAL_HEIGHT_BAND = 1e-9
CRITICAL_CURVATURE_TOL = 1e-8
CRITICAL_CURVATURE_BAND = 1e-6
# gamma(J) tends to -1/2; against a 60-digit equal-height root the traced
# field is off by 1.8e-13 up to J = 1.6e4 and by 4.2e-12 at 1e5, the first
# decade past 1e-12.  Above it the height gap's rounding, about J 2^-52,
# steers the bisection: 1.2e-9 off at J = 1e8, 5.3e-5 at 1e12
_GAMMA_J_MAX = 1e5


class NearDegenerateError(ValueError):
    """Classification falls inside a tolerance band between two regimes."""

    def __init__(self, message: str, candidates: tuple[str, str]):
        super().__init__(message)
        self.candidates = candidates


@dataclass(frozen=True)
class StationaryPoint:
    """A solution of the consistency equation with local data of ptilde."""

    m: float
    value: float
    second_derivative: float
    fourth_derivative: float
    order: int  # first non-vanishing derivative order: 2 generically, 4 at criticality

    @property
    def is_maximum(self) -> bool:
        if self.order == 2:
            return self.second_derivative < 0.0
        return self.fourth_derivative < 0.0


@dataclass(frozen=True)
class PhaseReport:
    kind: str  # "unique" | "coexistence" | "critical"
    maximizers: tuple[float, ...]
    stationary_points: tuple[StationaryPoint, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "maximizers": list(self.maximizers),
            "stationary_points": [
                {
                    "m": sp.m,
                    "value": sp.value,
                    "second_derivative": sp.second_derivative,
                    "order": sp.order,
                    "is_maximum": sp.is_maximum,
                }
                for sp in self.stationary_points
            ],
        }


@dataclass(frozen=True)
class GammaPoint:
    """One sample of the coexistence curve with its limit-law parameters."""

    J: float
    h: float
    m1: float
    m2: float
    lambda1: float
    lambda2: float
    rho1: float
    rho2: float


@dataclass(frozen=True)
class CriticalPoint:
    h_c: float
    J_c: float
    m_c: float
    lambda_c: float  # fourth m-derivative of ptilde at m_c, negative


def _stationary_point(m: float, params: ModelParams) -> StationaryPoint:
    val = tilde_p(m, params)
    d2 = tilde_p(m, params, 2)
    d4 = tilde_p(m, params, 4)
    order = 2
    if abs(d2) < CRITICAL_CURVATURE_TOL and d4 < 0.0:
        order = 4
    return StationaryPoint(m=m, value=val, second_derivative=d2, fourth_derivative=d4,
                           order=order)


def solve_consistency(params: ModelParams) -> list[StationaryPoint]:
    """The roots of m = g((2m-1)J + h) in [0, 1] from
    thermo.consistency_roots, each with the local data of ptilde."""
    return [_stationary_point(m, params) for m in consistency_roots(params)]


def classify(params: ModelParams) -> PhaseReport:
    """Classify (h, J) as uniqueness / coexistence / criticality.

    Points inside the guard bands around equal height or vanishing curvature
    raise NearDegenerateError instead of picking a side.
    """
    points = solve_consistency(params)
    if params.J == 0.0:
        # ptilde is m-independent; the consistency root is the unique
        # equilibrium density
        return PhaseReport(kind="unique", maximizers=(points[0].m,),
                           stationary_points=tuple(points))
    maxima = [p for p in points if p.is_maximum]
    if not maxima:
        raise ValueError(f"no maximizer found at {params} (solver failure)")
    best = max(p.value for p in maxima)
    gaps = [best - p.value for p in maxima]
    contenders = [p for p, gap in zip(maxima, gaps) if gap <= EQUAL_HEIGHT_TOL]
    near = [p for p, gap in zip(maxima, gaps)
            if EQUAL_HEIGHT_TOL < gap <= EQUAL_HEIGHT_BAND]
    if near:
        raise NearDegenerateError(
            f"two maxima within {EQUAL_HEIGHT_BAND} but not {EQUAL_HEIGHT_TOL} "
            f"of equal height at {params}: cannot separate unique from coexistence",
            candidates=("unique", "coexistence"),
        )
    if len(contenders) > 2:
        # just above J_c all three stationary points are flat enough to pass
        # as quartic maxima, and their heights agree to far below the band
        raise NearDegenerateError(
            f"{len(contenders)} stationary points of equal height within the "
            f"curvature band at {params}: cannot separate coexistence from critical",
            candidates=("coexistence", "critical"),
        )
    if len(contenders) == 2:
        m1, m2 = sorted(p.m for p in contenders)
        return PhaseReport(kind="coexistence", maximizers=(m1, m2),
                           stationary_points=tuple(points))
    top = contenders[0]
    lam = top.second_derivative
    # |lambda| is compared both absolutely and against its natural scale 2J,
    # so a tiny coupling (lambda ~ -2J ~ 0) is not mistaken for criticality
    scale = 2.0 * params.J
    if abs(lam) < CRITICAL_CURVATURE_TOL and abs(lam) <= 1e-4 * scale:
        if top.fourth_derivative >= 0.0:
            raise ValueError(
                f"flat maximizer with nonnegative fourth derivative at {params}"
            )
        # the consistency residual has a triple zero here, so the walk's
        # brentq root is only good to ~1e-5 (the cube root of the residual's
        # rounding); the third derivative has a simple zero at the same point
        # and pins it to machine precision
        m_ref = top.m
        lo, hi = max(0.0, m_ref - 1e-3), min(1.0, m_ref + 1e-3)
        d3lo, d3hi = tilde_p(lo, params, 3), tilde_p(hi, params, 3)
        if d3lo * d3hi < 0.0:
            m_ref = brentq(lambda m: tilde_p(m, params, 3), lo, hi, xtol=1e-15, fa=d3lo, fb=d3hi)
            top = _stationary_point(m_ref, params)
            points = tuple(p if abs(p.m - m_ref) > 1e-4 else top for p in points)
        return PhaseReport(kind="critical", maximizers=(top.m,),
                           stationary_points=tuple(points))
    if CRITICAL_CURVATURE_TOL <= abs(lam) < CRITICAL_CURVATURE_BAND and abs(lam) <= 1e-4 * scale:
        raise NearDegenerateError(
            f"curvature {lam:.3e} at the maximizer of {params} falls in the "
            f"guard band: cannot separate unique from critical",
            candidates=("unique", "critical"),
        )
    return PhaseReport(kind="unique", maximizers=(top.m,),
                       stationary_points=tuple(points))


def find_critical_point() -> CriticalPoint:
    """Solve the merge conditions numerically: the curvature of the pure
    density vanishes (g'' = 0) at the critical field, the coupling is fixed by
    2 J g'(x_c) = 1, and h_c follows from the consistency equation."""
    x_c = brentq(lambda x: g_derivative(x, 2), -3.0, 3.0, xtol=1e-15)
    m_c = float(g(x_c))
    J_c = 1.0 / (2.0 * float(g_derivative(x_c, 1)))
    h_c = x_c - (2.0 * m_c - 1.0) * J_c
    lambda_c = (2.0 * J_c) ** 4 * float(g_derivative(x_c, 3))
    return CriticalPoint(h_c=h_c, J_c=J_c, m_c=m_c, lambda_c=lambda_c)


def _height_gap(params: ModelParams, hints=()):
    """(ptilde(m2) - ptilde(m1), [(m1, ptilde''(m1)), (m2, ptilde''(m2))]) for
    the local maxima m1 < m2 of ptilde, or None unless there are exactly two.
    Only the curvature is evaluated at the roots, and the middle root only
    where it could change the answer (thermo._middle_bound)."""
    maxima = [(m, d2) for m in _walk_roots(params, maxima_only=True, hints=hints)
              if (d2 := tilde_p(m, params, 2)) < 0.0]
    if len(maxima) != 2:
        return None
    (m1, _), (m2, _) = maxima
    return tilde_p(m2, params) - tilde_p(m1, params), maxima


def _spinodal_window(J: float) -> tuple[float, float]:
    """The fields between which ptilde has two local maxima, for J > J_c.

    A stationary point at pure-model field x sits at h = x - (2g(x) - 1)J,
    which decreases in x exactly where 2J g'(x) > 1.  The window runs between
    the fields at the two spinodal points, where 2J g'(x) = 1.
    """
    h_lo, h_hi = sorted(x - (2.0 * m - 1.0) * J for x, m in _spinodal(J))
    return h_lo, h_hi


def _gap_margin(h: float, J: float) -> float:
    """How far from 0 a computed height gap must lie to certify its sign at
    every field beyond it; see _equal_height_field."""
    return 64.0 * 2.0**-52 * (1.0 + J + abs(h)) + 1e-15


def _equal_height_field(J: float, h_center: float, width: float):
    """Bisect in h until the two maxima of ptilde have equal height; the
    field and its _height_gap pair.

    The gap G(h) = ptilde(m2) - ptilde(m1) increases strictly in h (its
    h-derivative is m2 - m1 > 0 by the envelope theorem), so a sign-bracketing
    bisection is exact.  The bracket starts at (h_center, width), or, where
    that field has one maximum, at the closed-form spinodal window's centre
    and half-width.  It grows inside the window, halving the step whenever a
    probe loses one maximum.

    Most bisection steps have a known outcome and skip their walk.  Let eps
    bound the error of a computed gap.  A probe whose computed gap lies below
    -margin certifies every field at or below it: the true gap there is
    below -margin + eps, so the computed gap at any such field lies below
    -margin + 2 eps <= -1e-15, and a walk there, between bracket ends that
    have two maxima, would find two and only move the bracket's low end.  Above +margin the same holds for every
    field at or above the probe.  The margin, 64 ulps of 1 + J + |h| plus
    1e-15, is at least 4 eps: against a 50-digit gap the computed one errs
    by at most 1.2 % of the margin at fields near gamma(J), for J from
    J_c + 1e-6 up to _GAMMA_J_MAX.  A few Newton steps in h (dG/dh = m2 - m1
    comes with the pair) place a field near equal height, and one probe 4
    margins of gap to each side of it places the certificates.  Every step
    that no certificate decides, or whose bracket is narrower than 1e-15, is
    walked as it would be without them, so no bit of the field or its pair
    moves.  Within about 1e-7 of J_c the gap stays inside the margin across
    the bracket, no certificate forms and every step is walked.  Each field is walked once;
    each walk starts from the maxima of the last walk that found two.
    """
    hints, walked = (), {}
    neg, pos = -math.inf, math.inf  # the certified fields: gap < 0 up to neg, > 0 from pos

    def gap_at(h):
        nonlocal hints, neg, pos
        if h not in walked:
            found = walked[h] = _height_gap(ModelParams(h, J), hints)
            if found is not None:
                hints = tuple(m for m, _ in found[1])
                if found[0] < -_gap_margin(h, J):
                    neg = max(neg, h)
                elif found[0] > _gap_margin(h, J):
                    pos = min(pos, h)
        return walked[h]

    probe = gap_at(h_center)
    if probe is None:
        h_lo, h_hi = _spinodal_window(J)
        h_center, width = 0.5 * (h_lo + h_hi), 0.5 * (h_hi - h_lo)
        probe = gap_at(h_center)
        if probe is None:
            raise ValueError(
                f"no two-maxima window resolved at J={J}: the window "
                f"[{h_lo:.17g}, {h_hi:.17g}] is too narrow for double "
                f"precision (J is too close to J_c)"
            )
    gap0 = probe[0]

    def grow(direction):
        """(field, (gap, pair)) of the first probe past equal height, else the last inside."""
        h, step = h_center, width
        last_inside = (h_center, probe)
        for _ in range(200):
            field = h + direction * step
            found = gap_at(field)
            if found is None:
                step /= 2.0  # left the window: halve and retry
                if step < 1e-14:
                    break
                continue
            last_inside = (field, found)
            if found[0] * gap0 < 0.0:
                return last_inside
            h = field
            step *= 1.6
        return last_inside

    if gap0 == 0.0:
        return h_center, probe[1]
    direction = -1.0 if gap0 > 0.0 else 1.0  # gap increases with h
    other, (g_other, _) = grow(direction)
    if g_other * gap0 > 0.0:
        raise ValueError(
            f"failed to bracket the equal-height field at J={J}: the height gap of "
            f"the two maxima keeps one sign across the window, and double precision "
            f"cannot separate the heights (J is too close to J_c)"
        )
    lo, hi = sorted((h_center, other))
    # Newton in h from the bracket end nearer equal height, inside the bracket
    h, (gap, pair) = min((lo, gap_at(lo)), (hi, gap_at(hi)), key=lambda e: abs(e[1][0]))
    for _ in range(4):
        if abs(gap) <= _gap_margin(h, J):
            break
        (m1, _), (m2, _) = pair
        newton = h - gap / (m2 - m1)
        found = gap_at(newton) if max(lo, neg) < newton < min(hi, pos) else None
        if found is None:
            break
        h, (gap, pair) = newton, found
    (m1, _), (m2, _) = pair
    spread = 4.0 * _gap_margin(h, J) / (m2 - m1)
    for field in (h - spread, h + spread):
        if max(lo, neg) < field < min(hi, pos):
            gap_at(field)
    # each pass returns or halves [lo, hi], and a walked one returns once
    # hi - lo < 1e-15.  Both ends lie in the spinodal window, 0.0096 wide at
    # J = 1.5 and 2.0e5 at _GAMMA_J_MAX, so at most 45 and 69 passes; over
    # 114 J from J_c + 1e-8 to 1e5 the most taken was 49
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo >= 1e-15 and not neg < mid < pos:
            if mid <= neg:  # a certificate decides this step
                lo = mid
            else:
                hi = mid
            continue
        found = gap_at(mid)
        if found is None:
            raise ValueError(
                f"no two-maxima window resolved at J={J}: the window collapsed during "
                f"bisection, below double precision (J is too close to J_c)"
            )
        gap, pair = found
        if abs(gap) < 1e-15 or hi - lo < 1e-15:
            return mid, pair
        if gap > 0.0:
            hi = mid
        else:
            lo = mid


def phase_weight(lam: float, m: float) -> float:
    """Unnormalized phase weight b = (-lambda (2 - m))^{-1/2}."""
    if lam >= 0.0:
        raise ValueError(f"phase weight requires negative curvature, got {lam}")
    return (-lam * (2.0 - m)) ** -0.5


def _weights(lambda1: float, m1: float, lambda2: float, m2: float) -> tuple[float, float]:
    """The limiting phase weights (rho1, rho2), rho_l = b_l / (b1 + b2)."""
    b1 = phase_weight(lambda1, m1)
    b2 = phase_weight(lambda2, m2)
    rho1 = b1 / (b1 + b2)
    return rho1, 1.0 - rho1


def trace_gamma(J_values) -> list[GammaPoint]:
    """Locate h = gamma(J) for each J_c < J <= _GAMMA_J_MAX by equal-height
    bisection, using continuation in increasing J to seed each bracket.  Each
    distinct J is solved once, so equal J values in one call get the same
    point.  Sign certificates skip the bisection steps whose outcome they
    fix (_equal_height_field): about two walks in three on criterion 9's
    grid, with every bit of each point kept."""
    J_list = [float(J) for J in J_values]
    crit = find_critical_point()
    for J in J_list:
        if J <= crit.J_c:
            raise ValueError(
                f"no coexistence below the critical coupling: J={J} <= J_c={crit.J_c:.6f}"
            )
        if J > _GAMMA_J_MAX:
            raise ValueError(
                f"coupling J={J!r} is outside the representable range of gamma(J), "
                f"J <= {_GAMMA_J_MAX:g}: the height gap is a difference of two "
                f"pressures of size J, whose rounding moves gamma by about J 2^-52 "
                f"(1.2e-9 at J = 1e8)"
            )
    results: dict[float, GammaPoint] = {}
    h_seed, width = crit.h_c, 0.02
    for J in sorted(set(J_list)):
        h, ((m1, lambda1), (m2, lambda2)) = _equal_height_field(J, h_seed, width)
        rho1, rho2 = _weights(lambda1, m1, lambda2, m2)
        results[J] = GammaPoint(J=J, h=h, m1=m1, m2=m2, lambda1=lambda1, lambda2=lambda2,
                                rho1=rho1, rho2=rho2)
        h_seed, width = h, max(0.01, abs(h - crit.h_c) * 0.5)
    return [results[J] for J in J_list]


def mixture_ratio_closed_form(point: GammaPoint) -> float:
    """rho1/rho2 eliminating the curvatures via g' = 2g(1-g)/(2-g)."""
    num = (2.0 - point.m2) - 4.0 * point.J * point.m2 * (1.0 - point.m2)
    den = (2.0 - point.m1) - 4.0 * point.J * point.m1 * (1.0 - point.m1)
    return math.sqrt(num / den)


def _clt_variance(params: ModelParams, variance_at) -> float:
    """Guard of both CLT variance formulas: g'(h) at J = 0, else variance_at(m*)
    at the unique maximizer m*; raises outside the uniqueness region."""
    if params.J == 0.0:
        return float(g_derivative(params.h, 1))
    report = classify(params)
    if report.kind != "unique":
        raise ValueError(
            f"the central limit theorem does not hold at (h={params.h}, "
            f"J={params.J}): classification is {report.kind!r}"
        )
    return variance_at(report.maximizers[0])


def clt_variance(params: ModelParams) -> float:
    """Variance of the Gaussian monomer-count fluctuations in the uniqueness
    region: sigma^2 = -1/lambda - 1/(2J); at J = 0 this degenerates to g'(h).
    At J > 0 the difference cancels for large fields: at J = 0.5 it gives 0.0
    at h = 19 and 2.2e-16 at h = 18, where clt_variance_reduced, the form to
    use there, gives 2.3e-17 and 1.7e-16.  It stays as criterion 7's check."""
    return _clt_variance(
        params, lambda m_star: -1.0 / tilde_p(m_star, params, 2) - 1.0 / (2.0 * params.J)
    )


def clt_variance_reduced(params: ModelParams) -> float:
    """Equivalent closed form g'(x*) / (1 - 2J g'(x*)) at x* = (2m*-1)J + h."""

    def variance_at(m_star):
        gp = float(g_derivative(params.effective_field(m_star), 1))
        return gp / (1.0 - 2.0 * params.J * gp)

    return _clt_variance(params, variance_at)


def gamma_points_to_csv(points, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow([field.name for field in fields(GammaPoint)])
    for p in points:
        writer.writerow([format(v, ".17g") for v in astuple(p)])
