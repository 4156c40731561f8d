"""Tests for the closed-form thermodynamic functions."""

import bisect
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from imd import phase, thermo
from imd._brent import brentq
from imd.phase import trace_gamma
from imd.thermo import (
    ModelParams,
    consistency_roots,
    g,
    g_derivative,
    log_one_minus_g,
    p0,
    p0_second_form,
    rate_function,
    tilde_p,
    variational_pressure,
    variational_pressure_via_rate,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

finite_h = st.floats(min_value=-30.0, max_value=30.0)

# fields on both sides of the deep-tail branch (-350) and of 0, up to |h| = 800;
# the dense part is there because a swapped transcendental (math.exp for
# np.exp) changes the last bit on only a few percent of inputs
FIELDS = [-800.0, -400.0, -350.5, -350.0, -349.5, -0.0, 400.0, 800.0] + [
    float(h) for h in np.linspace(-30.0, 30.0, 601)]
DENSITIES = [0.0, 1e-310, 1.0 - 1e-16, 1.0] + [float(m) for m in np.linspace(0.0, 1.0, 301)]
# at J = 800 the pure-model field (2m-1)J + h spans [-800, 800]
_PTILDE_PARAMS = {"J800": ModelParams(0.0, 800.0), "J2": ModelParams(-0.4, 2.0)}
# (name, function, inputs, rtol of the array route against the scalar route):
# a cube on an array is np.power, which rounds differently from scalar pow;
# every other array route must match the scalar route exactly
_ROUTES = (
    [("g", g, FIELDS, 0.0), ("log_one_minus_g", log_one_minus_g, FIELDS, 0.0),
     ("p0", p0, FIELDS, 0.0)]
    + [(f"g_derivative{k}", partial(g_derivative, k=k), FIELDS, 1e-15 if k == 3 else 0.0)
       for k in (1, 2, 3)]
    + [(f"tilde_p{order}-{key}", partial(tilde_p, params=params, order=order), DENSITIES,
        1e-15 if order == 4 else 0.0)
       for key, params in _PTILDE_PARAMS.items() for order in range(5)]
    + [("rate_function", rate_function, DENSITIES, 0.0)]
)
ROUTE_CASES = [pytest.param(f, xs, rtol, id=name) for name, f, xs, rtol in _ROUTES]

# (h, J) edge cases of the piecewise walk, each checked to be what it says:
# at J = 1.5 the lower spinodal density is 1/2, so h = x- puts the cut on the
# grid node 1/2 with r = 0 there; a few ulps off, r is 0 at a cut off the grid
CUT_ON_GRID = (-0.34657359027997264, 1.5)
ZERO_AT_CUT = (-0.34657359027997287, 1.5)
ZERO_AT_UPPER_CUT = (-0.35615896377410955, 1.5)
# g(h) = 1/2 exactly, so r(1/2) = 0 at every J: a zero at a grid node
ZERO_AT_NODE_H = -0.34657359027997264
EDGE_CASES = [CUT_ON_GRID, ZERO_AT_CUT, ZERO_AT_UPPER_CUT, (ZERO_AT_NODE_H, 1.0),
              (ZERO_AT_NODE_H, 2.0), (ZERO_AT_NODE_H, 0.5), (-5.0, 735.0), (0.0, 740.0)]
# J - J_c = 5.6e-7 at the lower edge of the two-maxima window: the middle
# root merges with the tangent right one and keeps ptilde'' > 0, so there is
# one maximum, though the right piece alone would show a second
EDGE_MERGE = (-0.34411329917267997, 1.4571073390613543)


def _cut_scan_draws():
    """(h, J) across the CLI's range, the verify range and J just above J_c
    around both window edges, then EDGE_CASES."""
    rng = np.random.default_rng(2016)
    wide = zip(rng.uniform(-30.0, 30.0, 1500), rng.uniform(0.0, 1e3, 1500))
    narrow = zip(rng.uniform(-3.0, 3.0, 1500), rng.uniform(0.0, 10.0, 1500))
    near = []
    for dJ, side, offset in zip(10.0 ** rng.uniform(-9.0, -1.0, 1000),
                                rng.integers(0, 2, 1000), rng.uniform(-0.3, 0.3, 1000)):
        J = thermo._J_C + dJ
        lo, hi = phase._spinodal_window(J)
        near.append(((lo, hi)[side] + offset * (hi - lo), J))
    return [(float(h), float(J)) for h, J in [*wide, *narrow, *near, *EDGE_CASES]]


class TestPureDensity:
    def test_value_at_zero_field(self):
        assert abs(g(0.0) - GOLDEN) < 1e-15

    def test_value_at_unit_field_vs_quadratic_root(self):
        # positive root of x^2 + e^{2h} x - e^{2h} = 0 at h = 1
        e2 = math.exp(2.0)
        root = (-e2 + math.sqrt(e2 * e2 + 4.0 * e2)) / 2.0
        assert abs(g(1.0) - root) < 1e-14

    def test_saturated_tail_is_cancellation_free(self):
        assert abs(g(20.0) - (1.0 - math.exp(-40.0))) < 1e-16
        assert np.isfinite(g(700.0))

    def test_huge_field_saturates_without_warning(self):
        # e^h overflows above h ~ 709; the deep-tail branch must not see it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g(800.0) == 1.0
            vals = g(np.array([-1000.0, -400.0, 0.0, 400.0, 1000.0]))
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert g(700.0) == 1.0  # saturates without overflow

    @given(finite_h)
    def test_quadratic_identity(self, h):
        one_minus = math.exp(log_one_minus_g(h))
        assert abs(g(h) ** 2 - math.exp(2.0 * h) * one_minus) < 1e-12

    @given(finite_h, finite_h)
    def test_never_decreasing(self, h1, h2):
        # float outputs can tie on ulp-adjacent inputs, but never invert
        if h1 == h2:
            return
        lo, hi = sorted((h1, h2))
        assert g(lo) <= g(hi)

    def test_strictly_increasing_on_grid(self):
        hs = np.linspace(-12.0, 12.0, 241)
        vals = np.asarray(g(hs))
        assert np.all(np.diff(vals) > 0.0)

    @given(finite_h)
    def test_range(self, h):
        assert 0.0 <= g(h) <= 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            g(math.nan)
        with pytest.raises(ValueError):
            g(math.inf)

    @pytest.mark.parametrize("f,xs,rtol", ROUTE_CASES)
    def test_vectorized_matches_scalar(self, f, xs, rtol):
        # a float (or np.float64) takes the scalar route, a 0-d array the
        # vectorized one: same bits, and a Python float back
        for x in xs:
            for arg in (x, np.float64(x)):
                out = f(arg)
                assert type(out) is float
                assert out.hex() == f(np.asarray(x)).hex()
        vec = f(np.array(xs))
        slack = rtol * np.max(np.abs(vec))  # near a zero of g''' the rounding is not relative
        np.testing.assert_allclose(vec, [f(x) for x in xs], rtol=rtol, atol=slack)

    def test_scalar_g_matches_its_array_route_on_seeded_fields(self):
        # the scalar route runs on Python floats with np.exp and math.sqrt;
        # it must give the bits of the array route on both branches
        hs = np.random.default_rng(5).uniform(-800.0, 40.0, 20000)
        vec = np.asarray(g(hs))
        assert [g(float(h)).hex() for h in hs] == [float(v).hex() for v in vec]

    @pytest.mark.parametrize("f,xs,rtol", ROUTE_CASES)
    def test_scalar_route_rejects_bad_input(self, f, xs, rtol):
        bad = [math.nan, math.inf, -math.inf, np.float64("nan")]
        if xs is DENSITIES:
            bad += [-1e-300, 1.0 + 2.0**-52, np.float64(1.5), -0.1]
        for x in bad:
            with pytest.raises(ValueError, match="finite|lie in"):
                f(x)


class TestPureDensityDerivative:
    def test_first_derivative_closed_form_at_zero(self):
        # 2 g (1-g) / (2-g) with g = golden ratio conjugate
        expected = 2.0 * GOLDEN * (1.0 - GOLDEN) / (2.0 - GOLDEN)
        assert abs(g_derivative(0.0, 1) - expected) < 1e-15
        assert abs(expected - 0.341641) < 1e-6

    @pytest.mark.parametrize("h", [-2.0, -0.3, 0.0, 0.7, 3.0])
    def test_first_derivative_vs_finite_difference(self, h):
        step = 1e-6
        fd = (g(h + step) - g(h - step)) / (2.0 * step)
        assert abs(g_derivative(h, 1) - fd) < 1e-6

    def test_tails_vanish(self):
        assert abs(g_derivative(20.0, 1)) < 1e-15
        # toward -inf the derivative decays like e^h, not faster: at h = -20
        # it is ~2e-9, far from the 1e-15 of the saturated side
        assert abs(g_derivative(-20.0, 1)) < 1e-8

    def test_first_derivative_within_4_ulps_of_mpmath(self):
        # for h > 0, 1 - g formed from g cancels (g' read 0.0 from h ~ 19);
        # with the form built on e^{-2h} there, g' holds a few ulps on
        # all of |h| <= 30
        import mpmath

        worst = 0.0
        with mpmath.workdps(50):
            for h in FIELDS:
                if abs(h) > 30.0:
                    continue
                e = mpmath.exp(-2 * mpmath.mpf(h))
                gm = 2 / (1 + mpmath.sqrt(1 + 4 * e))
                ref = 2 * gm * (1 - gm) / (2 - gm)
                ulps = abs(mpmath.mpf(g_derivative(h, 1)) - ref) / math.ulp(float(ref))
                worst = max(worst, float(ulps))
        assert worst <= 4.0

    def test_first_derivative_keeps_its_bits_for_nonpositive_fields(self):
        # at h <= 0, 1 - g has no cancellation, and the critical point and
        # gamma(2) were computed with g' formed from g
        for h in FIELDS:
            if h <= 0.0:
                gg = g(h)
                assert g_derivative(h, 1) == 2.0 * gg * (1.0 - gg) / (2.0 - gg)

    def test_second_derivative_vanishes_at_inflection(self):
        # g'' = 0 exactly where g^2 - 4g + 2 = 0, i.e. g = 2 - sqrt(2)
        h_star = 0.5 * math.log(2.0 * math.sqrt(2.0) - 2.0)
        assert abs(g(h_star) - (2.0 - math.sqrt(2.0))) < 1e-14
        assert abs(g_derivative(h_star, 2)) < 1e-10

    @pytest.mark.parametrize("k,h", [(2, 0.4), (2, -1.0), (3, 0.4), (3, -1.0)])
    def test_higher_derivatives_vs_finite_difference(self, k, h):
        step = 1e-5
        lower = g_derivative(np.array([h - step, h + step]), k - 1)
        fd = (lower[1] - lower[0]) / (2.0 * step)
        assert abs(g_derivative(h, k) - fd) < 1e-6

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            g_derivative(0.0, 4)
        with pytest.raises(ValueError):
            g_derivative(0.0, 0)


class TestPurePressure:
    def test_value_at_zero_field(self):
        assert abs(p0(0.0) - 0.290228819434551) < 1e-12

    @given(finite_h)
    @example(-800.0)
    @example(-1e4)
    def test_both_printed_forms_agree(self, h):
        assert abs(p0(h) - p0_second_form(h)) < 1e-12

    def test_monomer_saturated_regime(self):
        assert abs(p0(30.0) - 30.0) < 1e-12

    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_derivative_is_g(self, h):
        step = 1e-6
        fd = (p0(h + step) - p0(h - step)) / (2.0 * step)
        assert abs(fd - g(h)) < 1e-6

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            p0(math.nan)


class TestPressureFunctional:
    def test_constant_in_m_when_no_coupling(self):
        params = ModelParams(0.7, 0.0)
        ms = np.linspace(0.0, 1.0, 7)
        vals = tilde_p(ms, params)
        assert np.allclose(vals, p0(0.7), rtol=0, atol=1e-15)

    def test_frozen_value(self):
        params = ModelParams(0.0, 1.0)
        assert abs(tilde_p(0.5, params) - (-0.25 + p0(0.0))) < 1e-15

    @pytest.mark.parametrize("m,h,J", [(0.3, 0.1, 0.8), (0.62, -0.4, 2.0), (0.9, 1.0, 0.5)])
    def test_second_derivative_vs_finite_difference(self, m, h, J):
        params = ModelParams(h, J)
        step = 1e-4
        fd = (
            tilde_p(m + step, params) - 2.0 * tilde_p(m, params) + tilde_p(m - step, params)
        ) / step**2
        assert abs(tilde_p(m, params, 2) - fd) < 1e-6

    @pytest.mark.parametrize("order", [1, 3, 4])
    def test_higher_orders_vs_finite_difference(self, order):
        params = ModelParams(-0.2, 1.5)
        m, step = 0.55, 1e-4
        lower = [tilde_p(m - step, params, order - 1), tilde_p(m + step, params, order - 1)]
        fd = (lower[1] - lower[0]) / (2.0 * step)
        assert abs(tilde_p(m, params, order) - fd) < 1e-5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tilde_p(1.2, ModelParams(0.0, 1.0))
        with pytest.raises(ValueError):
            tilde_p(0.5, ModelParams(0.0, 1.0), order=5)


class TestRateFunction:
    def test_endpoints(self):
        assert rate_function(1.0) == 0.0
        assert rate_function(0.0) == 0.5

    def test_minimum_matches_pure_pressure(self):
        z = g(0.0)
        assert abs(rate_function(z) + p0(0.0)) < 1e-12

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_legendre_duality_with_pure_pressure(self, h):
        zs = np.linspace(0.0, 1.0, 2001)
        values = h * zs - np.asarray(rate_function(zs))
        i = int(np.argmax(values))
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda z: -(h * z - rate_function(z)),
            bounds=(zs[max(i - 1, 0)], zs[min(i + 1, len(zs) - 1)]),
            method="bounded",
            options={"xatol": 1e-13},
        )
        assert abs(-res.fun - p0(h)) < 1e-10
        assert abs(res.x - g(h)) < 1e-5

    def test_convexity_by_second_differences(self):
        zs = np.linspace(0.01, 0.99, 99)
        step = 1e-4
        second = (
            np.asarray(rate_function(zs + step))
            - 2.0 * np.asarray(rate_function(zs))
            + np.asarray(rate_function(zs - step))
        ) / step**2
        assert np.all(second > 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rate_function(-0.1)


class TestVariationalPressure:
    def test_reduces_to_pure_pressure_without_coupling(self):
        assert variational_pressure(ModelParams(0.0, 0.0)) == p0(0.0)
        assert abs(variational_pressure_via_rate(ModelParams(0.0, 0.0)) - p0(0.0)) < 1e-10

    def test_value_at_reference_point(self):
        # maximizer from the damped fixed-point oracle in tests/oracles.py
        from oracles import fixed_point_density

        params = ModelParams(0.2, 0.5)
        m_star = fixed_point_density(0.2, 0.5)
        assert abs(m_star - 0.7685922287442881) < 1e-12
        assert abs(variational_pressure(params) - tilde_p(m_star, params)) < 1e-12

    @pytest.mark.parametrize("h,J", [(0.0, 0.5), (-0.45, 2.0), (1.0, 3.0), (-1.0, 1.0)])
    def test_two_routes_agree(self, h, J):
        params = ModelParams(h, J)
        assert abs(
            variational_pressure(params) - variational_pressure_via_rate(params)
        ) < 1e-10

    def test_strong_coupling_without_warning(self):
        # fields (2m-1)J + h span +-1000 at J = 1000
        params = ModelParams(0.5, 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(variational_pressure(params) - variational_pressure_via_rate(params)) < 1e-10


class TestConsistencyRoots:
    def test_three_roots_at_strong_coupling(self):
        # deep double well: maxima pinned at the ends, the minimum near m = 1/2
        roots = consistency_roots(ModelParams(0.0, 1000.0))
        assert len(roots) == 3
        assert roots[0] < 1e-6 and 0.4 < roots[1] < 0.6 and roots[2] > 1.0 - 1e-6

    def test_bits_match_the_reference_solver(self):
        # the coexistence curve and every KS reference rest on these bits
        from oracles import reference_consistency_roots

        rng = np.random.default_rng(2015)
        draws = list(zip(rng.uniform(-3.0, 3.0, 4000), rng.uniform(0.0, 10.0, 4000)))
        gamma = [(p.h, p.J) for p in trace_gamma(
            [1.46, 1.5, 1.6, 1.8, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0,
             40.0, 50.0])]
        for h, J in draws + gamma:
            roots = consistency_roots(ModelParams(float(h), float(J)))
            ref = reference_consistency_roots(float(h), float(J))
            assert [m.hex() for m in roots] == [m.hex() for m in ref], (h, J)

    def test_settled_roots_take_no_newton_step(self, monkeypatch):
        # brentq leaves every root at (-0.41, 2) below the Newton tolerance,
        # so g' is never evaluated
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return g_derivative(*args, **kwargs)

        monkeypatch.setattr(thermo, "g_derivative", counted)
        assert len(consistency_roots(ModelParams(-0.41, 2.0))) == 3
        assert calls == []

    def test_walk_matches_the_cut_scan(self):
        # the walk must find the very cells the whole-grid scan found, so
        # every root keeps its bits
        from oracles import cut_scan_consistency_roots

        for h, J in _cut_scan_draws():
            roots = consistency_roots(ModelParams(h, J))
            ref = cut_scan_consistency_roots(h, J)
            assert [m.hex() for m in roots] == [m.hex() for m in ref], (h, J)

    def test_hints_never_move_a_root(self):
        # hints only reorder the bisection's probes: on the cut-scan draws,
        # hints built to mislead leave every root of both walks at its bits
        from oracles import cut_scan_consistency_roots

        def hex_of(roots):
            return [m.hex() for m in roots]

        grid = thermo._ROOT_GRID
        for h, J in _cut_scan_draws():
            params = ModelParams(h, J)
            roots = consistency_roots(params)
            assert hex_of(roots) == hex_of(cut_scan_consistency_roots(h, J)), (h, J)
            maxima = thermo._maximum_roots(params)
            cuts = [(x - h) / (2.0 * J) + 0.5 for x, _ in thermo._spinodal(J)]
            misleading = [
                roots,
                [grid[min(int(400.0 * m) + d, 400)] for m in roots for d in (0, 1)],
                cuts,
                [0.0, 1.0],
                consistency_roots(ModelParams(h + 0.01, J)),
                # across each cut, and each root mirrored: in another piece
                [c + d for c in cuts for d in (-0.01, 0.01)] + [1.0 - m for m in roots],
            ]
            for hints in misleading:
                assert hex_of(thermo._walk_roots(params, False, hints)) == hex_of(roots), (
                    h, J, hints)
                assert hex_of(thermo._maximum_roots(params, hints)) == hex_of(maxima), (
                    h, J, hints)

    def test_edge_cases_are_what_they_claim(self):
        # the preconditions of EDGE_CASES, so a change of g's bits cannot
        # quietly turn them into ordinary draws
        def residual(h, J, m):
            return m - g((2.0 * m - 1.0) * J + h)

        def cuts(h, J):
            return [(x - h) / (2.0 * J) + 0.5 for x, _ in thermo._spinodal(J)]

        grid = set(np.linspace(0.0, 1.0, 401).tolist())
        assert cuts(*CUT_ON_GRID)[0] == 0.5 and residual(*CUT_ON_GRID, 0.5) == 0.0
        c = cuts(*ZERO_AT_CUT)[0]
        assert c not in grid and residual(*ZERO_AT_CUT, c) == 0.0
        c = cuts(*ZERO_AT_UPPER_CUT)[1]
        assert c not in grid and residual(*ZERO_AT_UPPER_CUT, c) == 0.0
        for J in (0.5, 1.0, 2.0, 10.0):
            assert residual(ZERO_AT_NODE_H, J, 0.5) == 0.0
        assert thermo._spinodal(1.0) == ()

    def test_no_root_lost_to_a_subnormal_residual(self):
        # for h - J in about (-745, -738.5), r(0) = -g(h - J) is subnormal
        # and a product of residuals underflowed to -0.0: the root at m = 0
        # went missing.  Counts against 30 digits.
        from imd.phase import solve_consistency
        from oracles import stationary_count_mp

        for h, J in ((-5.0, 735.0), (0.0, 740.0), (-30.0, 712.0)):
            assert 0.0 < g(h - J) < 2.2e-308
            points = solve_consistency(ModelParams(h, J))
            roots, maxima = stationary_count_mp(h, J)
            assert len(points) == roots == 3, (h, J)
            assert sum(p.is_maximum for p in points) == maxima == 2, (h, J)
            assert points[0].m < 1e-300

    def test_scalar_walk_within_its_evaluation_count(self, monkeypatch):
        # at (-0.41, 2) the walk evaluates r by g's scalar route only: 4
        # piece ends, 24 grid nodes in three bisections and 11 points inside
        # brentq, which is handed each cell's end residuals: 39 in all (45
        # when brentq evaluated the ends again; a whole-grid scan evaluated
        # 403 at once)
        fields = []

        def counted(a):
            fields.append(a)
            return scalar(a)

        def checked_g(h):
            assert isinstance(h, float), type(h)
            return g(h)

        scalar = thermo._g_scalar
        monkeypatch.setattr(thermo, "_g_scalar", counted)
        monkeypatch.setattr(thermo, "g", checked_g)
        assert len(consistency_roots(ModelParams(-0.41, 2.0))) == 3
        assert all(type(a) is float for a in fields)
        assert len(fields) <= 39

    def test_maxima_walk_matches_the_all_roots_path(self, monkeypatch):
        # the same (m, ptilde'') pairs, and None in the same cases, just
        # inside and outside both window edges down to J - J_c = 1e-8, with
        # every branch of the middle-piece guard taken
        def all_roots_pair(params):
            maxima = [(m, d2) for m in consistency_roots(params)
                      if (d2 := tilde_p(m, params, 2)) < 0.0]
            return maxima if len(maxima) == 2 else None

        def branch(params):
            h, J = params.h, params.J
            cuts = [c for c in ((x - h) / (2.0 * J) + 0.5 for x, _ in thermo._spinodal(J))
                    if 0.0 < c < 1.0]
            if len(cuts) < 2:
                return "fewer cuts"
            rho = min(abs(c - g((2.0 * c - 1.0) * J + h)) for c in cuts)
            return "outer" if rho > thermo._middle_bound(h, J) else "guarded"

        rng = np.random.default_rng(2017)
        draws = [ModelParams(*EDGE_MERGE), ModelParams(-0.41, 2.0), ModelParams(0.3, 1.0),
                 ModelParams(0.0, 1e3), ModelParams(5.0, 3.0)]
        for dJ in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 50.0):
            J = thermo._J_C + dJ
            lo, hi = phase._spinodal_window(J)
            for edge in (lo, hi):
                for rel in (0.0, *10.0 ** rng.uniform(-12.0, -1.0, 8)):
                    for sign in (-1.0, 1.0):
                        draws.append(ModelParams(float(edge + sign * rel * (hi - lo)), J))
        seen = set()
        for params in draws:
            assert phase._two_maxima(params) == all_roots_pair(params), params
            seen.add(branch(params))
        assert seen == {"outer", "guarded", "fewer cuts"}
        # without the guard the outer pieces alone give a pair at EDGE_MERGE
        edge = ModelParams(*EDGE_MERGE)
        assert branch(edge) == "guarded" and phase._two_maxima(edge) is None
        monkeypatch.setattr(thermo, "_middle_bound", lambda h, J: -1.0)
        assert phase._two_maxima(edge) is not None

    def test_spinodal_densities_solve_the_quadratic(self):
        # 2J g'(x) = 1 at both spinodal fields, and g(x) is the density given
        for J in (1.4571067811865476, 1.5, 2.0, 10.0, 1e3):
            for x, m in thermo._spinodal(J):
                assert abs(2.0 * J * g_derivative(x, 1) - 1.0) < 1e-12
                assert abs(g(x) - m) < 1e-15
        assert thermo._spinodal(1.457) == ()


def _seeded_params(seed, n):
    """(h, J) with |h| <= 30 and J log-uniform up to 1e3, plus the corners."""
    rng = np.random.default_rng(seed)
    hs = rng.uniform(-30.0, 30.0, n)
    Js = 10.0 ** rng.uniform(-3.0, 3.0, n)
    corners = [(h, J) for h in (-30.0, 0.0, 30.0) for J in (0.0, 1e3)]
    return [ModelParams(float(h), float(J)) for h, J in zip(hs, Js)] + [
        ModelParams(h, J) for h, J in corners]


class TestRateRoute:
    def test_batch_agrees_with_consistency_route(self):
        grid = _seeded_params(17, 300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sups = variational_pressure_via_rate(grid)
            exact = [variational_pressure(p) for p in grid]
        assert sups.shape == (len(grid),)
        assert np.max(np.abs(sups - exact)) < 1e-10

    @pytest.mark.parametrize("h,sup", [(30.0, 30.0), (0.0, 0.0), (-30.0, -0.5)])
    def test_maxima_at_the_ends_take_the_end_values(self, h, sup):
        # at J = 1e3 the maximizers lie within e^-1000 of m = 0 or 1, so the
        # sup is the objective at that end, h at m = 1 and -I(0) at m = 0
        assert variational_pressure_via_rate(ModelParams(h, 1e3)) == sup
        assert variational_pressure(ModelParams(h, 1e3)) == sup

    def test_single_call_is_its_row_of_a_batch(self):
        grid = _seeded_params(23, 100)
        sups = variational_pressure_via_rate(grid)
        for params, sup in zip(grid, sups):
            single = variational_pressure_via_rate(params)
            assert type(single) is float
            assert single.hex() == float(sup).hex()

    def test_prefixes_do_not_change_rows(self):
        # each row stops on its own test, so any prefix of a batch gives
        # the same sups, whichever rows still iterate after it
        grid = _seeded_params(29, 64) + _near_critical_params()[:30]
        full = variational_pressure_via_rate(grid)
        for n in (1, 31, 32, 33, 65, 80):
            part = variational_pressure_via_rate(grid[:n])
            assert [float(x).hex() for x in part] == [float(x).hex() for x in full[:n]]

    def test_no_piece_reaches_the_step_cap(self):
        h, J = thermo._lanes(_criterion_10_grid())
        row, m, steps = thermo._rate_candidates(h, J)
        # the candidates 0, 1, c- and c+ of every row, then one per piece
        assert row[:4 * h.size].tolist() == list(range(h.size)) * 4
        row = row[4 * h.size:]
        assert steps.shape == row.shape and steps.max() < thermo._RATE_STEPS
        # every row has a maximum; below J_c it is on one piece only
        assert set(row.tolist()) == set(range(h.size))
        assert np.all(np.bincount(row)[J < thermo._J_C] == 1)

    def test_uses_no_consistency_machinery(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the rate route left its own formulas")

        grid = _criterion_10_grid() + _seeded_params(47, 50) + _near_critical_params()
        expected = variational_pressure_via_rate(grid)
        for name in ("g", "_g_scalar", "_g_array", "g_derivative", "log_one_minus_g", "p0",
                     "tilde_p", "consistency_roots", "_walk_roots", "_lane_roots",
                     "_spinodal", "brentq", "brentq_lanes"):
            monkeypatch.setattr(thermo, name, forbidden)
        assert variational_pressure_via_rate(grid).tolist() == expected.tolist()


def _rate_oracle_params():
    """120 seeded rows (|h| <= 30, J up to 1e3 and the corners), 50 with
    J - J_c from 1e-12 to 1e-2 and h across the spinodal window and beyond
    it, and 50 within 1e-12 to 1e-6 of gamma(J) for J from J_c + 1e-3 to
    1e3, where the two maxima have nearly equal heights."""
    rng = np.random.default_rng(2031)
    rows = _seeded_params(43, 114)
    for dJ, t in zip(10.0 ** rng.uniform(-12.0, -2.0, 50), rng.uniform(-0.5, 1.5, 50)):
        J = thermo._J_C + dJ
        lo, hi = phase._spinodal_window(J)
        rows.append(ModelParams(float(lo + t * (hi - lo)), float(J)))
    Js = np.sort(10.0 ** rng.uniform(math.log10(thermo._J_C + 1e-3), 3.0, 50))
    offsets = 10.0 ** rng.uniform(-12.0, -6.0, 50) * rng.choice([-1.0, 1.0], 50)
    for point, d in zip(trace_gamma([float(J) for J in Js]), offsets):
        rows.append(ModelParams(float(point.h + d), float(point.J)))
    return rows


class TestRateRouteOracle:
    def test_sup_agrees_with_50_digit_mpmath(self):
        from oracles import rate_sup_mp, stationary_count_mp

        params = _rate_oracle_params()
        sups = variational_pressure_via_rate(params)
        h, J = thermo._lanes(params)
        row, _, steps = thermo._rate_candidates(h, J)
        assert steps.max() < thermo._RATE_STEPS
        found = np.bincount(row[4 * h.size:], minlength=len(params))
        two = 0
        for p, sup, pieces in zip(params, sups, found):
            ref, (phi_lo, phi_hi) = rate_sup_mp(p.h, p.J)
            # the rounding scale of the objective's terms (h - J) m and J m^2
            assert abs(float(sup) - float(ref)) <= 1e-14 * (1.0 + abs(p.h) + p.J), p
            # no maximum missed: the consistency residual counts the same
            # maxima, and the route solves each of them wherever phi at both
            # turns is clear of its rounding.  Within that, rounding decides
            # whether a maximum next to a turn is solved; the turns are
            # candidates of the sup for that
            maxima = int(phi_lo < 0) + int(phi_hi > 0)
            assert stationary_count_mp(p.h, p.J)[1] == maxima, p
            if min(abs(phi_lo), abs(phi_hi)) > 2.0**-50 * (1.0 + abs(p.h) + 3.0 * p.J):
                assert pieces == maxima, p
                two += maxima == 2
        assert two >= 50


def _criterion_10_grid():
    return [ModelParams(float(h), float(J))
            for h in np.linspace(-1.0, 1.0, 21) for J in np.linspace(0.0, 3.0, 21)]


def _near_critical_params():
    """J - J_c from 1e-12 to 1e-1, fields across the spinodal window, around
    it and within 1e-6 of its width from its edges, where the merge of
    roots closer than 1e-9 acts (as at EDGE_MERGE), and some rows at J = 0."""
    rng = np.random.default_rng(2018)
    rows = [ModelParams(*EDGE_MERGE)]
    edges = [t + d for t in (0.0, 1.0) for d in (-1e-6, -1e-7, 0.0, 1e-7, 1e-6)]
    for dJ in 10.0 ** np.arange(-12.0, -0.5, 0.5):
        J = thermo._J_C + dJ
        lo, hi = phase._spinodal_window(J)
        fields = [lo + t * (hi - lo) for t in [*np.linspace(-0.5, 1.5, 9), *edges]]
        rows += [ModelParams(float(h), J) for h in [*fields, *(lo + rng.uniform(-0.05, 0.05, 4))]]
    return rows + [ModelParams(float(h), 0.0) for h in (-30.0, -1.0, -0.0, 0.5, 30.0)]


def _assert_batch_is_scalar(params):
    """Both batch routes against the scalar walk, row by row, by float.hex."""
    roots = consistency_roots(params)
    sups = variational_pressure(params)
    assert len(roots) == len(params) and sups.shape == (len(params),)
    for p, row, sup in zip(params, roots, sups):
        assert all(type(m) is float for m in row)
        assert [m.hex() for m in row] == [m.hex() for m in consistency_roots(p)], p
        assert float(sup).hex() == variational_pressure(p).hex(), p


class TestLaneRoute:
    @pytest.mark.parametrize("draws", [
        _criterion_10_grid,
        lambda: [ModelParams(h, J) for h, J in _cut_scan_draws()],
        lambda: _seeded_params(31, 1000),
        _near_critical_params,
    ], ids=["criterion_10", "cut_scan", "seeded", "near_critical"])
    def test_batch_is_the_scalar_walk(self, draws):
        _assert_batch_is_scalar(draws())

    @given(st.lists(st.tuples(finite_h, st.one_of(
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=-12.0, max_value=-1.0).map(lambda e: thermo._J_C + 10.0**e),
        st.just(0.0))), max_size=12))
    def test_batch_is_the_scalar_walk_on_any_rows(self, rows):
        _assert_batch_is_scalar([ModelParams(h, J) for h, J in rows])

    def test_no_row_runs_the_scalar_walk(self, monkeypatch):
        def scalar(*args, **kwargs):
            raise AssertionError("the scalar walk ran")

        grid = _criterion_10_grid() + _seeded_params(37, 100)
        expected = consistency_roots(grid), variational_pressure(grid)
        for name in ("_walk_roots", "_piece_roots", "brentq", "_g_scalar"):
            monkeypatch.setattr(thermo, name, scalar)
        roots, sups = consistency_roots(grid), variational_pressure(grid)
        assert roots == expected[0] and sups.tolist() == expected[1].tolist()

    def test_single_call_is_its_row_of_a_batch(self):
        # the one-row batch is the scalar route's answer as well
        grid = _seeded_params(41, 50)
        roots, sups = consistency_roots(grid), variational_pressure(grid)
        for k, params in enumerate(grid):
            assert consistency_roots([params]) == [roots[k]] == [consistency_roots(params)]
            assert variational_pressure([params]).tolist() == [float(sups[k])]
        assert consistency_roots([]) == [] and variational_pressure([]).shape == (0,)

    def test_prefixes_do_not_change_rows(self):
        grid = [ModelParams(h, J) for h, J in _cut_scan_draws()[-120:]]
        roots, sups = consistency_roots(grid), variational_pressure(grid)
        for n in (1, 7, 60, 119):
            assert consistency_roots(grid[:n]) == roots[:n]
            assert variational_pressure(grid[:n]).tolist() == sups[:n].tolist()

    def test_newton_steps_are_clipped_to_the_unit_interval(self, monkeypatch):
        # roots at 0.001 and 0.999 of a synthetic residual r = -0.01 sign(m - 1/2)
        # with r' = 1 - 2J g' = 1/4: each Newton step moves 0.04 outwards,
        # past 0 and past 1, and the clip holds the roots at the ends
        h, J = np.zeros(2), np.ones(2)
        empty = np.empty(0)
        monkeypatch.setattr(thermo, "_lane_cells", lambda h, J: (
            (np.arange(2), np.array([0.001, 0.999])),
            (np.empty(0, dtype=np.intp), empty, empty, empty, empty)))

        def g_array(x):
            m = (x + 1.0) / 2.0  # x = (2m - 1) J + h
            return m + np.where(m < 0.5, -0.01, 0.01)

        monkeypatch.setattr(thermo, "_g_array", g_array)
        monkeypatch.setattr(thermo, "g_derivative", lambda x, k=1: np.full(np.shape(x), 0.375))
        row, m = thermo._lane_roots(h, J)
        assert row.tolist() == [0, 1] and m.tolist() == [0.0, 1.0]


class TestPieceRoots:
    def test_left_end_within_noise_is_walked_in(self):
        # a synthetic residual, linear between its values: within noise of 0
        # at a, of opposite sign at the first grid node after a and again at
        # the second, and clear of noise from the third on, down to b.  The
        # walk-in solves each of the three cells as a scan of every node
        # would; a bisection from a, which sees one sign change between a
        # and b, keeps one root
        a, b, noise = 0.101, 0.2, 1e-9
        i = bisect.bisect_right(thermo._ROOT_GRID, a)
        g1, g2, g3 = thermo._ROOT_GRID[i:i + 3]
        xs, ys = [a, g1, g2, g3, b], [1e-12, -1e-12, 1e-12, -0.5, -1.0]

        def residual(x):
            return float(np.interp(x, xs, ys))

        roots = thermo._piece_roots(residual, a, b, residual(a), residual(b), noise)
        cells = [(a, g1), (g1, g2), (g2, g3)]
        assert roots == [float(brentq(residual, c, d, xtol=1e-15, fa=residual(c),
                                      fb=residual(d))) for c, d in cells]
        assert all(c < r < d for r, (c, d) in zip(roots, cells))

    # the lane form of the walk-in: at J = 1 < J_c the one piece is [0, 1],
    # and noise = 2 _rounding_bound(0, 1) is about 1.8e-15
    @staticmethod
    def _lane_cells_of(monkeypatch, xs, ys):
        """_lane_cells' (a, b) cells for one row whose residual is linear
        between the values ys at the points xs."""
        monkeypatch.setattr(thermo, "_lane_residual", lambda m, h, J: np.interp(m, xs, ys))
        (row, m), (crow, a, b, fa, fb) = thermo._lane_cells(np.array([0.0]), np.array([1.0]))
        assert row.size == 0 and set(crow.tolist()) <= {0}
        return sorted(zip(a.tolist(), b.tolist()))

    def test_lane_left_end_within_noise_is_walked_in(self, monkeypatch):
        # within noise of 0 at m = 0, of opposite sign at the first node and
        # again at the second, clear of noise from the third on: three
        # cells, where a bisection from m = 0 sees one sign change
        g1, g2, g3 = thermo._ROOT_GRID[1:4]
        cells = self._lane_cells_of(monkeypatch, [0.0, g1, g2, g3, 1.0],
                                    [1e-16, -1e-16, 1e-16, -0.5, -1.0])
        assert cells == [(0.0, g1), (g1, g2), (g2, g3)]

    def test_lane_right_end_within_noise_is_walked_in(self, monkeypatch):
        g3, g2, g1 = thermo._ROOT_GRID[-4:-1]
        cells = self._lane_cells_of(monkeypatch, [0.0, g3, g2, g1, 1.0],
                                    [-1.0, -0.5, 1e-16, -1e-16, 1e-16])
        assert cells == [(g3, g2), (g2, g1), (g1, 1.0)]
