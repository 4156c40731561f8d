"""Tests for scaled laws, limiting distributions and convergence metrics."""

import dataclasses
import functools
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, gammainc

from imd import limits, phase
from imd.exact import AtomLaw, monomer_law
from imd.limits import (
    Gaussian,
    PointMass,
    Quartic,
    StudyTable,
    TwoPointMixture,
    coexistence_masses,
    convergence_study,
    ks_distance,
    scaled_law,
)
from imd.thermo import ModelParams, g, g_derivative

from oracles import (full_support_ks, full_support_masses, full_support_scaled,
                     hermite_berry_esseen, hermite_cumulants)


@pytest.fixture(scope="module")
def critical():
    return phase.find_critical_point()


@pytest.fixture(scope="module")
def gamma_at_2():
    return phase.trace_gamma([2.0])[0]


def point_law(x0=0.0):
    return AtomLaw(1, ModelParams(0.0, 0.0), 0.0, [np.array([1.0])], [(0, 1)],
                   np.array([x0]).__getitem__, eta=0.0, u=0.0)


class TestScaledLaw:
    def test_density_scaling_of_four_sites(self):
        law = scaled_law(4, ModelParams(0.0, 0.0), 1.0, 0.0)
        assert np.allclose(law.positions, [0.0, 0.5, 1.0])
        assert np.allclose(law.probabilities, [3.0 / 43.0, 24.0 / 43.0, 16.0 / 43.0])

    def test_identity_scaling_keeps_raw_counts(self):
        law = scaled_law(6, ModelParams(0.2, 0.4), 0.0, 0.0)
        assert np.allclose(sorted(law.positions), [0, 2, 4, 6])

    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_affine_consistency(self, n, eta, u):
        law = scaled_law(n, ModelParams(0.1, 0.3), eta, u)
        raw = monomer_law(n, ModelParams(0.1, 0.3))
        expected = (raw.s_values[::-1] - n * u) / n**eta
        assert np.array_equal(law.positions, expected)
        assert np.array_equal(law.probabilities, raw.probabilities[::-1])
        assert np.all(np.diff(law.positions) > 0)
        assert abs(law.probabilities.sum() - 1.0) < 1e-12

    def test_mean_matches_density_mean(self):
        law = scaled_law(50, ModelParams(0.1, 0.5), 1.0, 0.0)
        assert abs(law.mean() - monomer_law(50, ModelParams(0.1, 0.5)).mean() / 50) < 1e-14

    def test_csv_schema(self):
        law = scaled_law(6, ModelParams(0.0, 0.0), 0.5, 0.6)
        buf = io.StringIO()
        law.write(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,S,position,probability"
        assert len(lines) == 5

    def test_lln_at_1e8_in_bounded_traced_memory(self):
        # 226 376 of the 50 000 001 atoms carry probability at N = 1e8: the
        # law and its KS distance hold O(window) arrays, where a
        # full-support buffer alone would take 400 MB
        ks_distance(scaled_law(100, ModelParams(0.0, 0.0), 1.0, 0.0), PointMass(g(0.0)))
        tracemalloc.start()
        try:
            scaled = scaled_law(10**8, ModelParams(0.0, 0.0), 1.0, 0.0)
            d = ks_distance(scaled, PointMass(g(0.0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(b - a for a, b in scaled.windows) < 250000
        assert abs(d - 0.5) < 1e-3
        assert peak < 10 * 2**20


class TestLimitLaws:
    def test_gaussian_quantile(self):
        assert abs(Gaussian(0.0, 1.0).cdf(1.959964) - 0.975) < 1e-6

    def test_gaussian_requires_positive_variance(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)

    def test_quartic_center_and_symmetry(self, critical):
        law = Quartic(critical.lambda_c)
        assert law.cdf(0.0) == 0.5
        xs = np.linspace(-3.0, 3.0, 101)
        assert np.max(np.abs(law.cdf(-xs) + law.cdf(xs) - 1.0)) < 1e-10

    def test_quartic_normalization_against_gamma_function(self, critical):
        law = Quartic(critical.lambda_c)
        total = quad(law.density, -4.0, 4.0, epsabs=1e-14)[0]
        assert abs(total - 1.0) < 1e-10
        c_inv = (24.0 / abs(critical.lambda_c)) ** 0.25 * gamma_fn(0.25) / 2.0
        assert abs(1.0 / law.normalization - c_inv) < 1e-12

    def test_quartic_cdf_against_incomplete_gamma(self, critical):
        law = Quartic(critical.lambda_c)
        xs = np.linspace(-2.5, 2.5, 81)
        oracle = 0.5 * (1.0 + np.sign(xs) * gammainc(0.25, law.scale * xs**4))
        assert np.max(np.abs(law.cdf(xs) - oracle)) < 1e-12

    def test_quartic_cdf_against_40_digit_quadrature(self, critical):
        # independent of the incomplete gamma function: the density integrated
        # by mpmath at 40 digits and normalized by its own total
        mpmath = pytest.importorskip("mpmath")
        law = Quartic(critical.lambda_c)
        with mpmath.workdps(40):
            s = mpmath.mpf(law.scale)

            def density(x):
                return mpmath.exp(-s * x**4)

            total = mpmath.quad(density, [-mpmath.inf, 0, mpmath.inf])
            for x in np.linspace(-4.0, 4.0, 41):
                ref = mpmath.quad(density, [-mpmath.inf, 0, mpmath.mpf(x)]) / total
                assert abs(law.cdf(float(x)) - float(ref)) <= 1e-15, x

    def test_quartic_variance_closed_form(self, critical):
        law = Quartic(critical.lambda_c)
        by_quadrature = quad(lambda x: x * x * law.density(x), -4.0, 4.0, epsabs=1e-14)[0]
        closed = math.sqrt(24.0 / abs(critical.lambda_c)) * gamma_fn(0.75) / gamma_fn(0.25)
        assert abs(law.variance - closed) < 1e-14
        assert abs(by_quadrature - closed) < 1e-8

    def test_quartic_requires_negative_lambda(self):
        with pytest.raises(ValueError):
            Quartic(1.0)

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TwoPointMixture(0.6, 0.1, 0.6, 0.9)

    # a law whose CDF is NaN or leaves [0, 1] would read as a KS of nan or
    # 1.0, and would break the monotone bound ks_distance prunes by
    @pytest.mark.parametrize("make, name", [
        (lambda: Gaussian(math.nan, 1.0), "mean"),
        (lambda: Gaussian(math.inf, 1.0), "mean"),
        (lambda: Gaussian(0.0, math.nan), "variance"),
        (lambda: Gaussian(0.0, math.inf), "variance"),
        (lambda: Quartic(math.nan), "lambda_c"),
        (lambda: Quartic(-math.inf), "lambda_c"),
        (lambda: PointMass(math.nan), "m"),
        (lambda: PointMass(-math.inf), "m"),
        (lambda: TwoPointMixture(math.nan, 0.1, 0.5, 0.9), "rho1"),
        (lambda: TwoPointMixture(0.5, 0.1, math.nan, 0.9), "rho2"),
        (lambda: TwoPointMixture(0.5, math.nan, 0.5, 0.9), "m1"),
        (lambda: TwoPointMixture(0.5, 0.1, 0.5, math.inf), "m2"),
        (lambda: TwoPointMixture(1.5, 0.1, -0.5, 0.9), "rho2"),
        (lambda: TwoPointMixture(-0.5, 0.1, 1.5, 0.9), "rho1"),
    ], ids=["gaussian-nan-mean", "gaussian-inf-mean", "gaussian-nan-variance",
            "gaussian-inf-variance", "quartic-nan", "quartic-inf", "point-nan",
            "point-inf", "mixture-nan-rho1", "mixture-nan-rho2", "mixture-nan-m1",
            "mixture-inf-m2", "mixture-negative-rho2", "mixture-negative-rho1"])
    def test_rejects_parameters_that_break_the_cdf(self, make, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            make()


class TestKsDistance:
    def test_identical_point_masses(self):
        assert ks_distance(point_law(0.0), PointMass(0.0)) == 0.0

    def test_disjoint_point_masses(self):
        assert ks_distance(point_law(0.0), PointMass(1.0)) == 1.0

    def test_mixture_against_itself_as_discrete_law(self):
        two = AtomLaw(2, ModelParams(0.0, 0.0), 0.0, [np.array([0.3, 0.7])], [(0, 2)],
                      np.array([0.2, 0.8]).__getitem__, eta=0.0, u=0.0)
        assert ks_distance(two, TwoPointMixture(0.3, 0.2, 0.7, 0.8)) < 1e-15
        assert abs(ks_distance(two, TwoPointMixture(0.5, 0.2, 0.5, 0.8)) - 0.2) < 1e-15

    def test_bounds(self):
        law = scaled_law(30, ModelParams(0.0, 0.0), 0.5, g(0.0))
        d = ks_distance(law, Gaussian(0.0, g_derivative(0.0, 1)))
        assert 0.0 <= d <= 1.0

    def test_clt_at_reference_point(self):
        params = ModelParams(0.2, 0.5)
        m_star = phase.classify(params).maximizers[0]
        law = scaled_law(10**4, params, 0.5, m_star)
        d = ks_distance(law, Gaussian(0.0, phase.clt_variance(params)))
        assert d < 0.05


def ladders(critical, gamma_at_2):
    """(params, eta, u, limit law) of the four convergence studies."""
    unique = ModelParams(0.2, 0.5)
    return {
        "clt_pure": (ModelParams(0.0, 0.0), 0.5, g(0.0), Gaussian(0.0, g_derivative(0.0, 1))),
        "clt_unique": (unique, 0.5, phase.classify(unique).maximizers[0],
                       Gaussian(0.0, phase.clt_variance(unique))),
        "critical_quartic": (ModelParams(critical.h_c, critical.J_c), 0.75, critical.m_c,
                             Quartic(critical.lambda_c)),
        "coexistence_mixture": (ModelParams(gamma_at_2.h, gamma_at_2.J), 1.0, 0.0,
                                TwoPointMixture(gamma_at_2.rho1, gamma_at_2.m1,
                                                gamma_at_2.rho2, gamma_at_2.m2)),
    }


class Constant:
    """A limit law whose CDF is one value everywhere."""

    def __init__(self, c):
        self.c = c

    def cdf(self, x):
        return np.full(np.shape(x), self.c)


SYNTHETIC_PROBABILITIES = (0.0, 1e-300, 1e-15, 1e-13, 0.01, 0.05, 0.1, 0.125, 0.3)
SYNTHETIC_LEVELS = (0.0, 0.125, 0.25, 0.25 + 1e-15, 0.25 + 1e-13, 0.5, 0.5 - 1e-13, 0.75, 1.0)


class StepCdf:
    """A nondecreasing step CDF: the running maximum of the levels of the
    steps (position index x 4, level), each taking effect at its position;
    with ``atoms`` it declares its jump points, as a discrete law does."""

    def __init__(self, steps, atoms):
        steps = sorted(steps)
        self.knots = np.array([x / 4.0 for x, _ in steps])
        self.levels = np.maximum.accumulate([0.0] + [level for _, level in steps])
        if atoms:
            self.atoms = tuple(self.knots)

    def cdf(self, x):
        return self.levels[np.searchsorted(self.knots, x, side="right")]


@functools.lru_cache(maxsize=None)
def gamma_point(J):
    return phase.trace_gamma([J])[0]


PLACES = ("inside", "valley", "below", "above", "far")
places = st.tuples(st.sampled_from(PLACES), st.floats(0.0, 1.0), st.booleans())
ANY_PLACE = ("inside", 0.5, True)
# (kind, two places, log10 variance, lambda_c, weight or constant)
limit_specs = st.tuples(st.sampled_from(["gaussian", "quartic", "point", "mixture", "constant"]),
                        places, places, st.floats(-8.0, 2.0), st.floats(-50.0, -0.01),
                        st.floats(0.0, 1.0))


def place(scaled, where, frac, on_atom):
    """A position inside the window's hull, in the valley between its two
    intervals, on the zero-probability run below or above it (each falls
    back to the hull when empty), or 1e9 beyond the support; on an atom or
    between two."""
    if where == "far":
        return math.copysign(1e9, frac - 0.5)
    (lo, a), (b, hi) = scaled.windows[0], scaled.windows[-1]
    c, d = {"inside": (lo, hi), "valley": (a, b), "below": (0, lo),
            "above": (hi, len(scaled.probabilities))}[where]
    if c >= d:
        c, d = lo, hi
    i = c + frac * (d - 1 - c)
    return float(scaled.values_at(np.array([round(i) if on_atom else i]))[0])


def limit_law(scaled, spec):
    kind, first, second, log_var, lambda_c, weight = spec
    if kind == "gaussian":
        return Gaussian(place(scaled, *first), 10.0**log_var)
    if kind == "quartic":
        return Quartic(lambda_c)
    if kind == "point":
        return PointMass(place(scaled, *first))
    if kind == "mixture":
        return TwoPointMixture(weight, place(scaled, *first),
                               1.0 - weight, place(scaled, *second))
    return Constant(weight)


class TestWindowedKs:
    """ks_distance reads only the window and the end atoms of the two
    zero-probability runs beside it; it must give the full-support bits."""

    @pytest.mark.parametrize("name", ["clt_pure", "clt_unique", "critical_quartic",
                                      "coexistence_mixture"])
    def test_study_ladders(self, critical, gamma_at_2, name):
        params, eta, u, law = ladders(critical, gamma_at_2)[name]
        for n in (100, 1000, 10**4, 10**5):
            scaled = scaled_law(n, params, eta, u)
            pos, probs = full_support_scaled(n, params, eta, u)
            assert np.array_equal(scaled.positions, pos)
            assert np.array_equal(scaled.probabilities, probs)
            assert ks_distance(scaled, law) == full_support_ks(pos, probs, law)

    @pytest.mark.parametrize("h,J", [(0.0, 0.0), (0.2, 0.5)])
    def test_lln(self, h, J):
        # at these sizes the mass below the limit atom decides the distance,
        # and summing it without the zeros below the window moves its last bit
        params = ModelParams(h, J)
        law = PointMass(phase.classify(params).maximizers[0])
        for n in (4002, 12345, 10**6):
            scaled = scaled_law(n, params, 1.0, 0.0)
            pos, probs = full_support_scaled(n, params, 1.0, 0.0)
            assert ks_distance(scaled, law) == full_support_ks(pos, probs, law)
        assert scaled.windows[-1][1] - scaled.windows[0][0] < 30000

    @pytest.mark.parametrize("law", [
        Gaussian(0.2, 1e-4), Gaussian(-0.2, 1e-4), Gaussian(0.0, 100.0),
        Gaussian(1e9, 1.0), Gaussian(-1e9, 1.0),
        PointMass(0.0), PointMass(1.0), PointMass(0.6), PointMass(0.7), PointMass(0.9),
        TwoPointMixture(0.3, 0.1, 0.7, 0.9), TwoPointMixture(0.5, 0.6, 0.5, 0.65),
    ])
    @pytest.mark.parametrize("n", [4002, 10**4, 10**5])
    def test_limit_laws_away_from_the_window(self, law, n):
        # limit atoms outside the window (at N = 1e4 the mass below 0.9 has
        # its full-support bits only with the zeros above the window), and
        # limit CDFs whose distance is decided on a zero-probability run (at
        # N = 1e4 the window's total is 1 - 4.4e-16, so against
        # Gaussian(1e9, 1) the last atom's 1 decides)
        params = ModelParams(0.0, 0.0)
        scaled = scaled_law(n, params, 1.0, 0.0)
        assert 0 < scaled.windows[0][0] and scaled.windows[-1][1] < len(scaled.probabilities)
        pos, probs = full_support_scaled(n, params, 1.0, 0.0)
        assert ks_distance(scaled, law) == full_support_ks(pos, probs, law)

    def test_coexistence_with_a_valley_at_1e6(self, critical, gamma_at_2):
        # the window is two intervals; the valley between them is a third
        # zero-probability run, read at its end atoms
        params, eta, u, law = ladders(critical, gamma_at_2)["coexistence_mixture"]
        n = 10**6
        scaled = scaled_law(n, params, eta, u)
        (lo, a), (b, hi) = scaled.windows
        assert lo < a < b < hi
        pos, probs = full_support_scaled(n, params, eta, u)
        assert np.array_equal(scaled.probabilities, probs)
        assert ks_distance(scaled, law) == full_support_ks(pos, probs, law)
        # limit laws whose distance is decided inside the valley
        mid = pos[(a + b) // 2]
        for other in (PointMass(mid), Gaussian(mid, 1e-6), Gaussian(mid, 1e-2),
                      TwoPointMixture(0.5, gamma_at_2.m1, 0.5, mid)):
            assert ks_distance(scaled, other) == full_support_ks(pos, probs, other)
        cut = [p.m for p in phase.solve_consistency(params) if not p.is_maximum][0]
        assert coexistence_masses(n, gamma_at_2) == full_support_masses(n, params, cut)

    def test_ks_reads_only_the_intervals(self, critical, gamma_at_2):
        # at gamma(2), N = 1e6 the two intervals hold 38 270 atoms and their
        # hull 412 769: the positions are evaluated at fewer than a tenth of
        # the interval atoms (the blocks the bracketing keeps), at the end
        # atoms of the zero-probability runs and at the bisection steps of
        # the masses below the limit law's two atoms
        params, eta, u, law = ladders(critical, gamma_at_2)["coexistence_mixture"]
        scaled = scaled_law(10**6, params, eta, u)
        inside = sum(b - a for a, b in scaled.windows)
        evaluated = []
        positions = scaled.values_at

        def counted(i):
            evaluated.append(np.size(i))
            return positions(i)

        scaled.values_at = counted
        ks_distance(scaled, law)
        assert inside < 40000 and scaled.windows[-1][1] - scaled.windows[0][0] > 400000
        assert sum(evaluated) < inside / 10 + 6 + 4 * 20

    def test_quartic_cdf_read_at_under_a_tenth_of_the_window(self, critical, gamma_at_2):
        # at the critical point, N = 1e6, the window holds 163 518 atoms;
        # the bracketing calls the limit CDF at under 10 % of them (7 797
        # when this was written), and still gives the full-support bits
        params, eta, u, law = ladders(critical, gamma_at_2)["critical_quartic"]
        scaled = scaled_law(10**6, params, eta, u)
        inside = sum(b - a for a, b in scaled.windows)
        evaluated = []
        cdf = law.cdf

        def counted(x):
            evaluated.append(np.size(x))
            return cdf(x)

        law.cdf = counted
        d = ks_distance(scaled, law)
        assert inside > 160000
        assert sum(evaluated) <= inside / 10
        pos, probs = full_support_scaled(10**6, params, eta, u)
        assert d == full_support_ks(pos, probs, Quartic(law.lambda_c))

    @settings(max_examples=100)
    @given(st.floats(math.log10(2.0), 5.0), st.floats(-30.0, 30.0), st.floats(-2.0, 3.0),
           st.booleans(), st.sampled_from([0.0, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0),
           limit_specs)
    @example(5.0, 0.0, 2.0, True, 1.0, 0.0,
             ("gaussian", ("valley", 0.5, False), ANY_PLACE, -4.0, -1.0, 0.0))
    @example(4.0, 0.0, 5.0, True, 0.75, 0.5,
             ("point", ("valley", 0.3, True), ANY_PLACE, 0.0, -1.0, 0.0))
    @example(4.0, 0.0, 0.0, False, 0.5, 0.5, ("constant", ANY_PLACE, ANY_PLACE, 0.0, -1.0, 0.5))
    @example(5.0, 0.0, -2.0, False, 1.0, 0.0,
             ("gaussian", ("far", 0.0, False), ANY_PLACE, -8.0, -1.0, 0.0))
    @example(5.0, 0.0, 3.0, True, 1.0, 0.0,
             ("mixture", ("below", 0.9, True), ("above", 0.1, True), 0.0, -1.0, 0.4))
    @example(5.0, 0.0, 1.0, False, 0.75, 0.5, ("quartic", ANY_PLACE, ANY_PLACE, 0.0, -50.0, 0.0))
    def test_bracketing_keeps_the_full_support_bits(self, log_n, h, log_j, coexist, eta, u,
                                                    spec):
        # N log-uniform in [2, 1e5], |h| <= 30, J <= 1e3 in the draws (on the
        # coexistence curve when coexist, so that from N ~ 1e4 the window is
        # two intervals around a valley), and limit laws placed inside the
        # window, in the valley, on the zero-probability runs beside it or
        # far outside the support; a constant CDF is decided at the ends.
        # The example at log_j = 5 lies outside the draws: it traces
        # J = 1e5, phase._GAMMA_J_MAX, the largest J that trace_gamma
        # accepts (the bound is 1e5 and not 1e4 for this example).  There
        # the phases sit at m = 0 and m = 1, so at N = 1e4 the window is
        # the two end atoms, with a valley of 4999 atoms between them that
        # holds the point mass: the extreme two-window law.
        # A first grid of 4 atoms makes every window of 5 atoms or more
        # bracketed, not only those above 1024
        n = int(round(10.0**log_n))
        J = 10.0**log_j
        if coexist:
            J = max(J, 1.5)
            h = gamma_point(J).h
        params = ModelParams(h, J)
        scaled = scaled_law(n, params, eta, u)
        law = limit_law(scaled, spec)
        pos, probs = full_support_scaled(n, params, eta, u)
        expected = full_support_ks(pos, probs, law)
        assert ks_distance(scaled, law) == expected
        with mock.patch.object(limits, "_GRID", 4):
            assert ks_distance(scaled, law) == expected

    @settings(max_examples=150)
    @given(st.lists(st.sampled_from(SYNTHETIC_PROBABILITIES), min_size=1, max_size=40),
           st.lists(st.tuples(st.integers(0, 80), st.sampled_from(SYNTHETIC_LEVELS)),
                    max_size=6),
           st.integers(0, 40), st.integers(0, 40), st.booleans(), st.sampled_from([1, 2, 3, 5]))
    # the atom i sits at knot 2i.  The distance is decided at the last
    # interior atom of a block by its right gap (a bound that takes right at
    # the block's first interior atom misses it) ...
    @example([0.25, 0.0, 0.2, 0.1, 0.1, 0.05, 0.3],
             [(5, 0.45), (7, 0.6), (9, 0.7), (11, 1.0)], 0, 7, False, 1)
    # ... 1e-13 above the best gap found when the block is weighed (a
    # negative slack drops it) ...
    @example([0.25, 0.0, 0.05 + 1e-13, 0.15, 0.1, 0.15, 0.3],
             [(5, 0.45), (7, 0.55), (9, 0.7), (11, 1.0)], 0, 7, False, 1)
    # ... and at atom 5 by 0.4 - left[5], 2 ulps above 0.4 - left[4]: left[5]
    # = (x + 0.308) - 0.308 lies below left[4] = x, and atom 0's gap falls
    # between the two, so a block bound without the slack drops atom 5
    @example([0.19587163966334675, 0.0, 0.0, 0.0, 0.0, 0.308, 0.0, 0.1, 0.1],
             [(-1, math.nextafter(0.4 - 0.19587163966334675, 1.0)), (5, 0.4), (15, 0.95)],
             0, 9, False, 3)
    def test_bracketing_on_synthetic_laws(self, probs, steps, a, b, atoms, grid):
        # small windows bracketed from a grid of 1 to 5 atoms, with zero and
        # tiny probabilities and step CDFs whose levels differ by 1e-13 or
        # 1e-15: near-ties at every scale of the slack
        n = len(probs)
        lo = min(a, b, n - 1)
        hi = min(max(a, b, lo + 1), n)
        p = np.array([x if lo <= i < hi else 0.0 for i, x in enumerate(probs)])
        pos = np.arange(n) / 2.0
        # N = 2 (n - 1): a law of n atoms
        scaled = AtomLaw(2 * (n - 1), ModelParams(0.0, 0.0), 0.0, [p[lo:hi]], [(lo, hi)],
                         pos.__getitem__, eta=1.0, u=0.0)
        law = StepCdf(steps, atoms)
        with mock.patch.object(limits, "_GRID", grid):
            assert ks_distance(scaled, law) == full_support_ks(pos, p, law)

    @pytest.mark.parametrize("J, shift, sizes", [
        pytest.param(2.0, 0.0, (10**4, 10**5), id="0.0"),
        pytest.param(2.0, 0.02, (10**4, 10**5), id="0.02"),
        pytest.param(2.0, -0.02, (10**4, 10**5), id="-0.02"),
        pytest.param(8.0, 0.0, (10**6,), id="gamma-8"),
    ])
    def test_coexistence_masses(self, gamma_at_2, J, shift, sizes):
        # shifted off the curve, one well lies more than 750 below the other
        # at N = 1e5 and leaves the window, so the cut lies outside it; at
        # gamma(8) the wells lie at both ends of the support and the window
        # holds a few thousand of its 500 001 atoms
        point = gamma_at_2 if J == 2.0 else phase.trace_gamma([J])[0]
        point = dataclasses.replace(point, h=point.h + shift)
        params = ModelParams(point.h, point.J)
        cut = [p.m for p in phase.solve_consistency(params) if not p.is_maximum][0]
        for n in sizes:
            assert coexistence_masses(n, point) == full_support_masses(n, params, cut)


class TestConvergenceStudy:
    def test_pure_clt_table(self):
        table = convergence_study(
            ModelParams(0.0, 0.0), 0.5, g(0.0),
            Gaussian(0.0, g_derivative(0.0, 1)), (100, 1000, 10000),
        )
        ks = [row.ks for row in table.rows]
        assert ks[0] > ks[1] > ks[2]
        assert ks[2] < 0.05
        assert table.trend_ok

    def test_critical_quartic_table(self, critical):
        table = convergence_study(
            ModelParams(critical.h_c, critical.J_c), 0.75, critical.m_c,
            Quartic(critical.lambda_c), (1000, 10000),
        )
        assert table.rows[1].ks < table.rows[0].ks < 0.1

    def test_wrong_scaling_at_critical_point_does_not_converge(self, critical):
        params = ModelParams(critical.h_c, critical.J_c)
        # sqrt(N)-scaled variance grows like sqrt(N); KS to any fixed Gaussian
        # stays bounded away from zero
        var_lo = scaled_law(1000, params, 0.5, critical.m_c).variance()
        var_hi = scaled_law(16000, params, 0.5, critical.m_c).variance()
        assert var_hi / var_lo > 2.0
        law = Gaussian(0.0, var_lo)
        ks = [
            ks_distance(scaled_law(n, params, 0.5, critical.m_c), law)
            for n in (1000, 4000, 16000)
        ]
        assert ks[0] < ks[1] < ks[2]  # drifting away, not converging
        assert ks[2] > 0.15

    def test_trend_flag_tolerates_single_inversion(self):
        from imd.limits import StudyRow

        rows = (
            StudyRow(10, 0.5, True),
            StudyRow(100, 0.6, False),
            StudyRow(1000, 0.3, True),
        )
        assert StudyTable(rows=rows).trend_ok
        rows_bad = rows + (StudyRow(10000, 0.7, False),)
        assert not StudyTable(rows=rows_bad).trend_ok

    def test_requires_increasing_sizes(self):
        with pytest.raises(ValueError):
            convergence_study(
                ModelParams(0.0, 0.0), 0.5, 0.0, Gaussian(0.0, 1.0), (100, 100)
            )

    def test_csv_schema(self):
        table = convergence_study(
            ModelParams(0.0, 0.0), 1.0, 0.0, PointMass(g(0.0)), (50, 100)
        )
        buf = io.StringIO()
        table.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "N,ks,decreasing"
        assert len(lines) == 3


class TestBerryEsseen:
    @pytest.mark.parametrize("h", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_pure_clt_within_shevtsova_bound(self, n, h):
        # at J = 0 the dimer count is a sum of independent Bernoulli(p_j)
        # over the Hermite roots; KS is invariant under affine maps, so the
        # law of S against N(kappa1, kappa2) is the standardized law against
        # N(0, 1).  At h = 0 KS / bound is 0.621, 0.622 and 0.623
        kappa1, kappa2, _, _ = hermite_cumulants(n, h)
        ks = ks_distance(scaled_law(n, ModelParams(h, 0.0), 0.0, 0.0), Gaussian(kappa1, kappa2))
        assert ks <= hermite_berry_esseen(n, h)


class TestLawOfLargeNumbers:
    @pytest.mark.parametrize("h,J", [(0.0, 0.0), (0.2, 0.5)])
    def test_mass_concentrates_on_equilibrium_density(self, h, J):
        params = ModelParams(h, J)
        m_star = phase.classify(params).maximizers[0]
        outside = []
        for n in (100, 1000, 10000):
            law = scaled_law(n, params, 1.0, 0.0)
            outside.append(
                float(np.sum(law.probabilities[np.abs(law.positions - m_star) > 0.05]))
            )
        assert outside[0] > outside[1] > outside[2]
        assert outside[2] < 0.01


class TestCoexistenceMasses:
    def test_masses_partition_unit_probability(self, gamma_at_2):
        m1, m2 = coexistence_masses(1000, gamma_at_2)
        assert m1 + m2 == 1.0

    def test_masses_converge_to_mixture_weights(self, gamma_at_2):
        errs = [
            abs(coexistence_masses(n, gamma_at_2)[0] - gamma_at_2.rho1)
            for n in (1000, 10000, 100000)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05

    def test_monomer_basin_dominates(self, gamma_at_2):
        m1, m2 = coexistence_masses(10**4, gamma_at_2)
        assert m1 < m2

    def test_mixture_ks_on_curve_vanishes_with_N(self, gamma_at_2):
        mixture = TwoPointMixture(
            gamma_at_2.rho1, gamma_at_2.m1, gamma_at_2.rho2, gamma_at_2.m2
        )
        table = convergence_study(
            ModelParams(gamma_at_2.h, gamma_at_2.J), 1.0, 0.0, mixture, (1000, 10000)
        )
        assert table.rows[1].ks < table.rows[0].ks

    def test_clt_breakdown_on_curve(self, gamma_at_2):
        # the sqrt(N)-scaled law stays bimodal: no single Gaussian approximates it
        params = ModelParams(gamma_at_2.h, gamma_at_2.J)
        center = gamma_at_2.rho1 * gamma_at_2.m1 + gamma_at_2.rho2 * gamma_at_2.m2
        for n in (1000, 10000):
            law = scaled_law(n, params, 0.5, center)
            moment_matched = Gaussian(law.mean(), law.variance())
            assert ks_distance(law, moment_matched) > 0.2

    def test_rejects_non_coexistence_point(self):
        fake = phase.GammaPoint(J=0.5, h=0.2, m1=0.1, m2=0.9, lambda1=-1.0,
                                lambda2=-1.0, rho1=0.5, rho2=0.5)
        with pytest.raises(ValueError):
            coexistence_masses(100, fake)
