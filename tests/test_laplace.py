"""Tests for the Gaussian representation of Z0_N and its Laplace asymptote."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

from imd import laplace
from imd.exact import log_partition_pure
from imd.laplace import (
    gaussian_rep_log_partition,
    laplace_approx,
    pure_asymptote_ratio,
    quad_log_integral,
)
from imd.quadrature import TAIL_DROP, IntegrationDomainError
from imd.thermo import g, p0

from oracles import log_pure_integral_mp


class TestQuadLogIntegral:
    def test_two_site_partition_by_gaussian_moments(self):
        # sqrt(N/2pi) * integral Psi^2 = (1/sqrt(pi)) integral (x+1)^2 e^{-x^2} = 3/2
        val = quad_log_integral(0.0, 2)
        assert abs(0.5 * math.log(2.0 / (2.0 * math.pi)) + val - math.log(1.5)) < 1e-12

    def test_four_site_partition(self):
        val = 0.5 * math.log(4.0 / (2.0 * math.pi)) + quad_log_integral(0.0, 4)
        assert abs(math.exp(val) - 2.6875) < 1e-9 * 2.6875

    def test_matches_scipy_on_signed_integrand(self):
        # (x + 0.1)^3 e^{-3 x^2 / 2}: genuinely signed, both lobes comparable
        def integrand(x):
            return (x + 0.1) ** 3 * math.exp(-1.5 * x * x)

        ref = quad(integrand, -10, 10, epsabs=1e-14)[0]
        val = quad_log_integral(math.log(0.1), 3)
        assert ref > 0.0
        assert abs(math.exp(val) - ref) < 1e-13

    def test_cancelling_lobes_are_domain_error(self):
        # at a = e^-30 the lobes of the odd integrand cancel to about 1e-13
        # of their sum, far below what the lobes' quadrature resolves
        with pytest.raises(IntegrationDomainError, match="cancel"):
            quad_log_integral(-30.0, 1)


    def test_sweep_against_the_exact_sum(self):
        # every lobe on its closed-form domain: within 2e-15 relative (2e-15
        # absolute for |log I| < 1) of the 50-digit sum over matchings; the
        # largest miss, 6.7e-16 relative, is under one ulp of log I
        for h in (-3.0, -1.0, 0.0, 1.0, 2.5):
            for n in (1, 2, 3, 4, 5, 10, 11, 50, 99, 100, 101, 500, 1000, 1001):
                ref = log_pure_integral_mp(n, h)
                err = float(abs(quad_log_integral(h, n) - ref))
                assert err <= 2e-15 * max(1.0, float(abs(ref))), (h, n, err)


class TestIntegrationPieces:
    """The closed-form lobe domains hold every point of Psi^n within
    TAIL_DROP of its lobe's peak, and the left lobe's drop below the right
    one is the closed-form gap; checked at 30 digits against the roots of
    x^2 + a x - 1 for the double a."""

    @staticmethod
    def n_log_psi(x, a, n):
        with mpmath.workdps(30):
            x, a = mpmath.mpf(x), mpmath.mpf(a)
            return n * (mpmath.log(abs(x + a)) - x * x / 2)

    @given(st.floats(-30.0, 30.0), st.integers(1, 10**6))
    # both lobes, both pieces clipped at the cut, for odd and even n, or not
    @example(-3.0, 1)
    @example(-1.0, 50)
    @example(-30.0, 10**6)
    @example(-8.0, 1001)
    # the right lobe alone, its piece clipped at the cut or not
    @example(2.52, 1)
    @example(30.0, 1)
    def test_domains_are_sound(self, h, n):
        a, xhat = laplace._maximizer(h)
        pieces = laplace._integration_pieces(a, xhat, n)
        with mpmath.workdps(30):
            root = 2 / (mpmath.mpf(a) + mpmath.sqrt(mpmath.mpf(a) ** 2 + 4))
            roots = [root, -1 / root]
        tops = [self.n_log_psi(x, a, n) for x in roots]
        gap = tops[0] - tops[1]
        assert len(pieces) in (1, 2)
        for (lo, hi, sign, peak, drop), root, top, side in zip(pieces, roots, tops, (1, -1)):
            # xhat within 2^-52, -1/xhat half an ulp more
            assert abs(peak - root) <= 4e-16 * abs(root)
            assert lo < peak < hi and min(side * (lo + a), side * (hi + a)) >= 0.0
            # the ends not clipped at the cut, TAIL_DROP below the peak up
            # to the rounding of the end point itself
            for end in (x for x in (lo, hi) if x != -a):
                assert top - self.n_log_psi(end, a, n) >= TAIL_DROP - 1e-9, (end, lo, hi)
            assert sign == (1.0 if side > 0 else (-1.0) ** n)
            assert abs(drop - (0 if side > 0 else gap)) <= 1e-14 * gap
        if len(pieces) == 1:
            # the left lobe is left out only TAIL_DROP below the right one
            assert gap > TAIL_DROP


class TestGaussianRepresentation:
    @pytest.mark.parametrize("N", [2, 4, 10, 50, 100, 101])
    @pytest.mark.parametrize("h", [-1.0, 0.0, 1.0])
    def test_matches_combinatorial_partition(self, N, h):
        diff = abs(gaussian_rep_log_partition(N, h) - log_partition_pure(N, h))
        assert diff < 1e-8, f"N={N}, h={h}: diff={diff:.2e}"

    def test_two_sites_closed_form(self):
        assert abs(gaussian_rep_log_partition(2, 0.0) - math.log(1.5)) < 1e-12

    @pytest.mark.parametrize("N", [100, 101, 1000, 1001])
    @pytest.mark.parametrize("h", [-8.0, -5.0])
    def test_left_lobe_is_counted(self, N, h):
        # the left lobe, below x = -e^h, carries weight comparable to the
        # right one here; a domain grown from the right lobe alone misses it
        diff = abs(gaussian_rep_log_partition(N, h) - log_partition_pure(N, h))
        assert diff < 1e-8, f"N={N}, h={h}: diff={diff:.2e}"

    def test_odd_N_sign_handling(self):
        # for odd N the integrand is negative left of x = -e^h; the signed
        # accumulation must not corrupt the dominant positive contribution
        diff = abs(gaussian_rep_log_partition(101, 0.0) - log_partition_pure(101, 0.0))
        assert diff < 1e-8


def check_maximizer(h):
    """laplace_approx's maximizer, peak and curvature at field h against the
    50-digit root, p0(h) and g(h) - 2."""
    res = laplace_approx(h, 50)
    xhat = res.maximizer
    a = math.exp(h)
    assert abs(xhat * xhat + a * xhat - 1.0) < 1e-12
    # the positive root of x^2 + a x - 1 to 50 digits, for the double a;
    # relative, since xhat < 1e-12 from h of about 28 on
    with mpmath.workdps(50):
        ref = 2 / (mpmath.mpf(a) + mpmath.sqrt(mpmath.mpf(a) ** 2 + 4))
        assert abs((xhat - ref) / ref) <= 2.0**-52, h
    peak = math.log(xhat + a) - xhat * xhat / 2.0
    assert abs(peak - p0(h)) < 1e-12, h
    assert abs(res.second_derivative - (g(h) - 2.0)) < 1e-10, h


class TestLaplaceApprox:
    def test_ratio_shrinks_along_monomer_family(self):
        ratios = [abs(laplace_approx(0.0, n).log_ratio) for n in (10, 100, 1000)]
        assert ratios[0] > ratios[1] > ratios[2]

    @pytest.mark.parametrize("h", [-30.0, -5.0, -1.0, 0.0, 0.8, 5.0, 25.0, 30.0, 300.0,
                                   695.25])
    def test_maximizer_identities(self, h):
        check_maximizer(h)

    def test_maximizer_sweep(self):
        # wherever xhat is a normal double: h from -log(DBL_MAX) to about
        # 708.3; the closed form alone is 1.04 * 2^-52 off near h = -9.68,
        # its Newton step brings it within the bound
        for h in np.random.default_rng(22).uniform(-709.7, 708.3, 200):
            check_maximizer(float(h))

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_size_is_domain_error(self, n):
        for route in (laplace_approx, quad_log_integral):
            with pytest.raises(ValueError, match=f"system size must be positive, got N={n}"):
                route(0.0, n)

    @pytest.mark.parametrize("h", [709.79, -709.79, 1e300])
    def test_field_outside_the_doubles_is_domain_error(self, h):
        for route in (laplace_approx, quad_log_integral):
            with pytest.raises(ValueError, match=re.escape(f"field h={h!r} is outside")):
                route(h, 10)


class TestPureAsymptoteRatio:
    @pytest.mark.parametrize("u", [-1.0, 0.0, 1.0])
    def test_decreasing_deviation(self, u):
        devs = [abs(pure_asymptote_ratio(N, u) - 1.0) for N in (100, 1000, 10000)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[1] < 0.02

    def test_shifted_argument_scaling(self):
        devs = [
            abs(pure_asymptote_ratio(N, 1.0, t=1.0, eta=0.5) - 1.0)
            for N in (100, 1000, 10000)
        ]
        assert devs[0] > devs[1] > devs[2]

    @pytest.mark.parametrize("u", [-1.0, 0.0, 1.0])
    def test_error_is_first_order_in_inverse_N(self, u):
        scaled = [
            N * abs(math.log(pure_asymptote_ratio(N, u))) for N in (100, 1000, 10000)
        ]
        assert max(scaled) < 1.0  # bounded: empirical O(1/N) error
