"""Tests for the Gaussian representation and the extended Laplace method."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from imd.exact import log_partition_pure
from imd.laplace import (
    IntegrandFamily,
    LaplaceConditionError,
    gaussian_rep_log_partition,
    laplace_approx,
    prefactor_ratio,
    psi_family,
    pure_asymptote_ratio,
    quad_log_integral,
)
from imd.quadrature import IntegrationDomainError
from imd.thermo import ModelParams, g, p0

from oracles import fixed_point_density


def gaussian_family(width=3.0):
    return IntegrandFamily(log_abs=lambda n, x: -x * x / 2.0, dlog=lambda n, x: -x,
                           d2log=lambda n, x: np.full_like(x, -1.0), window=(-width, width))


class TestQuadLogIntegral:
    def test_gaussian_scaling(self):
        val = quad_log_integral(gaussian_family(), 10)
        assert abs(val - 0.5 * math.log(2.0 * math.pi / 10.0)) < 1e-12

    def test_two_site_partition_by_gaussian_moments(self):
        # sqrt(N/2pi) * integral Psi^2 = (1/sqrt(pi)) integral (x+1)^2 e^{-x^2} = 3/2
        val = quad_log_integral(psi_family(0.0), 2)
        assert abs(0.5 * math.log(2.0 / (2.0 * math.pi)) + val - math.log(1.5)) < 1e-12

    def test_four_site_partition(self):
        val = 0.5 * math.log(4.0 / (2.0 * math.pi)) + quad_log_integral(psi_family(0.0), 4)
        assert abs(math.exp(val) - 2.6875) < 1e-9 * 2.6875

    def test_matches_scipy_on_signed_integrand(self):
        # (x + 0.1)^3 e^{-3 x^2 / 2}: genuinely signed, both lobes comparable
        def integrand(x):
            return (x + 0.1) ** 3 * math.exp(-1.5 * x * x)

        ref = quad(integrand, -10, 10, epsabs=1e-14)[0]
        val = quad_log_integral(psi_family(math.log(0.1)), 3)
        assert ref > 0.0
        assert abs(math.exp(val) - ref) < 1e-13

    def test_cancelling_lobes_are_domain_error(self):
        # at a = e^-30 the lobes of the odd integrand cancel to about 1e-13
        # of their sum, far below what the lobes' quadrature resolves
        with pytest.raises(IntegrationDomainError, match="cancel"):
            quad_log_integral(psi_family(-30.0), 1)


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


class TestLaplaceApprox:
    def test_exact_for_gaussian_family(self):
        for n in (3, 17, 200):
            res = laplace_approx(gaussian_family(), n)
            assert abs(res.log_ratio) < 1e-12
            assert abs(res.maximizer) < 1e-8
            assert res.second_derivative == pytest.approx(-1.0, abs=1e-9)

    def test_ratio_shrinks_along_monomer_family(self):
        ratios = [abs(laplace_approx(psi_family(0.0), n).log_ratio) for n in (10, 100, 1000)]
        assert ratios[0] > ratios[1] > ratios[2]

    @pytest.mark.parametrize("h", [-1.0, 0.0, 0.8])
    def test_maximizer_identities(self, h):
        res = laplace_approx(psi_family(h), 50)
        xhat = res.maximizer
        a = math.exp(h)
        assert abs(xhat * xhat + a * xhat - 1.0) < 1e-12
        assert abs(xhat - math.exp(-h) * g(h)) < 1e-12
        fam = psi_family(h)
        peak = float(fam.log_abs(50, np.asarray([xhat]))[0])
        assert abs(peak - p0(h)) < 1e-12
        assert abs(res.second_derivative - (g(h) - 2.0)) < 1e-10

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_size_is_domain_error(self, n):
        fam = psi_family(0.0)
        for route in (laplace_approx, quad_log_integral):
            with pytest.raises(ValueError, match=f"system size must be positive, got N={n}"):
                route(fam, n)

    def test_boundary_maximizer_is_rejected(self):
        monotone = IntegrandFamily(log_abs=lambda n, x: x, dlog=lambda n, x: np.ones_like(x),
                                   d2log=lambda n, x: np.zeros_like(x), window=(0.0, 1.0))
        with pytest.raises(LaplaceConditionError):
            laplace_approx(monotone, 5)

    def test_flat_curvature_is_rejected(self):
        # maximizer interior but curvature >= 0 in the window center
        flat = IntegrandFamily(
            log_abs=lambda n, x: -((x - 0.5) ** 4), dlog=lambda n, x: -4.0 * (x - 0.5) ** 3,
            d2log=lambda n, x: -12.0 * (x - 0.5) ** 2, window=(0.0, 1.0)
        )
        with pytest.raises(LaplaceConditionError):
            laplace_approx(flat, 5)


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


class TestPrefactorRatio:
    def test_smoothed_shape_prefactor_at_equilibrium(self):
        params = ModelParams(0.2, 0.5)
        m_star = fixed_point_density(0.2, 0.5)
        dev = abs(prefactor_ratio(1000, m_star, params) - 1.0)
        assert dev < 0.02
        assert dev < abs(prefactor_ratio(100, m_star, params) - 1.0)
