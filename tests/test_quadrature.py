"""Tests for the log-scale quadrature engine."""

import math

import pytest

from imd.exact import SmoothedDensity
from imd.laplace import gaussian_rep_log_partition
from imd.phase import classify
from imd.quadrature import IntegrationDomainError, log_integral
from imd.thermo import ModelParams


class TestLogIntegral:
    def test_gaussian_closed_form(self):
        val = log_integral(lambda x: -x * x / 2.0, -12.0, 12.0)
        assert abs(val - 0.5 * math.log(2.0 * math.pi)) < 1e-13

    def test_huge_dynamic_range(self):
        # peak value e^5000 would overflow any linear-space accumulation
        val = log_integral(lambda x: 5000.0 - 1000.0 * x * x, -2.0, 2.0)
        expected = 5000.0 + 0.5 * math.log(math.pi / 1000.0)
        assert abs(val - expected) < 1e-11

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            log_integral(lambda x: -x * x, 1.0, 1.0)


class TestPanelSchedule:
    """The doubling runs 4, 8, ..., 65 536 panels: the Gaussian
    representation's lobes stop at the first pair, the smoothed density's
    one domain, [-delta, 1 + delta] in y around a peak of width about
    N^-1/2, at one more level per decade of N from 1e3, and a stalled
    integrand only after the last level."""

    @staticmethod
    def assert_first_pair(levels):
        # every integral ends at (4, 8): 3 * 4 * 24 = 288 nodes per piece
        assert levels and levels == [4, 8] * (len(levels) // 2)

    @pytest.mark.parametrize("n, levels", [(1000, [4, 8, 16]), (10000, [4, 8, 16, 32])],
                             ids=["1000", "10000"])
    def test_smoothed_normalizer_takes_its_measured_levels(self, panels, n, levels):
        # the benchmark's rescaled densities (eta = 0.5, u = m*) integrate to
        # one in x, which checks the closed-form normalizer's eta log N too;
        # their closed-form domain is about N^eta wide, so they take the
        # measured levels past the first pair
        params = ModelParams(0.0, 1.0)
        sd = SmoothedDensity(n, params, eta=0.5, u=classify(params).maximizers[0])
        assert abs(log_integral(sd.log_analytic, *sd.integration_domain())) < 1e-10
        assert panels == levels

    def test_gaussian_representation_converges_at_first_pair(self, panels):
        # criterion 3's 18 (N, h) cases, one or two lobes each
        for n in (2, 4, 10, 50, 100, 101):
            for h in (-1.0, 0.0, 1.0):
                gaussian_rep_log_partition(n, h)
        self.assert_first_pair(panels)

    def test_stalled_integrand_raises_after_the_last_level(self, panels):
        # a 1e-9 offset that flips with each level moves log I by 1e-9 at
        # every doubling, which the error message reports as a floor
        def log_f(x):
            return -0.5 * x * x + 1e-9 * (int(math.log2(len(x))) % 2)

        with pytest.raises(IntegrationDomainError,
                           match=r"last 3 doublings: 1\.0e-09, 1\.0e-09, 1\.0e-09$"):
            log_integral(log_f, -12.0, 12.0)
        assert panels == [4 * 2**k for k in range(15)]  # up to 65 536
