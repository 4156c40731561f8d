"""Tests for the log-scale quadrature engine."""

import math

import numpy as np
import pytest

from imd.quadrature import (
    IntegrationDomainError,
    log_integral,
    peaked_components,
)


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


class TestWindowTools:
    def test_components_detect_non_decay(self):
        # a flat integrand fills every expanded window up to its edges
        with pytest.raises(IntegrationDomainError):
            peaked_components(lambda x: np.zeros_like(x), -1.0, 1.0, drop=10.0)

    def test_components_reject_unresolvable_peak(self):
        # at 1e300 a drop of 80 is below one ulp, so no point is above the cut
        with pytest.raises(IntegrationDomainError, match="super-level set is empty"):
            peaked_components(lambda x: 1e300 - x * x, -1.0, 1.0)

    def test_components_of_bimodal_integrand(self):
        # two sharp wells separated by a deep barrier
        def log_f(x):
            return np.maximum(-200.0 * (x - 1.0) ** 2, -200.0 * (x + 1.0) ** 2)

        pieces = peaked_components(log_f, -2.0, 2.0, drop=60.0)
        assert len(pieces) == 2
        (a1, b1), (a2, b2) = pieces
        assert a1 < -1.0 < b1 < a2 < 1.0 < b2
        total = math.exp(
            np.logaddexp(log_integral(log_f, a1, b1), log_integral(log_f, a2, b2))
        )
        assert abs(total - 2.0 * math.sqrt(math.pi / 200.0)) < 1e-12

    def test_components_expand_beyond_initial_window(self):
        pieces = peaked_components(lambda x: -0.5 * (x - 30.0) ** 2, -1.0, 1.0, drop=40.0)
        assert len(pieces) == 1
        lo, hi = pieces[0]
        assert lo < 30.0 - 8.0 and hi > 30.0 + 8.0
