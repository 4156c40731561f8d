"""Tests for the phase diagram: consistency equation, classification, the
coexistence curve and its limit-law parameters."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from imd.phase import (
    CriticalPoint,
    GammaPoint,
    NearDegenerateError,
    classify,
    clt_variance,
    clt_variance_reduced,
    find_critical_point,
    gamma_points_to_csv,
    mixture_ratio_closed_form,
    mixture_weights,
    phase_weight,
    solve_consistency,
    trace_gamma,
)
from imd.thermo import ModelParams, g, g_derivative, tilde_p

from oracles import fixed_point_density

M_C = 2.0 - math.sqrt(2.0)
J_C = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
H_C = 0.5 * math.log(2.0 * math.sqrt(2.0) - 2.0) - 0.25
LAMBDA_C = -(24.0 + 17.0 * math.sqrt(2.0)) / 2.0


@pytest.fixture(scope="module")
def critical():
    return find_critical_point()


@pytest.fixture(scope="module")
def gamma_at_2():
    return trace_gamma([2.0])[0]


class TestSolveConsistency:
    def test_no_coupling_reduces_to_pure_density(self):
        pts = solve_consistency(ModelParams(0.0, 0.0))
        assert len(pts) == 1
        assert abs(pts[0].m - g(0.0)) < 1e-15

    def test_unique_solution_matches_fixed_point_oracle(self):
        pts = solve_consistency(ModelParams(0.2, 0.5))
        assert len(pts) == 1
        assert abs(pts[0].m - fixed_point_density(0.2, 0.5)) < 1e-12

    def test_three_solutions_on_coexistence_curve(self, gamma_at_2):
        pts = solve_consistency(ModelParams(gamma_at_2.h, 2.0))
        assert len(pts) == 3
        assert pts[0].is_maximum and pts[2].is_maximum
        assert not pts[1].is_maximum
        assert pts[1].second_derivative > 0.0

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_residual_tolerance(self, h, J):
        params = ModelParams(h, J)
        for p in solve_consistency(params):
            residual = p.m - g(params.effective_field(p.m))
            assert abs(residual) < 1e-12

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=1e-3, max_value=4.0),
    )
    def test_curvature_identity_at_stationary_points(self, h, J):
        # ptilde'' + 2J = (2J)^2 g'((2m-1)J + h) at every consistency solution
        params = ModelParams(h, J)
        for p in solve_consistency(params):
            rhs = (2.0 * J) ** 2 * g_derivative(params.effective_field(p.m), 1)
            assert abs(p.second_derivative + 2.0 * J - rhs) < 1e-10


class TestClassify:
    def test_uniqueness_without_coupling(self):
        report = classify(ModelParams(0.0, 0.0))
        assert report.kind == "unique"
        assert abs(report.maximizers[0] - 0.618034) < 1e-6

    def test_critical_point_classification(self, critical):
        report = classify(ModelParams(critical.h_c, critical.J_c))
        assert report.kind == "critical"
        assert abs(report.maximizers[0] - M_C) < 1e-12
        sp = report.stationary_points[0]
        assert sp.order == 4
        assert sp.fourth_derivative < 0.0
        assert abs(sp.third_derivative) < 1e-8

    def test_coexistence_classification(self, gamma_at_2):
        report = classify(ModelParams(gamma_at_2.h, 2.0))
        assert report.kind == "coexistence"
        m1, m2 = report.maximizers
        assert m1 < M_C < m2

    def test_near_degenerate_band_raises(self, gamma_at_2):
        with pytest.raises(NearDegenerateError) as err:
            classify(ModelParams(gamma_at_2.h + 1e-10, 2.0))
        assert set(err.value.candidates) == {"unique", "coexistence"}

    def test_near_critical_band_raises(self, critical):
        with pytest.raises(NearDegenerateError) as err:
            classify(ModelParams(critical.h_c + 3e-12, critical.J_c))
        assert set(err.value.candidates) == {"unique", "critical"}

    def test_tiny_coupling_is_not_critical(self):
        # lambda ~ -2J ~ -2e-9 is numerically tiny but not a critical point
        report = classify(ModelParams(0.0, 1e-9))
        assert report.kind == "unique"


    def test_strong_coupling_without_warning(self):
        # fields (2m-1)J + h span +-1000, far past where e^h overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(ModelParams(0.5, 1000.0))
        assert report.kind == "unique"


class TestCriticalPoint:
    def test_closed_form_values(self, critical):
        assert abs(critical.m_c - M_C) < 1e-12
        assert abs(critical.J_c - J_C) < 1e-12
        assert abs(critical.h_c - H_C) < 1e-12
        assert abs(critical.lambda_c - LAMBDA_C) < 1e-10

    def test_merge_conditions(self, critical):
        x_c = (2.0 * critical.m_c - 1.0) * critical.J_c + critical.h_c
        assert abs(2.0 * critical.J_c * g_derivative(x_c, 1) - 1.0) < 1e-10
        assert abs(g_derivative(x_c, 2)) < 1e-10
        assert critical.lambda_c < 0.0

    def test_consistency_at_critical_density(self, critical):
        x_c = (2.0 * critical.m_c - 1.0) * critical.J_c + critical.h_c
        assert abs(g(x_c) - critical.m_c) < 1e-12


class TestTraceGamma:
    def test_equal_height_residual(self, gamma_at_2):
        params = ModelParams(gamma_at_2.h, 2.0)
        gap = tilde_p(gamma_at_2.m1, params) - tilde_p(gamma_at_2.m2, params)
        assert abs(gap) < 1e-12

    def test_reference_location(self, gamma_at_2):
        # regression pin for h = gamma(2), located by equal-height bisection
        assert abs(gamma_at_2.h - (-0.4128173930886404)) < 1e-10
        assert gamma_at_2.m1 < M_C < gamma_at_2.m2

    def test_curve_endpoint_merges_into_critical_density(self, critical):
        J_values = [critical.J_c + d for d in (0.1, 0.05, 0.02, 0.01)]
        points = trace_gamma(J_values)
        gaps1 = [abs(p.m1 - M_C) for p in points]
        gaps2 = [abs(p.m2 - M_C) for p in points]
        assert gaps1 == sorted(gaps1, reverse=True)
        assert gaps2 == sorted(gaps2, reverse=True)

    def test_below_critical_coupling_rejected(self):
        with pytest.raises(ValueError, match="critical coupling"):
            trace_gamma([1.0])

    def test_input_order_preserved(self):
        points = trace_gamma([3.0, 2.0])
        assert points[0].J == 3.0 and points[1].J == 2.0

    def test_invariants_along_curve(self):
        for p in trace_gamma([1.6, 2.5, 8.0]):
            assert p.m1 < p.m2
            assert p.lambda1 < 0.0 and p.lambda2 < 0.0
            assert p.rho1 > 0.0 and p.rho2 > 0.0
            assert abs(p.rho1 + p.rho2 - 1.0) < 1e-15

    def test_csv_schema(self, gamma_at_2):
        buf = io.StringIO()
        gamma_points_to_csv([gamma_at_2], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "J,h,m1,m2,lambda1,lambda2,rho1,rho2"
        assert len(lines) == 2


class TestMixtureWeights:
    def test_symmetric_inputs_split_evenly(self):
        b = phase_weight(-1.3, 0.4)
        assert b == phase_weight(-1.3, 0.4)
        rho1 = b / (b + b)
        assert rho1 == 0.5

    def test_weights_match_trace(self, gamma_at_2):
        rho1, rho2 = mixture_weights(gamma_at_2)
        assert abs(rho1 - gamma_at_2.rho1) < 1e-15
        assert abs(rho2 - gamma_at_2.rho2) < 1e-15

    def test_dimer_phase_is_lighter(self, gamma_at_2):
        assert gamma_at_2.rho1 < gamma_at_2.rho2

    def test_ratio_matches_closed_form(self, gamma_at_2):
        ratio = gamma_at_2.rho1 / gamma_at_2.rho2
        assert abs(ratio - mixture_ratio_closed_form(gamma_at_2)) < 1e-10

    def test_strong_coupling_limit_of_ratio(self):
        point = trace_gamma([50.0])[0]
        assert abs(point.rho1 / point.rho2 - 1.0 / math.sqrt(2.0)) < 0.02

    def test_non_coexistence_input_rejected(self):
        fake = GammaPoint(J=2.0, h=0.3, m1=0.2, m2=0.9, lambda1=-1.0, lambda2=-1.0,
                          rho1=0.5, rho2=0.5)
        with pytest.raises(ValueError):
            mixture_weights(fake)

    def test_phase_weight_requires_negative_curvature(self):
        with pytest.raises(ValueError):
            phase_weight(0.1, 0.5)


class TestCltVariance:
    def test_reference_point_both_forms(self):
        params = ModelParams(0.2, 0.5)
        direct = clt_variance(params)
        reduced = clt_variance_reduced(params)
        assert abs(direct - reduced) < 1e-12
        assert abs(direct - 0.4061) < 2e-4  # frozen: 0.40621211182533856
        assert abs(direct - 0.40621211182533856) < 1e-12
        assert direct > 0.0

    def test_degenerates_to_pure_derivative_at_zero_coupling(self):
        assert clt_variance(ModelParams(0.7, 0.0)) == g_derivative(0.7, 1)
        assert abs(clt_variance(ModelParams(0.7, 1e-8)) - g_derivative(0.7, 1)) < 1e-6

    def test_diverges_approaching_critical_point(self):
        cp = find_critical_point()
        vals = [clt_variance(ModelParams(cp.h_c, cp.J_c - d)) for d in (0.1, 0.01, 0.001)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 50.0

    def test_rejected_on_coexistence_and_critical(self, gamma_at_2, critical):
        with pytest.raises(ValueError, match="does not hold"):
            clt_variance(ModelParams(gamma_at_2.h, gamma_at_2.J))
        with pytest.raises(ValueError, match="does not hold"):
            clt_variance(ModelParams(critical.h_c, critical.J_c))

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.2),
    )
    def test_positive_in_uniqueness_region(self, h, J):
        # J stays below J_c so every draw is in the uniqueness region
        var = clt_variance(ModelParams(h, J))
        assert var > 0.0
