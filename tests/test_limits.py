"""Tests for scaled laws, limiting distributions and convergence metrics."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, gammainc

from imd import phase
from imd.limits import (
    Gaussian,
    PointMass,
    Quartic,
    ScaledLaw,
    StudyTable,
    TwoPointMixture,
    coexistence_masses,
    convergence_study,
    ks_distance,
    scaled_law,
)
from imd.thermo import ModelParams, g, g_derivative


@pytest.fixture(scope="module")
def critical():
    return phase.find_critical_point()


@pytest.fixture(scope="module")
def gamma_at_2():
    return phase.trace_gamma([2.0])[0]


def point_law(x0=0.0):
    return ScaledLaw(
        N=1, params=ModelParams(0.0, 0.0), eta=0.0, u=0.0,
        positions=np.array([x0]), probabilities=np.array([1.0]),
    )


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
        from imd.exact import monomer_law

        law = scaled_law(n, ModelParams(0.1, 0.3), eta, u)
        raw = monomer_law(n, ModelParams(0.1, 0.3))
        expected = (raw.s_values[::-1] - n * u) / n**eta
        assert np.array_equal(law.positions, expected)
        assert np.array_equal(law.probabilities, raw.probabilities[::-1])
        assert np.all(np.diff(law.positions) > 0)
        assert abs(law.probabilities.sum() - 1.0) < 1e-12

    def test_mean_matches_density_mean(self):
        from imd.exact import mean_density

        law = scaled_law(50, ModelParams(0.1, 0.5), 1.0, 0.0)
        assert abs(law.mean() - mean_density(50, ModelParams(0.1, 0.5))) < 1e-14

    def test_csv_schema(self):
        law = scaled_law(6, ModelParams(0.0, 0.0), 0.5, 0.6)
        buf = io.StringIO()
        law.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,S,position,probability"
        assert len(lines) == 5


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


class TestKsDistance:
    def test_identical_point_masses(self):
        assert ks_distance(point_law(0.0), PointMass(0.0)) == 0.0

    def test_disjoint_point_masses(self):
        assert ks_distance(point_law(0.0), PointMass(1.0)) == 1.0

    def test_mixture_against_itself_as_discrete_law(self):
        two = ScaledLaw(
            N=2, params=ModelParams(0.0, 0.0), eta=0.0, u=0.0,
            positions=np.array([0.2, 0.8]), probabilities=np.array([0.3, 0.7]),
        )
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
