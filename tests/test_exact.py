"""Tests for the exact finite-N Gibbs statistics."""

import io
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imd.exact import (
    SmoothedDensity,
    log_partition,
    log_partition_pure,
    matching_count_log,
    mean_density,
    mgf,
    mgf_direct,
    monomer_law,
    pressure,
    pure_pressure_derivative,
)
from imd.phase import classify
from imd.thermo import ModelParams, g, g_derivative, p0

from oracles import brute_monomer_distribution, brute_partition, dimer_count_histogram

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestMatchingCounts:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_against_explicit_enumeration(self, n):
        hist = dimer_count_histogram(n)
        for k, count in hist.items():
            assert abs(matching_count_log(n, k) - math.log(count)) < 1e-12, (
                f"N={n}, k={k}: expected {count} matchings"
            )

    def test_frozen_small_cases(self):
        assert abs(matching_count_log(4, 1) - math.log(6)) < 1e-12
        assert abs(matching_count_log(4, 2) - math.log(3)) < 1e-12
        assert abs(matching_count_log(6, 3) - math.log(15)) < 1e-12

    @given(st.integers(min_value=1, max_value=400))
    def test_empty_configuration(self, n):
        assert matching_count_log(n, 0) == 0.0

    @given(st.integers(min_value=2, max_value=300))
    def test_against_exact_integer_arithmetic(self, n):
        k = n // 2
        exact_count = math.factorial(n) // (math.factorial(n - 2 * k) * 2**k * math.factorial(k))
        ref = math.log(exact_count)
        rel = abs(matching_count_log(n, k) - ref) / max(ref, 1.0)
        assert rel < 1e-13

    def test_large_N_against_big_integers(self):
        n, k = 10**5, 2 * 10**4
        exact_count = math.factorial(n) // (math.factorial(n - 2 * k) * 2**k * math.factorial(k))
        rel = abs(matching_count_log(n, k) - math.log(exact_count)) / math.log(exact_count)
        assert rel < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            matching_count_log(4, 3)
        with pytest.raises(ValueError):
            matching_count_log(4, -1)


class TestMonomerLaw:
    def test_two_sites_no_interaction(self):
        law = monomer_law(2, ModelParams(0.0, 0.0))
        assert abs(math.exp(law.log_Z) - 1.5) < 1e-14
        assert np.allclose(law.probabilities, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)
        assert list(law.s_values) == [2, 0]

    def test_four_sites_no_interaction(self):
        law = monomer_law(4, ModelParams(0.0, 0.0))
        assert abs(math.exp(law.log_Z) - 2.6875) < 1e-14
        assert np.allclose(
            law.probabilities, [16.0 / 43.0, 24.0 / 43.0, 3.0 / 43.0], atol=1e-14
        )

    def test_four_sites_with_coupling(self):
        law = monomer_law(4, ModelParams(0.0, 1.0))
        expected_z = 1.0 + 1.5 * math.exp(-1.0) + 0.1875
        assert abs(math.exp(law.log_Z) - expected_z) < 1e-13
        expected_weights = np.log([1.0, 1.5 * math.exp(-1.0), 0.1875])
        assert np.allclose(law.log_weights, expected_weights, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_against_configuration_enumeration(self, n):
        ref = brute_monomer_distribution(n, 0.5, 1.0)
        law = monomer_law(n, ModelParams(0.5, 1.0))
        for s, p in zip(law.s_values, law.probabilities):
            assert abs(p - ref[int(s)]) < 1e-13

    @given(
        st.integers(min_value=1, max_value=2000),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_normalization_and_parity(self, n, h, J):
        law = monomer_law(n, ModelParams(h, J))
        assert abs(law.probabilities.sum() - 1.0) < 1e-12
        assert np.all(law.probabilities >= 0.0)
        assert np.all((law.s_values % 2) == (n % 2))
        assert len(law.log_weights) == n // 2 + 1
        assert math.isfinite(law.log_Z)

    def test_normalization_at_width_1e5(self):
        law = monomer_law(10**5, ModelParams(0.0, 0.0))
        assert abs(law.probabilities.sum() - 1.0) < 1e-12

    def test_csv_round_trip_schema(self):
        law = monomer_law(6, ModelParams(0.3, 0.7))
        buf = io.StringIO()
        law.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,S,log_weight,probability"
        assert len(lines) == 1 + 4
        total = sum(float(line.split(",")[3]) for line in lines[1:])
        assert abs(total - 1.0) < 1e-12


class TestLogPartition:
    def test_two_sites(self):
        assert abs(log_partition(2, ModelParams(0.0, 0.0)) - math.log(1.5)) < 1e-14

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("h", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("J", [0.0, 1.0, 2.0])
    def test_brute_force_oracle(self, n, h, J):
        ref = math.log(brute_partition(n, h, J))
        assert abs(log_partition(n, ModelParams(h, J)) - ref) < 1e-12

    def test_pressure_converges_to_limit(self):
        assert abs(pressure(10**4, ModelParams(0.0, 0.0)) - p0(0.0)) < 2e-3

    def test_all_monomer_dominance_at_large_field(self):
        h = 12.0
        assert abs(pressure(100, ModelParams(h, 0.0)) - h) < math.exp(-h)

    def test_pure_partition_vectorized(self):
        fields = np.array([-1.0, 0.0, 2.0])
        vals = log_partition_pure(50, fields)
        for f, v in zip(fields, vals):
            assert abs(v - log_partition(50, ModelParams(float(f), 0.0))) < 1e-12


class TestMgf:
    @pytest.mark.parametrize("J", [0.0, 1.0])
    def test_unity_at_zero(self, J):
        assert mgf(100, ModelParams(0.3, J), 1.0, 5.0, 0.0) == 1.0

    @pytest.mark.parametrize("h", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("eta,u,t", [(1.0, 0.0, 1.0), (0.5, 61.0, -0.7), (1.0, 0.0, 2.5)])
    def test_ratio_and_direct_routes_agree(self, h, eta, u, t):
        params = ModelParams(h, 0.0)
        a = mgf(100, params, eta, u, t)
        b = mgf_direct(100, params, eta, u, t)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_density_mgf_approaches_lln_limit(self):
        val = mgf(10**4, ModelParams(0.0, 0.0), 1.0, 0.0, 1.0)
        assert abs(val - math.exp(g(0.0))) < 1e-2

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_underflowing_atoms_at_large_n(self, eta):
        # most of the 5001 atoms underflow to probability 0 at N = 1e4
        N, params = 10**4, ModelParams(0.0, 1.0)
        law = monomer_law(N, params)
        u, t = N * g(0.0), 0.5 * N**eta / math.sqrt(N)
        linear = float(np.dot(law.probabilities, np.exp(t * (law.s_values - u) / N**eta)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mgf(N, params, eta, u, 0.0) == 1.0
            val = mgf(N, params, eta, u, t)
        assert abs(val / linear - 1.0) < 1e-10

    def test_overflow_is_reported(self):
        with pytest.raises(OverflowError):
            mgf(100, ModelParams(0.0, 0.0), 0.0, 0.0, 10.0)


class TestMeanDensity:
    def test_small_systems(self):
        assert abs(mean_density(2, ModelParams(0.0, 0.0)) - 2.0 / 3.0) < 1e-14
        assert abs(mean_density(4, ModelParams(0.0, 0.0)) - 28.0 / 43.0) < 1e-14

    def test_lln_limit(self):
        assert abs(mean_density(10**4, ModelParams(0.0, 0.0)) - g(0.0)) < 5e-3


class TestPurePressureDerivatives:
    def test_order_zero_is_pressure(self):
        assert pure_pressure_derivative(50, 0.3, 0) == pressure(50, ModelParams(0.3, 0.0))

    def test_first_two_orders_approach_limits(self):
        assert abs(pure_pressure_derivative(1000, 0.0, 1) - g(0.0)) < 1e-2
        assert abs(pure_pressure_derivative(1000, 0.0, 2) - g_derivative(0.0, 1)) < 2e-2

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("h", [-0.5, 0.0, 1.0])
    def test_cumulants_match_finite_differences(self, k, h):
        n, step = 200, 1e-3
        if k == 1:
            fd = (
                pure_pressure_derivative(n, h + step, 0)
                - pure_pressure_derivative(n, h - step, 0)
            ) / (2.0 * step)
        else:
            fd = (
                pure_pressure_derivative(n, h + step, 0)
                - 2.0 * pure_pressure_derivative(n, h, 0)
                + pure_pressure_derivative(n, h - step, 0)
            ) / step**2
        assert abs(pure_pressure_derivative(n, h, k) - fd) < 1e-5

    @pytest.mark.parametrize("k", [3, 4])
    def test_higher_cumulants_match_finite_differences(self, k):
        n, h, step = 100, 0.2, 1e-2
        lower = [
            pure_pressure_derivative(n, h - step, k - 1),
            pure_pressure_derivative(n, h + step, k - 1),
        ]
        fd = (lower[1] - lower[0]) / (2.0 * step)
        assert abs(pure_pressure_derivative(n, h, k) - fd) < 1e-4


class TestSmoothedDensity:
    def test_two_site_closed_form(self):
        sd = SmoothedDensity(2, ModelParams(0.0, 1.0), eta=0.0, u=0.0)

        def phi(x, var):
            return math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        for x in (-0.5, 0.0, 0.7, 1.0, 1.5):
            expected = (2.0 / 3.0) * phi(x - 1.0, 0.25) + (1.0 / 3.0) * phi(x, 0.25)
            assert abs(sd.mixture(x) - expected) < 1e-14
            assert abs(sd.analytic(x) - expected) < 1e-12

    def test_exact_identity_on_grid(self):
        sd = SmoothedDensity(4, ModelParams(0.0, 1.0), eta=0.0, u=0.0)
        xs = np.linspace(-1.0, 2.0, 201)
        rel = np.abs(sd.analytic(xs) / sd.mixture(xs) - 1.0)
        assert rel.max() < 1e-8

    @pytest.mark.parametrize("eta,u", [(0.0, 0.0), (0.25, 0.0), (0.5, 0.618)])
    def test_density_integrates_to_one(self, eta, u):
        sd = SmoothedDensity(20, ModelParams(0.0, 1.0), eta=eta, u=u)
        from scipy.integrate import quad

        sig = math.sqrt(sd.component_var)
        lo = float(sd.component_means.min() - 12 * sig)
        hi = float(sd.component_means.max() + 12 * sig)
        total = quad(sd.mixture, lo, hi, limit=300)[0]
        assert abs(total - 1.0) < 1e-8
        total_analytic = quad(sd.analytic, lo, hi, limit=300)[0]
        assert abs(total_analytic - 1.0) < 1e-8

    def test_full_partition_identity(self):
        # the analytic normalizer ties the smoothed shape to log Z_N itself:
        # log Z_N = log(C_N^-1) + (1-eta) log N + log sqrt(J/(pi N))
        for n, h, J in [(4, 0.0, 1.0), (20, -0.5, 2.0), (50, 0.3, 0.7)]:
            sd = SmoothedDensity(n, ModelParams(h, J), eta=0.0, u=0.0)
            lhs = log_partition(n, ModelParams(h, J))
            rhs = (
                -sd.log_normalizer
                + (1.0 - sd.eta) * math.log(n)
                + 0.5 * math.log(J / (math.pi * n))
            )
            assert abs(lhs - rhs) < 1e-10, f"N={n}, h={h}, J={J}"

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            SmoothedDensity(10, ModelParams(0.0, 0.0))

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_underflowing_atoms_at_large_n(self, eta):
        # most component weights underflow to 0 at N = 1e4; the mixture must
        # stay finite and warning-free and still match the analytic route
        params = ModelParams(0.0, 1.0)
        m_star = classify(params).maximizers[0]
        sd = SmoothedDensity(10**4, params, eta=eta, u=m_star)
        p, means = sd.law.probabilities, sd.component_means
        assert np.count_nonzero(p == 0.0) > 0
        mean = float(np.dot(p, means))
        spread = math.sqrt(float(np.dot(p, (means - mean) ** 2)) + sd.component_var)
        xs = np.linspace(mean - 6.0 * spread, mean + 6.0 * spread, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_m = sd.log_mixture(xs)
            log_a = sd.log_analytic(xs)
        assert np.all(np.isfinite(log_m))
        assert np.max(np.abs(np.expm1(log_a - log_m))) < 1e-8
