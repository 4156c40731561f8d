"""Tests for the phase diagram: consistency equation, classification, the
coexistence curve and its limit-law parameters."""

import hashlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from imd import phase
from imd.cli import EXIT_DOMAIN, EXIT_OK, main
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

# criterion 9's grid and its coexistence fields, float.hex-pinned
CRITERION_9_GRID = [1.5, 1.6, 1.8, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0,
                    40.0, 50.0]
CRITERION_9_H = [
    "-0x1.67b6654698f76p-2", "-0x1.77696f661f660p-2", "-0x1.91c2311980906p-2",
    "-0x1.a6b99a4a248adp-2", "-0x1.cad477cc92ce8p-2", "-0x1.e01b3cf0fb2b5p-2",
    "-0x1.f46c75ddefb1ap-2", "-0x1.fbc67a88fea3fp-2", "-0x1.ff6eae8c6e705p-2",
    "-0x1.fff8c7b36979ep-2", "-0x1.fffff38c746b6p-2", "-0x1.ffffffea85c22p-2",
    "-0x1.ffffffffffbfcp-2", "-0x1.0000000000004p-1", "-0x1.0000000000004p-1",
]
# sha256 of every field of those 15 points, float.hex, comma-joined
CRITERION_9_DIGEST = "f29a9e00ae8dddf4dd765cb9a175c41d2beaa58bed638ce1dd2f824504a0bddc"
# J - J_c = 1e-6 with h in the middle of the two-maxima window: the three
# stationary points share one cell of the 401-point grid
NARROW_WINDOW = (-0.34411337480261517, 1.4571077811865474)

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

    def test_three_roots_inside_one_grid_cell(self):
        # heights equal to 1.7e-16: coexistence by the classification's own rule
        report = classify(ModelParams(*NARROW_WINDOW))
        assert report.kind == "coexistence"
        m1, m2 = report.maximizers
        assert 0.58507 < m1 < 0.58508 and 0.58649 < m2 < 0.58650
        assert [p.is_maximum for p in report.stationary_points] == [True, False, True]

    def test_flat_cluster_above_j_c_is_near_degenerate(self, critical):
        # at J - J_c = 1e-9 all three stationary points pass as quartic maxima
        J = critical.J_c + 1e-9
        lo, hi = phase._spinodal_window(J)
        with pytest.raises(NearDegenerateError) as err:
            classify(ModelParams(0.5 * (lo + hi), J))
        assert set(err.value.candidates) == {"coexistence", "critical"}

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

    def test_gamma_2_keeps_its_bits(self, gamma_at_2):
        # the KS references of the benchmark were computed at these bits
        assert gamma_at_2.h.hex() == "-0x1.a6b99a4a248aap-2"

    def test_criterion_9_grid_keeps_its_bits(self):
        points = trace_gamma(CRITERION_9_GRID)
        assert [p.h.hex() for p in points] == CRITERION_9_H
        every = ",".join(v.hex() for p in points for v in vars(p).values())
        assert hashlib.sha256(every.encode()).hexdigest() == CRITERION_9_DIGEST

    def test_grid_walks_each_field_once(self, monkeypatch):
        # the probe, the bracket walk, the bisection and the returned point
        # share their walks: no (h, J) is walked twice (673 walks, 643
        # fields, when each step recomputed what the one before had found)
        walks = []
        maximum_roots = phase._maximum_roots

        def recorded(params, hints=()):
            walks.append((params.h, params.J))
            return maximum_roots(params, hints)

        monkeypatch.setattr(phase, "_maximum_roots", recorded)
        trace_gamma(CRITERION_9_GRID)
        assert walks and len(walks) == len(set(walks))

    def test_grid_within_its_evaluation_count(self, monkeypatch):
        # g's scalar route evaluates r for every walk of criterion 9's grid:
        # 11 943 times when each probe starts from the last probe's maxima
        # and brentq is handed its cells' end residuals (19 824 without)
        from imd import thermo

        fields = []
        scalar = thermo._g_scalar

        def counted(a):
            fields.append(a)
            return scalar(a)

        monkeypatch.setattr(thermo, "_g_scalar", counted)
        trace_gamma(CRITERION_9_GRID)
        assert len(fields) <= 11943

    def test_bisection_evaluates_only_value_and_curvature(self, monkeypatch):
        # each bisection step needs ptilde'' at the roots and ptilde at the
        # two maxima; the third and fourth derivatives are never evaluated
        orders = []

        def counted(m, params, order=0):
            orders.append(order)
            return tilde_p(m, params, order)

        monkeypatch.setattr(phase, "tilde_p", counted)
        trace_gamma([2.0])
        assert orders and set(orders) == {0, 2}

    def test_bisection_step_runs_two_brentq_solves(self, monkeypatch):
        # inside the window a bisection step solves the two outer pieces
        # only: two brentq calls, none for the middle root
        from imd import thermo

        probes = []
        height_gap = phase._height_gap

        def recorded(params, hints=()):
            found = height_gap(params, hints)
            probes.append((params, hints, found))
            return found

        monkeypatch.setattr(phase, "_height_gap", recorded)
        trace_gamma([2.0])
        monkeypatch.setattr(phase, "_height_gap", height_gap)
        # each probe starts from the maxima of the last probe that found two
        last = ()
        for _, hints, found in probes:
            assert hints == last
            if found is not None:
                last = tuple(m for m, _ in found[1])
        fields = [(params, hints) for params, hints, _ in probes]
        solves = []
        brentq = thermo.brentq

        def counted(*args, **kwargs):
            solves.append(args[1:3])
            return brentq(*args, **kwargs)

        monkeypatch.setattr(thermo, "brentq", counted)
        steps = fields[-40:]  # the tail of the bisection, about 43 steps long
        assert len({p.h for p, _ in steps}) == len(steps)
        for params, hints in steps:
            for start in ((), hints):
                solves.clear()
                assert phase._height_gap(params, start) is not None
                assert len(solves) == 2, (params, start)

    def test_curve_endpoint_merges_into_critical_density(self, critical):
        J_values = [critical.J_c + d for d in (0.1, 0.05, 0.02, 0.01)]
        points = trace_gamma(J_values)
        gaps1 = [abs(p.m1 - M_C) for p in points]
        gaps2 = [abs(p.m2 - M_C) for p in points]
        assert gaps1 == sorted(gaps1, reverse=True)
        assert gaps2 == sorted(gaps2, reverse=True)

    def test_near_critical_gap_follows_square_root_law(self, critical):
        # the 41-point probe misses these windows; the spinodal window seeds
        # them.  Quartic normal form: m2 - m1 ~ 2 sqrt(12 (J - J_c) / |lambda_c|)
        law = 2.0 * math.sqrt(12.0 / -LAMBDA_C)
        ratios = []
        for d in (1e-4, 1e-5):
            p = trace_gamma([critical.J_c + d])[0]
            assert classify(ModelParams(p.h, p.J)).kind == "coexistence"
            ratios.append((p.m2 - p.m1) / math.sqrt(d))
        assert abs(ratios[0] / ratios[1] - 1.0) < 1e-3
        assert all(abs(r / law - 1.0) < 1e-3 for r in ratios)

    def test_near_critical_cli_trace(self, capsys):
        # J - J_c = 2.9e-3 at the first point; the fixed probe used to miss it
        assert main(["gamma", "--jmin", "1.46", "--jmax", "2", "--steps", "3"]) == EXIT_OK
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_unresolved_window_is_domain_error(self, critical, capsys):
        # at J_c + 1e-12 the two-maxima window is one ulp of h wide, and at
        # J_c + 1e-10 the height gap stays below double resolution across it:
        # documented domain errors naming that limit, exit 1
        with pytest.raises(ValueError, match="no two-maxima window resolved.*double precision"):
            trace_gamma([critical.J_c + 1e-12])
        with pytest.raises(ValueError, match="double precision cannot separate the heights"):
            trace_gamma([critical.J_c + 1e-10])
        jmin = repr(critical.J_c + 1e-12)
        assert main(["gamma", "--jmin", jmin, "--jmax", "2", "--steps", "2"]) == EXIT_DOMAIN
        assert "no two-maxima window resolved" in capsys.readouterr().err

    @pytest.mark.parametrize("dJ", [1e-6, 1e-8])
    def test_spinodal_cuts_resolve_the_window(self, critical, dJ):
        # the three stationary points sit inside one cell of the 401-point
        # grid here; the scan cut at the spinodal densities finds all three
        p = trace_gamma([critical.J_c + dJ])[0]
        report = classify(ModelParams(p.h, p.J))
        assert report.kind == "coexistence"
        assert len(report.stationary_points) == 3
        law = 2.0 * math.sqrt(12.0 / -LAMBDA_C)
        assert abs((p.m2 - p.m1) / math.sqrt(dJ) / law - 1.0) < 1e-3

    def test_below_critical_coupling_rejected(self):
        with pytest.raises(ValueError, match="critical coupling"):
            trace_gamma([1.0])

    def test_input_order_preserved(self):
        points = trace_gamma([3.0, 2.0])
        assert points[0].J == 3.0 and points[1].J == 2.0

    def test_points_carry_python_floats(self):
        # the 41-point probe seeds from np.linspace on this grid
        for p in trace_gamma([1.5, 2.0]):
            fields = vars(p)
            assert all(type(v) is float for v in fields.values()), fields

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
        # one formula gives both
        assert mixture_weights(gamma_at_2) == (gamma_at_2.rho1, gamma_at_2.rho2)

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
