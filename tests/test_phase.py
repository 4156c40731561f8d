"""Tests for the phase diagram: consistency equation, classification, the
coexistence curve and its limit-law parameters."""

import hashlib
import io
import math
import warnings

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings, strategies as st

from imd import phase
from imd.cli import EXIT_DOMAIN, EXIT_OK, main
from imd.limits import Gaussian
from imd.phase import (
    CriticalPoint,
    NearDegenerateError,
    classify,
    clt_variance,
    clt_variance_reduced,
    find_critical_point,
    gamma_points_to_csv,
    mixture_ratio_closed_form,
    phase_weight,
    solve_consistency,
    trace_gamma,
)
from imd.thermo import ModelParams, g, g_derivative, tilde_p

from oracles import fixed_point_density, height_gap_mp

# criterion 9's grid and its coexistence fields, float.hex-pinned
CRITERION_9_GRID = [1.5, 1.6, 1.8, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0,
                    40.0, 50.0]
CRITERION_9_H = [
    "-0x1.67b6654698f88p-2", "-0x1.77696f661f672p-2", "-0x1.91c231198092ep-2",
    "-0x1.a6b99a4a248b4p-2", "-0x1.cad477cc92cf2p-2", "-0x1.e01b3cf0fb2c1p-2",
    "-0x1.f46c75ddefb08p-2", "-0x1.fbc67a88fea50p-2", "-0x1.ff6eae8c6e715p-2",
    "-0x1.fff8c7b3697aep-2", "-0x1.fffff38c746c6p-2", "-0x1.ffffffea85c32p-2",
    "-0x1.ffffffffffc0cp-2", "-0x1.fffffffffffc9p-2", "-0x1.fffffffffffc9p-2",
]
# sha256 of every field of those 15 points, float.hex, comma-joined
CRITERION_9_DIGEST = "6a5df5aec1bf3186dec9f12e226623419759639f04cecbbda541c96ae5d84962"
# J - J_c = 1e-6 with h in the middle of the two-maxima window: the three
# stationary points share one cell of the 401-point grid
NARROW_WINDOW = (-0.34411337480261517, 1.4571077811865474)

M_C = 2.0 - math.sqrt(2.0)
J_C = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
H_C = 0.5 * math.log(2.0 * math.sqrt(2.0) - 2.0) - 0.25
LAMBDA_C = -(24.0 + 17.0 * math.sqrt(2.0)) / 2.0


# scripts/phase_diagram.py's default curve: 59 couplings from J_c to 50,
# denser near J_c
PHASE_DIAGRAM_GRID = [J_C + (50.0 - J_C) * math.expm1(4.0 * i / 59) / math.expm1(4.0)
                      for i in range(1, 60)]


def traced_gamma(J_values, certify=True):
    """trace_gamma's points as float.hex rows, and each walked probe as
    (J, h, height gap or None).  With certify=False no probe certifies a
    sign, so every bisection step is walked, as before the certificates."""
    probes = []
    height_gap = phase._height_gap

    def recorded(params, hints=()):
        found = height_gap(params, hints)
        probes.append((params.J, params.h, None if found is None else found[0]))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phase, "_height_gap", recorded)
        if not certify:
            patch.setattr(phase, "_gap_margin", lambda h, J: math.inf)
        points = trace_gamma(J_values)
    return [[v.hex() for v in vars(p).values()] for p in points], probes


def certified_against_walked(J_values):
    """The number of bisection steps that the certificates decided, after
    checking that the certified trace keeps every bit of the walked one and
    that each skipped step's walk agrees with its certificate."""
    rows, probes = traced_gamma(J_values)
    walked_rows, walked_probes = traced_gamma(J_values, certify=False)
    assert rows == walked_rows
    skipped = {(J, h) for J, h, _ in walked_probes} - {(J, h) for J, h, _ in probes}
    for J, h in skipped:
        # the certificates of this J: walked probes whose gap is past the margin
        gaps = [(f, gap) for J2, f, gap in probes if J2 == J and gap is not None]
        neg = max((f for f, gap in gaps if gap < -phase._gap_margin(f, J)), default=-math.inf)
        pos = min((f for f, gap in gaps if gap > phase._gap_margin(f, J)), default=math.inf)
        assert h <= neg or h >= pos, (J, h)
        found = phase._height_gap(ModelParams(h, J))
        assert found is not None, (J, h)
        assert abs(found[0]) >= 1e-15 and (found[0] < 0.0) == (h <= neg), (J, h, found[0])
    return len(skipped)


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
        assert abs(tilde_p(sp.m, ModelParams(critical.h_c, critical.J_c), 3)) < 1e-8

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
        # the probe, the bracket walk, the Newton and certificate probes,
        # the bisection and the returned point share their walks: no (h, J)
        # is walked twice (200 walks; 632 before the certificates skipped
        # the decided bisection steps, 673 when each step recomputed what
        # the one before had found)
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
        # 3 311 times, as each walk ends at brentq, with sign certificates
        # that skip the decided bisection steps, each probe starting from the
        # last probe's maxima, brentq handed its cells' end residuals, a
        # seed field outside the two-maxima window going straight to the
        # spinodal window, and g' at positive fields taken from e^{-2h} alone
        from imd import thermo

        fields = []
        scalar = thermo._g_scalar

        def counted(a):
            fields.append(a)
            return scalar(a)

        monkeypatch.setattr(thermo, "_g_scalar", counted)
        trace_gamma(CRITERION_9_GRID)
        assert len(fields) <= 3311

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
        # inside the window a walked probe solves the two outer pieces
        # only: two brentq calls, none for the middle root; at J = 2 every
        # walked probe lies inside it
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
        assert len({p.h for p, _ in fields}) == len(fields) >= 10
        for params, hints in fields:
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
        # the seed field h_c lies outside these windows; the closed-form
        # spinodal window seeds them.  Quartic normal form:
        # m2 - m1 ~ 2 sqrt(12 (J - J_c) / |lambda_c|)
        law = 2.0 * math.sqrt(12.0 / -LAMBDA_C)
        ratios = []
        for d in (1e-4, 1e-5):
            p = trace_gamma([critical.J_c + d])[0]
            assert classify(ModelParams(p.h, p.J)).kind == "coexistence"
            ratios.append((p.m2 - p.m1) / math.sqrt(d))
        assert abs(ratios[0] / ratios[1] - 1.0) < 1e-3
        assert all(abs(r / law - 1.0) < 1e-3 for r in ratios)

    def test_near_critical_cli_trace(self, capsys):
        # J - J_c = 2.9e-3 at the first point, seeded from the spinodal window
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

    def test_duplicate_couplings_share_one_point(self):
        # each distinct J is solved once, so repeats agree to the bit, and
        # a repeat does not move the continuation seed of the J after it
        points = trace_gamma([3.0, 2.0, 3.0, 2.0])
        assert points[0] == points[2] and points[1] == points[3]
        assert points[:2] == trace_gamma([3.0, 2.0])

    def test_points_carry_python_floats(self):
        # J = 1.5 is seeded from the spinodal window, J = 2 by continuation
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

    def test_coupling_range_ends_at_the_first_decade_past_1e_12(self):
        # gamma(J) + 1/2 is below 1e-60 from J = 1e3 on, so each traced
        # field's offset from -1/2 is its error
        assert abs(trace_gamma([1e4])[0].h + 0.5) <= 1e-12
        assert 1e-12 < abs(trace_gamma([1e5])[0].h + 0.5) <= 5e-12
        above = math.nextafter(1e5, math.inf)
        with pytest.raises(ValueError, match="outside the representable range of gamma"):
            trace_gamma([2.0, above])


class TestCertifiedBisection:
    """Sign certificates skip the bisection steps whose outcome they fix;
    each test compares with the bisection that walks every step."""

    # a lone J near J_c is seeded from the spinodal window, a list by
    # continuation; within about 1e-7 of J_c no certificate forms
    @pytest.mark.parametrize("J_values, least", [
        (CRITERION_9_GRID, 400),
        (PHASE_DIAGRAM_GRID, 1500),
        ([J_C + 10.0**-k for k in range(1, 9)], 0),
        *(([J_C + 10.0**-k], 0) for k in range(1, 9)),
        ([100.0, 300.0, 999.0, 1000.0, 1e4, 1e5], 30),
    ], ids=["criterion-9", "phase-diagram", "near-critical",
            *(f"J_c+1e-{k}" for k in range(1, 9)), "large-J"])
    def test_keeps_every_bit(self, J_values, least):
        assert certified_against_walked(J_values) >= least

    @settings(max_examples=25)
    @given(st.lists(st.floats(-7.0, 5.0), min_size=1, max_size=4))
    def test_keeps_every_bit_on_sorted_lists(self, exponents):
        J_values = sorted(min(J_C + 10.0**e, 1e5) for e in exponents)
        certified_against_walked(J_values)

    @pytest.mark.parametrize("J", [J_C + 1e-6, J_C + 1e-4, J_C + 1e-2, 2.0, 5.0, 10.0, 50.0,
                                   100.0, 1e3, 1e4, 1e5])
    def test_margin_is_four_times_the_gap_error(self, J):
        # the computed height gap against a 50-digit one, at fields within
        # 1e-9 of gamma(J); a field with one maximum has no gap to certify
        h0 = trace_gamma([J])[0].h
        for offset in (-1e-9, -1e-10, 0.0, 1e-10, 1e-9):
            h = h0 + offset
            found = phase._height_gap(ModelParams(h, J))
            if found is None:
                assert offset != 0.0
                continue
            gap, ((m1, _), (m2, _)) = found
            exact = height_gap_mp(h, J, [(2.0 * m - 1.0) * J + h for m in (m1, m2)])
            error = float(abs(mpmath.mpf(gap) - exact))
            assert error <= phase._gap_margin(h, J) / 4.0, (J, h, error)


class TestMixtureWeights:
    def test_symmetric_inputs_split_evenly(self):
        b = phase_weight(-1.3, 0.4)
        assert b == phase_weight(-1.3, 0.4)
        rho1 = b / (b + b)
        assert rho1 == 0.5

    def test_dimer_phase_is_lighter(self, gamma_at_2):
        assert gamma_at_2.rho1 < gamma_at_2.rho2

    def test_ratio_matches_closed_form(self, gamma_at_2):
        ratio = gamma_at_2.rho1 / gamma_at_2.rho2
        assert abs(ratio - mixture_ratio_closed_form(gamma_at_2)) < 1e-10

    def test_strong_coupling_limit_of_ratio(self):
        point = trace_gamma([50.0])[0]
        assert abs(point.rho1 / point.rho2 - 1.0 / math.sqrt(2.0)) < 0.02

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

    def test_saturated_field_keeps_a_positive_variance(self):
        # g'(19) = 2e^{-38}(1 + O(e^{-38})): 1 - g formed from g read 0.0
        # here, which the Gaussian limit rejects
        var = clt_variance(ModelParams(19.0, 0.0))
        assert abs(var / (2.0 * math.exp(-38.0)) - 1.0) < 1e-14
        assert Gaussian(0.0, var).variance == var

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
