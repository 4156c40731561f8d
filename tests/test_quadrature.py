"""Tests for the log-scale quadrature engine."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from imd import quadrature
from imd.exact import SmoothedDensity
from imd.laplace import gaussian_rep_log_partition
from imd.phase import classify
from imd.quadrature import (
    N_PROBE,
    IntegrationDomainError,
    log_integral,
    peaked_components,
)
from imd.thermo import ModelParams

from oracles import loop_pieces


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


class TestPanelSchedule:
    """The doubling runs 4, 8, ..., 65 536 panels: the package's integrands
    stop at the first pair, and a stalled one only after the last level."""

    @staticmethod
    def assert_first_pair(levels):
        # every integral ends at (4, 8): 3 * 4 * 24 = 288 nodes per piece
        assert levels and levels == [4, 8] * (len(levels) // 2)

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_smoothed_normalizer_converges_at_first_pair(self, panels, n):
        # the benchmark's rescaled densities (eta = 0.5, u = m*) integrate to
        # one in x, which checks the closed-form normalizer's eta log N too
        params = ModelParams(0.0, 1.0)
        sd = SmoothedDensity(n, params, eta=0.5, u=classify(params).maximizers[0])
        pieces = peaked_components(sd.log_analytic, -1.0, 1.0)
        log_mass = np.logaddexp.reduce([log_integral(sd.log_analytic, a, b) for a, b in pieces])
        assert abs(log_mass) < 1e-10
        self.assert_first_pair(panels)

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


def _runs_mask(start, runs):
    """A probe mask of N_PROBE points: False up to start, then alternating
    runs of True and False of the given lengths, cut at N_PROBE."""
    mask = np.zeros(N_PROBE, dtype=bool)
    at, inside = start, True
    for length in runs:
        mask[at:at + length] = inside
        at, inside = at + length, not inside
    return mask


class TestPieceSplit:
    """The vectorized split of the super-level set into pieces returns the
    floats of the index-by-index walk (oracles.loop_pieces)."""

    @given(st.integers(0, N_PROBE - 1),
           st.lists(st.integers(1, 40) | st.integers(1, N_PROBE), min_size=1, max_size=60))
    # one point at either edge of the grown window, and at the grid ends
    @example(1, [1])
    @example(N_PROBE - 2, [1])
    @example(0, [1])
    @example(N_PROBE - 1, [1])
    # sets reaching either edge after growth: indices 1.. and ..N_PROBE - 2
    @example(1, [5, 3, 7])
    @example(N_PROBE - 9, [3, 2, 3])
    # gaps of one point, every other point, and the full width
    @example(10, [4, 1, 4, 1, 4])
    @example(0, [1] * N_PROBE)
    @example(0, [N_PROBE])
    def test_matches_index_walk(self, start, runs):
        mask = _runs_mask(start, runs)
        xs = np.linspace(-3.0, 5.0, N_PROBE)
        idx = np.flatnonzero(mask)
        got, ref = quadrature._pieces(xs, idx), loop_pieces(xs, idx)
        assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in ref]
        assert all(type(x) is np.float64 for piece in got for x in piece)
