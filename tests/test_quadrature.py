"""Tests for the log-scale quadrature engine."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from imd import quadrature
from imd.quadrature import (
    N_PROBE,
    IntegrationDomainError,
    log_integral,
    peaked_components,
)

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


class TestBoundedProbe:
    """peaked_components with an upper bound evaluates log_f only where the
    bound can reach the super-level set, and returns the same pieces."""

    @staticmethod
    def counted(log_f):
        calls = []

        def wrapped(x):
            calls.append(len(x))
            return log_f(x)

        return wrapped, calls

    @pytest.mark.parametrize("log_f, lo, hi, drop", [
        # two wells, the right one lower: pieces around both
        (lambda x: np.maximum(-200.0 * (x - 1.0) ** 2, -200.0 * (x + 1.0) ** 2 - 30.0),
         -2.0, 2.0, 60.0),
        # the peak far outside the first window: the window expands
        (lambda x: -0.5 * (x - 30.0) ** 2, -1.0, 1.0, 40.0),
    ], ids=["bimodal", "expanding"])
    def test_same_pieces_with_and_without_bound(self, log_f, lo, hi, drop):
        def upper(x):
            # a loose bound, NaN (no bound known) at every seventh point
            out = log_f(x) + 3.0 + np.abs(np.sin(x))
            out[::7] = np.nan
            return out

        plain = peaked_components(log_f, lo, hi, drop)
        f, calls = self.counted(log_f)
        bounded = peaked_components(f, lo, hi, drop, upper=upper)
        assert bounded == plain
        assert sum(calls) < len(calls) // 2 * N_PROBE  # most points skipped

    def test_bound_at_the_value_keeps_the_cut(self):
        # a bound equal to log_f: the points at exactly vmax - drop stay out
        def log_f(x):
            return -np.abs(x)

        plain = peaked_components(log_f, -100.0, 100.0, drop=50.0)
        assert peaked_components(log_f, -100.0, 100.0, drop=50.0, upper=log_f) == plain

    def test_all_nan_bound_probes_every_point(self):
        f, calls = self.counted(lambda x: -x * x)
        pieces = peaked_components(f, -10.0, 10.0, drop=20.0,
                                   upper=lambda x: np.full(len(x), np.nan))
        assert pieces == peaked_components(lambda x: -x * x, -10.0, 10.0, drop=20.0)
        assert sum(calls) == N_PROBE

    def test_non_finite_values_still_raise(self):
        with pytest.raises(IntegrationDomainError, match="no finite values"):
            peaked_components(lambda x: np.full(len(x), np.nan), -1.0, 1.0,
                              upper=lambda x: np.zeros(len(x)))


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
