"""Tests for the exact finite-N Gibbs statistics."""

import csv
import functools
import hashlib
import io
import itertools
import math
import operator
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from imd import _cells, exact, phase, quadrature
from imd.cli import EXIT_OK, main
from imd.exact import (
    SmoothedDensity,
    log_partition,
    log_partition_pure,
    matching_count_log,
    monomer_law,
    pressure,
)
from imd.limits import scaled_law
from imd.phase import classify
from imd.thermo import ModelParams, consistency_roots, g, g_derivative, p0

from oracles import (
    brute_monomer_distribution,
    brute_partition,
    dimer_count_histogram,
    full_support_law,
    hermite_cumulants,
    hermite_log_partition_pure,
    tilted_log_mgf,
)

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
        law.write(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,S,log_weight,probability"
        assert len(lines) == 1 + 4
        total = sum(float(line.split(",")[3]) for line in lines[1:])
        assert abs(total - 1.0) < 1e-12


def csv_writer_monomer_law(law) -> str:
    """Reference: the csv.writer route the monomer law's chunked writer replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "S", "log_weight", "probability"])
    for k, s, lw, p in zip(law.k_values, law.s_values, law.log_weights, law.probabilities):
        writer.writerow([int(k), int(s), format(lw, ".17g"), format(p, ".17g")])
    return buf.getvalue()


def csv_writer_scaled_law(law) -> str:
    """Reference: the csv.writer route the scaled law's chunked writer replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "S", "position", "probability"])
    for i in range(len(law.positions)):
        # atom i has S = N mod 2 + 2 i monomers and k = (N - S) / 2 dimers
        writer.writerow([
            law.N // 2 - i,
            law.N % 2 + 2 * i,
            format(law.positions[i], ".17g"),
            format(law.probabilities[i], ".17g"),
        ])
    return buf.getvalue()


def written_csv(law) -> str:
    buf = io.StringIO()
    law.write(buf)
    return buf.getvalue()


def hull(law):
    """The first index of the law's window and one past its last."""
    return law.windows[0][0], law.windows[-1][1]


def valley(law):
    """The zero-probability atoms [a, b) between the window's two intervals,
    or None when it is one interval."""
    return (law.windows[0][1], law.windows[1][0]) if len(law.windows) == 2 else None


# doubles that stress %.17g: zeros, the smallest subnormals, extreme
# exponents, log weights far below any probability that survives exp; then
# the edges of fixed notation (%.17g writes 1e-4 <= |x| < 1e17 in fixed
# notation and the rest with an exponent) and each power of ten from 1e-4 to
# 1e17 with the doubles beside it, whose 17 digits carry into the next decade
# (0.99999999999999989, 99999999999999984); exact ties, which round half to
# even; negative values; the largest double and subnormal; and 3 / 2^24, an
# exact tie where 10^(16 - d) is not a double
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 1e-300, 1e300, -1e300, -745.2, -1e5,
               -7.5e6, 2.0**53 + 2.0, 0.1, 1.0 / 3.0, math.inf, -math.inf, math.nan]
EDGE_FLOATS += [x for p in range(-4, 18) for x in (
    math.nextafter(float(f"1e{p}"), 0.0), float(f"1e{p}"), math.nextafter(float(f"1e{p}"), 1e18))]
EDGE_FLOATS += [1e15 + 0.25, 1e14 + 0.125, -(1e15 + 0.75), -0.5, -1.0, -123.456,
                -0.00012345678901234567, -9999999999999998.0, 1.7976931348623157e308,
                -2.2250738585072009e-308, 1e-5, 3.0 / 2**24]
float_cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))


@st.composite
def atom_columns(draw, first_cells):
    """N with a first float column from first_cells and a probability column,
    each of N//2 + 1 atoms."""
    n = draw(st.integers(1, 40))
    size = n // 2 + 1
    first = draw(st.lists(first_cells, min_size=size, max_size=size))
    probs = draw(st.lists(float_cells, min_size=size, max_size=size))
    return n, np.array(first), np.array(probs)


def atom_log_weight(n, h, J, k):
    """log w_k of one atom, from the definition."""
    m = (n - 2 * k) / n
    return matching_count_log(n, k) - k * math.log(n) + n * ((h - J) * m + J * m * m)


def chunk_windows():
    """(support size, lo, hi) around the first and the fourth chunk boundary
    of the atom CSV writer (4096 and 16 384 atoms): windows that start, end
    and straddle it, and the whole support."""
    cases = set()
    for rows in (exact._CSV_ROWS, 4 * exact._CSV_ROWS):
        for size in (rows - 1, rows, rows + 1, 2 * rows + 1):
            for lo, hi in ((rows, rows + 7), (rows - 7, rows), (rows - 3, rows + 3), (0, size)):
                cases.add((size, min(lo, size), min(hi, size)))
    return sorted(cases)


class TestWindow:
    """The law is evaluated only on the window of atoms that carry
    probability; everything it reports must be what the full support gives."""

    @given(st.floats(0.0, 7.0), st.floats(-30.0, 30.0), st.floats(0.0, 1e3))
    @example(7.0, -0.4958743234743996, 5.0)  # gamma(5): two wells, one narrow
    @example(7.0, -0.4999962732210501, 12.0)  # gamma(12): wells at both edges
    @example(4.0, -30.0, 0.0)
    @example(5.0, 30.0, 1e3)
    @example(1.0, 4.4e306, 2.0**50)  # the floor 750 below the peak rounds to the peak
    @example(5.0, -0.34411320322979877, 1.4571077811865474)  # (h_c, J_c + 1e-6)
    def test_window_over_cli_domain(self, log_n, h, J):
        n = int(round(10.0**log_n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = monomer_law(n, ModelParams(h, J))
        p = law.probabilities
        lo, hi = hull(law)
        assert len(p) == n // 2 + 1
        assert abs(p.sum() - 1.0) < 1e-12
        assert math.isfinite(law.log_Z)
        assert np.all(p[:lo] == 0.0) and np.all(p[hi:] == 0.0)
        # the atoms next to the window, and the atoms at the limiting
        # stationary densities (the wells), lie inside it or have probability 0
        wells = [round(n * (1.0 - m) / 2.0) for m in consistency_roots(ModelParams(h, J))]
        for k in [lo - 1, hi] + [min(k, n // 2) for k in wells]:
            if 0 <= k <= n // 2 and not lo <= k < hi:
                assert math.exp(atom_log_weight(n, h, J, k) - law.log_Z) == 0.0
        if n <= 10**5:
            log_w, log_z, probs = full_support_law(n, h, J)
            assert law.log_Z == log_z
            assert np.array_equal(p, probs)
            assert np.array_equal(law.log_weights, log_w)

    @pytest.mark.parametrize("h", [-0.5546472198954087, -0.5543472198954087])
    def test_log_Z_near_zero_pressure(self, h):
        # log Z is about -1.7 and -1.2 here, so the last bits of the sum
        # inside logsumexp reach it: over the window alone, with no zeros
        # around it, log Z moves by one ulp
        log_w, log_z, probs = full_support_law(4002, h, 0.0)
        law = monomer_law(4002, ModelParams(h, 0.0))
        assert hull(law)[0] > 0
        assert law.log_Z == log_z
        assert np.array_equal(law.probabilities, probs)

    @pytest.mark.parametrize("n, at_critical", [(10**6, True), (10**7, False)])
    def test_each_window_atom_is_evaluated_once(self, monkeypatch, n, at_critical):
        # the window's log weights are evaluated once, for the law: the
        # finder works on the atoms without them
        if at_critical:
            cp = phase.find_critical_point()
            params = ModelParams(cp.h_c, cp.J_c)
        else:
            params = ModelParams(0.0, 0.0)
        points = []

        def counted(N, params, k):
            points.append(np.size(k))
            return log_weights(N, params, k)

        log_weights = exact._log_weights
        monkeypatch.setattr(exact, "_log_weights", counted)
        law = monomer_law(n, params)
        atoms = sum(b - a for a, b in law.windows)
        assert sum(points) == atoms

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 4002, 10**4 + 1, 10**5])
    @pytest.mark.parametrize("h, J", [
        (0.0, 0.0), (0.3, 0.5), (-30.0, 0.0), (30.0, 1e3), (-500.0, 1e3),
        (-0.34411320322979877, 1.4571067811865475),  # the critical point
        (-0.41281739308863996, 2.0), (-0.4999962732210501, 12.0),  # gamma(2), gamma(12)
        (-0.5, 50.0), (2.0, 10.0),
    ])
    def test_window_is_exact_on_the_atoms(self, n, h, J):
        # every atom outside the window lies more than _WINDOW_DROP below
        # the largest log weight, and each interval's end atoms do not
        log_w = exact._log_weights(n, ModelParams(h, J), np.arange(n // 2 + 1))
        floor = log_w.max() - exact._WINDOW_DROP
        inside = np.zeros(len(log_w), dtype=bool)
        for lo, hi, lw in exact._window(n, ModelParams(h, J)):
            assert np.array_equal(lw, log_w[lo:hi])
            assert log_w[lo] >= floor <= log_w[hi - 1]
            inside[lo:hi] = True
        assert np.all(log_w[~inside] < floor)

    def test_window_is_small_away_from_coexistence(self):
        law = monomer_law(10**7, ModelParams(0.0, 0.0))
        lo, hi = hull(law)
        assert hi - lo < 80000

    def test_both_wells_are_kept_at_coexistence(self):
        # at gamma(8) each phase holds about half the mass, one of them in the
        # last 0.1 % of the support: the window must span both
        point = phase.trace_gamma([8.0])[0]
        n = 10**6
        law = monomer_law(n, ModelParams(point.h, 8.0))
        log_w, log_z, probs = full_support_law(n, point.h, 8.0)
        assert law.log_Z == log_z
        assert np.array_equal(law.probabilities, probs)
        assert 0.3 < probs[: n // 4].sum() < 0.7

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_law_at_1e8_in_bounded_memory(self):
        # the peak RSS of the fresh process's own memory map (VmHWM): its
        # ru_maxrss would start from the RSS of the process that forked it
        code = (
            "from imd.exact import monomer_law\n"
            "from imd.thermo import ModelParams\n"
            "law = monomer_law(10**8, ModelParams(0.0, 0.0))\n"
            "print(law.probabilities.sum() - 1.0)\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(status.split()[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True).stdout.split()
        assert abs(float(out[0])) < 1e-12
        assert int(out[1]) < 200 * 1024  # kB


@pytest.fixture(scope="module")
def gamma_points():
    """The coexistence points at J = 2, 5 and 8, keyed by J."""
    return {p.J: p for p in phase.trace_gamma([2.0, 5.0, 8.0])}


class TestTwoIntervalWindow:
    """At coexistence the window is one interval per phase, with the valley
    between them left unevaluated; everything the law reports must still be
    what the full support gives."""

    def test_gamma_2_at_1e6(self, gamma_points):
        n, point = 10**6, gamma_points[2.0]
        params = ModelParams(point.h, 2.0)
        law = monomer_law(n, params)
        log_w, log_z, probs = full_support_law(n, point.h, 2.0)
        assert valley(law) is not None
        (lo, hi), (a, b) = hull(law), valley(law)
        assert lo < a < b < hi
        assert (a - lo) + (hi - b) <= 40000
        assert hi - lo > 400000  # the hull the window no longer evaluates
        assert law.log_Z == log_z
        assert np.array_equal(law.probabilities, probs)
        assert np.all(probs[a:b] == 0.0)
        assert written_csv(law) == csv_writer_monomer_law(law)
        assert np.array_equal(law.log_weights, log_w)
        scaled = scaled_law(n, params, 1.0, 0.0)
        assert written_csv(scaled) == csv_writer_scaled_law(scaled)

    @pytest.mark.parametrize("J", [5.0, 8.0])
    def test_wells_at_the_edges_at_1e6(self, gamma_points, J):
        # the hull is (nearly) the whole support, the window a few thousand
        # atoms: the log weights of the valley are evaluated on read, not
        # taken from the window (they would read -inf, or be missing)
        n, point = 10**6, gamma_points[J]
        law = monomer_law(n, ModelParams(point.h, J))
        log_w, log_z, probs = full_support_law(n, point.h, J)
        assert valley(law) is not None
        assert sum(b - a for a, b in law.windows) < 5000
        assert law.log_Z == log_z
        assert np.array_equal(law.probabilities, probs)
        assert np.array_equal(law.log_weights, log_w)
        assert written_csv(law) == csv_writer_monomer_law(law)

    def test_side_windows_that_touch_merge(self, gamma_points):
        # at N = 1e4 the barrier between the phases lies within the drop, so
        # the two sides' windows meet and make one interval over both wells
        n, point = 10**4, gamma_points[2.0]
        params = ModelParams(point.h, 2.0)
        log_w, log_z, probs = full_support_law(n, point.h, 2.0)
        # two peaks, so the finder splits the atoms into two sides
        rises = np.diff(log_w) > 0.0
        assert np.count_nonzero(rises[:-1] & ~rises[1:]) == 2
        windows = [(lo, hi) for lo, hi, _ in exact._window(n, params)]
        assert len(windows) == 1
        law = monomer_law(n, params)
        assert law.windows == windows
        lo, hi = hull(law)
        wells = [round(n * (1.0 - m) / 2.0) for m in (point.m1, point.m2)]
        assert all(lo <= k < hi for k in wells)
        assert law.log_Z == log_z
        assert np.array_equal(law.probabilities, probs)
        assert np.array_equal(law.log_weights, log_w)

    def test_mgf_reads_the_valley(self, gamma_points):
        # the law's log weights cover the full support: a tilt of the law
        # must see the valley's atoms
        n, point = 10**6, gamma_points[8.0]
        params = ModelParams(point.h, 8.0)
        log_w, log_z, _ = full_support_law(n, point.h, 8.0)
        s = n - 2 * np.arange(n // 2 + 1)
        ref = math.exp(float(logsumexp(log_w + 0.3 * s / n)) - log_z)
        assert math.exp(direct_log_mgf(monomer_law(n, params), 1.0, 0.0, 0.3)) == ref


class TestAtomCsv:
    @given(atom_columns(float_cells))
    @example((2 * len(EDGE_FLOATS) - 1, np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1])))
    def test_monomer_law_matches_csv_writer(self, columns):
        n, log_w, probs = columns
        law = exact.AtomLaw(n, ModelParams(0.0, 0.0), 0.0, [probs], [(0, len(probs))],
                            log_w.__getitem__)
        assert written_csv(law) == csv_writer_monomer_law(law)

    @given(atom_columns(float_cells))  # k and S come from the atom index
    def test_scaled_law_matches_csv_writer(self, columns):
        n, positions, probs = columns
        law = exact.AtomLaw(n, ModelParams(0.0, 0.0), 0.0, [probs], [(0, len(probs))],
                            positions.__getitem__, eta=0.0, u=0.0)
        assert written_csv(law) == csv_writer_scaled_law(law)

    @pytest.mark.parametrize("n, h, J, eta, u", [
        (1000, 0.2, 1.5, None, None),
        (999, -0.3, 0.0, 0.5, 0.61803398874989479),
        (1000, 0.0, 2.0, 0.75, 0.3),
        (5, 30.0, 0.0, 1.0, 0.0),
        (10, 0.0, 0.0, 1.0, 1e16),  # N u above 2^53: S is not in the position's bits
        (100000, 0.0, 0.0, 0.5, float(g(0.0))),  # the benchmark's dist, at N = 1e5
    ])
    def test_cli_file_bytes_match_csv_writer(self, tmp_path, capsys, n, h, J, eta, u):
        path = tmp_path / "law.csv"
        argv = ["dist", "--N", str(n), f"--h={h!r}", f"--J={J!r}", "--output", str(path)]
        params = ModelParams(h, J)
        if eta is None:
            expected = csv_writer_monomer_law(monomer_law(n, params))
        else:
            argv += [f"--eta={eta!r}", f"--u={u!r}"]
            expected = csv_writer_scaled_law(scaled_law(n, params, eta, u))
        assert main(argv) == EXIT_OK
        # newline="" on the output file keeps the \r\n row endings
        assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("size, lo, hi", chunk_windows())
    def test_windowed_laws_across_chunk_boundaries(self, size, lo, hi):
        # the columns outside the window are evaluated chunk by chunk; the
        # references read the full-support log weights and positions
        rng = np.random.default_rng(size + lo)
        probs = np.zeros(size)
        probs[lo:hi] = rng.uniform(0.0, 1.0, hi - lo)
        n, params = 2 * (size - 1), ModelParams(0.2, 1.5)
        law = exact.AtomLaw(n, params, 0.0, [probs[lo:hi]], [(lo, hi)],
                            functools.partial(exact._log_weights, n, params))
        assert written_csv(law) == csv_writer_monomer_law(law)
        n, eta, u = n + 1, 0.5, 0.3

        def positions(i):
            return (n % 2 + 2 * i - n * u) / n**eta

        scaled = exact.AtomLaw(n, params, 0.0, [probs[lo:hi]], [(lo, hi)], positions,
                               eta=eta, u=u)
        assert written_csv(scaled) == csv_writer_scaled_law(scaled)

    @pytest.mark.parametrize("fmt", ["xml", "CSV", "JSON", ""])
    def test_unknown_format_writes_nothing(self, fmt):
        law = monomer_law(10, ModelParams(0.0, 0.0))
        buf = io.StringIO()
        with pytest.raises(ValueError, match="'csv' or 'json'"):
            law.write(buf, fmt)
        assert buf.getvalue() == ""

    def test_kernel_sweep_matches_percent_format(self):
        # the cells in bulk, over 1e6 doubles: random bit patterns; every
        # binary exponent, subnormals included, with both signs; each power
        # of ten the doubles reach, with the doubles beside it; doubles spread
        # over 1e-6 ... 1e18 and over [1e16, 1e17), where %.17g writes 17-digit
        # integers; an exact tie at the 17th digit for each exponent
        # d = -6 ... 15 (odd j / 2^(17 - d)); the near-ties of inexact powers;
        # round values with trailing zeros; and integers of up to 19 digits
        # with the powers of ten beside them
        rng = np.random.default_rng(18)
        bits = rng.integers(0, 2**64, 360_000, dtype=np.uint64).view(np.float64)
        fields = np.repeat(np.arange(2047, dtype=np.uint64), 200)
        signs = np.tile(np.array([0, 1], np.uint64), len(fields) // 2)
        binades = (signs << np.uint64(63) | fields << np.uint64(52)
                   | rng.integers(0, 2**52, len(fields), dtype=np.uint64)).view(np.float64)
        powers = [x for d in range(-323, 309) for x in (
            math.nextafter(float(f"1e{d}"), 0.0), float(f"1e{d}"),
            math.nextafter(float(f"1e{d}"), math.inf))]
        spread = 10.0 ** rng.uniform(-6.0, 18.0, 150_000) * rng.choice([-1.0, 1.0], 150_000)
        integers17 = rng.uniform(1e16, 1e17, 50_000)
        ties = [rng.integers(math.ceil(10.0**d * 2**(17 - d)) // 2,
                             int(min(10.0**(d + 1) * 2**(17 - d), 2.0**53)) // 2, 1000) * 2 + 1
                for d in range(-6, 16)]
        ties = np.concatenate([j / 2.0**(17 - d) for d, j in zip(range(-6, 16), ties)])
        # each is exact in 18 digits, the last a 5
        assert {Decimal(t).as_tuple().digits[17:] for t in ties.tolist()} == {(5,)}
        near = np.array(inexact_near_ties())
        rounds = np.concatenate([np.arange(-2000, 2000) / 8.0, np.arange(1, 1000) * 1e13,
                                 np.arange(1, 1000) * 1e-9, 2.0 ** np.arange(-1074, 1024)])
        floats = np.concatenate([bits, binades, powers, spread, integers17, ties, near, -near,
                                 rounds, EDGE_FLOATS])
        assert len(floats) >= 10**6
        ints = np.concatenate([[0], 10 ** np.arange(19), 10 ** np.arange(1, 19) - 1,
                               rng.integers(0, 10**7, 10_000), rng.integers(0, 2**63, 10_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = "".join(_cells.csv_rows([floats[c:c + 2**16]])
                           for c in range(0, len(floats), 2**16))
            int_rows = _cells.csv_rows([ints])
            # one word a cell: below 1e7, a chunk with groups full and stripped
            short = ints[ints < 10**7]
            short_rows = _cells.csv_rows([short])
        for got, cells in ((rows, ["%.17g" % x for x in floats.tolist()]),
                           (int_rows, ["%d" % k for k in ints.tolist()]),
                           (short_rows, ["%d" % k for k in short.tolist()])):
            if got != "\r\n".join(cells) + "\r\n":
                got = got.split("\r\n")
                assert got.pop() == "" and len(got) == len(cells)
                assert [(a, b) for a, b in zip(got, cells) if a != b][:5] == []

    def test_one_decade_sweep_matches_percent_format(self, monkeypatch):
        # one call per decade d = -324 ... 308, each read with one decade for
        # the whole chunk: both signs of the least double >= 10^d and of the
        # largest below 10^(d + 1), which %.17g rounds up a decade for 14 d
        # (1e-14 and 1e+98 among them), and for d = -6 ... 15 exact ties at
        # the 17th digit (odd j / 2^(17 - d))
        reads = one_decade_reads(monkeypatch)
        rng = np.random.default_rng(33)
        for d in range(-324, 309):
            x = [decade_edge(d), math.nextafter(decade_edge(d + 1), 0.0)]
            if -6 <= d <= 15:
                j = rng.integers(math.ceil(10.0**d * 2**(17 - d)) // 2,
                                 int(min(10.0**(d + 1) * 2**(17 - d), 2.0**53)) // 2, 50) * 2 + 1
                x += (j / 2.0**(17 - d)).tolist()
            x += [-v for v in x]
            assert {Decimal(v).adjusted() for v in x} == {d}
            assert float_texts(x) == ["%.17g" % v for v in x]
        assert len(reads) == 633 and all(reads)

    def test_near_ties_by_decade_go_to_percent_format(self, monkeypatch):
        # a one-decade chunk of an inexact power still sends the cells within
        # its error bound of a tie to Python's %.17g
        reads = one_decade_reads(monkeypatch)
        seen = []
        fallback = _cells.percent_cells
        monkeypatch.setattr(_cells, "percent_cells", lambda x: seen.append(x) or fallback(x))
        decades = {}
        for x in inexact_near_ties():
            decades.setdefault(Decimal(x).adjusted(), []).extend([x, -x])
        for x in decades.values():
            assert float_texts(x) == ["%.17g" % v for v in x]
        assert len(reads) == len(decades) == 10 and all(reads)
        assert sorted(np.concatenate(seen).tolist()) == sorted(sum(decades.values(), []))

    def test_zero_infinity_and_nan_in_a_chunk(self, monkeypatch):
        # they are computed as 1.0 and rewritten: in decade 0 the chunk keeps
        # one decade, elsewhere it holds two
        reads = one_decade_reads(monkeypatch)
        rng = np.random.default_rng(34)
        for d in (0, 0, -3, 5, 200):
            x = np.concatenate([rng.uniform(1.5, 9.5, 40) * 10.0**d * rng.choice([-1.0, 1.0], 40),
                                [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]])
            rng.shuffle(x)
            assert float_texts(x) == ["%.17g" % v for v in x.tolist()]
        assert reads == [True, True, False, False, False]
        assert float_texts([]) == [] and _cells.csv_rows([np.empty(0)]) == ""

    def test_chunks_straddling_a_decade_boundary(self, monkeypatch):
        # the least double >= 10^d and the double below it, each with both
        # signs, then runs of doubles across 10^d
        reads = one_decade_reads(monkeypatch)
        rng = np.random.default_rng(35)
        for d in range(-323, 309):
            edge = decade_edge(d)
            x = [math.nextafter(edge, 0.0), edge, -math.nextafter(edge, 0.0), -edge]
            if d % 20 == 0:
                x += (edge * rng.uniform(0.5, 2.0, 100)).tolist()
            assert float_texts(x) == ["%.17g" % v for v in x]
        assert len(reads) == 632 and not any(reads)

    def test_near_ties_of_inexact_powers_go_to_percent_format(self, monkeypatch):
        # where 10^(16 - d) is not a double, the kernel cannot tell on which
        # side of a half-integer |x| 10^(16 - d) lies within its error bound
        seen = []
        fallback = _cells.percent_cells
        monkeypatch.setattr(_cells, "percent_cells", lambda x: seen.append(x) or fallback(x))
        near = np.array(inexact_near_ties())
        assert _cells.csv_rows([near]) == "".join("%.17g\r\n" % x for x in near.tolist())
        assert sorted(np.concatenate(seen).tolist()) == sorted(near.tolist())

    def test_kernel_tables_are_exact(self):
        # each binade's decade, and the least double at or above the next
        # power of ten, which decides the decade exactly
        ten = Fraction(10)
        for b, (i, nxt) in enumerate(zip(_cells._DECADE.tolist(), _cells._NEXT.tolist())):
            d = i + _cells._D_MIN
            assert ten**d <= Fraction(2) ** (b + _cells._E_MIN - 1) < ten ** (d + 1)
            if nxt < math.inf:
                assert Fraction(math.nextafter(nxt, 0.0)) < ten ** (d + 1) <= Fraction(nxt)
            else:
                assert ten ** (d + 1) > Fraction(sys.float_info.max)
        # A + B is 10^(16 - d) / 2^F within 2^-107, and exactly where the
        # kernel takes the product as exact
        for i, (a, b, f, exact) in enumerate(zip(_cells._A.tolist(), _cells._B.tolist(),
                                                 _cells._F.tolist(), _cells._EXACT.tolist())):
            power = ten ** (16 - i - _cells._D_MIN) / Fraction(2) ** (f - _cells._E_MIN)
            assert 0.5 <= a <= 1.0
            assert abs(Fraction(a) + Fraction(b) - power) <= Fraction(1, 2**107)
            assert not exact or (b == 0.0 and Fraction(a) == power)
        assert _cells._EXACT.sum() == 23

    def test_benchmark_laws_need_no_fallback(self, monkeypatch, gamma_points):
        # every finite non-zero cell of the benchmark's dist law (at N = 1e5)
        # and of the two-window law at gamma(2) comes from the kernel: Python's
        # %.17g sees only the zero probabilities at the windows' edges
        seen = []
        fallback = _cells.percent_cells
        monkeypatch.setattr(_cells, "percent_cells", lambda x: seen.append(x) or fallback(x))
        point = gamma_points[2.0]
        laws = [scaled_law(10**5, ModelParams(0.0, 0.0), 0.5, float(g(0.0))),
                monomer_law(10**6, ModelParams(point.h, 2.0))]
        assert valley(laws[1]) is not None
        for law in laws:
            law.write(io.StringIO())
        cells = np.concatenate(seen) if seen else np.empty(0)
        assert not (np.isfinite(cells) & (cells != 0.0)).any()


def decade_edge(d):
    """The least double >= 10^d (the largest double for d = 309)."""
    if d > 308:
        return sys.float_info.max
    x = float(f"1e{d}")
    return math.nextafter(x, math.inf) if Fraction(x) < Fraction(10) ** d else x


def float_texts(x):
    """float_cells' text of each of the doubles x, from words that start
    as '*' in every byte, with RuntimeWarning as an error."""
    out = np.full((len(x), 3), 0x2A2A2A2A2A2A2A2A, np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _cells.float_cells(np.array(x, np.float64), out)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in out]


def one_decade_reads(monkeypatch):
    """A list that float_cells' calls append to, once each: True where the
    call reads its power-of-ten table once for the whole chunk."""
    reads = []

    class Table(np.ndarray):
        def __getitem__(self, key):
            reads.append(np.ndim(key) == 0)
            return np.asarray(self)[key]

    monkeypatch.setattr(_cells, "_A_HIGH", _cells._A_HIGH.view(Table))
    return reads


def inexact_near_ties():
    """Doubles x > 0 whose |x| 10^(16 - d) lies within 2^-44 of a
    half-integer, though 10^(16 - d) is not a double (d the decimal exponent
    of x): the exact ties at d = -7 and -8, and for d <= -7 and 35 <= d <= 38
    near-ties built by modular arithmetic."""
    ties = []
    for p, odd in ((23, range(3, 17, 2)), (24, (1, 3))):
        ties += [q / 2.0 ** (p + 1) for q in odd]
    # x = M 2^-(s + p): x 10^p = M 5^p / 2^s, and M 5^p = 2^(s - 1) + delta
    # modulo 2^s puts it delta / 2^s from a half-integer
    for p in range(23, 33):
        for s in range(45, 54):
            for delta in (-1, 1):
                m = (2 ** (s - 1) + delta) * pow(5**p, -1, 2**s) % 2**s
                ties += [math.ldexp(m + t * 2**s, -s - p) for t in range(2 ** (53 - s))
                         if 10**16 * 2**s <= (m + t * 2**s) * 5**p < 10**17 * 2**s][:3]
    # x = M 2^(j + q): x 10^-q = M 2^j / 5^q, and M 2^j = (5^q -+ 1) / 2 modulo
    # 5^q puts it 1 / (2 5^q) < 2^-44 from a half-integer
    for q in range(19, 23):
        for j in range(44, 56):
            for r in ((5**q - 1) // 2, (5**q + 1) // 2):
                m = r * pow(2**j, -1, 5**q) % 5**q
                ties += [math.ldexp(m + t * 5**q, j + q) for t in range(2**53 // 5**q)
                         if 10**16 * 5**q <= (m + t * 5**q) * 2**j < 10**17 * 5**q][:3]
    for x in ties:
        d = len(str(int(Fraction(x) * 10**400))) - 401
        scaled = Fraction(x) * Fraction(10) ** (16 - d)
        assert 10**16 <= scaled < 10**17 and not _cells._EXACT[d - _cells._D_MIN]
        assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 2**44)
    return ties


def broadcast_log_partition_pure(N, fields):
    """Reference: the one-shot fields x atoms broadcast that log_partition_pure
    replaced with blocks of fields."""
    hs = np.atleast_1d(np.asarray(fields, dtype=np.float64))
    k = np.arange(N // 2 + 1)
    base = matching_count_log(N, k) - k * math.log(N)
    s = (N - 2.0 * k)[None, :]
    return logsumexp(base[None, :] + hs[:, None] * s, axis=1)


# fields far outside |h| <= 30 and non-finite ones, which take the full rows
SPECIAL_FIELDS = np.array([-800.0, 800.0, np.inf, -np.inf, np.nan])


class TestLogPartitionPureBlocks:
    @pytest.mark.parametrize("N", [2, 51, 4002, 10**4, 10**5])
    @pytest.mark.parametrize("count", [
        lambda rows: 1, lambda rows: rows - 1, lambda rows: rows,
        lambda rows: rows + 1, lambda rows: 2001,
    ], ids=["1", "rows-1", "rows", "rows+1", "2001"])
    def test_bitwise_equal_to_broadcast(self, N, count):
        # rows: the number of fields log_partition_pure puts in one block;
        # beyond exact._FULL_ROWS atoms each block works on its fields' windows
        n_fields = count(max(1, exact._CELLS // (N // 2 + 1)))
        fields = np.random.default_rng(n_fields).uniform(-30.0, 30.0, n_fields)
        spots = np.arange(n_fields)[1::max(1, n_fields // len(SPECIAL_FIELDS))]
        spots = spots[:len(SPECIAL_FIELDS)]
        fields[spots] = SPECIAL_FIELDS[:len(spots)]
        # +-inf times the S = 0 atom of an even N is nan on both routes
        with np.errstate(invalid="ignore"):
            got = log_partition_pure(N, fields)
            # the broadcast a few fields at a time: scipy's logsumexp reduces
            # each row on its own, and 2001 x 50001 cells would take 0.8 GB
            ref = np.concatenate([broadcast_log_partition_pure(N, fields[i:i + 64])
                                  for i in range(0, max(1, n_fields), 64)])
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("N", [4002, 4003, 12345, 10**5])
    def test_windows_hold_every_atom_that_survives_exp(self, N):
        # every atom outside a field's window lies more than _WINDOW_DROP
        # below the row's maximum, and the window's end atoms do not
        k = np.arange(N // 2 + 1)
        base = matching_count_log(N, k) - k * math.log(N)
        s = N - 2.0 * k
        fields = np.concatenate([np.random.default_rng(N).uniform(-30.0, 30.0, 200),
                                 [-800.0, -30.0, -1e-9, 0.0, 1e-9, 30.0, 800.0]])
        lo, hi, peak = exact._pure_windows(base, s, fields)
        for h, a, b, top in zip(fields, lo, hi, peak):
            row = h * s + base
            assert top == row.max()
            inside = np.zeros(len(k), dtype=bool)
            inside[a:b] = True
            assert np.all(row[~inside] < top - exact._WINDOW_DROP)
            assert row[a] >= top - exact._WINDOW_DROP <= row[b - 1]

    @pytest.mark.parametrize("N", [2, 51, 10**4])
    def test_scalar_field_returns_float(self, N):
        val = log_partition_pure(N, 0.3)
        assert type(val) is float
        assert val == broadcast_log_partition_pure(N, 0.3)[0]

    def test_traced_memory_is_bounded(self):
        fields = np.linspace(-3.0, 3.0, 6144)
        log_partition_pure(10**4, fields[:1])  # warm caches outside the trace
        tracemalloc.start()
        try:
            log_partition_pure(10**4, fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one broadcast of 6144 x 5001 doubles would be 246 MB per temporary
        assert peak < 16 * 2**20


def linear_scan(a, b, reached):
    """The first i in [a, b) with reached(i), b if none: the reference for
    exact._first_reached and exact._first_atom."""
    return next((i for i in range(a, b) if reached(i)), b)


class TestSharedReductions:
    """The bisections over atom indices, row-vectorized for the J = 0 windows
    and on plain ints for the law's window and limits, and the one windowed
    log-sum-exp that exact, limits and the smoothed law share."""

    @given(st.lists(st.tuples(st.integers(0, 70), st.integers(0, 70), st.integers(-3, 75)),
                    min_size=1, max_size=8))
    @example([(5, 5, 0), (0, 0, 3), (70, 70, 75)])  # empty ranges only
    @example([(0, 70, 75), (3, 4, 3), (9, 9, 1), (0, 1, -3)])  # lengths 70, 1, 0, 1
    def test_bisection_matches_linear_scan(self, rows):
        a = np.array([min(lo, hi) for lo, hi, _ in rows])
        b = np.array([max(lo, hi) for lo, hi, _ in rows])
        t = np.array([t for _, _, t in rows])
        got = exact._first_reached(a, b, lambda i: i >= t)
        ref = [linear_scan(lo, hi, lambda i, t=tt: i >= t)
               for lo, hi, tt in zip(a.tolist(), b.tolist(), t.tolist())]
        assert got.tolist() == ref
        assert [exact._first_atom(lo, hi, lambda i, t=tt: i >= t)
                for lo, hi, tt in zip(a.tolist(), b.tolist(), t.tolist())] == ref

    @given(st.floats(-40.0, 40.0), st.floats(0.0, 1.0))
    @example(0.0, 0.5)
    def test_one_row_calls_from_limits(self, x, cut):
        # limits reads the mass below a limit atom, and coexistence_masses its
        # cut index, through the plain-int bisection on the atom index
        scaled = scaled_law(1001, ModelParams(0.2, 0.5), 0.5, 0.6)
        n = len(scaled.probabilities)
        for beyond in (operator.ge, operator.gt):
            got = exact._first_atom(0, n, lambda i: beyond(scaled.values_at(i), x))
            assert got == linear_scan(0, n, lambda i: beyond(scaled.positions[i], x))
        got = exact._first_atom(0, n, lambda k: (1001 - 2 * k) / 1001 < cut)
        assert got == linear_scan(0, n, lambda k: (1001 - 2 * k) / 1001 < cut)

    @pytest.mark.parametrize("seed", range(40))
    def test_two_interval_rows_equal_scipy_bitwise(self, seed):
        # values on two intervals, handed over alone; elsewhere values that
        # lie far enough below the row's maximum for their exp to underflow,
        # as at coexistence.  Coarse values give ties at the maximum, within
        # and across intervals
        rng = np.random.default_rng(seed)
        rows, n = int(rng.integers(1, 6)), int(rng.integers(4, 300))
        c1, d1, c2, d2 = np.sort(rng.choice(np.arange(n + 1), 4, replace=False)).tolist()
        windows = [(c1, d1), (c2, d2)]
        full = np.round(rng.normal(0.0, 30.0, (rows, n)), int(rng.integers(0, 3)))
        inside = np.zeros(n, dtype=bool)
        inside[c1:d1] = inside[c2:d2] = True
        full[:, ~inside] = full[:, inside].max(axis=1, keepdims=True) - 800.0
        got = exact._logsumexp_rows([full[:, c:d].copy() for c, d in windows], windows, n)
        assert got.tobytes() == logsumexp(full, axis=1).tobytes()


@st.composite
def padded_layouts(draw, max_n):
    """(values, windows): a zero-padded layout of 1 to max_n atoms, its
    length drawn to fall below 8, up to 128 or beyond (where NumPy's pairwise
    sum splits), holding values spread over 1e-300 .. 1e300, or over a factor
    of 2 where every addition rounds, on one or two windows, and 0 elsewhere;
    some window atoms are 0 too, as underflowed probabilities are."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, 300), st.integers(1, 20000),
                       st.integers(1, max_n)))
    ends = 4 if n >= 3 and draw(st.booleans()) else 2
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=ends, max_size=ends, unique=True)))
    windows = list(zip(cuts[::2], cuts[1::2]))
    spread = draw(st.sampled_from([0.0, 3.0, 300.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(n)
    for lo, hi in windows:
        part = rng.uniform(0.5, 1.0, hi - lo) * 10.0 ** rng.uniform(-spread, spread, hi - lo)
        part[rng.random(hi - lo) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        values[lo:hi] = part
    return values, windows


def same_bits(got, ref):
    return np.float64(got).tobytes() == np.float64(ref).tobytes()


class TestPaddedSum:
    """exact._padded_sum against np.sum over the zero-padded layout, bit for
    bit.  NumPy's pairwise summation order is an implementation detail, so
    this holds the tree walk against the NumPy that CI pins
    (.github/workflows/tier1.yml)."""

    @settings(max_examples=300)
    @given(padded_layouts(10**6), st.integers(0, 10**6))
    @example((np.array([1.0, 0.0, 2.0**-53, 2.0**-53]), [(0, 1), (2, 4)]), 0)
    def test_one_dimensional(self, layout, cut):
        values, windows = layout
        parts = [values[lo:hi].copy() for lo, hi in windows]
        assert same_bits(exact._padded_sum(parts, windows, len(values)), np.sum(values))
        # a suffix, as coexistence_masses sums it
        j = cut % (len(values) + 1)
        shifted = [(lo - j, hi - j) for lo, hi in windows]
        assert same_bits(exact._padded_sum(parts, shifted, len(values) - j), np.sum(values[j:]))

    @settings(max_examples=200)
    @given(padded_layouts(30000), st.integers(1, 6), st.integers(0, 2**32 - 1))
    # rows of 20 009 atoms, split above _LEAF on both sides, with two windows
    @example((np.where(np.isin(np.arange(20009) // 3000, [0, 1, 3, 4]), 1.0, 0.0),
              [(0, 6000), (9000, 15000)]), 3, 0)
    def test_rows(self, layout, rows, seed):
        # rows of a block on the same windows, each the layout's values times
        # its own factors in [0.5, 1]: the parts as views into a full-width
        # block (log_partition_pure) and as contiguous arrays (log_mixture,
        # monomer_law)
        values, windows = layout
        n = len(values)
        block = values * np.random.default_rng(seed).uniform(0.5, 1.0, (rows, n))
        ref = block.sum(axis=1)
        views = [block[:, lo:hi] for lo, hi in windows]
        assert exact._padded_sum(views, windows, n).tobytes() == ref.tobytes()
        copies = [v.copy() for v in views]
        assert exact._padded_sum(copies, windows, n).tobytes() == ref.tobytes()

    @settings(max_examples=200)
    @given(padded_layouts(10**6), st.integers(0, 10**6))
    def test_prefixes_and_suffixes_of_reversed_views(self, layout, cut):
        # a scaled law reads the monomer law's windows through reversed
        # views, and _mass_below sums a prefix of them
        values, windows = layout
        n = len(values)
        parts = [values[lo:hi].copy() for lo, hi in windows]
        reversed_parts = [p[::-1] for p in reversed(parts)]
        reversed_windows = [(n - hi, n - lo) for lo, hi in reversed(windows)]
        view = values[::-1]
        j = cut % (n + 1)
        assert same_bits(exact._padded_sum(reversed_parts, reversed_windows, j),
                         np.sum(view[:j]))
        shifted = [(lo - j, hi - j) for lo, hi in reversed_windows]
        assert same_bits(exact._padded_sum(reversed_parts, shifted, n - j), np.sum(view[j:]))


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


def direct_log_mgf(law, eta, u, t):
    """log E exp(t (S_N - u) / N^eta) summed over the law's log weights, not
    its probabilities, so atoms whose probability underflows still count."""
    return float(logsumexp(law.log_weights + t * (law.s_values - u) / law.N**eta)
                 - law.log_Z)


class TestMgf:
    """The MGF of the monomer count two ways: the ratio identity on
    log_partition_pure (J = 0) and the direct sum over monomer_law's log
    weights."""

    @pytest.mark.parametrize("J", [0.0, 1.0])
    def test_unity_at_zero(self, J):
        assert direct_log_mgf(monomer_law(100, ModelParams(0.3, J)), 1.0, 5.0, 0.0) == 0.0

    @pytest.mark.parametrize("h", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("eta,u,t", [(1.0, 0.0, 1.0), (0.5, 61.0, -0.7), (1.0, 0.0, 2.5)])
    def test_ratio_and_direct_routes_agree(self, h, eta, u, t):
        a = math.exp(tilted_log_mgf(log_partition_pure, 100, h, eta, u, t))
        b = math.exp(direct_log_mgf(monomer_law(100, ModelParams(h, 0.0)), eta, u, t))
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_density_mgf_approaches_lln_limit(self):
        val = math.exp(tilted_log_mgf(log_partition_pure, 10**4, 0.0, 1.0, 0.0, 1.0))
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
            assert direct_log_mgf(law, eta, u, 0.0) == 0.0
            val = math.exp(direct_log_mgf(law, eta, u, t))
        assert abs(val / linear - 1.0) < 1e-10

    def test_tilt_lifts_atoms_outside_the_window(self):
        # at h = -5 the window holds k >= 4705 of 0..5000; the largest tilt
        # that does not overflow (eta = u = 0) moves the peak to k = 4620,
        # where the probabilities underflowed: the direct sum must still see
        # those atoms through their log weights
        N, h = 10**4, -5.0
        law = monomer_law(N, ModelParams(h, 0.0))
        log_w, log_z, _ = full_support_law(N, h, 0.0)
        s = N - 2.0 * np.arange(N // 2 + 1)
        t = 2.4638571
        log_ref = logsumexp(log_w + t * s) - log_z
        assert 700.0 < log_ref < math.log(np.finfo(float).max)
        assert hull(law)[0] > int(np.argmax(log_w + t * s))
        val = math.exp(direct_log_mgf(law, 0.0, 0.0, t))
        assert abs(val / math.exp(log_ref) - 1.0) < 1e-12


def mean_density(n, params):
    """E[S_N] / N under the exact law."""
    return monomer_law(n, params).mean() / n


def pure_pressure_derivative(n, h, k):
    """d^k/dh^k of the pure-model pressure log(Z0_N)/N, k = 0..4: log Z / N
    and the cumulants of S_N / N, from central moments of the exact law (raw
    moments of S_N ~ N^4 lose too many digits; HERMITE_GATES gives what the
    central ones still lose at k = 3, 4)."""
    law = monomer_law(n, ModelParams(h=h, J=0.0))
    if k == 0:
        return law.log_Z / n
    if k == 1:
        return law.mean() / n
    mu2 = law.central_moment(2)
    if k == 2:
        return mu2 / n
    if k == 3:
        return law.central_moment(3) / n
    return (law.central_moment(4) - 3.0 * mu2 * mu2) / n


class TestMeanDensity:
    def test_small_systems(self):
        assert abs(mean_density(2, ModelParams(0.0, 0.0)) - 2.0 / 3.0) < 1e-14
        assert abs(mean_density(4, ModelParams(0.0, 0.0)) - 28.0 / 43.0) < 1e-14

    def test_lln_limit(self):
        assert abs(mean_density(10**4, ModelParams(0.0, 0.0)) - g(0.0)) < 5e-3


class TestPurePressureDerivatives:
    """The exact law's log Z and moments agree with each other: the cumulants
    of S_N are the h-derivatives of log Z0_N."""

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


# relative gates against the Heilmann-Lieb route for log Z (key 0) and the
# h-derivatives k = 1..4, each at least 10x the largest gap measured over the
# grid below (2-core Xeon, numpy 2.4.6, scipy 1.17.1): 7.1e-15, 7.1e-15,
# 9.3e-13, 7.1e-10 and 3.8e-8 (k = 4 at N = 1e4, h = -1, where kappa_4 is
# about -117 against a fourth central moment near 1.9e7)
HERMITE_GATES = {0: 1e-13, 1: 1e-13, 2: 1e-11, 3: 1e-8, 4: 1e-6}


class TestHeilmannLieb:
    """log Z0_N and the cumulants of S_N at J = 0 against the product over
    the roots of He_N (tests/oracles.py), a route that shares neither gammaln
    nor the log-weight sums with the library."""

    @pytest.mark.parametrize("h", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n", [10, 11, 1001, 10**4])
    def test_log_partition_pure(self, n, h):
        ref = hermite_log_partition_pure(n, h)
        assert abs(log_partition_pure(n, h) - ref) <= HERMITE_GATES[0] * abs(ref)

    @pytest.mark.parametrize("h", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n", [10, 11, 1001, 10**4])
    def test_cumulants(self, n, h):
        # the k-th h-derivative of log Z0_N / N is the k-th cumulant of S_N / N
        kappas = hermite_cumulants(n, h)
        for k in (1, 2, 3, 4):
            ref = kappas[k - 1] / n
            gap = abs(pure_pressure_derivative(n, h, k) - ref)
            assert gap <= HERMITE_GATES[k] * abs(ref), (k, gap / abs(ref))


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

    def test_full_partition_identity(self, panels):
        # the closed-form normalizer against the quadrature: the eta = 0,
        # u = 0 analytic density, whose shape reads Z_N through Z0_N only,
        # integrates to one over its closed-form domain; at the large-N
        # benchmark's sizes too.  That domain, [-delta, 1 + delta], is O(1)
        # wide around peaks of width about N^-1/2, so the integral stops at
        # the first pair of panel levels, (4, 8), up to N = 50 and takes the
        # measured levels beyond
        gamma2 = phase.trace_gamma([2.0])[0].h
        cases = {(4, 0.0, 1.0): [4, 8], (20, -0.5, 2.0): [4, 8], (50, 0.3, 0.7): [4, 8],
                 (1000, 0.0, 1.0): [4, 8, 16], (1000, 0.3, 0.5): [4, 8, 16],
                 (1000, gamma2, 2.0): [4, 8, 16], (10000, 0.0, 1.0): [4, 8, 16, 32],
                 (10000, 0.3, 0.5): [4, 8, 16], (10000, gamma2, 2.0): [4, 8, 16, 32]}
        for (n, h, J), levels in cases.items():
            sd = SmoothedDensity(n, ModelParams(h, J), eta=0.0, u=0.0)
            panels.clear()
            log_mass = quadrature.log_integral(sd.log_analytic, *sd.integration_domain())
            assert abs(log_mass) < 1e-10, f"N={n}, h={h}, J={J}"
            assert panels == levels, f"N={n}, h={h}, J={J}"

    @staticmethod
    def domain_margins(sd, points=4001):
        """How far below its maximum over a fine grid of the closed-form
        domain and the component means (the atoms S_k/N in y, where the
        domain's bound is taken) the analytic density lies at the domain's
        two ends."""
        lo, hi = sd.integration_domain()
        grid = np.concatenate([np.linspace(lo, hi, points), sd.component_means])
        log_a = sd.log_analytic(grid)
        return log_a.max() - log_a[0], log_a.max() - log_a[points - 1]

    @pytest.mark.parametrize("N", [4, 20, 100])
    def test_integration_domain_holds_criterion_5_mass(self, N):
        params = ModelParams(0.0, 1.0)
        base = SmoothedDensity(N, params)
        for eta, u in itertools.product((0.0, 0.25, 0.5), (0.0, classify(params).maximizers[0])):
            margins = self.domain_margins(base.rescaled(eta, u), 20001)
            assert min(margins) >= quadrature.TAIL_DROP, (eta, u, margins)

    @given(st.integers(1, 1000), st.floats(-3.0, 3.0), st.floats(0.05, 10.0),
           st.floats(0.0, 0.5), st.floats(-1.0, 2.0))
    # N = 1: one atom at y = 1, at exactly TAIL_DROP above the upper end
    @example(1, 0.0, 1.0, 0.0, 0.0)
    def test_integration_domain_is_sound(self, N, h, J, eta, u):
        # the bound is exact for one atom, so allow the rounding of
        # log_analytic's terms of size TAIL_DROP + N J
        margins = self.domain_margins(SmoothedDensity(N, ModelParams(h, J), eta=eta, u=u))
        assert min(margins) >= quadrature.TAIL_DROP - 1e-12 * (quadrature.TAIL_DROP + N * J)

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            SmoothedDensity(10, ModelParams(0.0, 0.0))

    @pytest.mark.parametrize("first", ["base", "sibling"])
    @pytest.mark.parametrize("N, eta, u_kind", list(itertools.product(
        (4, 20, 100), (0.0, 0.25, 0.5), ("0", "m_star"))))
    def test_sibling_equals_fresh_instance(self, N, eta, u_kind, first):
        # criterion 5's 18 cases: a sibling shares the law of a density at
        # another (eta, u), whichever of the two reads its normalizer first,
        # and gives every bit of a freshly built density
        params = ModelParams(0.0, 1.0)
        u = 0.0 if u_kind == "0" else classify(params).maximizers[0]
        base = SmoothedDensity(N, params, eta=0.4, u=-0.3)
        if first == "base":
            base.log_normalizer
        sibling = base.rescaled(eta, u)
        fresh = SmoothedDensity(N, params, eta=eta, u=u)
        assert sibling.law is base.law
        assert sibling.log_normalizer.hex() == fresh.log_normalizer.hex()
        assert (base.eta, base.u) == (0.4, -0.3)
        assert sibling.component_means.tobytes() == fresh.component_means.tobytes()
        assert sibling.component_var.hex() == fresh.component_var.hex()
        sig = math.sqrt(fresh.component_var)
        means = fresh.component_means
        grid = np.linspace(means.min() - 3 * sig, means.max() + 3 * sig, 201)
        for route in ("log_analytic", "log_mixture"):
            digests = [hashlib.sha256(getattr(sd, route)(grid).tobytes()).hexdigest()
                       for sd in (sibling, fresh)]
            assert digests[0] == digests[1], route

    def test_rescaled_rejects_negative_eta(self):
        sd = SmoothedDensity(10, ModelParams(0.0, 1.0))
        with pytest.raises(ValueError, match="eta must be >= 0"):
            sd.rescaled(-0.1, 0.0)
        with pytest.raises(ValueError, match="eta must be >= 0"):
            SmoothedDensity(10, ModelParams(0.0, 1.0), eta=-0.1)

    @pytest.mark.parametrize("N", [20, 10**4])
    @pytest.mark.parametrize("count", [
        lambda rows: 1, lambda rows: rows - 1, lambda rows: rows,
        lambda rows: rows + 1, lambda rows: 201,
    ], ids=["1", "rows-1", "rows", "rows+1", "201"])
    def test_log_mixture_blocks_match_one_broadcast(self, N, count):
        sd = SmoothedDensity(N, ModelParams(0.0, 1.0), eta=0.5, u=0.6)
        # rows: the number of points log_mixture puts in one block
        n_points = count(max(1, exact._CELLS // len(sd.component_means)))
        xs = np.linspace(-8.0, 6.0, n_points)
        # far tails, where every component's exponent is large and negative
        lo, hi = sd.component_means.min(), sd.component_means.max()
        xs[::5] = np.linspace(lo - 50.0, hi + 50.0, len(xs[::5]))
        z = xs[:, None] - sd.component_means[None, :]
        expo = -(z * z) / (2.0 * sd.component_var)
        log_p = sd.law.log_weights - sd.law.log_Z
        ref = (logsumexp(log_p[None, :] + expo, axis=1)
               - 0.5 * math.log(2.0 * math.pi * sd.component_var))
        got = sd.log_mixture(xs)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("N, eta, coexistence", [
        (10**3, 0.0, False), (10**3, 0.5, False), (10**4, 0.0, False), (10**4, 0.5, False),
        (10**4, 0.0, True), (2 * 10**4, 0.0, True),
    ])
    def test_window_rows_keep_the_full_row_bits(self, monkeypatch, N, eta, coexistence):
        # the benchmark's four smoothed laws on their bulk, and gamma(2) over
        # both phases and the valley: log_mixture against scipy's logsumexp
        # over every component's row, bit for bit.  Beyond exact._FULL_ROWS
        # components the bulk reads the window's components alone; at
        # coexistence the points over the valley, and those far from both
        # peaks, take full rows
        if coexistence:
            point = phase.trace_gamma([2.0])[0]
            sd = SmoothedDensity(N, ModelParams(point.h, 2.0), eta=eta, u=0.0)
            xs = np.linspace(point.m1 - 0.05, point.m2 + 0.05, 301)
        else:
            params = ModelParams(0.0, 1.0)
            sd = SmoothedDensity(N, params, eta=eta, u=classify(params).maximizers[0])
            xs = np.linspace(*_bulk(sd), 201)
        widths = []
        log_rows = SmoothedDensity._log_rows

        def counted(self, points, means, log_p, windows):
            widths.append((len(points), len(means)))
            return log_rows(self, points, means, log_p, windows)

        monkeypatch.setattr(SmoothedDensity, "_log_rows", counted)
        got = sd.log_mixture(xs)
        z = xs[:, None] - sd.component_means[None, :]
        expo = -(z * z) / (2.0 * sd.component_var)
        log_p = sd.law.log_weights - sd.law.log_Z
        ref = (logsumexp(log_p[None, :] + expo, axis=1)
               - 0.5 * math.log(2.0 * math.pi * sd.component_var))
        assert got.tobytes() == ref.tobytes()
        n, inside = N // 2 + 1, sum(b - a for a, b in sd.law.windows)
        if n <= exact._FULL_ROWS:
            assert widths == [(len(xs), n)]
        elif coexistence:
            assert [w for _, w in widths] == [inside, n] and 0 < widths[1][0] < len(xs)
        else:
            assert widths == [(len(xs), inside)] and inside < n

    @pytest.mark.parametrize("N, J", [(10**3, 1e3), (10**4, 300.0), (10**5, 10.0)])
    def test_normalizer_at_large_n_j(self, N, J):
        # N F_N is a difference of terms of size N J, whose rounding stalled
        # a quadrature of it; the closed form is exact and the two routes
        # still agree on the bulk
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            start = time.perf_counter()
            sd = SmoothedDensity(N, ModelParams(0.0, J))
            log_c = sd.log_normalizer
            elapsed = time.perf_counter() - start
            xs = np.linspace(*_bulk(sd), 201)
            log_a, log_m = sd.log_analytic(xs), sd.log_mixture(xs)
        assert math.isfinite(log_c) and elapsed < 1.0
        assert np.all(np.isfinite(log_m))
        assert np.max(np.abs(log_a - log_m)) < 1e-8

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_normalizer_at_1e5_in_bounded_memory(self):
        # log_analytic's log_partition_pure takes one row of 50001 atoms per
        # point at this N; peak RSS as VmHWM, as in
        # test_law_at_1e8_in_bounded_memory
        lo, hi = _bulk(SmoothedDensity(10**5, ModelParams(0.0, 1.0)))
        code = (
            "import numpy as np\n"
            "from imd.exact import SmoothedDensity\n"
            "from imd.thermo import ModelParams\n"
            "sd = SmoothedDensity(10**5, ModelParams(0.0, 1.0))\n"
            f"print(np.isfinite(sd.log_analytic(np.linspace({lo!r}, {hi!r}, 201))).all())\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(status.split()[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True).stdout.split()
        assert out[0] == "True"
        assert int(out[1]) < 200 * 1024  # kB

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_underflowing_atoms_at_large_n(self, eta):
        # most component weights underflow to 0 at N = 1e4; the mixture must
        # stay finite and warning-free and still match the analytic route
        params = ModelParams(0.0, 1.0)
        m_star = classify(params).maximizers[0]
        sd = SmoothedDensity(10**4, params, eta=eta, u=m_star)
        assert np.count_nonzero(sd.law.probabilities == 0.0) > 0
        xs = np.linspace(*_bulk(sd), 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_m = sd.log_mixture(xs)
            log_a = sd.log_analytic(xs)
        assert np.all(np.isfinite(log_m))
        assert np.max(np.abs(np.expm1(log_a - log_m))) < 1e-8


def _bulk(sd):
    """The mean +- 6 standard deviations of the smoothed variable."""
    p, means = sd.law.probabilities, sd.component_means
    mean = float(np.dot(p, means))
    spread = math.sqrt(float(np.dot(p, (means - mean) ** 2)) + sd.component_var)
    return mean - 6.0 * spread, mean + 6.0 * spread
