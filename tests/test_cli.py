"""Tests for the command-line interface: schemas, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from imd import phase
from imd.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from imd.exact import log_partition_pure, monomer_law
from imd.limits import scaled_law
from imd.thermo import ModelParams, g

from oracles import stationary_count_mp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPhaseCommand:
    def test_unique_point(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--h", "0", "--J", "0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["kind"] == "unique"
        assert abs(payload["maximizers"][0] - 0.618034) < 1e-6

    def test_three_roots_inside_one_grid_cell(self, capsys):
        # J - J_c = 1e-6, h in the middle of the two-maxima window
        code, out, _ = run_cli(capsys, "phase", "--h", "-0.34411337480261517",
                               "--J", "1.4571077811865474")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["kind"] == "coexistence"
        assert len(payload["maximizers"]) == 2 and len(payload["stationary_points"]) == 3

    def test_root_near_zero_with_subnormal_residual(self, capsys):
        # r(0) = -g(-740) is subnormal here; the maximizer is m = 0 with
        # ptilde = -0.5, not m = 1 with -5, and 30 digits see three roots
        code, out, _ = run_cli(capsys, "phase", "--h", "-5", "--J", "735")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["kind"] == "unique"
        assert payload["maximizers"] == [0.0]
        points = payload["stationary_points"]
        assert abs(points[0]["value"] + 0.5) < 1e-12
        maxima = sum(p["is_maximum"] for p in points)
        assert (len(points), maxima) == stationary_count_mp(-5.0, 735.0) == (3, 2)

    def test_near_degenerate_is_domain_error(self, capsys):
        # 2e-10 above gamma(2): inside the guard band around equal heights
        code, _, err = run_cli(capsys, "phase", "--h", "-0.4128173928886404", "--J", "2")
        assert code == EXIT_DOMAIN
        assert "unique" in err and "coexistence" in err


class TestCriticalCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "critical")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["m_c"] - (2.0 - math.sqrt(2.0))) < 1e-10
        assert abs(payload["J_c"] - 1.4571067811865475) < 1e-10
        assert abs(payload["h_c"] - (-0.3441132032297992)) < 1e-10
        assert payload["lambda_c"] < 0.0

    def test_bytes_keep_their_digest(self, capsys):
        # sha256 of the artifact when the payload listed its fields by hand
        code, out, _ = run_cli(capsys, "critical")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7cc0dcd2d1580c8262d6584a9dc162280aaa90ee6a2765b5c38666848f02da5e")


class TestGammaCommand:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--jmin", "1.5", "--jmax", "2.0", "--steps", "2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "J,h,m1,m2,lambda1,lambda2,rho1,rho2"
        assert len(lines) == 3
        row = dict(zip(lines[0].split(","), map(float, lines[2].split(","))))
        assert row["J"] == 2.0
        assert abs(row["h"] - (-0.4128173930886404)) < 1e-9
        assert row["rho1"] < row["rho2"]

    def test_below_critical_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--jmin", "1.0", "--jmax", "2.0", "--steps", "2")
        assert code == EXIT_DOMAIN
        assert "critical coupling" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "gamma", "--jmin", "2.0", "--jmax", "2.0", "--steps", "1",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["points"]) == 1

    def test_json_bytes_keep_their_digest(self, capsys):
        # sha256 of the artifact when the payload listed its fields by hand
        # and each point's gaps were walked again
        code, out, _ = run_cli(capsys, "gamma", "--jmin", "1.5", "--jmax", "5", "--steps", "7",
                               "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "49ba29a86b328364b57d0c3a2166c917346e0374008140ff41fbcf5fec327374")

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "gamma", "--jmin", "2.0", "--jmax", "3.0", "--steps", "2")
        _, out2, _ = run_cli(capsys, "gamma", "--jmin", "2.0", "--jmax", "3.0", "--steps", "2")
        assert out1 == out2


class TestDistCommand:
    def test_monomer_law_csv(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--N", "4", "--h", "0", "--J", "0")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "k,S,log_weight,probability"
        probs = [float(line.split(",")[3]) for line in lines[1:]]
        assert abs(sum(probs) - 1.0) < 1e-12
        assert abs(probs[0] - 16.0 / 43.0) < 1e-12

    def test_scaled_law_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--N", "4", "--h", "0", "--J", "0", "--eta", "1", "--u", "0"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "k,S,position,probability"
        positions = [float(line.split(",")[2]) for line in lines[1:]]
        assert positions == [0.0, 0.5, 1.0]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "law.csv"
        code, out, _ = run_cli(
            capsys, "dist", "--N", "6", "--h", "0.1", "--J", "0.2", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("k,S,log_weight,probability")

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(
            capsys, "dist", "--N", "4", "--h", "0", "--J", "0",
            "--output", "/nonexistent-dir/law.csv",
        )
        assert code == EXIT_IO
        assert "cannot write" in err

    def test_scaled_law_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--N", "6", "--h", "0", "--J", "0", "--eta", "0.5", "--u", "0.6",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        law = scaled_law(6, ModelParams(0.0, 0.0), 0.5, 0.6)
        assert payload["position"] == law.positions.tolist()
        assert payload["probability"] == law.probabilities.tolist()
        assert (payload["N"], payload["eta"], payload["u"]) == (6, 0.5, 0.6)

    def test_invalid_params_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--N", "4", "--h", "0", "--J", "-1")
        assert code == EXIT_DOMAIN

    def test_domain_error_creates_no_output(self, tmp_path, capsys):
        # the law is computed before the output is opened
        target = tmp_path / "f"
        code, out, err = run_cli(capsys, "dist", "--N", "0", "--h", "0", "--J", "0",
                                 "--output", str(target))
        assert code == EXIT_DOMAIN
        assert "system size must be positive" in err
        assert not target.exists()

    @pytest.mark.parametrize("extra", [[], ["--eta", "0.5", "--u", "0.3"], ["--format", "json"]],
                             ids=["csv", "scaled-csv", "json"])
    def test_stdout_bytes_match_output_file(self, tmp_path, extra):
        argv = [sys.executable, "-m", "imd.cli", "dist", "--N", "1000", "--h", "0.2",
                "--J", "1.5", *extra]
        target = tmp_path / "law.out"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        shown = subprocess.run(argv, capture_output=True, env=env, check=True).stdout
        subprocess.run([*argv, "--output", str(target)], env=env, check=True)
        assert shown == target.read_bytes()
        assert len(shown) > 10000

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    @pytest.mark.parametrize("scaled, fmt", [
        pytest.param(False, "csv", id="False"), pytest.param(True, "csv", id="True"),
        pytest.param(False, "json", id="json-False"), pytest.param(True, "json", id="json-True"),
    ])
    def test_csv_streams_in_bounded_memory(self, tmp_path, scaled, fmt):
        # 1e6 atoms, 37 MB of CSV: the rows (or the JSON columns) go out chunk
        # by chunk, so the process holds little more than the law's
        # probabilities.  Peak RSS as VmHWM of the fresh process, as in
        # test_exact
        target = tmp_path / "f.out"
        argv = ["dist", "--N", "2000000", "--h", "0", "--J", "0", "--format", fmt,
                "--output", str(target)]
        if scaled:
            argv += ["--eta", "0.5", "--u", repr(float(g(0.0)))]
        code = (
            "import sys\n"
            "from imd.cli import main\n"
            "print(main(sys.argv[1:]))\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(status.split()[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, env=env, check=True).stdout.split()
        assert int(out[0]) == EXIT_OK
        # a header and a row per atom; or braces, the scalars (J, N, h and
        # log_Z, or eta and u too) and two lines around each column of atoms
        lines = {"csv": 1 + 1000001, "json": 2 + 4 + 4 * (1000001 + 2)}
        if fmt == "json" and scaled:
            lines["json"] = 2 + 5 + 2 * (1000001 + 2)
        with open(target, "rb") as fh:
            assert sum(1 for _ in fh) == lines[fmt]
        assert int(out[1]) < 160 * 1024  # kB

    @pytest.mark.parametrize("n, h, J, scaled", [
        pytest.param(1000, 0.2, 1.5, False, id="False"),
        pytest.param(1000, 0.2, 1.5, True, id="True"),
        # gamma(2): two intervals, the valley's columns evaluated chunk by chunk
        pytest.param(20000, None, 2.0, False, id="coexistence"),
        pytest.param(20000, None, 2.0, True, id="coexistence-scaled"),
        pytest.param(1001, -0.3, 0.5, False, id="odd"),
        pytest.param(1001, -0.3, 0.5, True, id="odd-scaled"),
    ])
    def test_json_bytes_match_element_wise_route(self, capsys, n, h, J, scaled):
        # reference: the payloads as built with float()/int() per element
        if h is None:
            h = phase.trace_gamma([J])[0].h
        params = ModelParams(h, J)
        argv = ["dist", "--N", str(n), f"--h={h!r}", f"--J={J!r}", "--format", "json"]
        if scaled:
            argv += ["--eta", "0.5", "--u", "0.3"]
            law = scaled_law(n, params, 0.5, 0.3)
            payload = {"N": n, "h": h, "J": J, "eta": 0.5, "u": 0.3,
                       "position": list(map(float, law.positions)),
                       "probability": list(map(float, law.probabilities))}
        else:
            law = monomer_law(n, params)
            payload = {"N": n, "h": h, "J": J, "log_Z": law.log_Z,
                       "k": [int(k) for k in law.k_values],
                       "S": [int(s) for s in law.s_values],
                       "log_weight": list(map(float, law.log_weights)),
                       "probability": list(map(float, law.probabilities))}
        if n == 20000:
            assert len(law.windows) == 2
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("scaling, name", [
        (["--eta", "1000", "--u", "0"], "eta=1000.0 makes N^eta = 10^1000.0"),
        (["--eta", "400", "--u", "0"], "eta=400.0 makes N^eta = 10^400.0"),
        (["--eta", "0.5", "--u", "1e308"], "u=1e+308 makes N*u = 10*1e+308"),
    ], ids=["eta-1000", "eta-400", "u-1e308"])
    def test_non_finite_scaling_is_domain_error(self, capsys, scaling, name):
        code, out, err = run_cli(capsys, "dist", "--N", "10", "--h", "0", "--J", "0",
                                 *scaling)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert name in err and "non-finite" in err


class TestLaplaceCommand:
    def test_row_schema(self, capsys):
        code, out, _ = run_cli(capsys, "laplace", "--N", "10,100", "--h", "0")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "N,log_quadrature,log_asymptote,ratio"
        assert len(lines) == 3
        n, quad_val, asym, ratio = lines[1].split(",")
        assert n == "10"
        assert abs(float(ratio) - math.exp(float(quad_val) - float(asym))) < 1e-12

    @pytest.mark.parametrize("h", ["25", "30"])
    def test_large_field_maximizer_is_interior(self, capsys, h):
        # xhat = e^{-h} g(h) is about 1e-11 and 1e-13: far below an absolute
        # 1e-9 margin, yet well inside the window [xhat/4, xhat + 1]
        code, out, err = run_cli(capsys, "laplace", "--N", "5,50", "--h", h)
        assert code == EXIT_OK, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["5", "50"]
        assert all(abs(float(r[3]) - 1.0) < 1e-12 for r in rows)

    def test_malformed_N_list_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "laplace", "--N", "10,xyz")
        assert code == EXIT_USAGE

    def test_cancelling_lobes_are_domain_error(self, capsys):
        # odd N at very negative h: Psi's two lobes cancel to about 1e-13
        code, out, err = run_cli(capsys, "laplace", "--N", "1", "--h", "-30")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "cancel" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("h", ["355", "-355", "700", "-700", "709", "-709", "710",
                                   "-710", "745", "-745", "800", "-800", "1e300", "-1e300"])
    def test_extreme_fields_answer_or_name_the_range(self, h):
        # e^h and e^-h are doubles only for |h| < log(DBL_MAX) = 709.78; from
        # |h| of about 355, (x + e^h)^2 in the curvature overflows to inf
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["laplace", "--N", "1,2,10", f"--h={h}"])
        assert code in (EXIT_OK, EXIT_DOMAIN), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if abs(float(h)) >= 710:
            assert code == EXIT_DOMAIN
            assert f"field h={float(h)!r} is outside the representable range" in err.getvalue()
        elif float(h) > 0:
            assert code == EXIT_OK, err.getvalue()
            assert len(out.getvalue().splitlines()) == 4

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_non_positive_size_is_domain_error(self, capsys, n):
        code, out, err = run_cli(capsys, "laplace", f"--N={n}")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert f"system size must be positive, got N={n}" in err
        assert "Traceback" not in err


class TestRepresentableRange:
    @pytest.mark.parametrize("argv, name", [
        (["phase", "--h", "-0.5", "--J", "1e20"], "coupling J=1e+20"),
        (["phase", "--h", "0", "--J", "1e200"], "coupling J=1e+200"),
        (["phase", "--h", "5e307", "--J", "5e307"], "coupling J=5e+307"),
        (["phase", "--h", "1e308", "--J", "1e308"], "coupling J=1e+308"),
        (["phase", "--h", "1e308", "--J", "1"], "field h=1e+308"),
        (["gamma", "--jmin", "1e20", "--jmax", "1e20", "--steps", "1"], "coupling J=1e+20"),
        (["dist", "--N", "10", "--h", "1e308", "--J", "0"], "field h=1e+308"),
        (["dist", "--N", "10", "--h", "1e307", "--J", "0"], "N (|h| + 2J)"),
        (["dist", "--N", "10", "--h=-4e307", "--J", "0"], "N (|h| + 2J)"),
    ], ids=["J-1e20", "J-1e200", "both-5e307", "both-1e308", "h-1e308", "gamma-J-1e20",
            "dist-h-1e308", "dist-Nh-1e308", "dist-Nh-4e308"])
    def test_finite_inputs_beyond_the_range_name_it(self, argv, name):
        # each used to end in a traceback, a bare math error, "h must be
        # finite" or a RuntimeWarning; now one imd: line names the range
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code == EXIT_DOMAIN
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("imd: "), lines
        assert name in lines[0] and "outside the representable range" in lines[0]
        assert not caught

    @pytest.mark.parametrize("argv", [
        ["phase", "--h", "-0.5", "--J", repr(2.0**50)],
        ["phase", "--h", "4e307", "--J", "1"],
        ["dist", "--N", "10", "--h", "4.4e306", "--J", "0"],
    ], ids=["J-2^50", "h-4e307", "dist-Nh-4.4e307"])
    def test_inputs_at_the_range_edge_answer(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code == EXIT_OK, err.getvalue()
        assert not caught


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["critical", "--frob"])
        assert err.value.code == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dist", "--h", "0", "--J", "0"])
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["phase", "--h", "0", "--J", "0"],
        ["critical"],
        ["laplace", "--N", "10"],
        ["verify", "--suite", "laplace"],
    ])
    def test_format_only_on_table_commands(self, argv):
        # only gamma and dist write either CSV or JSON
        with pytest.raises(SystemExit) as err:
            main([*argv, "--format", "json"])
        assert err.value.code == EXIT_USAGE

    def test_non_finite_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "phase", "--h", "inf", "--J", "0")
        assert code == EXIT_USAGE
        assert "finite" in err


sizes = st.integers(-200, 200)
# --h also draws non-finite values, which main refuses with exit 64
fields = st.one_of(st.floats(-30.0, 30.0), st.sampled_from([math.nan, math.inf, -math.inf]))
couplings = st.floats(-1.0, 1000.0)
numeric_argv = st.one_of(
    st.tuples(st.just("phase"), st.tuples(st.just("h"), fields),
              st.tuples(st.just("J"), couplings)),
    st.tuples(st.just("gamma"), st.tuples(st.just("jmin"), couplings),
              st.tuples(st.just("jmax"), couplings),
              st.tuples(st.just("steps"), st.integers(-1, 3))),
    st.tuples(st.just("dist"), st.tuples(st.just("N"), sizes),
              st.tuples(st.just("h"), fields), st.tuples(st.just("J"), couplings),
              st.tuples(st.just("eta"), st.floats(-1.0, 3.0)),
              st.tuples(st.just("u"), st.floats(-10.0, 10.0))),
    st.tuples(st.just("laplace"),
              st.tuples(st.just("N"), st.lists(sizes, min_size=1, max_size=2).map(
                  lambda ns: ",".join(map(str, ns)))),
              st.tuples(st.just("h"), fields)),
)


class TestNumericFlags:
    @settings(max_examples=200)
    @given(numeric_argv)
    @example(("laplace", ("N", "101"), ("h", -4.0)))  # left lobe outside the right's domain
    @example(("laplace", ("N", "100"), ("h", -6.0)))
    def test_every_value_gets_an_exit_code(self, drawn):
        # --flag=value, so that argparse reads "-1e-05" as a value, not a flag
        command, *flags = drawn
        argv = [command] + [f"--{name}={value}" for name, value in flags]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if command == "laplace" and code == EXIT_OK:
            # every row is the Gaussian representation of log Z0_N(h)
            h = dict(flags)["h"]
            for row in out.getvalue().splitlines()[1:]:
                n, log_quad = row.split(",")[:2]
                gap = (float(log_quad) + 0.5 * math.log(int(n) / (2.0 * math.pi))
                       - log_partition_pure(int(n), h))
                assert abs(gap) < 1e-8, (argv, row)


class TestNearCritical:
    """J just above J_c and h within 1e-12..1e-1 of h_c: each command answers
    or names the guard band or the unresolved two-maxima window."""

    @given(st.floats(-12.0, -1.0), st.floats(-12.0, -1.0), st.sampled_from([-1.0, 1.0]))
    # inside the two-maxima window at J - J_c = 1e-6: three stationary points
    @example(-6.0, math.log10(0.34411337480261517 - 0.34411320322979877), -1.0)
    # a bisection field inside the window at J - J_c = 8.3e-11 shows one maximum
    @example(-10.083393777805131, -1.0, -1.0)
    def test_answer_or_named_domain_error(self, log_dj, log_dh, sign):
        cp = phase.find_critical_point()
        J, h = cp.J_c + 10.0**log_dj, cp.h_c + sign * 10.0**log_dh
        for argv in (["phase", f"--h={h!r}", f"--J={J!r}"],
                     ["gamma", f"--jmin={J!r}", f"--jmax={J!r}", "--steps", "1"],
                     ["dist", "--N", "5000", f"--h={h!r}", f"--J={J!r}", "--eta", "0.75",
                      f"--u={cp.m_c!r}"]):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (EXIT_OK, EXIT_DOMAIN), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
            if code == EXIT_DOMAIN:
                assert ("cannot separate" in err.getvalue()
                        or "no two-maxima window resolved" in err.getvalue()), (argv, err.getvalue())
            elif argv[0] == "phase":
                # every stationary point, and every maximum, that 30 digits see
                points = json.loads(out.getvalue())["stationary_points"]
                roots, maxima = stationary_count_mp(h, J)
                assert len(points) == roots, (argv, points)
                assert sum(p["is_maximum"] for p in points) == maxima, (argv, points)


class TestVerifyCommand:
    def test_fast_suite_passes_and_prints_criteria(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "laplace")
        assert code == EXIT_OK
        assert "[ 3] PASS" in out
        assert "[ 4] PASS" in out
        assert "2/2 criteria passed" in out

    def test_exit_code_contract_via_console_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "imd.cli", "verify", "--suite", "thermo"],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode in (EXIT_OK, EXIT_VERIFY)
        assert "[ 1]" in result.stdout


class TestThreadCap:
    def test_thread_count_env(self, monkeypatch):
        from imd.parallel import thread_count

        monkeypatch.delenv("IMD_THREADS", raising=False)
        assert thread_count() == 1
        monkeypatch.setenv("IMD_THREADS", "4")
        assert thread_count() == 4
        monkeypatch.setenv("IMD_THREADS", "0")
        with pytest.raises(ValueError):
            thread_count()
        monkeypatch.setenv("IMD_THREADS", "soup")
        with pytest.raises(ValueError):
            thread_count()

    def test_parallel_map_preserves_order(self, monkeypatch):
        from imd.parallel import parallel_map

        monkeypatch.setenv("IMD_THREADS", "3")
        assert parallel_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]
