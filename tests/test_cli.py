"""Tests for the command-line interface: schemas, exit codes, determinism."""

import json
import math
import os
import stat
import subprocess
import sys

import pytest

from imd.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from imd.limits import scaled_law
from imd.thermo import ModelParams


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

    def test_malformed_N_list_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "laplace", "--N", "10,xyz")
        assert code == EXIT_USAGE


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
