"""Smoke tests for the runnable studies in scripts/: they run in process and
write their artifacts with the expected headers."""

import json
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_phase_diagram(monkeypatch, tmp_path, capsys):
    run_script(monkeypatch, "phase_diagram.py", "--points", "5", "--outdir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "coexistence_curve.csv", "critical_point.json"]
    critical = json.loads((tmp_path / "critical_point.json").read_text())
    assert set(critical) == {"J_c", "h_c", "lambda_c", "m_c"}
    rows = (tmp_path / "coexistence_curve.csv").read_text().splitlines()
    assert rows[0] == "J,h,m1,m2,lambda1,lambda2,rho1,rho2"
    assert len(rows) == 1 + 4
    assert "traced 4 curve points" in capsys.readouterr().out


def test_limit_theorem_tables(monkeypatch, tmp_path, capsys):
    run_script(monkeypatch, "limit_theorem_tables.py", "--sizes", "100,1000",
               "--outdir", str(tmp_path))
    names = ["clt_pure", "clt_unique", "critical_quartic", "coexistence_mixture"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.csv" for n in names)
    for name in names:
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert rows[0] == "N,ks,decreasing"
        assert [row.split(",")[0] for row in rows[1:]] == ["100", "1000"]
    assert "wrote 4 tables" in capsys.readouterr().out
