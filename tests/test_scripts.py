"""Smoke tests for the runnable studies in scripts/: they run in process and
write their artifacts with the expected headers."""

import hashlib
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


# sha256 of the four tables that limit_theorem_tables.py writes for sizes
# 1e2 .. 1e6: every KS bit of the four studies, written with 17 digits
TABLE_DIGESTS = {
    "clt_pure.csv": "7d1bd1f4ed18c53de47f0ee85a63444631c6aa5f913e03128ee827ce034e789d",
    "clt_unique.csv": "99f50e916e9ca6c238141140a5330ffba8c632a3fc49a21f461d5a7ff79e49eb",
    "critical_quartic.csv": "5bf3ede0cc422c97a31176ec4a79a3cb6779523228fa1388e5be5f10e1435ecd",
    "coexistence_mixture.csv": "7230b082c1b3a3406b2073f99f4ecec943e638821c5191637af51b3416b2c5ee",
}


def test_limit_theorem_tables_to_1e6_keep_their_bytes(monkeypatch, tmp_path):
    run_script(monkeypatch, "limit_theorem_tables.py", "--sizes",
               "100,1000,10000,100000,1000000", "--outdir", str(tmp_path))
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == TABLE_DIGESTS
