"""Acceptance gate: one test per criterion, at the pinned tolerances.

Each test prints its criterion's pass/fail line plus the labeled sub-checks,
so `pytest -v -s tests/test_acceptance.py` doubles as the acceptance report;
the same criteria back the `imd verify` subcommand.
"""

import contextlib
import hashlib
import io
import re

import pytest

from imd import exact, quadrature, thermo, verification
from imd.cli import main


@pytest.mark.parametrize("number", verification.CRITERIA)
def test_criterion(number):
    result = verification.run_criterion(number)
    print()
    print(result.summary_line())
    for line in result.detail_lines():
        print(line)
    failed = [label for label, ok in result.checks if not ok]
    assert result.passed, f"criterion {number} failed: {failed}"


# sha256 of the `imd verify --suite all` text with every criterion's
# timing stripped (_strip_timing), one "\n" after each line
VERIFY_DIGEST = "718140abe0a5918523fc9a534b953b34186b9fed61934677ec147c61c2ff086a"


def _strip_timing(line):
    return re.sub(r"  \(\d+\.\d s\)$", "", line)


def test_verify_text_keeps_every_bit():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--suite", "all"]) == 0
    text = "".join(_strip_timing(line) + "\n" for line in out.getvalue().splitlines())
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DIGEST


def _counted(monkeypatch, module, name):
    """Count the calls of module.name for the rest of the test."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_criterion_5_builds_one_law_and_integral_per_size(monkeypatch):
    # 3 sizes N, each with 6 (eta, u) cases derived from one density, whose
    # normalization check integrates over its one closed-form domain
    integrals = _counted(monkeypatch, quadrature, "log_integral")
    laws = _counted(monkeypatch, exact, "monomer_law")
    assert verification.run_criterion(5).passed
    assert (len(integrals), len(laws)) == (3, 3)
    # nothing is kept from one call to the next
    assert verification.run_criterion(5).passed
    assert (len(integrals), len(laws)) == (6, 6)


def test_criterion_10_solves_each_batch_in_one_call(monkeypatch):
    # the 441-point grid and the five finite-N samples, each one batch of
    # the lane route, which never runs the scalar walk
    pressures = _counted(monkeypatch, thermo, "variational_pressure")
    walks = _counted(monkeypatch, thermo, "_walk_roots")
    assert verification.run_criterion(10).passed
    assert [len(params) for params, in pressures] == [441, 5]
    assert walks == []


def test_criterion_2_enumerates_each_graph_once(monkeypatch):
    # K_N for N = 2..8, shared by the 9 (h, J) of each N
    enumerations = _counted(monkeypatch, verification, "_enumerate_matchings")
    assert verification.run_criterion(2).passed
    assert sorted(n for (n,) in enumerations) == list(range(2, 9))
