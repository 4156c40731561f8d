"""The three workloads of the imd benchmark, their oracles and their set-up.

Every workload is a closed loop of identical jobs run by one caller; a job is
a fixed list of operations, each a plain call into the public ``imd`` API.
``Recorder.run`` times each call, catches its warnings and errors, and then,
outside the timed region, checks the output against an oracle and, every
``CALIBRATE_EVERY_S`` of call time, takes a reading of the host's speed (see
calibration.py).

An operation fails if it raises anything other than a documented domain error
(``NearDegenerateError`` for ``classify``), emits a ``RuntimeWarning``, or
fails its oracle.  A failed operation is still timed.  Oracles compare at the
package's pinned tolerances, not bitwise, and each numeric comparison also
yields a margin in digits, log10(tolerance / error), capped at
``MARGIN_CAP``: errors more than a thousand times below their gate count as
fully in bounds, so last-bit movement does not read as lost digits.

The workloads and why they were chosen:

* ``verify`` - ``imd verify --suite all`` through ``cli.main``: the
  acceptance command users run.  Most of its time is ``phase`` (criterion 9)
  and ``thermo`` (criterion 10), with many small-N calls into ``exact``,
  ``laplace`` and ``quadrature``.
* ``phase_diagram`` - critical point, the 59-point coexistence curve of
  ``scripts/phase_diagram.py`` written as CSV, ``classify`` at every traced
  point, five near-critical traces, and 400 ``classify`` points drawn from
  the seed: ``phase`` and ``thermo`` do nearly all the work, and
  ``solve_consistency`` is used both inside bisection and once per
  ``classify``.  BENCHMARK.json leaves it out: on a shared 2-core host its
  median job time still spreads by about a tenth from run to run, and the
  longer runs that would steady it do not fit the benchmark's time limit
  beside the other two.  ``verify`` measures ``phase`` and ``thermo``
  in its place; ``--workload phase_diagram`` runs it by hand.
* ``large_n`` - the convergence studies of ``scripts/limit_theorem_tables.py``
  up to N = 1e6, the LLN distance at N = 1e7, the Gaussian-smoothed law at
  N = 1e4, log Z_N against 50-digit references and an N = 1e6 ``imd dist``
  CSV: ``exact``, ``limits``, ``quadrature`` and CSV output do the work, and
  this workload sets the peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
from imd import cli, exact, limits, phase, quadrature, thermo
from imd.thermo import ModelParams

HERE = Path(__file__).resolve().parent
MARGIN_CAP = 3.0

# tolerances not pinned by the package itself
RESIDUAL_TOL = 1e-12          # consistency residual of a classify maximizer
RATIO_TOL = 1e-10             # b-formula vs closed-form mixture ratio (criterion 9)
CRITICAL_TOL = 1e-12          # merge conditions of the critical point
SUM_TOL = 1e-12               # total probability of a law
SMOOTHED_TOL = 1e-8           # analytic vs mixture route (criterion 5)
BASIN_TOL = 0.05              # basin-mass error at N = 1e5 (criterion 9)
KS_TOL = 1e-9                 # KS value vs the stored table
LOG_Z_TOL_PER_N = 1e-12       # log Z_N vs the 50-digit reference; log-weights are O(N)

CALIBRATE_EVERY_S = 0.2       # job time between two host-speed readings


# --------------------------------------------------------------------------
# recording one job
# --------------------------------------------------------------------------


@dataclass
class Check:
    label: str
    ok: bool
    margin: float | None = None
    part: str | None = None


def digits(tol: float, error: float) -> float:
    """log10(tol / error), capped at MARGIN_CAP and at -MARGIN_CAP."""
    error = abs(float(error))
    if math.isnan(error):
        return -MARGIN_CAP
    if error == 0.0:
        return MARGIN_CAP
    return max(-MARGIN_CAP, min(MARGIN_CAP, math.log10(tol / error)))


def within(label: str, error: float, tol: float) -> Check:
    error = abs(float(error))
    return Check(label, bool(error <= tol), digits(tol, error))


def holds(label: str, condition) -> Check:
    return Check(label, bool(condition))


@dataclass
class Outcome:
    name: str
    failed: bool
    reason: str = ""


class Recorder:
    """Runs the operations of one job and records time, outcomes and checks."""

    def __init__(self, tracer=None, checking: bool = True, calibrated: bool = False):
        self.tracer = tracer
        self.checking = checking
        self.seconds = 0.0        # time inside the calls: the job time
        self.check_seconds = 0.0  # time spent in oracles, outside the job time
        self.outcomes: list[Outcome] = []
        self.checks: list[Check] = []
        # host-speed readings between calls, outside the job time: pairs of
        # (call seconds since the previous reading, reading)
        self.calibrated = calibrated
        self.readings: list[tuple[float, float]] = []
        self._unread = 0.0
        if calibrated:
            self.readings.append((0.0, calibration.reading()))

    def run(self, name, fn, check=None, documented=(), parts=None):
        """Time fn(); return its value, or None if it raised.

        ``parts`` names the operations one call stands for; a check with a
        ``part`` fails only that operation, one without fails them all.
        """
        value, reason = None, ""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                value = fn()
            except documented:
                pass
            except Exception as err:  # every failure is counted; the loop goes on
                reason = f"{type(err).__name__}: {err}"
            finally:
                elapsed = perf_counter() - t0
                self.seconds += elapsed
                self._unread += elapsed
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if warned and not reason:
            reason = f"RuntimeWarning: {warned[0].message}"
        checks = []
        if value is not None and check is not None and self.checking:
            t0 = perf_counter()
            checks = self._checked(name, check, value)
            self.check_seconds += perf_counter() - t0
            self.checks.extend(checks)
        for part in parts or [name]:
            bad = [c.label for c in checks if not c.ok and c.part in (None, part)]
            why = reason or (f"oracle: {bad[0]}" if bad else "")
            self.outcomes.append(Outcome(part, bool(why), why))
        if self.calibrated and self._unread >= CALIBRATE_EVERY_S:
            self._read()
        return value

    def _read(self):
        self.readings.append((self._unread, calibration.reading()))
        self._unread = 0.0

    def reference_seconds(self) -> float:
        """The job time in reference seconds, each stretch of calls scaled
        by the readings at its two ends.  Needs ``calibrated``."""
        if self._unread > 0.0 or len(self.readings) == 1:
            self._read()
        return sum(calibration.scaled(t, r0, r1)
                   for (_, r0), (t, r1) in zip(self.readings, self.readings[1:]))

    def _checked(self, name, check, value):
        try:
            if self.tracer is None:
                return check(value)
            with self.tracer.paused():
                return check(value)
        except Exception as err:  # an output the oracle cannot read is wrong
            return [Check(f"{name}: oracle could not read the output: {err!r}", False)]

    def skip(self, name, reason):
        self.outcomes.append(Outcome(name, True, f"not attempted: {reason}"))


# --------------------------------------------------------------------------
# shared oracles
# --------------------------------------------------------------------------


def residual_checks(report, h, J, label):
    checks = []
    for m in report.maximizers:
        r = m - thermo.g(ModelParams(h, J).effective_field(m))
        checks.append(within(f"{label}: consistency residual at m={m:.6g}", r, RESIDUAL_TOL))
    return checks


def critical_checks(cp):
    x_c = (2.0 * cp.m_c - 1.0) * cp.J_c + cp.h_c
    return [
        within("critical: m_c = g(x_c)", cp.m_c - thermo.g(x_c), CRITICAL_TOL),
        within("critical: 2 J_c g'(x_c) = 1",
               2.0 * cp.J_c * thermo.g_derivative(x_c, 1) - 1.0, CRITICAL_TOL),
        holds("critical: lambda_c < 0", cp.lambda_c < 0.0),
    ]


def gamma_checks(points):
    checks = []
    for p in points:
        params = ModelParams(p.h, p.J)
        gap = thermo.tilde_p(p.m2, params) - thermo.tilde_p(p.m1, params)
        ratio = p.rho1 / p.rho2 - phase.mixture_ratio_closed_form(p)
        checks += [
            holds(f"gamma J={p.J:.6g}: m1 < m2", p.m1 < p.m2),
            within(f"gamma J={p.J:.6g}: height gap", gap, phase.EQUAL_HEIGHT_TOL),
            within(f"gamma J={p.J:.6g}: mixture ratio", ratio, RATIO_TOL),
        ]
    return checks


def sum_check(probabilities, label):
    return within(f"{label}: sum p = 1", float(np.sum(probabilities)) - 1.0, SUM_TOL)


def lazy_setup():
    """The package's lazy set-up, done once per process before any job."""
    cp = phase.find_critical_point()
    quartic = limits.Quartic(cp.lambda_c)
    quadrature.gauss_legendre(24)
    quadrature.gauss_legendre(16)
    return cp, quartic


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Verify:
    name = "verify"

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)

    def setup(self):
        lazy_setup()

    def sizes(self):
        return {"suite": "all", "criteria": 10}

    def job(self, rec: Recorder):
        out = self.workdir / "verify.txt"
        argv = ["verify", "--suite", "all", "--output", str(out)]
        rec.run("imd verify --suite all", lambda: (cli.main(argv), out),
                check=self._check, parts=[f"criterion {k}" for k in range(1, 11)])

    @staticmethod
    def _check(result):
        """Every criterion must PASS; the exit code and the summary line must
        agree with the criterion lines, so that one failing criterion fails
        one operation."""
        code, path = result
        lines = path.read_text(encoding="utf-8").splitlines()
        checks, part, passed = [], None, {}
        for line in lines:
            head = re.match(r"\[\s*(\d+)\] (PASS|FAIL)\s", line)
            if head:
                part = f"criterion {int(head.group(1))}"
                passed[part] = head.group(2) == "PASS"
                checks.append(Check(f"{part}: {head.group(2)}", passed[part], part=part))
                continue
            detail = re.match(r"\s+(ok  |FAIL) (.*)$", line)
            if detail and part:
                ok, label = detail.group(1) == "ok  ", detail.group(2)
                gate = re.search(r"(\S+) < (\S+)$", label)
                margin = _printed_margin(gate.group(1), gate.group(2)) if gate else None
                checks.append(Check(f"{part}: {label}", ok, margin, part))
        for k in range(1, 11):
            if f"criterion {k}" not in passed:
                checks.append(Check(f"criterion {k}: missing", False, part=f"criterion {k}"))
        n_pass = sum(passed.values())
        checks += [
            holds("verify: exit code agrees with the criteria",
                  code == (0 if n_pass == len(passed) else 2)),
            holds("verify: summary line agrees with the criteria",
                  bool(lines) and lines[-1] == f"suite 'all': {n_pass}/{len(passed)} criteria passed"),
        ]
        return checks


def _printed_margin(value: str, bound: str):
    """Margin of a printed 'value < bound' check, taking the value's upper
    bound from its printed precision (an e-format zero is an exact zero)."""
    try:
        v, b = Decimal(value.rstrip(",")), Decimal(bound)
    except InvalidOperation:
        return None
    if v == 0 and "e" in value.lower():
        upper = 0.0
    else:
        upper = float(abs(v)) + 0.5 * 10.0 ** v.as_tuple().exponent
    return digits(float(b), upper)


class PhaseDiagram:
    name = "phase_diagram"
    GRID_POINTS = 60                      # scripts/phase_diagram.py default
    J_MAX = 50.0
    NEAR_CRITICAL = (1e-2, 5e-3, 3.6e-3, 1e-3, 1e-4)
    CLASSIFY_POINTS = 400
    H_RANGE = (-2.0, 1.5)
    J_RANGE = (0.0, 5.0)

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        rng = np.random.default_rng(seed)
        hs = rng.uniform(*self.H_RANGE, self.CLASSIFY_POINTS)
        js = rng.uniform(*self.J_RANGE, self.CLASSIFY_POINTS)
        self.points = [(float(h), float(j)) for h, j in zip(hs, js)]

    def setup(self):
        self.cp, _ = lazy_setup()

    def sizes(self):
        return {"gamma_grid_points": self.GRID_POINTS - 1, "J_max": self.J_MAX,
                "near_critical_offsets": list(self.NEAR_CRITICAL),
                "classify_points": self.CLASSIFY_POINTS,
                "h_range": list(self.H_RANGE), "J_range": list(self.J_RANGE)}

    def j_grid(self, J_c):
        span = self.J_MAX - J_c
        n = self.GRID_POINTS
        return [J_c + span * (math.expm1(4.0 * t) / math.expm1(4.0))
                for t in (i / (n - 1) for i in range(1, n))]

    def job(self, rec: Recorder):
        cp = rec.run("find_critical_point", phase.find_critical_point,
                     check=critical_checks) or self.cp
        j_values = self.j_grid(cp.J_c)
        path = self.workdir / "coexistence_curve.csv"

        def trace_grid():
            points = phase.trace_gamma(j_values)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                phase.gamma_points_to_csv(points, fh)
            return points

        points = rec.run(f"trace_gamma: {len(j_values)}-point grid to CSV", trace_grid,
                         check=lambda pts: gamma_checks(pts) + _curve_csv_checks(path, pts))
        for i, J in enumerate(j_values):
            name = f"classify on the curve, J={J:.6g}"
            if points is None:
                rec.skip(name, "the grid trace failed")
                continue
            p = points[i]
            rec.run(name, lambda p=p: phase.classify(ModelParams(p.h, p.J)),
                    check=lambda r, p=p: [holds(f"curve J={p.J:.6g}: coexistence",
                                                r.kind == "coexistence")]
                    + residual_checks(r, p.h, p.J, f"curve J={p.J:.6g}"))
        for d in self.NEAR_CRITICAL:
            rec.run(f"trace_gamma J - J_c = {d:g}",
                    lambda d=d: phase.trace_gamma([cp.J_c + d]), check=gamma_checks)
        for h, J in self.points:
            rec.run(f"classify h={h:.6g} J={J:.6g}",
                    lambda h=h, J=J: phase.classify(ModelParams(h, J)),
                    check=lambda r, h=h, J=J: residual_checks(r, h, J, f"h={h:.6g} J={J:.6g}"),
                    documented=(phase.NearDegenerateError,))


def _curve_csv_checks(path, points):
    rows = path.read_text(encoding="utf-8").splitlines()
    expected = [[p.J, p.h, p.m1, p.m2, p.lambda1, p.lambda2, p.rho1, p.rho2] for p in points]
    parsed = [[float(v) for v in row.split(",")] for row in rows[1:]]
    return [holds("curve CSV: header", rows[0] == "J,h,m1,m2,lambda1,lambda2,rho1,rho2"),
            holds("curve CSV: parses back to the traced points", parsed == expected)]


class LargeN:
    name = "large_n"
    SIZES = (100, 1000, 10000, 100000, 1000000)
    LLN_N = 10 ** 7
    SMOOTHED = ((1000, 0.0), (1000, 0.5), (10000, 0.0), (10000, 0.5))
    DIST_N = 10 ** 6

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
        self.dist_digest = None

    def setup(self):
        self.cp, self.quartic = lazy_setup()
        self.u = float(thermo.g(0.0))  # dist is centred at the J=0 density

    def sizes(self):
        return {"study_sizes": list(self.SIZES), "lln_N": self.LLN_N,
                "smoothed_N_eta": [list(x) for x in self.SMOOTHED],
                "log_Z_refs": len(self.refs["log_partition"]), "dist_N": self.DIST_N}

    def job(self, rec: Recorder):
        cp = rec.run("find_critical_point", phase.find_critical_point,
                     check=critical_checks) or self.cp
        point = rec.run("trace_gamma J=2", lambda: phase.trace_gamma([2.0])[0],
                        check=lambda p: gamma_checks([p]))
        for name, study in studies(cp, self.quartic, point, self.SIZES):
            if study is None:
                rec.skip(f"convergence_study {name}", "trace_gamma J=2 failed")
                continue
            rec.run(f"convergence_study {name}", study,
                    check=lambda table, name=name: self._ladder_checks(name, table))
        for n in self.SIZES:
            if point is None:
                rec.skip(f"coexistence_masses N={n}", "trace_gamma J=2 failed")
                continue
            rec.run(f"coexistence_masses N={n}",
                    lambda n=n: limits.coexistence_masses(n, point),
                    check=lambda masses, n=n: self._mass_checks(n, masses, point))
        rec.run(f"LLN point-mass KS N={self.LLN_N:.0e}", lln_study(self.LLN_N),
                check=self._lln_checks)
        report = rec.run("classify h=0 J=1", lambda: phase.classify(ModelParams(0.0, 1.0)),
                         check=lambda r: residual_checks(r, 0.0, 1.0, "h=0 J=1"))
        for N, eta in self.SMOOTHED:
            name = f"SmoothedDensity N={N} eta={eta}"
            if report is None:
                rec.skip(name, "classify h=0 J=1 failed")
                continue
            rec.run(name, lambda N=N, eta=eta: smoothed(N, eta, report.maximizers[0]),
                    check=lambda r, name=name: [
                        sum_check(r[0].law.probabilities, name),
                        within(f"{name}: |log analytic - log mixture| on the bulk",
                               np.max(np.abs(r[1] - r[2])), SMOOTHED_TOL)])
        for ref in self.refs["log_partition"]:
            name = f"monomer_law N={ref['N']} at {ref['point']}"
            rec.run(name, lambda ref=ref: exact.monomer_law(
                        ref["N"], ModelParams(ref["h"], ref["J"])),
                    check=lambda law, ref=ref, name=name: [
                        sum_check(law.probabilities, name),
                        within(f"{name}: log Z vs 50-digit reference",
                               law.log_Z - float(ref["log_Z"]),
                               LOG_Z_TOL_PER_N * ref["N"])])
        path = self.workdir / "dist.csv"
        argv = ["dist", "--N", str(self.DIST_N), "--h", "0", "--J", "0",
                "--eta", "0.5", "--u", repr(self.u), "--output", str(path)]
        rec.run(f"imd dist --N {self.DIST_N}", lambda: cli.main(argv),
                check=lambda code: self._dist_checks(code, path))

    def _ladder_checks(self, name, table):
        ref = self.refs["ks"][name]
        checks = [holds(f"{name}: trend_ok", table.trend_ok),
                  holds(f"{name}: sizes", [r.N for r in table.rows] == list(self.SIZES))]
        checks += [within(f"{name}: KS at N={r.N} vs table", r.ks - k, KS_TOL)
                   for r, k in zip(table.rows, ref)]
        return checks

    def _mass_checks(self, n, masses, point):
        checks = [holds(f"basin masses N={n} in [0, 1]",
                        0.0 <= masses[0] <= 1.0 and 0.0 <= masses[1] <= 1.0)]
        if n == 100000:
            checks.append(within("basin-mass error at N=1e5", masses[0] - point.rho1,
                                 BASIN_TOL))
        return checks

    def _lln_checks(self, result):
        scaled, ks = result
        return [sum_check(scaled.probabilities, "LLN law"),
                within("LLN KS vs table", ks - self.refs["ks"]["lln"], KS_TOL)]

    def _dist_checks(self, code, path):
        checks = [holds("dist: exit code 0", code == 0)]
        if code != 0:
            return checks
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.dist_digest is None:
            law = limits.scaled_law(self.DIST_N, ModelParams(0.0, 0.0), 0.5, self.u)
            checks.append(sum_check(law.probabilities, "dist law"))
            checks.append(holds("dist: CSV parses back to the in-memory law",
                                _dist_csv_matches(path, law)))
            self.dist_digest = digest
        else:
            checks.append(holds("dist: CSV identical to the first job's",
                                digest == self.dist_digest))
        return checks


def _dist_csv_matches(path, law) -> bool:
    """Stream the CSV and compare every row with the law, bit for bit (the
    CSV holds 17 significant digits, which round-trip a double)."""
    n = law.N
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "k,S,position,probability":
            return False
        count = 0
        for i, line in enumerate(fh):
            k, s, pos, prob = line.rstrip("\n").split(",")
            if (int(s) != n - 2 * int(k) or float(pos) != law.positions[i]
                    or float(prob) != law.probabilities[i]):
                return False
            count += 1
    return count == len(law.positions)


def studies(cp, quartic, point, sizes):
    """(name, zero-argument call) for the four convergence studies of
    scripts/limit_theorem_tables.py; the call is None when its input is."""
    def clt_pure():
        return limits.convergence_study(
            ModelParams(0.0, 0.0), 0.5, float(thermo.g(0.0)),
            limits.Gaussian(0.0, thermo.g_derivative(0.0, 1)), sizes)

    def clt_unique():
        params = ModelParams(0.2, 0.5)
        m_star = phase.classify(params).maximizers[0]
        return limits.convergence_study(
            params, 0.5, m_star, limits.Gaussian(0.0, phase.clt_variance(params)), sizes)

    def critical_quartic():
        return limits.convergence_study(
            ModelParams(cp.h_c, cp.J_c), 0.75, cp.m_c, quartic, sizes)

    def coexistence_mixture():
        mixture = limits.TwoPointMixture(point.rho1, point.m1, point.rho2, point.m2)
        return limits.convergence_study(
            ModelParams(point.h, point.J), 1.0, 0.0, mixture, sizes)

    return [("clt_pure", clt_pure), ("clt_unique", clt_unique),
            ("critical_quartic", critical_quartic),
            ("coexistence_mixture", coexistence_mixture if point is not None else None)]


def lln_study(N):
    def call():
        scaled = limits.scaled_law(N, ModelParams(0.0, 0.0), 1.0, 0.0)
        return scaled, limits.ks_distance(scaled, limits.PointMass(thermo.g(0.0)))
    return call


def smoothed(N, eta, m_star):
    """Both routes of the smoothed law on its bulk, the mean +- 6 standard
    deviations of the smoothed variable; the analytic route computes
    log_normalizer on first use."""
    sd = exact.SmoothedDensity(N, ModelParams(0.0, 1.0), eta=eta, u=m_star)
    p, means = sd.law.probabilities, sd.component_means
    mean = float(np.dot(p, means))
    sd_x = math.sqrt(float(np.dot(p, (means - mean) ** 2)) + sd.component_var)
    grid = np.linspace(mean - 6.0 * sd_x, mean + 6.0 * sd_x, 201)
    return sd, sd.log_analytic(grid), sd.log_mixture(grid)


WORKLOADS = {w.name: w for w in (Verify, PhaseDiagram, LargeN)}
