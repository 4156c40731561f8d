"""Acceptance suite: every guarantee of the toolkit as a runnable criterion.

Each criterion returns a CriterionResult with labeled sub-checks and pinned
tolerances.  The CLI ``verify`` subcommand and the pytest acceptance module
both dispatch here, so there is exactly one source of truth for what "pass"
means.  All checks are deterministic (no sampling anywhere in the package).
Within one call a criterion computes each (N, params) quantity once, no more.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import exact, laplace, limits, phase, quadrature, thermo
from .thermo import ModelParams

__all__ = ["CriterionResult", "CRITERIA", "SUITES", "run_suite", "brute_force_log_partitions"]


@dataclass
class CriterionResult:
    number: int
    suite: str
    title: str
    checks: list[tuple[str, bool]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {status}  {self.title}  ({self.elapsed:.1f} s)"

    def detail_lines(self) -> list[str]:
        return [
            f"      {'ok  ' if ok else 'FAIL'} {label}" for label, ok in self.checks
        ]


# --------------------------------------------------------------------------
# brute-force oracle: every matching of the complete graph, N <= 8
# --------------------------------------------------------------------------


def _enumerate_matchings(n: int):
    """Yield dimer counts |D| of all matchings of K_n (vertices 0..n-1)."""

    def rec(free: tuple[int, ...]):
        if not free:
            yield 0
            return
        v, rest = free[0], free[1:]
        # v is a monomer
        yield from rec(rest)
        # v is paired with any later free vertex
        for i in range(len(rest)):
            for k in rec(rest[:i] + rest[i + 1 :]):
                yield k + 1

    yield from rec(tuple(range(n)))


def brute_force_log_partitions(N: int, params_seq) -> list[float]:
    """log Z_N for each of ``params_seq`` by exhaustive enumeration over all
    matchings (oracle, N <= 8); the one enumeration of K_N serves them all."""
    if N > 8:
        raise ValueError(f"brute-force enumeration is capped at N=8, got {N}")
    k = np.fromiter(_enumerate_matchings(N), dtype=float)
    m = (N - 2 * k) / N
    out = []
    for p in params_seq:
        arr = -k * math.log(N) + N * ((p.h - p.J) * m + p.J * m * m)
        mx = arr.max()
        out.append(float(mx + math.log(np.sum(np.exp(arr - mx)))))
    return out


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    res = CriterionResult(1, "thermo", "closed-form identities of g and p0")
    hs = np.linspace(-30.0, 30.0, 601)
    gv = np.asarray(thermo.g(hs))
    # 1 - g is evaluated through the stable complement: beyond h ~ 18.7 the
    # naive difference 1.0 - g is not even representable in double precision
    one_minus = np.exp(np.asarray(thermo.log_one_minus_g(hs)))
    quad = np.abs(gv * gv - np.exp(2.0 * hs) * one_minus)
    res.check(f"sup |g^2 - e^(2h)(1-g)| = {quad.max():.2e} < 1e-12", quad.max() < 1e-12)
    forms = np.abs(np.asarray(thermo.p0(hs)) - np.asarray(thermo.p0_second_form(hs)))
    res.check(f"sup |p0 form1 - form2| = {forms.max():.2e} < 1e-12", forms.max() < 1e-12)
    step = 1e-6
    fd = (np.asarray(thermo.p0(hs + step)) - np.asarray(thermo.p0(hs - step))) / (2 * step)
    dgap = np.abs(fd - gv)
    res.check(f"sup |d p0/dh - g| = {dgap.max():.2e} < 1e-6", dgap.max() < 1e-6)
    return res


def criterion_2() -> CriterionResult:
    res = CriterionResult(2, "exact", "partition function vs exhaustive matching enumeration")
    worst = 0.0
    cases = [ModelParams(h, J) for h, J in itertools.product((-1.0, 0.0, 1.0), (0.0, 1.0, 2.0))]
    for N in range(2, 9):
        for params, brute in zip(cases, brute_force_log_partitions(N, cases)):
            worst = max(worst, abs(exact.log_partition(N, params) - brute))
        res.check(f"N={N}: max |log Z - brute force| over 9 (h,J) <= {worst:.2e}", worst < 1e-12)
    return res


def criterion_3() -> CriterionResult:
    res = CriterionResult(3, "laplace", "Gaussian-moment representation of the pure partition function")
    worst = 0.0
    rep = {}
    for N in (2, 4, 10, 50, 100, 101):
        for h in (-1.0, 0.0, 1.0):
            rep[N, h] = laplace.gaussian_rep_log_partition(N, h)
            worst = max(worst, abs(rep[N, h] - exact.log_partition_pure(N, h)))
    res.check(f"max |gaussian-rep logZ - combinatorial logZ| = {worst:.2e} < 1e-8", worst < 1e-8)
    closed = abs(rep[2, 0.0] - math.log(1.5))
    res.check(f"N=2, h=0 equals ln(3/2) to {closed:.2e}", closed < 1e-10)
    return res


def criterion_4() -> CriterionResult:
    res = CriterionResult(4, "laplace", "Laplace asymptote of the pure pressure")
    for u in (-1.0, 0.0, 1.0):
        devs = [abs(laplace.pure_asymptote_ratio(N, u) - 1.0) for N in (100, 1000, 10000)]
        res.check(
            f"u={u:+.0f}: |R_N - 1| = {devs[0]:.4f} > {devs[1]:.4f} > {devs[2]:.4f}",
            devs[0] > devs[1] > devs[2],
        )
        res.check(f"u={u:+.0f}: |R_1000 - 1| = {devs[1]:.4f} < 0.02", devs[1] < 0.02)
    return res


def criterion_5() -> CriterionResult:
    res = CriterionResult(5, "exact", "Gaussian-smoothed law: analytic form vs finite mixture")
    params = ModelParams(0.0, 1.0)
    m_star = phase.classify(params).maximizers[0]
    worst = mass = 0.0
    for N in (4, 20, 100):
        base = exact.SmoothedDensity(N, params)
        for eta, u in itertools.product((0.0, 0.25, 0.5), (0.0, m_star)):
            sd = base.rescaled(eta, u)
            means, sig = sd.component_means, math.sqrt(sd.component_var)
            grid = np.linspace(means.min() - 3 * sig, means.max() + 3 * sig, 201)
            worst = max(worst, float(np.max(np.abs(sd.analytic(grid) / sd.mixture(grid) - 1.0))))
        # the closed-form normalizer against the quadrature of the eta = 0,
        # u = 0 analytic density, which reads Z_N through Z0_N only
        pieces = quadrature.peaked_components(base.log_analytic, -1.0, 2.0)
        log_mass = np.logaddexp.reduce([quadrature.log_integral(base.log_analytic, a, b)
                                        for a, b in pieces])
        mass = max(mass, abs(float(log_mass)))
    res.check(f"max relative gap over 18 (N, eta, u) cases = {worst:.2e} < 1e-8", worst < 1e-8)
    res.check(f"max |log integral of the analytic density| over N = 4, 20, 100 "
              f"= {mass:.2e} < 1e-10", mass < 1e-10)
    return res


def criterion_6() -> CriterionResult:
    res = CriterionResult(6, "limits", "pure model: central limit theorem and law of large numbers")
    g0 = thermo.g(0.0)
    gp0 = thermo.g_derivative(0.0, 1)
    params = ModelParams(0.0, 0.0)
    study = limits.convergence_study(params, 0.5, g0, limits.Gaussian(0.0, gp0), (100, 1000, 10000))
    ks = [r.ks for r in study.rows]
    res.check(f"KS to N(0, g'(0)): {ks[0]:.4f} > {ks[1]:.4f} > {ks[2]:.4f}", ks[0] > ks[1] > ks[2])
    res.check(f"KS at N=1e4 = {ks[2]:.4f} < 0.05", ks[2] < 0.05)
    sl = limits.scaled_law(10000, params, 1.0, 0.0)
    outside = float(np.sum(sl.probabilities[np.abs(sl.positions - g0) > 0.05]))
    res.check(f"mass outside g(0)+-0.05 at N=1e4 = {outside:.2e} < 0.01", outside < 0.01)
    return res


def criterion_7() -> CriterionResult:
    res = CriterionResult(7, "limits", "central limit theorem in the uniqueness region")
    params = ModelParams(0.2, 0.5)
    v_curv = phase.clt_variance(params)
    v_red = phase.clt_variance_reduced(params)
    res.check(
        f"sigma^2 two closed forms: {v_curv:.6f}, gap {abs(v_curv - v_red):.2e} < 1e-12",
        abs(v_curv - v_red) < 1e-12,
    )
    m_star = phase.classify(params).maximizers[0]
    study = limits.convergence_study(
        params, 0.5, m_star, limits.Gaussian(0.0, v_curv), (100, 1000, 10000)
    )
    ks = [r.ks for r in study.rows]
    res.check(f"KS: {ks[0]:.4f} > {ks[1]:.4f} > {ks[2]:.4f}", ks[0] > ks[1] > ks[2])
    res.check(f"KS at N=1e4 = {ks[2]:.4f} < 0.05", ks[2] < 0.05)
    return res


def criterion_8() -> CriterionResult:
    res = CriterionResult(8, "limits", "critical point: quartic limit law and CLT breakdown")
    cp = phase.find_critical_point()
    params = ModelParams(cp.h_c, cp.J_c)
    law = limits.Quartic(cp.lambda_c)
    study = limits.convergence_study(params, 0.75, cp.m_c, law, (1000, 10000, 100000))
    ks = [r.ks for r in study.rows]
    res.check(f"KS to quartic law: {ks[0]:.4f} > {ks[1]:.4f} > {ks[2]:.4f}", ks[0] > ks[1] > ks[2])
    res.check(f"KS at N=1e4 = {ks[1]:.4f} < 0.1", ks[1] < 0.1)
    v_lo = limits.scaled_law(1000, params, 0.5, cp.m_c).variance()
    v_hi = limits.scaled_law(16000, params, 0.5, cp.m_c).variance()
    ratio = v_hi / v_lo
    res.check(
        f"sqrt(N)-scaled variance ratio (N: 1e3 -> 1.6e4) = {ratio:.2f} in (2, 6)",
        2.0 < ratio < 6.0,
    )
    return res


def criterion_9() -> CriterionResult:
    res = CriterionResult(9, "limits", "coexistence curve: two-phase mixture weights")
    point = phase.trace_gamma([2.0])[0]
    errs = [abs(limits.coexistence_masses(N, point)[0] - point.rho1)
            for N in (1000, 10000, 100000)]
    res.check(
        f"J=2 basin-mass error: {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}",
        errs[0] > errs[1] > errs[2],
    )
    res.check(f"error at N=1e5 = {errs[2]:.2e} < 0.05", errs[2] < 0.05)
    J_grid = [1.5, 1.6, 1.8, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0]
    points = phase.trace_gamma(J_grid)
    res.check("rho1 < rho2 at every traced J in [1.5, 50]", all(p.rho1 < p.rho2 for p in points))
    worst = max(
        abs(p.rho1 / p.rho2 - phase.mixture_ratio_closed_form(p)) for p in points
    )
    res.check(f"b-formula vs closed-form ratio: max gap {worst:.2e} < 1e-10", worst < 1e-10)
    tail = abs(points[-1].rho1 / points[-1].rho2 - 1.0 / math.sqrt(2.0))
    res.check(f"|rho1/rho2 - 1/sqrt(2)| at J=50 = {tail:.4f} < 0.02", tail < 0.02)
    return res


def criterion_10() -> CriterionResult:
    res = CriterionResult(10, "thermo", "variational pressure: two routes and finite-N convergence")
    grid = [ModelParams(float(h), float(J))
            for h in np.linspace(-1.0, 1.0, 21) for J in np.linspace(0.0, 3.0, 21)]
    via_rate = thermo.variational_pressure_via_rate(grid)
    worst = max(abs(thermo.variational_pressure(params) - float(sup))
                for params, sup in zip(grid, via_rate))
    res.check(f"max |sup ptilde - sup(f - I)| over 21x21 grid = {worst:.2e} < 1e-10", worst < 1e-10)
    samples = [(0.0, 0.0), (0.2, 0.5), (1.0, 1.0), (-0.5, 2.0), (-1.0, 3.0)]
    worst_n = 0.0
    for h, J in samples:
        params = ModelParams(h, J)
        worst_n = max(
            worst_n, abs(exact.pressure(10000, params) - thermo.variational_pressure(params))
        )
    res.check(f"max |p_N(1e4) - limit| over 5 samples = {worst_n:.2e} < 2e-3", worst_n < 2e-3)
    return res


_CRITERIA_FUNCS = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}

SUITES = {
    "thermo": (1, 10),
    "exact": (2, 5),
    "laplace": (3, 4),
    "limits": (6, 7, 8, 9),
    "all": tuple(range(1, 11)),
}

CRITERIA = tuple(range(1, 11))


def run_criterion(number: int) -> CriterionResult:
    start = time.perf_counter()
    result = _CRITERIA_FUNCS[number]()
    result.elapsed = time.perf_counter() - start
    return result


def run_suite(suite: str = "all") -> list[CriterionResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [run_criterion(n) for n in SUITES[suite]]
