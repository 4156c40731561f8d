#!/usr/bin/env python3
"""Generate perfbench/refs.json, the stored references of the large_n workload.

Two kinds of reference are written:

* ``log_partition``: log Z_N at N in {1e2, 1e3, 1e4} for every parameter
  point of the large_n workload, computed with mpmath at 50 significant
  digits from exact big-integer matching counts
  C(N, k) = N! / ((N - 2k)! 2^k k!).  It shares no code with ``imd``; the
  parameters are the exact binary doubles that the workload passes in.
* ``ks``: the KS ladders of the four convergence studies and the LLN
  point-mass distance at N = 1e7, as computed by ``imd`` at the commit that
  wrote this file.  They are a regression table, compared at a tolerance far
  above the last bits, not a high-precision oracle.

The benchmark only reads this file.  Regenerate it from the repository root:

    PYTHONPATH=src python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the path above)
from imd import phase  # noqa: E402

REF_SIZES = (100, 1000, 10000)
DIGITS = 50


def matching_counts(N: int):
    """Exact C(N, k) for k = 0 .. N // 2, by the ratio recurrence."""
    c = 1
    out = [c]
    for k in range(N // 2):
        c = c * (N - 2 * k) * (N - 2 * k - 1) // (2 * (k + 1))
        out.append(c)
    return out


def log_partition_mp(N: int, h: float, J: float) -> mpmath.mpf:
    """log Z_N = log sum_k C(N, k) N^-k exp(N[(h - J) m_k + J m_k^2])."""
    hh, JJ, NN = mpmath.mpf(h), mpmath.mpf(J), mpmath.mpf(N)
    total = mpmath.mpf(0)
    for k, c in enumerate(matching_counts(N)):
        m = mpmath.mpf(N - 2 * k) / NN
        total += mpmath.mpf(c) * mpmath.power(NN, -k) * mpmath.exp(
            NN * ((hh - JJ) * m + JJ * m * m))
    return mpmath.log(total)


def parameter_points():
    """(name, h, J) of the large_n workload's log Z references."""
    cp = phase.find_critical_point()
    gamma2 = phase.trace_gamma([2.0])[0]
    return [("pure", 0.0, 0.0), ("unique", 0.2, 0.5), ("critical", cp.h_c, cp.J_c),
            ("coexistence", gamma2.h, gamma2.J), ("smoothed", 0.0, 1.0)]


def ks_table():
    """The KS values of the large_n convergence studies and LLN distance."""
    cp, quartic = workloads.lazy_setup()
    point = phase.trace_gamma([2.0])[0]
    sizes = workloads.LargeN.SIZES
    table = {name: [r.ks for r in study().rows]
             for name, study in workloads.studies(cp, quartic, point, sizes)}
    table["lln"] = workloads.lln_study(workloads.LargeN.LLN_N)()[1]
    return table


def main() -> None:
    mpmath.mp.dps = DIGITS
    points = parameter_points()
    log_z = []
    for name, h, J in points:
        for N in REF_SIZES:
            value = log_partition_mp(N, h, J)
            log_z.append({"point": name, "h": h, "J": J, "N": N,
                          "log_Z": mpmath.nstr(value, DIGITS)})
            print(f"{name:12s} N={N:>6d} log Z = {mpmath.nstr(value, 20)}")
    refs = {
        "digits": DIGITS,
        "log_partition": log_z,
        "ks": ks_table(),
    }
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'refs.json'}")


if __name__ == "__main__":
    main()
