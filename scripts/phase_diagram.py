#!/usr/bin/env python3
"""Dump the phase diagram: critical point JSON and coexistence-curve CSV.

The curve is sampled geometrically in J - dense near the critical coupling
where it bends, sparse in the strong-coupling tail where it flattens onto
h = -1/2.  Output columns are plot-ready (h on the x axis, J on the y axis).
"""

import argparse
import dataclasses
import json
import math
from pathlib import Path

from imd import phase


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--jmax", type=float, default=50.0)
    parser.add_argument("--points", type=int, default=60)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    critical = phase.find_critical_point()
    (outdir / "critical_point.json").write_text(
        json.dumps(dataclasses.asdict(critical), indent=2, sort_keys=True) + "\n"
    )
    print(f"critical point: h_c={critical.h_c:.12f} J_c={critical.J_c:.12f} "
          f"m_c={critical.m_c:.12f}")

    span = args.jmax - critical.J_c
    j_values = [
        critical.J_c + span * (math.expm1(4.0 * t) / math.expm1(4.0))
        for t in (i / (args.points - 1) for i in range(1, args.points))
    ]
    points = phase.trace_gamma(j_values)
    with open(outdir / "coexistence_curve.csv", "w", newline="") as fh:
        phase.gamma_points_to_csv(points, fh)
    print(f"traced {len(points)} curve points into {outdir}/coexistence_curve.csv")
    print(f"  gamma({points[0].J:.3f}) = {points[0].h:.9f}  "
          f"(endpoint h_c = {critical.h_c:.9f})")
    print(f"  gamma({points[-1].J:.3f}) = {points[-1].h:.9f}  (tail -> -0.5)")


if __name__ == "__main__":
    main()
