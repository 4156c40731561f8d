"""Command-line front end: phase diagrams, curve traces, distribution dumps,
Laplace-asymptote tables and the acceptance suite, as plot-ready CSV/JSON.

Every run is fully deterministic (the library has no random state and output
files carry no timestamps), so identical invocations produce byte-identical
artifacts.  ``gamma`` and ``dist`` write CSV, or JSON with ``--format json``;
the other commands have one format and no ``--format``.  Exit codes: 0
success, 1 domain error, 2 verification failure, 64 usage error, 74
unwritable output.  Usage errors that argparse detects raise SystemExit(64);
a non-finite --h/--J/--eta/--u/--jmin/--jmax or a --N list that is not
integers makes ``main`` return 64.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import exact, laplace, limits, phase, verification
from .thermo import ModelParams

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _text(text: str):
    """A writer of a finished text."""
    return lambda fh: fh.write(text)


def _json(obj):
    return _text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# Each command does its computing and returns a writer of its artifact, which
# main calls with the open output, and its exit code: domain errors surface
# before the output is opened, and a CSV writer, or dist's JSON writer,
# streams to it.


def _cmd_phase(args):
    report = phase.classify(ModelParams(args.h, args.J))
    payload = {"h": args.h, "J": args.J} | report.to_json_dict()
    return _json(payload), EXIT_OK


def _cmd_critical(args):
    cp = phase.find_critical_point()
    return _json(dataclasses.asdict(cp)), EXIT_OK


def _cmd_gamma(args):
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    J_values = np.linspace(args.jmin, args.jmax, args.steps)
    points = phase.trace_gamma([float(j) for j in J_values])
    if args.fmt == "json":
        return _json({"points": [dataclasses.asdict(p) for p in points]}), EXIT_OK
    return lambda fh: phase.gamma_points_to_csv(points, fh), EXIT_OK


def _cmd_dist(args):
    params = ModelParams(args.h, args.J)
    if args.eta is None and args.u is None:
        law = exact.monomer_law(args.N, params)
    else:
        eta = args.eta if args.eta is not None else 0.0
        u = args.u if args.u is not None else 0.0
        law = limits.scaled_law(args.N, params, eta, u)
    return lambda fh: law.write(fh, args.fmt), EXIT_OK


def _cmd_laplace(args):
    if not args.N:
        raise ValueError("laplace requires --N")
    lines = ["N,log_quadrature,log_asymptote,ratio"]
    for n in args.N:
        result = laplace.laplace_approx(laplace.psi_family(args.h), n)
        cells = (result.log_integral_quadrature, result.log_asymptote, np.exp(result.log_ratio))
        lines.append(",".join([str(n), *(format(v, ".17g") for v in cells)]))
    return _text("\n".join(lines) + "\n"), EXIT_OK


def _cmd_verify(args):
    results = verification.run_suite(args.suite)
    lines = []
    for res in results:
        lines.append(res.summary_line())
        lines.extend(res.detail_lines())
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"suite {args.suite!r}: {len(results) - n_fail}/{len(results)} criteria passed"
    )
    return _text("\n".join(lines) + "\n"), EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _build_parser() -> _Parser:
    parser = _Parser(prog="imd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, formats=False):
        """--output, --format where the command honours it, and the command."""
        p.add_argument("--output", help="write to this path instead of stdout")
        if formats:
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.set_defaults(run=run)

    p = sub.add_parser("phase", help="classify (h, J): unique / coexistence / critical")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--J", type=float, required=True)
    add_common(p, _cmd_phase)

    p = sub.add_parser("critical", help="locate the critical point")
    add_common(p, _cmd_critical)

    p = sub.add_parser("gamma", help="trace the coexistence curve h = gamma(J)")
    p.add_argument("--jmin", type=float, required=True)
    p.add_argument("--jmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    add_common(p, _cmd_gamma, formats=True)

    p = sub.add_parser("dist", help="exact monomer-count law (optionally rescaled)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--J", type=float, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    add_common(p, _cmd_dist, formats=True)

    p = sub.add_parser("laplace", help="quadrature vs Laplace asymptote rows")
    p.add_argument("--N", type=str, required=True,
                   help="comma-separated list of system sizes, e.g. 10,100,1000")
    p.add_argument("--h", type=float, default=0.0)
    add_common(p, _cmd_laplace)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--suite", choices=sorted(verification.SUITES), default="all")
    add_common(p, _cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one invocation, write its artifact and map errors onto exit codes."""
    args = _build_parser().parse_args(argv)
    if args.command == "laplace":
        try:
            args.N = tuple(int(tok) for tok in args.N.split(",") if tok)
        except ValueError:
            print("imd: --N expects a comma-separated list of integers", file=sys.stderr)
            return EXIT_USAGE
    for name in ("h", "J", "eta", "u", "jmin", "jmax"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            print(f"imd: --{name} must be finite, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        write, code = args.run(args)
    except (ValueError, OverflowError) as err:
        print(f"imd: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.output is None:
        write(sys.stdout)
        return code
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as err:
        print(f"imd: cannot write output: {err}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
