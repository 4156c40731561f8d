"""One benchmark process: set up, run one workload's jobs, report.

run.py starts this with ``PYTHONPATH=src`` from the repository root.  It
imports ``imd``, does the lazy set-up and one warm-up job, takes a reading of
the host's speed, prints ``READY <seconds to leave out> <reading>`` so the
caller can time the set-up, and then, unless ``--setup-only`` is given, runs
the workload in a closed loop and writes a JSON result to ``--result``.

The loop's job time is reported in reference seconds (see calibration.py):
each job's wall time with every stretch of it scaled by the host speed read
at its ends, and the median over the jobs.

With ``--trace 1`` the loop runs twice for half of ``--seconds`` each: first
untraced, then with the tracer installed.  The per-layer metrics are medians
over the traced jobs, and the ratio of the two median job times gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibration
import imd
import workloads
from tracer import Tracer, layer_metrics

MIN_JOBS = 3


class Tally:
    """Outcomes and checks summed over every job of the process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.wrong = []
        self.min_margin = None

    def add(self, rec):
        self.attempted += len(rec.outcomes)
        for o in rec.outcomes:
            if o.failed:
                self.failed += 1
                self.failures.setdefault(o.name, o.reason)
        for c in rec.checks:
            if not c.ok and c.label not in self.wrong and len(self.wrong) < 20:
                self.wrong.append(c.label)
            if c.margin is not None:
                self.min_margin = (c.margin if self.min_margin is None
                                   else min(self.min_margin, c.margin))


def run_job(workload, tracer=None, checking=True, calibrated=False):
    rec = workloads.Recorder(tracer, checking, calibrated)
    workload.job(rec)
    return rec


def loop(workload, seconds, tally, min_jobs, tracer=None, per_job=None):
    """Closed loop: start the next job when the last one ends, while it is
    expected to end within the time (a job takes about as long as the last
    one), and until at least min_jobs ran.  Returns the job times, as
    (wall seconds, reference seconds) pairs."""
    samples = []
    start = perf_counter()
    last = 0.0
    while len(samples) < min_jobs or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_job()
        rec = run_job(workload, tracer, calibrated=True)
        if tracer is not None:
            per_job.append(layer_metrics(tracer.end_job()))
        samples.append((rec.seconds, rec.reference_seconds()))
        tally.add(rec)
        last = perf_counter() - t0
    return samples


def median_reference(samples):
    return statistics.median(ref for _, ref in samples)


def versions():
    import numpy
    import scipy
    from imd import parallel

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "IMD_THREADS": os.environ.get("IMD_THREADS"),
        "imd_thread_count": parallel.thread_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path.cwd().resolve() / "src"
    if src not in Path(imd.__file__).resolve().parents:
        print(f"worker: imported imd from {imd.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    warm = run_job(workload, checking=not args.setup_only)
    t0 = perf_counter()
    after = calibration.reading()
    excluded = warm.check_seconds + perf_counter() - t0
    print(f"READY {excluded!r} {after!r}", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    tally.add(warm)
    result = {"sizes": workload.sizes(), "versions": versions()}
    if args.trace == 0:
        samples = loop(workload, args.seconds, tally, MIN_JOBS)
        result["samples"] = samples
        result["job_s"] = median_reference(samples)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        base = loop(workload, args.seconds / 2, tally, 2)
        tracer, per_job = Tracer(), []
        tracer.install()
        try:
            traced = loop(workload, args.seconds / 2, tally, 2, tracer, per_job)
        finally:
            tracer.uninstall()
        tracer.write_spans(args.spans)
        layers = {k: statistics.median(job[k] for job in per_job) for k in per_job[0]}
        layers["trace.overhead_frac"] = median_reference(traced) / median_reference(base) - 1.0
        result.update(samples=base, traced_samples=traced, layers=layers,
                      spans=len(tracer.spans))
    no_margin = -workloads.MARGIN_CAP  # no numeric check could be made
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, wrong=tally.wrong, correct=not tally.wrong,
                  min_margin=no_margin if tally.min_margin is None else tally.min_margin)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
