#!/usr/bin/env python3
"""Benchmark of imd: run one workload, check its answers, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload verify|phase_diagram|large_n \\
        --seed N --seconds S --trace 0|1

The workloads are described in perfbench/workloads.py.  Each measurement runs
in a fresh worker process (perfbench/worker.py) that imports ``imd`` from
``src/``, with ``IMD_THREADS`` unset and the BLAS pinned to one thread, so a
workload is plain single-threaded Python calls.  Only one process computes
at any time.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: fresh interpreter to ``import imd``, lazy set-up and one
  warm-up job; the median of three worker starts.
* ``job_s``: median time of one job in a closed loop of ``--seconds``
  seconds.
* ``peak_rss_mb``: peak RSS of the worker that ran the loop.
* ``answered_frac``: operations answered (a checked result or a documented
  domain error, with no RuntimeWarning) per operation attempted; the failed
  fraction is one minus this.
* ``min_margin_digits``: the smallest log10(tolerance / error) over every
  oracle comparison made.

Both times are in reference seconds: wall time scaled by readings of the
host's speed taken at the ends of each stretch of work (see calibration.py),
so that other tenants of a shared host move them little.  The wall times are
printed beside them and kept in the full result.

``--trace 1`` prints the per-layer metrics of a traced loop instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``correct`` is false if any
output failed its oracle.  The full result, with provenance, and the spans
of a traced run are written to ``.perfbench_out/``; job artifacts go to a
temporary directory there, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibration

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify", "phase_diagram", "large_n")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "peak_rss_mb": "MB",
    "answered_frac": "frac", "min_margin_digits": "digits",
}


def layer_unit(name: str) -> str:
    if name == "trace.overhead_frac":
        return "frac"
    if name.endswith("peak_mb"):
        return "MB"
    if name == "cli.bytes_written":
        return "B"
    if name == "phase.solves_per_gamma_point":
        return "solves/point"
    if name == "phase.trace_gamma.s_per_point":
        return "s/point"
    if name == "quadrature.nodes_per_integral":
        return "nodes/integral"
    if name.endswith("_s"):
        return "s"
    return "count"


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process; ``ready`` returns its set-up time."""

    def __init__(self, root: Path, args, workdir: str, extra: list[str], deadline: float):
        env = dict(os.environ)
        env.pop("IMD_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir] + extra
        self.deadline = deadline
        self.before = calibration.reading()  # the set-up's first reading
        self.start = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)

    def remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise WorkerError("the benchmark ran past its deadline")
        return left

    def ready(self) -> tuple[float, float]:
        """Set-up time as (wall seconds, reference seconds)."""
        ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
        line = self.proc.stdout.readline() if ready else ""
        elapsed = perf_counter() - self.start
        if not line.startswith("READY "):
            raise WorkerError(f"worker did not get ready (got {line!r})")
        _, left_out, after = line.split()
        wall = elapsed - float(left_out)
        return wall, calibration.scaled(wall, self.before, float(after))

    def finish(self):
        try:
            self.proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise WorkerError(f"worker exited with code {self.proc.returncode}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def run_worker(root, args, workdir, extra, deadline):
    worker = Worker(root, args, workdir, extra, deadline)
    try:
        setup = worker.ready()
        worker.finish()
        return setup
    finally:
        worker.stop()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(root: Path, args, out_dir: Path) -> dict:
    deadline = perf_counter() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = Path(workdir) / "result.json"
    extra = ["--result", str(result_path), "--spans", str(out_dir / f"spans-{stem}.jsonl.gz")]
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(root, args, workdir, ["--setup-only"], deadline))
        setups.append(run_worker(root, args, workdir, extra, deadline))
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["median_wall_job_s"] = statistics.median(wall for wall, _ in result["samples"])
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "job_s": result["job_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "answered_frac": 1.0 - result["failed"] / result["attempted"],
            "min_margin_digits": result["min_margin"],
        }
        units = END_TO_END_UNITS
    else:
        metrics = result["layers"]
        units = {name: layer_unit(name) for name in metrics}
    result.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_samples=setups, nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)), cpu=cpu_model(),
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    (out_dir / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # a terminated benchmark still stops its worker (see run_worker)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "imd" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/imd is missing", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    try:
        result = measure(root, args, out_dir)
    except (WorkerError, OSError, KeyError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(result['samples'])} jobs, median wall time {result['median_wall_job_s']:.6g} s, "
          f"set-up wall times {[round(wall, 4) for wall, _ in result['setup_samples']]} s")
    print("# provenance " + json.dumps({
        k: result[k] for k in ("seed", "nproc", "affinity", "cpu", "versions", "sizes")}))
    print(f"# operations: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.6g})")
    for name, reason in result["failures"].items():
        print(f"#   failed: {name}: {reason}")
    for label in result["wrong"]:
        print(f"#   WRONG: {label}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
