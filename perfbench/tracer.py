"""Per-layer tracing of ``imd`` from outside the package.

``Tracer.install`` rebinds every public function and method of the layer
modules in every ``imd`` namespace that holds it; the source is not edited
and ``uninstall`` puts the originals back.  Two kinds of wrapper are used:

* hot scalar calls (all of ``thermo`` and ``phase.brentq``) only add to
  aggregate counters and times, because they run a million times a job;
* every other public call opens a span (id, parent id, job, name, start,
  end).  A span's self time is its duration minus the time covered by its
  child spans and by the hot calls made directly inside it.

Counters are kept per job and read with ``end_job``; closed spans stay in
memory until ``write_spans``.  ``*.peak_mb`` counters are the rise of
``tracemalloc``-traced memory during a call.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("thermo", "exact", "phase", "laplace", "quadrature", "limits",
          "verification", "cli")
_MB = float(2 ** 20)


def _public_callables(module):
    """(owner, attribute name, descriptor) for the module's public functions
    and the public methods and properties of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for attr, desc in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(desc) or isinstance(desc, property):
                    yield obj, attr, desc
        elif callable(obj):
            yield module, name, obj


class Tracer:
    def __init__(self):
        self.active = False
        self.job = 0
        self.counts = defaultdict(float)
        self.spans = []
        self._stack = []  # open spans: [id, name, layer, t0, covered_s, counter keys]
        self._next_id = 1
        self._thermo_depth = 0
        self._trace_gamma_depth = 0
        self._peaks = []  # open tracemalloc frames: [base, highest]
        self._restore = []

    # -- job and pause control ---------------------------------------------
    def begin_job(self):
        self.job += 1
        self.counts = defaultdict(float)

    def end_job(self) -> dict:
        return dict(self.counts)

    @contextmanager
    def paused(self):
        """Run benchmark-side code (oracles) without counting it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation ------------------------------------------------------
    def install(self):
        layers = {layer: importlib.import_module(f"imd.{layer}") for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if name == "imd" or name.startswith("imd.")]
        by_object = {}
        for layer, module in layers.items():
            for owner, attr, desc in _public_callables(module):
                qual = attr if owner is module else f"{owner.__name__}.{attr}"
                name = f"{layer}.{qual}"
                fn = desc.fget if isinstance(desc, property) else desc
                wrapped = (self._hot(name, fn) if layer == "thermo"
                           else self._span(name, layer, fn))
                new = property(wrapped) if isinstance(desc, property) else wrapped
                if owner is module:
                    by_object[id(desc)] = (desc, new)
                else:
                    self._rebind(owner, attr, new)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = by_object.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])
        phase = layers["phase"]
        self._rebind(phase, "brentq", self._counter("phase.brentq.calls", phase.brentq))
        self.active = True

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        self.active = False
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- wrappers ----------------------------------------------------------
    def _counter(self, key, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hot(self, name, fn):
        """Aggregate-only wrapper: calls into the layer, time, g points."""
        count_points = name == "thermo.g"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_points:
                self.counts["thermo.g.points"] += np.size(args[0] if args else kwargs["h"])
            if self._thermo_depth:
                return fn(*args, **kwargs)
            self._thermo_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._thermo_depth = 0
                self.counts["thermo.calls"] += 1
                self.counts["thermo.self_s"] += dt
                if self._stack:
                    self._stack[-1][4] += dt
        return wrapper

    def _span(self, name, layer, fn):
        enter, leave = _HOOKS.get(name, (None, None))
        keys = (f"{layer}.calls", f"{layer}.self_s", f"{name}.calls", f"{name}.self_s",
                f"{name}.total_s")

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if enter is not None:
                args, kwargs = enter(self, args, kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, name, layer, 0.0, 0.0, keys]
            self._next_id += 1
            self._stack.append(frame)
            result, ok = None, False
            frame[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._close(frame, parent, t1)
                if leave is not None:
                    leave(self, args, kwargs, result, ok, t1 - frame[3])
        return wrapper

    def _close(self, frame, parent, t1):
        span_id, name, layer, t0, covered, keys = frame
        duration = t1 - t0
        own = duration - covered
        counts = self.counts
        if parent is not None:
            parent[4] += duration
        if parent is None or parent[2] != layer:
            counts[keys[0]] += 1
        counts[keys[1]] += own
        counts[keys[2]] += 1
        counts[keys[3]] += own
        counts[keys[4]] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.job,
                           name, t0, t1, own))

    # -- callbacks and memory ----------------------------------------------
    def integrand(self, log_f, key):
        """Wrap a quadrature callback: count the points it is evaluated at
        and give its time its own span in the layer that defined it."""
        owner = getattr(log_f, "__module__", None) or ""
        layer = owner.rpartition(".")[2] if owner.startswith("imd.") else "quadrature"
        inner = self._span(f"{layer}.integrand", layer, log_f)

        def counted(x):
            if self.active:
                self.counts[key] += np.size(x)
            return inner(x)
        return counted

    def peak_enter(self):
        """Start measuring the traced-memory rise of a call.  tracemalloc runs
        only while such a call is open, so it does not slow the rest."""
        if not self._peaks:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._peaks:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def peak_exit(self, key):
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._peaks:
            frame[1] = max(frame[1], peak)
        base, highest = self._peaks.pop()
        if not self._peaks:
            tracemalloc.stop()
        self.counts[key] = max(self.counts[key], (highest - base) / _MB)

    def write_spans(self, path):
        """Write the closed spans as gzip-compressed JSON lines."""
        fields = ("id", "parent", "job", "name", "t0", "t1", "self_s")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


# -- per-function hooks: enter(tracer, args, kwargs) -> (args, kwargs) and
#    leave(tracer, args, kwargs, result, ok, seconds) ------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _monomer_law_enter(t, args, kwargs):
    t.counts["exact.monomer_law.atoms"] += int(_arg(args, kwargs, 0, "N")) // 2 + 1
    return args, kwargs


def _log_partition_pure_enter(t, args, kwargs):
    n, fields = _arg(args, kwargs, 0, "N"), _arg(args, kwargs, 1, "fields")
    t.counts["exact.log_partition_pure.cells"] += np.size(fields) * (int(n) // 2 + 1)
    t.peak_enter()
    return args, kwargs


def _ks_distance_enter(t, args, kwargs):
    t.counts["limits.ks_distance.atoms"] += len(_arg(args, kwargs, 0, "scaled").positions)
    t.peak_enter()
    return args, kwargs


def _integral_enter(t, args, kwargs):
    t.counts["quadrature.integrals"] += 1
    return _wrap_log_f(t, args, kwargs, "quadrature.integrand_nodes")


def _probe_enter(t, args, kwargs):
    return _wrap_log_f(t, args, kwargs, "quadrature.probe_points")


def _wrap_log_f(t, args, kwargs, key):
    if args:
        return (t.integrand(args[0], key),) + tuple(args[1:]), kwargs
    return args, dict(kwargs, log_f=t.integrand(kwargs["log_f"], key))


def _trace_gamma_enter(t, args, kwargs):
    t._trace_gamma_depth += 1
    return args, kwargs


def _trace_gamma_leave(t, args, kwargs, result, ok, seconds):
    t._trace_gamma_depth -= 1
    if ok:
        t.counts["phase.gamma_points"] += len(result)
        t.counts["phase.trace_gamma.ok_s"] += seconds


def _solve_enter(t, args, kwargs):
    if t._trace_gamma_depth:
        t.counts["phase.gamma_solves"] += 1
    return args, kwargs


def _run_suite_leave(t, args, kwargs, result, ok, seconds):
    if ok:
        for res in result:
            t.counts[f"verification.criterion_{res.number}_s"] += res.elapsed


def _cli_main_leave(t, args, kwargs, result, ok, seconds):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            t.counts["cli.bytes_written"] += os.path.getsize(path)


def _peak_leave(key):
    def leave(t, args, kwargs, result, ok, seconds):
        t.peak_exit(key)
    return leave


_HOOKS = {
    "exact.monomer_law": (_monomer_law_enter, None),
    "exact.log_partition_pure": (_log_partition_pure_enter,
                                 _peak_leave("exact.log_partition_pure.peak_mb")),
    "limits.ks_distance": (_ks_distance_enter, _peak_leave("limits.ks_distance.peak_mb")),
    "quadrature.signed_log_integral": (_integral_enter, None),
    "quadrature.peaked_components": (_probe_enter, None),
    "quadrature.grow_until_drop": (_probe_enter, None),
    "phase.trace_gamma": (_trace_gamma_enter, _trace_gamma_leave),
    "phase.solve_consistency": (_solve_enter, None),
    "verification.run_suite": (None, _run_suite_leave),
    "cli.main": (None, _cli_main_leave),
}


def layer_metrics(counts: dict) -> dict:
    """The per-layer metrics of one traced job, from its counters."""
    c = defaultdict(float, counts)
    points = c["phase.gamma_points"]
    integrals = c["quadrature.integrals"]
    out = {
        "thermo.calls": c["thermo.calls"],
        "thermo.g.points": c["thermo.g.points"],
        "thermo.self_s": c["thermo.self_s"],
        "phase.solve_consistency.calls": c["phase.solve_consistency.calls"],
        "phase.solves_per_gamma_point": c["phase.gamma_solves"] / points if points else 0.0,
        "phase.brentq.calls": c["phase.brentq.calls"],
        "phase.classify.calls": c["phase.classify.calls"],
        "phase.trace_gamma.s_per_point": (c["phase.trace_gamma.ok_s"] / points
                                          if points else 0.0),
        "phase.self_s": c["phase.self_s"],
        "exact.monomer_law.calls": c["exact.monomer_law.calls"],
        "exact.monomer_law.atoms": c["exact.monomer_law.atoms"],
        "exact.monomer_law.self_s": c["exact.monomer_law.self_s"],
        "exact.log_partition_pure.cells": c["exact.log_partition_pure.cells"],
        "exact.log_partition_pure.self_s": c["exact.log_partition_pure.self_s"],
        "exact.log_partition_pure.peak_mb": c["exact.log_partition_pure.peak_mb"],
        "exact.SmoothedDensity.log_normalizer_s":
            c["exact.SmoothedDensity.log_normalizer.total_s"],
        "exact.self_s": c["exact.self_s"],
        "quadrature.integrals": integrals,
        "quadrature.integrand_nodes": c["quadrature.integrand_nodes"],
        "quadrature.nodes_per_integral": (c["quadrature.integrand_nodes"] / integrals
                                          if integrals else 0.0),
        "quadrature.probe_points": c["quadrature.probe_points"],
        "quadrature.self_s": c["quadrature.self_s"],
        "limits.ks_distance.calls": c["limits.ks_distance.calls"],
        "limits.ks_distance.atoms": c["limits.ks_distance.atoms"],
        "limits.ks_distance.peak_mb": c["limits.ks_distance.peak_mb"],
        "limits.write_csv.self_s": c["limits.ScaledLaw.write_csv.self_s"],
        "limits.self_s": c["limits.self_s"],
        "laplace.calls": c["laplace.calls"],
        "laplace.self_s": c["laplace.self_s"],
        "verification.self_s": c["verification.self_s"],
        "cli.self_s": c["cli.self_s"],
        "cli.bytes_written": c["cli.bytes_written"],
    }
    for k in range(1, 11):
        out[f"verification.criterion_{k}_s"] = c[f"verification.criterion_{k}_s"]
    return out
