"""In-memory spans around calls into bperc's public functions.

The traced run wraps the public functions and methods ``targets()`` lists for
its duration: every module attribute that refers to the original function is
replaced by a wrapper that records a span, and the original is put back
afterwards.  Calls the library makes to these functions internally (say
``run_sweep`` -> ``run_once`` -> ``random_permutation``) therefore become
child spans.  Nothing in the library itself records anything.

A span is (id, name, start, end, parent id, op id).  Spans opened on a
thread with no open span of its own (the sweep's pool threads) take the
current op's outermost span as their parent.
"""
from __future__ import annotations

import collections
import contextlib
import importlib
import itertools
import resource
import sys
import threading
import time
from typing import Callable, Optional


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Tracer:
    def __init__(self):
        self.spans = []  # (span_id, name, start, end, parent_id, op_id)
        self.counts = collections.Counter()
        self.op_walls = []  # (op_id, start, end) of each timed op
        self.op_id = 0
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # counters are updated from the sweep's pool threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None,
             cpu: bool = False) -> Callable:
        """``fn`` recording a span per call.

        ``hook(counts, result, args, kwargs)`` runs after the span closes; it
        updates counters and may return a more specific span name.  With
        ``cpu``, the call's process CPU time is added to ``<name>.cpu_s``.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if parent is None:
                tracer._root = sid
            stack.append(sid)
            c0 = _cpu_s() if cpu else 0.0
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span_name = name
                with tracer._lock:
                    if cpu:
                        tracer.counts[name + ".cpu_s"] += _cpu_s() - c0
                    if hook is not None and result is not None:
                        span_name = hook(tracer.counts, result, args, kwargs) or name
                tracer.spans.append((sid, span_name, t0, t1, parent, tracer.op_id))
                if tracer._root == sid:
                    tracer._root = None

        traced.__wrapped__ = fn
        return traced

    def op(self, op_id: int, start: float, end: float) -> None:
        self.op_walls.append((op_id, start, end))


@contextlib.contextmanager
def instrumented(tracer: Tracer, targets):
    """Replace each target with its traced wrapper until the block exits.

    A target is (owner, attribute, span name, hook, cpu).  ``owner`` is a
    module name or a class; for a module, every loaded ``bperc`` module
    attribute bound to the same function is replaced too, so imports like
    ``from .dynamics import closure`` are covered.
    """
    undo = []
    try:
        for owner, attr, name, hook, cpu in targets:
            if isinstance(owner, str):
                orig = getattr(importlib.import_module(owner), attr)
                wrapper = tracer.wrap(name, orig, hook, cpu)
                for modname, mod in list(sys.modules.items()):
                    if mod is None or not (modname == "bperc" or modname.startswith("bperc.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            else:
                orig = owner.__dict__[attr]
                undo.append((owner, attr, orig))
                setattr(owner, attr, tracer.wrap(name, orig, hook, cpu))
        yield tracer
    finally:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)


# ---------------------------------------------------------------------------
# Counter hooks: they read results only, after the span has closed
# ---------------------------------------------------------------------------


def _run_once(counts, rec, args, kwargs):
    counts["process.arrivals"] += rec.tau
    counts["process.sites"] += rec.n * rec.n


def _closure(counts, cfg, args, kwargs):
    added = sum(1 for t in cfg.times.values() if t > 0)
    counts["dynamics.closure.calls"] += 1
    counts["dynamics.closure.sites_added"] += added
    counts["dynamics.closure.generations"] += cfg.generation
    # dense: the closure at least doubled the initial set
    return "dynamics.closure.dense" if 2 * added >= len(cfg.infected) else "dynamics.closure.sparse"


def _droplets(counts, out, args, kwargs):
    counts["droplets.droplet_algorithm.calls"] += 1
    counts["droplets.droplet_algorithm.droplets_out"] += len(out)


def _assertions(counts, results, args, kwargs):
    counts["scenarios.assertions"] += len(results)


def _offsets(counts, nbhd, args, kwargs):
    counts["geometry.offsets"] += len(nbhd.offsets)


def _breakpoints(counts, report, args, kwargs):
    counts["geometry.breakpoints"] += sum(1 for e in report.entries if e.kind == "point")


def _steps(counts, trace, args, kwargs):
    counts["quasidroplets.extension_algorithm.calls"] += 1
    for step in trace.steps:
        if step.kind in ("unstable", "stable"):
            counts["quasidroplets.steps." + step.kind] += 1


def _lattice_points(counts, total, args, kwargs):
    counts["quasidroplets.lattice_points"] += total


def targets():
    """The traced public functions; bperc must already be importable."""
    from bperc.quasidroplets import ExtensionParams, QuasiDroplet

    return [
        ("bperc.process", "run_sweep", "process.run_sweep", None, True),
        ("bperc.process", "run_once", "process.run_once", _run_once, False),
        ("bperc.process", "random_permutation", "process.random_permutation", None, False),
        ("bperc.process", "records_to_csv", "process.records_to_csv", None, False),
        ("bperc.process", "summarise", "process.summarise", None, False),
        ("bperc.dynamics", "closure", "dynamics.closure", _closure, False),
        ("bperc.droplets", "droplet_algorithm", "droplets.droplet_algorithm", _droplets, False),
        ("bperc.scenarios", "load_scenario", "scenarios.load_scenario", None, False),
        ("bperc.scenarios", "run_scenario", "scenarios.run_scenario", _assertions, False),
        ("bperc.geometry", "build_neighbourhood", "geometry.build_neighbourhood", _offsets, False),
        ("bperc.geometry", "stability_report", "geometry.stability_report", _breakpoints, False),
        ("bperc.quasidroplets", "extension_algorithm", "quasidroplets.extension_algorithm",
         _steps, False),
        (QuasiDroplet, "lattice_point_count", "quasidroplets.lattice_point_count",
         _lattice_points, False),
        (QuasiDroplet, "polygon", "quasidroplets.polygon", None, False),
        (ExtensionParams, "__init__", "quasidroplets.ExtensionParams", None, False),
    ]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict:
    """Per span name: total duration minus the part its child spans cover."""
    children = collections.defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = collections.Counter()
    for sid, name, t0, t1, _, _ in spans:
        out[name] += (t1 - t0) - _union_length(children.get(sid, ()))
    return dict(out)


def busy_times(spans, scale) -> dict:
    """Per span name: total duration, callees included, each span's duration
    multiplied by ``scale(start, end)``."""
    out = collections.Counter()
    for _, name, t0, t1, _, _ in spans:
        out[name] += (t1 - t0) * scale(t0, t1)
    return dict(out)


def unaccounted_frac(tracer: Tracer) -> float:
    """Share of timed op wall time that no span covers (benchmark-side work
    inside an op, such as formatting the summary JSON)."""
    by_op = collections.defaultdict(list)
    for _, _, t0, t1, _, op_id in tracer.spans:
        by_op[op_id].append((t0, t1))
    wall = 0.0
    covered = 0.0
    for op_id, start, end in tracer.op_walls:
        wall += end - start
        covered += _union_length(by_op.get(op_id, ()))
    return (wall - covered) / wall if wall > 0 else 0.0
