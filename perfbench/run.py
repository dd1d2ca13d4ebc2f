"""bperc benchmark runner.

    python3 perfbench/run.py --workload tau-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; bperc is imported from ``src/``.
The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` with
the end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
The line before it is a report with the environment fingerprint and the
details behind each metric.  See perfbench/README.md.

The top-level process only orchestrates.  It times set-up in fresh probe
processes (the median of several) and runs the workload in one worker
process, whose peak resident memory is reported.
"""
from __future__ import annotations

import argparse
import bisect
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

# Reference-speed scaling (see Reference): the kernel's time per call that
# defines the reference speed (about its time on the 2-vCPU Xeon VM the
# benchmark was built on), how often it is sampled between ops, and how far
# around an op its samples count.
REF_NOMINAL_S = 150e-6
REF_CALLS = 4
REF_EVERY_S = 0.02
REF_WINDOW_S = 0.1
SETUP_PROBES = 7  # timed set-up samples per run, after one discarded warm-up
CHILD_TIMEOUT_S = 170
DIGESTS = HERE / "digests.json"

# Every metric the benchmark prints, with its unit; BENCHMARK.json declares the same.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}
LAYER_UNITS = {
    "process.random_permutation.busy_s": "s",
    "process.perm_used_frac": "ratio",
    "process.run_once.busy_s": "s",
    "process.cascade.est_s": "s",
    "process.arrivals": "count",
    "process.sites": "count",
    "process.run_sweep.busy_s": "s",
    "process.run_sweep.cpu_util": "ratio",
    "process.records_to_csv.busy_s": "s",
    "dynamics.closure.sparse.busy_s": "s",
    "dynamics.closure.dense.busy_s": "s",
    "dynamics.closure.calls": "count",
    "dynamics.closure.sites_added": "count",
    "dynamics.closure.generations": "count",
    "droplets.droplet_algorithm.busy_s": "s",
    "droplets.droplet_algorithm.calls": "count",
    "droplets.droplet_algorithm.droplets_out": "count",
    "droplets.union_sites": "count",
    "scenarios.load_scenario.busy_s": "s",
    "scenarios.run_scenario.busy_s": "s",
    "scenarios.assertions": "count",
    "geometry.build_neighbourhood.busy_s": "s",
    "geometry.stability_report.busy_s": "s",
    "geometry.offsets": "count",
    "geometry.breakpoints": "count",
    "quasidroplets.extension_algorithm.busy_s": "s",
    "quasidroplets.extension_algorithm.calls": "count",
    "quasidroplets.steps.unstable": "count",
    "quasidroplets.steps.stable": "count",
    "quasidroplets.lattice_point_count.busy_s": "s",
    "quasidroplets.polygon.busy_s": "s",
    "quasidroplets.lattice_points": "count",
    "quasidroplets.ExtensionParams.busy_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
    "trace.spans": "count",
}
UNITS = {**E2E_UNITS, **LAYER_UNITS}
OUT_DIR = HERE / "out"


# ---------------------------------------------------------------------------
# Measurement loop (runs in the worker)
# ---------------------------------------------------------------------------


class Tally:
    """Per-op latencies and outcomes of one measured phase."""

    def __init__(self):
        self.latencies = []  # seconds per op, in order
        self.kinds = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.passes = 0
        self.starts = []  # perf_counter() at the start of each op
        self.reference = Reference()

    def add(self, kind, start, seconds, ok):
        self.starts.append(start)
        self.latencies.append(seconds)
        self.kinds.append(kind)
        self.attempted += 1
        if not ok:
            self.failed += 1


def reference_kernel():
    """Fixed pure-Python work (rationals, tuples, a dict, a sort), independent
    of bperc, whose time tracks how fast the machine runs Python right now."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i)
        key = (i, i * i % 97)
        seen[key] = seen.get(key, 0) + 1
    return sorted(seen)[:3], acc


class Reference:
    """Timeline of the machine's speed, sampled between ops.

    A shared machine drifts between fast and slow states (by up to 1.5x, for
    seconds to minutes).  Each op's latency is scaled by REF_NOMINAL_S over
    the reference kernel's mean time around the op, which states the op at a
    fixed reference speed and removes most of that drift.
    """

    def __init__(self):
        self.times = []  # midpoint of each sample
        self.kernel_s = []  # seconds per kernel call in that sample

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(REF_CALLS):
            reference_kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.kernel_s.append((t1 - t0) / REF_CALLS)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean kernel time within REF_WINDOW_S of
        [start, end], widened to the nearest sample on each side."""
        lo = bisect.bisect_left(self.times, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + REF_WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.times, end) + 1, len(self.times)))
        window = self.kernel_s[lo:hi]
        return REF_NOMINAL_S / (sum(window) / len(window))


def run_pass(jobs, tally: Tally, tracer=None) -> None:
    """One pass over a workload's jobs; only each op's call is timed."""
    for make_job in jobs:
        job = make_job()
        try:
            op = next(job)
            while True:
                tally.reference.maybe_sample()
                if tracer is not None:
                    tracer.op_id = tally.attempted + 1
                t0 = time.perf_counter()
                try:
                    out = op.fn()
                except Exception as exc:  # a failed op is counted, the run goes on
                    tally.add(op.kind, t0, time.perf_counter() - t0, False)
                    tally.errors.append(f"{op.kind}: {exc!r}")
                    break
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.op(tracer.op_id, t0, t1)
                try:
                    ok = bool(op.check(out))
                except Exception as exc:
                    ok = False
                    tally.errors.append(f"{op.kind} check: {exc!r}")
                tally.add(op.kind, t0, t1 - t0, ok)
                if tracer is not None and op.count is not None:
                    op.count(out, tracer.counts)
                op = job.send(out)
        except StopIteration:
            pass
        finally:
            job.close()


def measure(jobs, seconds=None, passes=None, tracer=None) -> Tally:
    """Whole passes until ``seconds`` of wall time have gone by (or exactly
    ``passes`` passes).  At least one pass always runs."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_pass(jobs, tally, tracer)
        tally.passes += 1
        if passes is not None:
            if tally.passes >= passes:
                break
        elif time.perf_counter() - start >= seconds:
            break
    tally.reference.sample()
    return tally


def scaled_latencies(tally: Tally) -> list:
    """Op latencies stated at the reference speed (see Reference)."""
    ref = tally.reference
    return [s * ref.scale(t0, t0 + s) for t0, s in zip(tally.starts, tally.latencies)]


def end_to_end(tally: Tally) -> dict:
    raw_ms = [s * 1000.0 for s in tally.latencies]
    op_ms = [s * 1000.0 for s in scaled_latencies(tally)]
    tail = stats.tail(op_ms)
    return {
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1000.0),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": tail["value"],
        "tail": tail,
        "success_frac": 1.0 - tally.failed / tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
        "raw": {
            "ops_per_s": len(raw_ms) / (sum(raw_ms) / 1000.0),
            "op_p50_ms": statistics.median(raw_ms),
            "tail": stats.tail(raw_ms),
        },
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children
    (getrusage reports a maximum per process, not a sum)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def per_layer(tracer, untraced_ops_per_s: float, traced: Tally) -> dict:
    import tracing

    busy = tracing.busy_times(tracer.spans, traced.reference.scale)
    c = tracer.counts

    def b(name):
        return busy.get(name, 0.0)

    sweep_raw_s = tracing.busy_times(tracer.spans, lambda start, end: 1.0).get(
        "process.run_sweep", 0.0)
    traced_ops_per_s = traced.attempted / sum(scaled_latencies(traced))
    values = {
        "process.random_permutation.busy_s": b("process.random_permutation"),
        "process.perm_used_frac": c["process.arrivals"] / c["process.sites"] if c["process.sites"] else 0.0,
        "process.run_once.busy_s": b("process.run_once"),
        "process.cascade.est_s": b("process.run_once") - b("process.random_permutation"),
        "process.arrivals": c["process.arrivals"],
        "process.sites": c["process.sites"],
        "process.run_sweep.busy_s": b("process.run_sweep"),
        # CPU seconds over wall seconds, both as measured
        "process.run_sweep.cpu_util": c["process.run_sweep.cpu_s"] / sweep_raw_s if sweep_raw_s else 0.0,
        "process.records_to_csv.busy_s": b("process.records_to_csv"),
        "dynamics.closure.sparse.busy_s": b("dynamics.closure.sparse"),
        "dynamics.closure.dense.busy_s": b("dynamics.closure.dense"),
        "dynamics.closure.calls": c["dynamics.closure.calls"],
        "dynamics.closure.sites_added": c["dynamics.closure.sites_added"],
        "dynamics.closure.generations": c["dynamics.closure.generations"],
        "droplets.droplet_algorithm.busy_s": b("droplets.droplet_algorithm"),
        "droplets.droplet_algorithm.calls": c["droplets.droplet_algorithm.calls"],
        "droplets.droplet_algorithm.droplets_out": c["droplets.droplet_algorithm.droplets_out"],
        "droplets.union_sites": c["droplets.union_sites"],
        "scenarios.load_scenario.busy_s": b("scenarios.load_scenario"),
        "scenarios.run_scenario.busy_s": b("scenarios.run_scenario"),
        "scenarios.assertions": c["scenarios.assertions"],
        "geometry.build_neighbourhood.busy_s": b("geometry.build_neighbourhood"),
        "geometry.stability_report.busy_s": b("geometry.stability_report"),
        "geometry.offsets": c["geometry.offsets"],
        "geometry.breakpoints": c["geometry.breakpoints"],
        "quasidroplets.extension_algorithm.busy_s": b("quasidroplets.extension_algorithm"),
        "quasidroplets.extension_algorithm.calls": c["quasidroplets.extension_algorithm.calls"],
        "quasidroplets.steps.unstable": c["quasidroplets.steps.unstable"],
        "quasidroplets.steps.stable": c["quasidroplets.steps.stable"],
        "quasidroplets.lattice_point_count.busy_s": b("quasidroplets.lattice_point_count"),
        "quasidroplets.polygon.busy_s": b("quasidroplets.polygon"),
        "quasidroplets.lattice_points": c["quasidroplets.lattice_points"],
        "quasidroplets.ExtensionParams.busy_s": b("quasidroplets.ExtensionParams"),
        "trace.overhead_frac": 1.0 - traced_ops_per_s / untraced_ops_per_s,
        "trace.unaccounted_frac": tracing.unaccounted_frac(tracer),
        "trace.spans": len(tracer.spans),
    }
    return values


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------


def _check_source() -> None:
    if not (SRC / "bperc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bperc sources under {SRC}; run from a source checkout")


def _import_from_src() -> None:
    """Put the checkout's src/ first and refuse any other bperc."""
    _check_source()
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("bperc")
    if spec is None or Path(spec.origin).resolve().parent != (SRC / "bperc").resolve():
        raise SystemExit(f"perfbench: bperc does not resolve to {SRC / 'bperc'}")


def role_setup(workload: str, size: str) -> dict:
    """One set-up sample: import bperc and build the workload's models."""
    _import_from_src()
    for _ in range(REF_CALLS):  # the first calls in a fresh process run cold
        reference_kernel()
    ref = Reference()
    ref.sample()
    t0 = time.perf_counter()
    workloads.WORKLOADS[workload].setup(size)
    t1 = time.perf_counter()
    ref.sample()
    return {"setup_s": (t1 - t0) * ref.scale(t0, t1), "raw_setup_s": t1 - t0}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def role_worker(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    _import_from_src()
    wl = workloads.WORKLOADS[workload]
    digests = load_digests()
    # warm-up on the tiny inputs, so lazy imports and first-call set-up
    # inside the library are not timed
    tiny = wl.setup("tiny")
    measure(wl.jobs(tiny, wl.make_inputs(tiny, seed, "tiny", digests), digests), passes=1)
    ctx = wl.setup(size)
    inputs = wl.make_inputs(ctx, seed, size, digests)
    jobs = wl.jobs(ctx, inputs, digests)
    tally = measure(jobs, seconds=seconds)
    e2e = end_to_end(tally)
    report = {
        "passes": tally.passes,
        "raw_latency": e2e["raw"],
        "ops_by_kind": {k: tally.kinds.count(k) for k in sorted(set(tally.kinds))},
        "errors": tally.errors[:20],
    }
    result = {"attempted": tally.attempted, "failed": tally.failed, "e2e": e2e,
              "peak_rss_mb": peak_rss_mb(), "report": report}
    if trace:
        import tracing

        tracer = tracing.Tracer()
        with tracing.instrumented(tracer, tracing.targets()):
            wl.setup(size)  # traced once, as op 0
            traced = measure(jobs, passes=wl.trace_passes, tracer=tracer)
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        report["trace_passes"] = wl.trace_passes
        report["traced_errors"] = traced.errors[:20]
        report["self_s"] = {k: round(v, 6) for k, v in
                            sorted(tracing.self_times(tracer.spans).items())}
        result["layers"] = per_layer(tracer, e2e["ops_per_s"], traced)
        result["spans"] = tracer.spans
    return result


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BPERC_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list) -> dict:
    """Run this script in another role; its last stdout line is JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve())] + args
    proc = subprocess.run(cmd, cwd=str(ROOT), env=_child_env(), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(seed: int) -> dict:
    numpy_spec = importlib.util.find_spec("numpy")
    numpy_version = "absent"
    if numpy_spec is not None:
        import numpy

        numpy_version = numpy.__version__
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "engine_requested": workloads.ENGINE,
        "cpu_count": os.cpu_count(),
        "sweep_parallelism": workloads.PARALLELISM,
        "git_commit": git_commit(),
        "workload_seed": seed,
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set-up probes, then the worker; returns the report and the result line."""
    _check_source()
    common = ["--workload", workload, "--size", size]
    _child(["--role", "setup"] + common)  # warm-up: byte-compiles, fills the page cache
    probes = [_child(["--role", "setup"] + common) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    worker = _child(["--role", "worker"] + common +
                    ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))])
    e2e = worker["e2e"]
    env = fingerprint(seed)
    if trace:
        metrics = worker["layers"]
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "fingerprint": env,
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": worker["spans"],
        }))
        worker["report"]["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": e2e["ops_per_s"],
            "op_p50_ms": e2e["op_p50_ms"],
            "op_tail_ms": e2e["op_tail_ms"],
            "peak_rss_mb": worker["peak_rss_mb"],
            "success_frac": e2e["success_frac"],
        }
    report = {
        "workload": workload,
        "fingerprint": env,
        "setup_samples_s": setups,
        "raw_setup_samples_s": [p["raw_setup_s"] for p in probes],
        "tail": e2e["tail"],
        "failed_frac": e2e["failed_frac"],
        **worker["report"],
    }
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return {"report": report, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role == "setup":
        print(json.dumps(role_setup(args.workload, args.size)))
    elif args.role == "worker":
        print(json.dumps(role_worker(args.workload, args.seed, args.seconds, bool(args.trace),
                                     args.size)))
    else:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        print(json.dumps(out["report"], sort_keys=True))
        print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
