"""Regenerate perfbench/digests.json, the reference outputs of every pooled input.

    python3 perfbench/record_digests.py

The digests pin what schema v1 and the exact geometry freeze: tau and
closure_before of every sweep row the tau-sweep pool can draw, the critical
threshold, offsets and stable set of every lp ball the exact-geometry pool
can draw, and every extension trace with the lattice count of each step.
Record them only from a commit whose outputs are known good; a change to
any of them is a change of behaviour.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def tau_digests() -> dict:
    import bperc

    out = {}
    sweep = wl.WORKLOADS["tau-sweep"]
    for cfg in sweep.SIZES.values():
        for model, n in cfg["models"]:
            nbhd = bperc.build_neighbourhood(bperc.NeighbourhoodSpec.named(model))
            for master in range(wl.MASTER_POOL):
                records, _ = bperc.run_sweep([(model, nbhd)], [n], cfg["runs"], master_seed=master,
                                             parallelism=1, engine=wl.ENGINE)
                out[sweep.digest_key(model, n, master)] = [
                    [r.seed, r.tau, r.closure_before] for r in records]
    return out


def lp_digests() -> dict:
    import bperc

    ks = sorted({k for cfg in wl.ExactGeometry.SIZES.values() for k in cfg["ks"]})
    out = {}
    for p in wl.P_VALUES:
        for k in ks:
            nbhd = bperc.build_neighbourhood(bperc.NeighbourhoodSpec.lp_ball(p, k))
            out[f"{p}/{k}"] = wl.threshold_digest(nbhd, bperc.stability_report(nbhd))
    return out


def extension_digests() -> tuple[dict, dict]:
    """Traces of each configuration's pool: the first seed indices whose
    trace runs into the step cap."""
    import bperc

    geo = wl.WORKLOADS["exact-geometry"]
    params = geo.setup("full")["params"]
    out, pool = {}, {}
    for name in wl.EXTENSIONS:
        pool[name] = []
        index = 0
        while len(pool[name]) < wl.EXTENSIONS[name][5]:
            qd, a_prime, bound, max_steps = geo.extension_input(params[name], name, index)
            trace = bperc.extension_algorithm(qd, a_prime, params[name], stop_bound=bound,
                                              max_steps=max_steps)
            if trace.status == "step_limit":
                pool[name].append(index)
                out[f"{name}/{index}"] = {
                    "trace": wl.trace_digest(trace),
                    "counts": [st.droplet.lattice_point_count() for st in trace.steps],
                }
            index += 1
    return out, pool


def main() -> int:
    wl.WORKLOADS["tau-sweep"].setup("full")  # imports bperc, silences ModelWarning
    t0 = time.perf_counter()
    digests = {"tau": tau_digests(), "lp": lp_digests()}
    digests["extension"], digests["extension_pool"] = extension_digests()
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(digests[k]) for k in ('tau', 'lp', 'extension'))} digests in "
          f"{time.perf_counter() - t0:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
