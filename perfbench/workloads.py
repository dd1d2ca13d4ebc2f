"""The benchmark's workloads: seeded inputs, op sequences and output checks.

Each workload provides

* ``setup(size)``: import bperc and build the models and params the ops
  need.  This is what ``setup_s`` times.
* ``make_inputs(ctx, seed, size, digests)``: plain JSON-able inputs derived
  from the workload seed alone (the digests supply the input pools).
* ``jobs(ctx, inputs, digests)``: one pass over the inputs, as a list of job
  factories.  A job is a generator that yields ``Op(kind, fn, check)`` and is
  sent ``fn()``'s result.  The runner times ``fn()`` only; ``check(result)``
  and everything the generator does between ops (building oracles, reading
  digests) lies outside the timed region.

Every op is a call into a public function of bperc, made through its module
attribute at call time so that the traced run sees it.  The engine is always
the pure-Python one, requested explicitly.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import sys
import warnings
from collections import namedtuple

import inputs as gen

# ``count(result, counts)``, when given, adds per-layer counters in the traced
# run; like ``check`` it runs outside the timed region.
Op = namedtuple("Op", "kind fn check count", defaults=(None,))

ENGINE = "python"
PARALLELISM = 2
V1_CSV_HEADER = "schema_version,model,n,seed,tau,closure_before,jump_ratio,tau_scaled,wall_ms"
NAMED = ("square", "triangular", "boxtimes", "diamond", "square4")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def config_digest(cfg) -> str:
    """Digest of a closure result: every infected site with its generation."""
    times = sorted(cfg.times.items())
    if len(times) != len(cfg.infected):
        return "times-do-not-match-infected"
    return hashlib.sha256(repr((times, cfg.generation)).encode()).hexdigest()[:32]


def _module(name: str):
    return sys.modules[name]


def _import_bperc():
    import bperc  # noqa: F401  (the import is part of what setup_s measures)

    warnings.simplefilter("ignore", bperc.ModelWarning)
    return bperc


# ---------------------------------------------------------------------------
# tau-sweep
# ---------------------------------------------------------------------------

MASTER_POOL = 16  # sweeps draw their master seed from range(MASTER_POOL)


class TauSweep:
    """``bperc sweep``: run_sweep, then the CSV rows and the summary JSON."""

    name = "tau-sweep"
    trace_passes = 2
    SIZES = {
        "full": {"models": (("square", 384), ("square4", 192)), "runs": 2, "sweeps": 2},
        "tiny": {"models": (("square", 32), ("square4", 24)), "runs": 2, "sweeps": 1},
    }

    def setup(self, size):
        bperc = _import_bperc()
        spec = bperc.NeighbourhoodSpec.named
        return {"nbhd": {m: bperc.build_neighbourhood(spec(m))
                         for m, _ in self.SIZES[size]["models"]}}

    def make_inputs(self, ctx, seed, size, digests):
        cfg = self.SIZES[size]
        rng = rng_for(self.name, seed)
        masters = {m: rng.sample(range(MASTER_POOL), cfg["sweeps"]) for m, _ in cfg["models"]}
        return {
            "runs": cfg["runs"],
            "sweeps": [[m, n, masters[m][i]] for i in range(cfg["sweeps"])
                       for m, n in cfg["models"]],
        }

    @staticmethod
    def digest_key(model, n, master):
        return f"{model}/{n}/{master}"

    def jobs(self, ctx, inputs, digests):
        process = _module("bperc.process")
        runs = inputs["runs"]

        def one_pass():
            records, expected = [], []
            for model, n, master in inputs["sweeps"]:
                want = digests["tau"][self.digest_key(model, n, master)]
                nbhd = ctx["nbhd"][model]
                out = yield Op(
                    "run_sweep",
                    lambda: process.run_sweep([(model, nbhd)], [n], runs, master_seed=master,
                                              parallelism=PARALLELISM, engine=ENGINE),
                    lambda out: [[r.seed, r.tau, r.closure_before] for r in out[0]] == want,
                )
                records.extend(out[0])
                expected.extend([model, n] + row for row in want)
            yield Op("records_to_csv", lambda: process.records_to_csv(records),
                     lambda text: _csv_ok(text, expected))
            yield Op(
                "summary_json",
                lambda: json.dumps({"summary": process.summarise(records).to_json(),
                                    "runs": len(records)}, indent=2),
                lambda text: _summary_ok(text, expected),
            )

        return [one_pass]


def _csv_ok(text, expected) -> bool:
    """Header and the schema-v1 frozen columns of every row (wall_ms excluded)."""
    lines = text.splitlines()
    if lines[0] != V1_CSV_HEADER or len(lines) != len(expected) + 1:
        return False
    for line, (model, n, seed, tau, cb) in zip(lines[1:], expected):
        if line.split(",")[:6] != ["1", model, str(n), str(seed), str(tau), str(cb)]:
            return False
    return True


def _summary_ok(text, expected) -> bool:
    groups = {(g["model"], g["n"]): g for g in json.loads(text)["summary"]["groups"]}
    by_key = {}
    for model, n, _, tau, _ in expected:
        by_key.setdefault((model, n), []).append(tau * math.log(n) / (n * n))
    if set(groups) != set(by_key):
        return False
    return all(
        groups[k]["count"] == len(v)
        and math.isclose(groups[k]["tau_scaled_median"], statistics.median(v), rel_tol=1e-12)
        for k, v in by_key.items()
    )


# ---------------------------------------------------------------------------
# closure-mix
# ---------------------------------------------------------------------------

# Supercritical densities: each model's dense closure fills its torus.
DENSE_DENSITY = {"square": 0.1, "triangular": 0.1, "boxtimes": 0.12, "diamond": 0.1,
                 "square4": 0.3}


class ClosureMix:
    """Event-driven closures (mostly sparse, a few dense), droplet_algorithm
    with both strategies, and one ``bperc verify`` pass over the corpus."""

    name = "closure-mix"
    trace_passes = 8
    # Sparse closures get push_budget // |K \ {0}| initial sites, spaced so
    # that nothing grows, and every model's sparse closure pushes about as
    # many counters: their latencies form the cluster where op_p50_ms sits.
    SIZES = {
        "full": {"torus": 256, "box": 63, "framed": 47, "reps": 4, "push_budget": 480,
                 "dense_n": 128, "droplets": ((64, 0.03), (40, 0.2))},
        "tiny": {"torus": 32, "box": 10, "framed": 8, "reps": 1, "push_budget": 48,
                 "dense_n": 24, "droplets": ((16, 0.03), (12, 0.25))},
    }

    def setup(self, size):
        bperc = _import_bperc()
        spec = bperc.NeighbourhoodSpec.named
        return {"nbhd": {m: bperc.build_neighbourhood(spec(m)) for m in NAMED}}

    def make_inputs(self, ctx, seed, size, digests):
        cfg = self.SIZES[size]
        rng = rng_for(self.name, seed)
        closures = []
        for model in NAMED:
            nbhd = ctx["nbhd"][model]
            k = max(1, cfg["push_budget"] // (len(nbhd.offsets) - ((0, 0) in nbhd.offsets)))
            gap = 2 * nbhd.radius_ceil + 1
            for _ in range(cfg["reps"]):
                n, d, f = cfg["torus"], cfg["box"], cfg["framed"]
                grid = range(0, n - gap + 1, gap)  # the gap holds across the wrap too
                closures.append([model, ["torus", n], gen.spaced_sites(rng, grid, grid, k)])
                grid = range(-d, d + 1, gap)
                closures.append([model, ["box", d], gen.spaced_sites(rng, grid, grid, k)])
                # clear of the frame column at x = -f
                closures.append([model, ["framed", f], gen.spaced_sites(
                    rng, range(-f + gap, f + 1, gap), range(-f, f + 1, gap), k)])
            n = cfg["dense_n"]
            k = round(DENSE_DENSITY[model] * n * n)
            closures.append([model, ["torus", n], gen.sample_sites(rng, range(n), range(n), k)])
        droplets = []
        for model in ("square", "triangular"):
            for n, density in cfg["droplets"]:
                sites = gen.sample_sites(rng, range(n), range(n), round(density * n * n))
                for strategy in ("scan", "random"):
                    droplets.append([model, n, sites, strategy, rng.randrange(2 ** 31)])
        bperc_scenarios = _module("bperc.scenarios")
        corpus = [p.name for p in bperc_scenarios.corpus_paths()]
        order = list(range(len(closures) + len(droplets) + len(corpus)))
        rng.shuffle(order)
        return {"closures": closures, "droplets": droplets, "corpus": corpus, "order": order}

    def jobs(self, ctx, inputs, digests):
        dyn = _module("bperc.dynamics")
        drop = _module("bperc.droplets")
        scen = _module("bperc.scenarios")
        jobs = []
        for model, (kind, size), sites in inputs["closures"]:
            nbhd = ctx["nbhd"][model]
            if kind == "torus":
                dom = dyn.Domain.torus(size)
            elif kind == "box":
                dom = dyn.Domain.box(size)
            else:
                dom = dyn.Domain.framed_box(size, framed_column(size))
            sites = [tuple(s) for s in sites]
            want = config_digest(dyn.closure_synchronous(dom, nbhd, sites))
            jobs.append(_single(Op("closure", lambda d=dom, nb=nbhd, s=sites: dyn.closure(d, nb, s),
                                   lambda cfg, w=want: config_digest(cfg) == w)))
        oracle = {}
        for model, n, sites, strategy, seed in inputs["droplets"]:
            sites = [tuple(s) for s in sites]
            key = (model, n, tuple(sites))
            if key not in oracle:
                dom = dyn.Domain.rect(-2, -2, n + 1, n + 1)
                oracle[key] = dyn.closure(dom, ctx["nbhd"][model], sites).infected
            jobs.append(_single(Op(
                "droplet_algorithm",
                lambda s=sites, m=model, st=strategy, sd=seed:
                    drop.droplet_algorithm(s, m, strategy=st, seed=sd),
                lambda out, w=oracle[key]: drop.droplet_union(out) == w,
                lambda out, counts: counts.update(
                    {"droplets.union_sites": len(drop.droplet_union(out))}),
            )))
        paths = {p.name: p for p in scen.corpus_paths()}
        for name in inputs["corpus"]:
            path = paths[name]
            declared = json.loads(path.read_text())
            jobs.append(lambda p=path, d=declared: _verify_one(scen, p, d))
        return [jobs[i] for i in inputs["order"]]


def framed_column(f: int) -> list:
    """Frozen frame of the framed boxes: every fourth site of the left
    column, so that no model's threshold is met by the frame alone."""
    return [(-f, y) for y in range(-f, f + 1, 4)]


def _single(op):
    def job():
        yield op
    return job


def _verify_one(scen, path, declared):
    """One ``bperc verify`` file: load it, run it, every assertion must PASS."""
    sc = yield Op("load_scenario", lambda: scen.load_scenario(path),
                  lambda sc: sc.name == declared["name"])
    yield Op("run_scenario", lambda: scen.run_scenario(sc),
             lambda res: len(res) == len(declared["assertions"]) and all(r.passed for r in res))


# ---------------------------------------------------------------------------
# exact-geometry
# ---------------------------------------------------------------------------

P_VALUES = ("1", "2", "inf")
# Extension configurations: neighbourhood, s of Q(s), C, step cap, A' density,
# pool size.  A' (random infected sites around the droplet) is given only
# where stable steps happen within the cap.  A pool holds the first seed
# indices whose trace reaches the cap (recorded in digests.json), so every
# trace has exactly cap + 1 steps and every pass the same op mix.  A full
# pass uses the whole Q(1) pool: its lattice counts are where op_p50_ms sits.
EXTENSIONS = {
    "square-s1": (("named", "square"), 1, 27, 7, 0.02, 24),
    "triangular-s2": (("named", "triangular"), 2, 729, 2, 0.0, 24),
    "lp2-s4": (("lp", "2", "4"), 4, 4096, 3, 0.0, 24),
    "square-s6": (("named", "square"), 6, 13824, 1, 0.0, 24),
}


class ExactGeometry:
    """``bperc threshold`` on lp balls and ``bperc extend`` traces."""

    name = "exact-geometry"
    trace_passes = 1
    SIZES = {
        "full": {"ks": (4, 8, 12, 16, 24),
                 "ext": (("square-s1", 24), ("triangular-s2", 4), ("lp2-s4", 2), ("square-s6", 1))},
        "tiny": {"ks": (4, 8), "ext": (("square-s1", 1), ("triangular-s2", 1))},
    }

    def setup(self, size):
        bperc = _import_bperc()
        params = {}
        for name, _ in self.SIZES[size]["ext"]:
            spec, _, big_c, _, _, _ = EXTENSIONS[name]
            if spec[0] == "named":
                nbhd = bperc.build_neighbourhood(bperc.NeighbourhoodSpec.named(spec[1]))
            else:
                nbhd = bperc.build_neighbourhood(bperc.NeighbourhoodSpec.lp_ball(spec[1], spec[2]))
            params[name] = bperc.ExtensionParams(nbhd, big_c)
        return {"params": params}

    def make_inputs(self, ctx, seed, size, digests):
        cfg = self.SIZES[size]
        rng = rng_for(self.name, seed)
        # The lp scales are fixed: a call's cost grows like s^4 and the largest
        # calls set op_tail_ms, so the seed only orders them.
        geometry = [[p, str(k)] for p in P_VALUES for k in cfg["ks"]]
        extensions = [[name, i] for name, count in cfg["ext"]
                      for i in rng.sample(digests["extension_pool"][name], count)]
        order = list(range(len(geometry) + len(extensions)))
        rng.shuffle(order)
        return {"geometry": geometry, "extensions": extensions, "order": order}

    @staticmethod
    def extension_input(params, name, index):
        """The seed droplet, A' and stop bound of pool entry ``index``."""
        _, s, _, max_steps, density, _ = EXTENSIONS[name]
        rng = random.Random(f"perfbench:extension:{name}:{index}")
        qd = gen.random_nondegenerate(rng, s, params)
        a_prime = gen.a_prime_around(rng, qd, density, margin=6)
        bound = int(max(max(abs(x), abs(y)) for x, y in qd.polygon())) + 25
        return qd, a_prime, bound, max_steps

    def jobs(self, ctx, inputs, digests):
        geo = _module("bperc.geometry")
        qdm = _module("bperc.quasidroplets")
        jobs = []
        for p, s in inputs["geometry"]:
            jobs.append(lambda p=p, s=s: _threshold_job(geo, p, s, digests["lp"][f"{p}/{s}"]))
        for name, index in inputs["extensions"]:
            params = ctx["params"][name]
            qd, a_prime, bound, max_steps = self.extension_input(params, name, index)
            want = digests["extension"][f"{name}/{index}"]
            jobs.append(lambda q=qd, a=a_prime, pr=params, b=bound, m=max_steps, w=want:
                        _extension_job(qdm, q, a, pr, b, m, w))
        return [jobs[i] for i in inputs["order"]]


def threshold_digest(nbhd, report) -> dict:
    return {
        "threshold": nbhd.threshold,
        "offsets": digest(sorted(nbhd.offsets)),
        "report": digest({
            "stable": sorted([d.x, d.y] for d in report.stable_points),
            "arcs": [[a.x, a.y, ai, b.x, b.y, bi] for a, ai, b, bi in report.stable_arcs],
        }),
    }


def _threshold_job(geo, p, s, want):
    """``bperc threshold --lp p --s s``: build the ball, then its stability report."""
    nbhd = yield Op(
        "build_neighbourhood",
        lambda: geo.build_neighbourhood(geo.NeighbourhoodSpec.lp_ball(p, s)),
        lambda nb: nb.threshold == want["threshold"] and digest(sorted(nb.offsets)) == want["offsets"],
    )
    yield Op("stability_report", lambda: geo.stability_report(nbhd),
             lambda rep: threshold_digest(nbhd, rep) == want)


def trace_digest(trace) -> str:
    """Digest of the ``bperc extend`` lines without the lattice counts."""
    return digest({
        "steps": [{
            "kind": st.kind,
            "direction": None if st.direction is None else [st.direction.x, st.direction.y],
            "witness": None if st.witness is None else list(st.witness),
            "droplet": st.droplet.to_json(),
        } for st in trace.steps],
        "status": trace.status,
    })


def _extension_job(qdm, qd, a_prime, params, bound, max_steps, want):
    """``bperc extend``: the trace, then the lattice count of every step."""
    trace = yield Op(
        "extension_algorithm",
        lambda: qdm.extension_algorithm(qd, a_prime, params, stop_bound=bound, max_steps=max_steps),
        lambda tr: trace_digest(tr) == want["trace"],
    )
    counts = want["counts"]
    for i, step in enumerate(trace.steps):
        yield Op("lattice_point_count", lambda d=step.droplet: d.lattice_point_count(),
                 lambda c, i=i: i < len(counts) and c == counts[i])


WORKLOADS = {w.name: w for w in (TauSweep(), ClosureMix(), ExactGeometry())}
