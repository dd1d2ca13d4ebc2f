"""Command-line interface: one binary, subcommand style.

Exit codes: 0 success, 1 assertion/scenario failure, 2 usage or file error.
``sweep --parallelism`` caps the threads of batched-path chunks of runs only.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import __version__, process
from .dynamics import Domain, closure, parse_grid_text, to_grid_text
from .droplets import droplet_algorithm, droplet_union
from .geometry import (
    NeighbourhoodSpec,
    build_neighbourhood,
    quasi_stable_directions,
    sort_by_angle,
    stability_report,
)
from .process import (
    SCHEMA_VERSION,
    records_to_csv,
    records_to_jsonl,
    run_once,
    run_sweep,
)
from .quasidroplets import ExtensionParams, QuasiDroplet, extension_algorithm
from .scenarios import ScenarioError, _plain_sites, load_scenario, run_scenario


class UsageError(ValueError):
    pass


def _model_spec(args) -> NeighbourhoodSpec:
    if getattr(args, "model", None):
        return NeighbourhoodSpec.named(args.model)
    if getattr(args, "lp", None) is not None:
        if args.s is None:
            raise UsageError("--lp requires --s")
        threshold = "critical" if args.threshold is None else args.threshold
        return NeighbourhoodSpec.lp_ball(args.lp, args.s, threshold)
    if getattr(args, "offsets", None):
        if args.threshold is None:
            raise UsageError("--offsets requires --threshold")
        return NeighbourhoodSpec.explicit(_parse_sites(args.offsets), args.threshold)
    raise UsageError("no model given: use --model, --lp/--s, or --offsets")


def _add_model_flags(p):
    p.add_argument("--model", help="named model: square|triangular|boxtimes|diamond|square4")
    p.add_argument("--lp", help="lp-ball exponent: rational like 1, 2, or 'inf'")
    p.add_argument("--s", help="lp-ball scale (rational)")
    p.add_argument("--threshold", type=int, help="explicit infection threshold")
    p.add_argument("--offsets", help="explicit offsets, e.g. '(0,1),(1,0),(-1,0),(0,-1)'")


_SITE_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def _parse_sites(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    sites = [(int(a), int(b)) for a, b in _SITE_RE.findall(text)]
    stripped = _SITE_RE.sub("", text).replace(",", "").strip()
    if stripped or not sites:
        raise UsageError(f"cannot parse site list {text!r}; expected '(x,y),(x,y),...'")
    return sites


def _domain(args, nbhd) -> Domain:
    if getattr(args, "torus", None) is not None:
        return Domain.torus(args.torus)
    if getattr(args, "box", None) is not None:
        return Domain.box(args.box)
    if getattr(args, "rect", None):
        parts = [int(v) for v in args.rect.split(",")]
        if len(parts) != 4:
            raise UsageError("--rect needs xmin,ymin,xmax,ymax")
        return Domain.rect(*parts)
    raise UsageError("no domain given: use --torus, --box, or --rect")


def _read_infected(args) -> list:
    if args.infected is not None:
        return _parse_sites(args.infected)
    if args.infected_file:
        path = Path(args.infected_file)
        text = path.read_text()
        if path.suffix == ".json":
            return _json_sites(text, "--infected-file")
        infected, _ = parse_grid_text(text)
        return infected
    raise UsageError("no initial set: use --infected or --infected-file")


def _json_sites(text: str, flag: str) -> list:
    """The sites of a JSON list of [x, y] integer pairs, as tuples."""
    sites = json.loads(text)
    if not _plain_sites(sites):
        raise UsageError(f"{flag} is not a JSON list of [x, y] integer pairs")
    return [tuple(s) for s in sites]


def _echo_config(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _write(args, text: str) -> None:
    """Write text to --out when it is given, else to stdout."""
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "config": _echo_config(args), **payload}
    _write(args, json.dumps(payload, indent=2, sort_keys=False) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_closure(args) -> int:
    spec = _model_spec(args)
    nbhd = build_neighbourhood(spec)
    domain = _domain(args, nbhd)
    cfg = closure(domain, nbhd, _read_infected(args))
    if args.format == "grid":
        stats = (f"# infected={cfg.size} generations={cfg.generation} "
                 f"domain={domain.size}\n")
        _write(args, to_grid_text(cfg) + stats)
    else:
        payload = {
            "infected": sorted(map(list, cfg.infected)),
            "size": cfg.size,
            "generations": cfg.generation,
        }
        if args.times:
            payload["times"] = [[list(s), t] for s, t in sorted(cfg.times.items())]
        _emit(args, payload)
    return 0


def cmd_threshold(args) -> int:
    spec = _model_spec(args)
    nbhd = build_neighbourhood(spec)
    report = stability_report(nbhd)
    payload = {
        "model": nbhd.name,
        "offsets": sorted(map(list, nbhd.offsets)),
        "offset_count": len(nbhd.offsets),
        "threshold": nbhd.threshold,
        "radius_sq": nbhd.radius_sq,
        "stable_directions": sorted([d.x, d.y] for d in report.stable_points),
        "stable_arcs": [
            {
                "start": [a.x, a.y],
                "start_inclusive": ai,
                "end": [b.x, b.y],
                "end_inclusive": bi,
            }
            for a, ai, b, bi in report.stable_arcs
        ],
    }
    _emit(args, payload)
    return 0


def cmd_quasi(args) -> int:
    dirs = quasi_stable_directions(args.s)
    _emit(args, {"s": args.s, "count": len(dirs),
                 "directions": [[d.x, d.y] for d in sort_by_angle(dirs)]})
    return 0


def cmd_tau(args) -> int:
    spec = _model_spec(args)
    nbhd = build_neighbourhood(spec)
    records = []
    for seed in args.seed:
        rec = run_once(nbhd, args.n, seed)
        if args.audit:
            # looked up on the module, as run_once does, so a wrapper
            # installed there (the benchmark's tracer) sees this call too
            perm = process.random_permutation(args.n * args.n, seed)
            _audit_tau(nbhd, args.n, perm, rec)
        records.append(rec)
    _write(args, records_to_jsonl(records) if args.format == "jsonl" else records_to_csv(records))
    return 0


def _audit_tau(nbhd, n, perm, rec) -> None:
    """From-scratch check that tau and closure_before match the definition."""
    dom = Domain.torus(n)
    sites = [(int(p) // n, int(p) % n) for p in perm]
    before = closure(dom, nbhd, sites[: rec.tau - 1])
    after = closure(dom, nbhd, sites[: rec.tau])
    if before.is_full() or not after.is_full() or len(before.infected) != rec.closure_before:
        raise AssertionError(
            f"audit failed for n={n} seed={rec.seed}: "
            f"|closure(A(tau-1))|={len(before.infected)} recorded={rec.closure_before}"
        )


def cmd_sweep(args) -> int:
    specs = []
    for name in args.models.split(","):
        name = name.strip()
        specs.append((name, build_neighbourhood(NeighbourhoodSpec.named(name))))
    ns = [int(v) for v in args.ns.split(",")]
    records, summary = run_sweep(
        specs, ns, args.seeds, master_seed=args.master_seed,
        parallelism=args.parallelism,
    )
    if args.records_out:
        Path(args.records_out).write_text(records_to_csv(records))
    payload = {"summary": summary.to_json(), "runs": len(records)}
    _emit(args, payload)
    return 0


def cmd_verify(args) -> int:
    paths = []
    for p in args.paths:
        p = Path(p)
        if p.is_dir():
            paths.extend(q for q in sorted(p.glob("*.json")) if "patterns" not in q.name)
        else:
            paths.append(p)
    if not paths:
        raise UsageError("no scenario files found")
    failures = 0
    for path in paths:
        try:
            sc = load_scenario(path)
        except ScenarioError as e:  # the message starts with the path
            print(f"LOAD-ERROR {e}")
            failures += 1
            continue
        for res in run_scenario(sc):
            status = "PASS" if res.passed else "FAIL"
            detail = f" ({res.detail})" if res.detail else ""
            print(f"{status} {sc.name}: {res.kind}{detail}")
            if not res.passed:
                failures += 1
    return 1 if failures else 0


def cmd_droplets(args) -> int:
    A = _read_infected(args)
    out = droplet_algorithm(A, args.model, strategy=args.strategy, seed=args.seed)
    union = droplet_union(out)
    _emit(args, {
        "model": args.model,
        "droplets": [d.to_json() for d in out],
        "union_size": len(union),
        "union": sorted(map(list, union)) if args.full_union else None,
    })
    return 0


def cmd_extend(args) -> int:
    spec = _model_spec(args)
    nbhd = build_neighbourhood(spec)
    qd = QuasiDroplet.from_json(json.loads(Path(args.droplet).read_text()))
    a_prime = _json_sites(Path(args.a_prime).read_text(), "--a-prime")
    params = ExtensionParams(nbhd, args.big_c)
    trace = extension_algorithm(qd, a_prime, params, stop_bound=args.stop_bound)
    lines = []
    for step in trace.steps:
        lines.append(json.dumps({
            "kind": step.kind,
            "direction": None if step.direction is None else [step.direction.x,
                                                              step.direction.y],
            "witness": None if step.witness is None else list(step.witness),
            "droplet": step.droplet.to_json(),
            "lattice_points": step.droplet.lattice_point_count(),
        }, sort_keys=True))
    _write(args, "\n".join(lines) + f'\n{json.dumps({"status": trace.status})}\n')
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bperc",
                                 description="threshold bootstrap percolation toolkit")
    ap.add_argument("--version", action="version", version=f"bperc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="compute a closure on a finite domain")
    _add_model_flags(p)
    p.add_argument("--torus", type=int)
    p.add_argument("--box", type=int)
    p.add_argument("--rect", help="xmin,ymin,xmax,ymax")
    p.add_argument("--infected", help="inline site list '(x,y),(x,y)'")
    p.add_argument("--infected-file", help="grid text or JSON site-list file")
    p.add_argument("--format", choices=("grid", "json"), default="grid")
    p.add_argument("--times", action="store_true", help="include generation times")
    p.add_argument("--out")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("threshold", help="critical threshold and stability report")
    _add_model_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("quasi", help="quasi-stable directions for a given s")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_quasi)

    p = sub.add_parser("tau", help="run the permutation process")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, nargs="+", required=True,
                   help="seeds, each an integer in [0, 2^64)")
    p.add_argument("--audit", action="store_true",
                   help="cross-check tau against from-scratch closures")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep over models, sizes, seeds")
    p.add_argument("--models", required=True, help="comma-separated named models")
    p.add_argument("--ns", required=True, help="comma-separated torus sides")
    p.add_argument("--seeds", type=int, required=True, help="seeds per (model, n)")
    p.add_argument("--master-seed", type=int, default=0, help="an integer in [0, 2^64)")
    p.add_argument("--parallelism", type=int, default=None,
                   help="threads for chunks of runs on the batched arrival path "
                        "(default: the CPU count); scalar-path chunks run serially")
    p.add_argument("--records-out", help="CSV path for the per-run records")
    p.add_argument("--out", help="JSON path for the summary")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run scenario assertion suites")
    p.add_argument("paths", nargs="+", help="scenario files or directories")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("droplets", help="droplet algorithm for square/triangular")
    p.add_argument("--model", choices=("square", "triangular"), required=True)
    p.add_argument("--infected")
    p.add_argument("--infected-file")
    p.add_argument("--strategy", choices=("scan", "random"), default="scan")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full-union", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_droplets)

    p = sub.add_parser("extend", help="run the quasi-droplet extension algorithm")
    _add_model_flags(p)
    p.add_argument("--droplet", required=True, help="quasi-droplet JSON file")
    p.add_argument("--a-prime", required=True, help="JSON site list for A'")
    p.add_argument("--big-c", type=int, required=True)
    p.add_argument("--stop-bound", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extend)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except AssertionError as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return 1
    except (UsageError, ScenarioError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
