"""Declarative scenarios: a JSON format for initial configurations with
checkable assertions, plus the bundled corpus of reference configurations."""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import Configuration, Domain, closure, parse_grid_text
from .geometry import Neighbourhood, NeighbourhoodSpec, Site, build_neighbourhood

SCENARIO_SCHEMA_VERSION = 1


@functools.cache
def scenario_schema() -> dict:
    with resources.files("bperc.schema").joinpath("scenario.v1.json").open() as fh:
        return json.load(fh)


_SITE_REF = {"$ref": "#/definitions/site"}


def _plain_sites(instance) -> bool:
    """True for a list of ``[int, int]`` lists: a site array that the
    schema accepts. Bools, floats (even integral ones) and tuples are not
    plain, so they are left to jsonschema."""
    if type(instance) is not list:
        return False
    for s in instance:
        if type(s) is not list or len(s) != 2:
            return False
        x, y = s
        if type(x) is not int or type(y) is not int:
            return False
    return True


@functools.cache
def _validator_class():
    """The schema's validator class, with an ``items`` keyword that accepts
    a plain site array in one pass instead of resolving
    ``#/definitions/site`` for every pair. Every other array, valid or not,
    goes to the stock keyword, so errors and their paths are jsonschema's
    own."""
    # imported here: jsonschema adds about 3 MB to every process that
    # imports bperc, and only scenario validation needs it
    from jsonschema.validators import extend, validator_for

    base = validator_for(scenario_schema())

    def items(validator, items, instance, schema):
        if items == _SITE_REF and _plain_sites(instance):
            return
        yield from base.VALIDATORS["items"](validator, items, instance, schema)

    return extend(base, {"items": items})


@functools.cache
def _scenario_validator():
    """The schema's validator, checked against its meta-schema once."""
    cls = _validator_class()
    cls.check_schema(scenario_schema())
    return cls(scenario_schema())


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    name: str
    domain: Domain
    spec: NeighbourhoodSpec
    infected: tuple
    assertions: tuple
    notes: str = ""

    @property
    def neighbourhood(self) -> Neighbourhood:
        return build_neighbourhood(self.spec)

    def to_json(self) -> dict:
        dom = {"kind": self.domain.kind}
        if self.domain.kind == "torus":
            dom["n"] = self.domain.n
        else:
            x0, y0, x1, y1 = self.domain.bounds
            if (-x0, -y0) == (x1, y1) and x1 == y1:
                dom["d"] = x1
            else:
                dom["bounds"] = [x0, y0, x1, y1]
        obj = {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
            "domain": dom,
            "neighbourhood": self.spec.to_json(),
            "infected": [list(s) for s in self.infected],
            "assertions": [dict(a) for a in self.assertions],
        }
        if self.domain.kind == "framed_box":
            obj["frozen"] = sorted(list(s) for s in self.domain.frozen)
        if self.notes:
            obj["notes"] = self.notes
        return obj


# the assertion fields the schema types as integers or sites
_INTEGER_FIELDS = frozenset({"size", "width", "length", "sites", "direction"})


def _ints(value):
    """A schema integer, or a list of them at any depth, as int."""
    return [_ints(v) for v in value] if isinstance(value, list) else int(value)


def scenario_from_json(obj: dict, source: str = "<inline>") -> Scenario:
    from jsonschema.exceptions import best_match

    # the error jsonschema.validate would raise, without re-checking the schema
    e = best_match(_scenario_validator().iter_errors(obj))
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ScenarioError(f"{source}: schema violation at {path}: {e.message}")

    # an integral float passes the schema (draft-07 types 8.0 as an
    # integer), so sizes and sites are made int before anything indexes
    # with them or writes them back
    dom_obj = obj["domain"]
    kind = dom_obj["kind"]
    frozen = [tuple(s) for s in _ints(obj.get("frozen", []))]
    if kind == "torus":
        if "n" not in dom_obj:
            raise ScenarioError(f"{source}: torus domain needs 'n'")
        domain = Domain.torus(int(dom_obj["n"]))
    else:
        if "bounds" in dom_obj:
            x0, y0, x1, y1 = map(int, dom_obj["bounds"])
        elif "d" in dom_obj:
            d = int(dom_obj["d"])
            x0, y0, x1, y1 = -d, -d, d, d
        else:
            raise ScenarioError(f"{source}: {kind} domain needs 'd' or 'bounds'")
        try:
            if kind == "box":
                domain = Domain.rect(x0, y0, x1, y1)
            else:
                domain = Domain.framed_rect(x0, y0, x1, y1, frozen)
        except ValueError as e:
            raise ScenarioError(f"{source}: {e}") from None
    if kind != "framed_box" and frozen:
        raise ScenarioError(f"{source}: frozen sites are only valid on framed_box domains")

    try:
        spec = NeighbourhoodSpec.from_json(obj["neighbourhood"])
        build_neighbourhood(spec)
    except ValueError as e:
        raise ScenarioError(f"{source}: bad neighbourhood: {e}") from None

    infected = [tuple(s) for s in _ints(obj.get("infected", []))]
    if "infected_grid" in obj:
        grid = obj["infected_grid"]
        origin = tuple(_ints(grid.get("origin", [0, 0])))
        try:
            grid_infected, grid_frozen = parse_grid_text(grid["text"], origin)
        except ValueError as e:
            raise ScenarioError(f"{source}: bad infected_grid: {e}") from None
        if grid_frozen:
            raise ScenarioError(
                f"{source}: frozen sites belong in the 'frozen' field, not the grid"
            )
        infected.extend(grid_infected)
    infected = sorted(set(infected))

    bad = [s for s in infected if not domain.contains(s)]
    if bad:
        raise ScenarioError(f"{source}: infected sites outside domain: {bad[:5]}")
    for a in obj["assertions"]:
        for s in a.get("sites", []):
            if not domain.contains(tuple(s)):
                raise ScenarioError(
                    f"{source}: assertion {a['type']} lists out-of-domain site {s}"
                )
    assertions = tuple({k: _ints(v) if k in _INTEGER_FIELDS else v for k, v in a.items()}
                       for a in obj["assertions"])
    return Scenario(obj["name"], domain, spec, tuple(infected), assertions,
                    obj.get("notes", ""))


def _read_scenario(path, source: str) -> Scenario:
    """Parse the scenario file at ``path``; every error is a ScenarioError
    whose message starts with ``source``."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{source}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    except OSError as e:
        raise ScenarioError(f"{source}: cannot read: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{source}: invalid JSON at line {e.lineno}: {e.msg}") from None
    return scenario_from_json(obj, source=source)


def load_scenario(path) -> Scenario:
    return _read_scenario(Path(path), str(path))


# ---------------------------------------------------------------------------
# Assertion evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssertionResult:
    kind: str
    passed: bool
    detail: str = ""


def _contains_rectangle(cfg: Configuration, width: int, length: int,
                        direction: Site) -> Optional[str]:
    """None when some width x length rectangle (length along the axis given
    by direction) lies fully in the infected set; else a failure message."""
    if tuple(direction) in ((1, 0), (-1, 0)):
        wx, wy = length, width
    elif tuple(direction) in ((0, 1), (0, -1)):
        wx, wy = width, length
    else:
        return f"unsupported rectangle direction {direction}; use an axis vector"
    xmin, ymin, xmax, ymax = cfg.domain.bounds
    W, H = xmax - xmin + 1, ymax - ymin + 1
    grid = np.zeros((W, H), dtype=np.int32)
    for (x, y) in cfg.times:
        grid[x - xmin, y - ymin] = 1
    if cfg.domain.kind == "torus":
        grid = np.tile(grid, (2, 2))[: W + wx - 1, : H + wy - 1]
    if grid.shape[0] < wx or grid.shape[1] < wy:
        return f"domain smaller than a {width}x{length} rectangle"
    # sliding-window sums via an integral image
    ii = np.zeros((grid.shape[0] + 1, grid.shape[1] + 1), dtype=np.int64)
    ii[1:, 1:] = np.cumsum(np.cumsum(grid, axis=0), axis=1)
    sums = (
        ii[wx:, wy:] - ii[:-wx, wy:] - ii[wx:, :-wy] + ii[:-wx, :-wy]
    )
    if (sums == wx * wy).any():
        return None
    return f"no fully infected {width}x{length} rectangle found"


def evaluate_assertion(sc: Scenario, cfg: Configuration, a: dict) -> AssertionResult:
    kind = a["type"]
    initial = frozenset(sc.infected) | sc.domain.frozen
    if kind == "closure_equals_domain":
        missing = None if cfg.is_full() else next(
            s for s in sc.domain.sites() if s not in cfg.times)
        return AssertionResult(kind, missing is None,
                               "" if missing is None else f"site {missing} stays healthy")
    if kind == "no_growth":
        grown = cfg.times.keys() - initial
        return AssertionResult(kind, not grown,
                               "" if not grown else f"site {sorted(grown)[0]} got infected")
    if kind == "closure_size":
        return AssertionResult(
            kind, cfg.size == a["size"],
            "" if cfg.size == a["size"] else f"closure size {cfg.size} != {a['size']}")
    if kind == "closure_contains":
        missing = [tuple(s) for s in a["sites"] if tuple(s) not in cfg.times]
        return AssertionResult(kind, not missing,
                               "" if not missing else f"missing {missing[:5]}")
    if kind == "closure_excludes":
        hit = [tuple(s) for s in a["sites"] if tuple(s) in cfg.times]
        return AssertionResult(kind, not hit,
                               "" if not hit else f"infected {hit[:5]}")
    if kind == "contains_rectangle":
        msg = _contains_rectangle(cfg, a["width"], a["length"], tuple(a["direction"]))
        return AssertionResult(kind, msg is None, msg or "")
    raise ScenarioError(f"unknown assertion type {kind!r}")


def run_scenario(sc: Scenario) -> list:
    """Compute the closure once and evaluate every assertion against it."""
    cfg = closure(sc.domain, sc.neighbourhood, sc.infected)
    return [evaluate_assertion(sc, cfg, a) for a in sc.assertions]


# ---------------------------------------------------------------------------
# Bundled corpus
# ---------------------------------------------------------------------------


def corpus_dir():
    return resources.files("bperc.corpus")


def corpus_paths() -> list:
    """Bundled scenario files (pattern-data files are not scenarios)."""
    return sorted(
        p for p in corpus_dir().iterdir()
        if p.name.endswith(".json") and "patterns" not in p.name
    )


def load_corpus_scenario(name: str) -> Scenario:
    return _read_scenario(corpus_dir().joinpath(name), name)


def figure3_counts() -> tuple[int, int, int]:
    """Infected sites within l1-distance 4 of each pattern's marked site."""
    with corpus_dir().joinpath("local_count_patterns.json").open() as fh:
        obj = json.load(fh)
    out = []
    for pat in obj["patterns"]:
        cx, cy = pat["cross"]
        count = sum(
            1 for (x, y) in map(tuple, pat["infected"])
            if abs(x - cx) + abs(y - cy) <= 4
        )
        out.append(count)
    return tuple(out)
