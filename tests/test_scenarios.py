import json

import numpy as np
import pytest

from bperc.dynamics import Domain, closure, closure_synchronous
from bperc.geometry import NeighbourhoodSpec
from bperc.scenarios import (
    Scenario,
    ScenarioError,
    _scenario_validator,
    corpus_paths,
    evaluate_assertion,
    figure3_counts,
    load_corpus_scenario,
    load_scenario,
    run_scenario,
    scenario_from_json,
    scenario_schema,
)
from conftest import closure_results, lazy


def minimal_scenario(**overrides):
    obj = {
        "schema_version": 1,
        "name": "two-sites-fill-a-square",
        "domain": {"kind": "box", "d": 4},
        "neighbourhood": {"kind": "named", "name": "square"},
        "infected": [[0, 0], [1, 1]],
        "assertions": [{"type": "closure_size", "size": 4}],
    }
    obj.update(overrides)
    return obj


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def test_corpus_is_present():
    names = [p.name for p in corpus_paths()]
    assert "square4_figure2.json" in names
    assert len(names) >= 6


def test_corpus_all_assertions_pass():
    for path in corpus_paths():
        sc = load_corpus_scenario(path.name)
        for res in run_scenario(sc):
            assert res.passed, (path.name, res.kind, res.detail)


def test_corpus_checks_read_the_times_only():
    # every assertion kind runs, and none builds the closure's infected set
    kinds = set()
    with closure_results() as results:
        for path in corpus_paths():
            kinds.update(res.kind for res in run_scenario(load_corpus_scenario(path.name)))
    assert len(kinds) == 6 and lazy(results)


def test_corpus_passes_under_synchronous_engine():
    # the assertions hold for the closure itself, however it is computed
    for path in corpus_paths():
        sc = load_corpus_scenario(path.name)
        cfg = closure_synchronous(sc.domain, sc.neighbourhood, sc.infected)
        for a in sc.assertions:
            assert evaluate_assertion(sc, cfg, a).passed, (path.name, a)


def test_scenario_on_a_numpy_sized_domain_writes_json():
    sc = Scenario("numpy-side", Domain.torus(np.int64(8)), NeighbourhoodSpec.named("square"),
                  ((0, 0), (1, 1)), ({"type": "closure_size", "size": 4},))
    text = json.dumps(sc.to_json())
    assert json.loads(text)["domain"] == {"kind": "torus", "n": 8}
    assert all(res.passed for res in run_scenario(scenario_from_json(json.loads(text))))


def test_corpus_round_trips():
    for path in corpus_paths():
        sc = load_corpus_scenario(path.name)
        again = scenario_from_json(sc.to_json())
        assert again.infected == sc.infected
        assert again.domain == sc.domain
        assert again.assertions == sc.assertions


def test_reference_window_scenario_is_exact():
    sc = load_corpus_scenario("square4_figure2.json")
    assert sc.domain.bounds == (-10, -4, 13, 4)
    assert len(sc.infected) == 88  # 86 background + 1 extra + 1 helper site
    cfg = closure(sc.domain, sc.neighbourhood, sc.infected)
    assert cfg.is_full()


def test_reference_window_without_helper_site_stalls_at_five_new():
    sc = load_corpus_scenario("square4_figure2_no_red.json")
    cfg = closure(sc.domain, sc.neighbourhood, sc.infected)
    new = cfg.infected - frozenset(sc.infected)
    assert new == {(9, 0), (5, 0), (1, 0), (-3, 0), (-7, 0)}


def test_local_counts():
    assert figure3_counts() == (16, 16, 14)


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def test_minimal_scenario_runs():
    sc = scenario_from_json(minimal_scenario())
    results = run_scenario(sc)
    assert all(r.passed for r in results)


def test_schema_violation_reports_path():
    bad = minimal_scenario()
    bad["assertions"] = [{"type": "no_such_assertion"}]
    with pytest.raises(ScenarioError) as e:
        scenario_from_json(bad, source="unit.json")
    assert "unit.json" in str(e.value)
    assert "assertions" in str(e.value)


def test_corrupted_corpus_file_message_is_pinned(tmp_path):
    src = next(p for p in corpus_paths() if p.name == "square_pair_fill.json")
    obj = json.loads(src.read_text())
    obj["assertions"][0]["size"] = "four"
    path = tmp_path / src.name
    path.write_text(json.dumps(obj))
    with pytest.raises(ScenarioError) as e:
        load_scenario(path)
    assert str(e.value) == (
        f"{path}: schema violation at assertions/0/size: 'four' is not of type 'integer'")


def _with_site(field, site):
    """A change that puts ``site`` second in a site array of ``field``."""
    if field == "infected":
        return {"infected": [[0, 0], site]}
    if field == "frozen":
        return {"domain": {"kind": "framed_box", "d": 4}, "frozen": [[4, 4], site]}
    if field == "offsets":
        return {"neighbourhood": {"kind": "explicit", "threshold": 2,
                                  "offsets": [[0, 1], site]}}
    return {"assertions": [{"type": "closure_contains", "sites": [[0, 0], site]}]}


SITE_FIELDS = ("infected", "frozen", "offsets", "assertion-sites")
# (id, site): each fails the site schema; a tuple is not a JSON array
BAD_SITES = (("true", True), ("float", 1.5), ("one", [0]), ("three", [0, 1, 2]),
             ("nested", [[0, 1]]), ("tuple", (0, 1)), ("empty", []),
             ("bool-coord", [0, True]), ("float-coord", [0.5, 1]))


@pytest.mark.parametrize("change", [
    {"assertions": [{"type": "no_such_assertion"}]},
    {"domain": {"kind": "box", "d": -1}},
    {"extra": 1, "infected": "none"},
    {"schema_version": 2},
    {"name": 5, "infected": [[0]]},
    # two errors, the deeper one found first
    {"infected": [[0, "a"]], "assertions": []},
    *(pytest.param(_with_site(field, site), id=f"{field}-{name}")
      for field in SITE_FIELDS for name, site in BAD_SITES),
    # site arrays that are not JSON arrays
    pytest.param({"infected": ([0, 0], [1, 1])}, id="infected-tuple-array"),
    pytest.param({"infected": {"0": [0, 0]}}, id="infected-object"),
    # arrays of sites where the schema wants other items
    pytest.param({"assertions": [[0, 1]]}, id="assertions-of-sites"),
    pytest.param({"domain": {"kind": "box", "bounds": [[0, 0]] * 4}}, id="bounds-of-sites"),
])
def test_schema_errors_read_as_jsonschema_validate_reports_them(change):
    import jsonschema

    bad = minimal_scenario(**change)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, scenario_schema())
    path = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
    with pytest.raises(ScenarioError) as got:
        scenario_from_json(bad, source="unit.json")
    assert str(got.value) == f"unit.json: schema violation at {path}: {want.value.message}"


def test_schema_is_checked_against_its_meta_schema_once(monkeypatch):
    cls = type(_scenario_validator())
    checked = []
    check = cls.check_schema

    def counted(schema, *args, **kwargs):
        checked.append(schema)
        return check(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", counted)
    _scenario_validator.cache_clear()
    try:
        for _ in range(3):
            assert scenario_from_json(minimal_scenario()).name == "two-sites-fill-a-square"
    finally:
        _scenario_validator.cache_clear()
    assert checked == [scenario_schema()]


def _float_sites_scenario(one, zero):
    """A framed-box scenario with every kind of site written with ``one``
    and ``zero``, ints or integral floats."""
    rect = {"type": "contains_rectangle", "width": 2, "length": 2, "direction": [one, 0]}
    return minimal_scenario(
        domain={"kind": "framed_box", "d": 4},
        infected=[[one, 1]],
        infected_grid={"text": "#.\n.#", "origin": [zero, zero]},
        frozen=[[3 * one, 3 * one]],
        assertions=[{"type": "closure_contains", "sites": [[0, one], [1, zero]]}, rect])


def test_integral_float_sites_still_load():
    import jsonschema

    # JSON Schema counts 1.0 as an integer, so these sites are valid; they
    # load, run and are written back as ints
    obj = _float_sites_scenario(1.0, 0.0)
    jsonschema.validate(obj, scenario_schema())
    sc = scenario_from_json(obj)
    assert sc.infected == ((0, 1), (1, 0), (1, 1))
    assert sc.domain.frozen == {(3, 3)}
    sites = [*sc.infected, *sc.domain.frozen, sc.assertions[1]["direction"],
             *sc.assertions[0]["sites"]]
    assert all(type(v) is int for site in sites for v in site)
    assert all(r.passed for r in run_scenario(sc))
    written = json.dumps(scenario_from_json(_float_sites_scenario(1, 0)).to_json())
    assert json.dumps(sc.to_json()) == written
    assert json.dumps(scenario_from_json(sc.to_json()).to_json()) == written


@pytest.mark.parametrize("domain", [
    {"kind": "torus", "n": 8.0},
    {"kind": "box", "d": 4.0},
    {"kind": "box", "bounds": [-4.0, -4, 4, 4.0]},
    {"kind": "framed_box", "d": 4.0},
], ids=["torus-n", "box-d", "box-bounds", "framed-d"])
def test_integral_float_sizes_load_and_run(domain):
    import jsonschema

    # the schema types 8.0 as an integer, so sizes and rectangle sides may
    # come as integral floats; the closure and the rectangle window need ints
    rect = {"type": "contains_rectangle", "width": 2.0, "length": 2.0, "direction": [1, 0]}
    obj = minimal_scenario(domain=domain, assertions=[{"type": "closure_size", "size": 4.0}, rect])
    jsonschema.validate(obj, scenario_schema())
    sc = scenario_from_json(obj)
    assert all(type(v) is int for v in sc.domain.bounds)
    assert [type(v) for a in sc.assertions for k, v in a.items()
            if k in ("size", "width", "length")] == [int] * 3
    assert [(r.kind, r.passed) for r in run_scenario(sc)] == [
        ("closure_size", True), ("contains_rectangle", True)]


def test_corpus_site_arrays_skip_the_stock_items_keyword(monkeypatch):
    from jsonschema.validators import validator_for

    base = validator_for(scenario_schema())
    stock = base.VALIDATORS["items"]
    seen = []

    def spy(validator, items, instance, schema):
        seen.append(items)
        return stock(validator, items, instance, schema)

    monkeypatch.setitem(base.VALIDATORS, "items", spy)
    site_ref = {"$ref": "#/definitions/site"}
    for path in corpus_paths():
        load_corpus_scenario(path.name)
    assert site_ref not in seen
    # the spy is live: a site array with a float goes to the stock keyword
    scenario_from_json(minimal_scenario(infected=[[0, 0], [1.0, 1]]))
    assert site_ref in seen


RECTANGLE = {"type": "contains_rectangle", "width": 2, "length": 2, "direction": [1, 0]}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("field, change", [
    ("size", {"assertions": [{"type": "closure_size"}]}),
    ("sites", {"assertions": [{"type": "closure_contains"}]}),
    ("sites", {"assertions": [{"type": "closure_excludes"}]}),
    ("width", {"assertions": [_without(RECTANGLE, "width")]}),
    ("length", {"assertions": [_without(RECTANGLE, "length")]}),
    ("direction", {"assertions": [_without(RECTANGLE, "direction")]}),
    ("name", {"neighbourhood": {"kind": "named"}}),
    ("p", {"neighbourhood": {"kind": "lp_ball", "s": "2"}}),
    ("s", {"neighbourhood": {"kind": "lp_ball", "p": "2"}}),
    ("offsets", {"neighbourhood": {"kind": "explicit", "threshold": 2}}),
    ("threshold", {"neighbourhood": {"kind": "explicit", "offsets": [[0, 1], [1, 0]]}}),
])
def test_kind_specific_field_is_required(field, change):
    # without the field, run_scenario or NeighbourhoodSpec.from_json would
    # raise KeyError; the schema names it instead
    path = "assertions/0" if "assertions" in change else "neighbourhood"
    with pytest.raises(ScenarioError) as got:
        scenario_from_json(minimal_scenario(**change), source="unit.json")
    assert str(got.value) == (
        f"unit.json: schema violation at {path}: '{field}' is a required property")
    # with it, the same scenario loads
    fixed = json.loads(json.dumps(minimal_scenario(**change)))  # a copy: change is shared
    part = fixed["assertions"][0] if "assertions" in change else fixed["neighbourhood"]
    part[field] = {"size": 4, "sites": [[0, 0]], "width": 2, "length": 2, "direction": [1, 0],
                   "name": "square", "p": "2", "s": "2", "offsets": [[0, 1], [1, 0]],
                   "threshold": 2}[field]
    scenario_from_json(fixed)


def test_missing_required_field_rejected():
    bad = minimal_scenario()
    del bad["neighbourhood"]
    with pytest.raises(ScenarioError):
        scenario_from_json(bad)


def test_out_of_domain_infected_rejected():
    bad = minimal_scenario(infected=[[0, 0], [99, 0]])
    with pytest.raises(ScenarioError) as e:
        scenario_from_json(bad)
    assert "(99, 0)" in str(e.value)


def test_out_of_domain_assertion_site_rejected():
    bad = minimal_scenario()
    bad["assertions"] = [{"type": "closure_contains", "sites": [[50, 50]]}]
    with pytest.raises(ScenarioError):
        scenario_from_json(bad)


def test_bad_neighbourhood_rejected():
    bad = minimal_scenario(neighbourhood={"kind": "named", "name": "hexagonal"})
    with pytest.raises(ScenarioError):
        scenario_from_json(bad)


def test_frozen_only_on_framed_domains():
    bad = minimal_scenario(frozen=[[0, 1]])
    with pytest.raises(ScenarioError):
        scenario_from_json(bad)


@pytest.mark.parametrize("change, message", [
    pytest.param({"domain": {"kind": "torus"}}, "torus domain needs 'n'", id="torus-no-n"),
    pytest.param({"domain": {"kind": "box"}}, "box domain needs 'd' or 'bounds'",
                 id="box-no-size"),
    pytest.param({"domain": {"kind": "framed_box", "d": 4}, "frozen": [[9, 9]]},
                 "frozen sites outside box: [(9, 9)]", id="frozen-outside"),
    pytest.param({"neighbourhood": {"kind": "explicit", "offsets": [[1, 0], [0, 1], [1, 1]],
                                    "threshold": "critical"}},
                 "bad neighbourhood: critical threshold requires offsets symmetric under "
                 "negation and quarter turn; give an explicit threshold instead",
                 id="asymmetric-critical"),
    pytest.param({"infected_grid": {"text": "#x\n"}},
                 "bad infected_grid: unexpected grid character 'x'", id="grid-character"),
    pytest.param({"infected_grid": {"text": "F#\n"}},
                 "frozen sites belong in the 'frozen' field, not the grid", id="grid-frozen"),
])
def test_loader_errors_past_the_schema_name_the_source(change, message):
    # each passes the schema and is refused by the loader itself
    _scenario_validator().validate(minimal_scenario(**change))
    with pytest.raises(ScenarioError) as e:
        scenario_from_json(minimal_scenario(**change), source="unit.json")
    assert str(e.value) == f"unit.json: {message}"


def test_infected_grid_merges_with_site_list():
    obj = minimal_scenario()
    obj["infected"] = [[1, 1]]
    obj["infected_grid"] = {"origin": [0, 0], "text": "..\n#.\n"}
    sc = scenario_from_json(obj)
    assert sc.infected == ((0, 0), (1, 1))


def test_invalid_json_file_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json }")
    with pytest.raises(ScenarioError) as e:
        load_scenario(p)
    assert "broken.json" in str(e.value)


def test_load_scenario_round_trip_via_file(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(minimal_scenario()))
    sc = load_scenario(p)
    assert sc.name == "two-sites-fill-a-square"


# ---------------------------------------------------------------------------
# Assertions on computed closures
# ---------------------------------------------------------------------------


def test_closure_size_failure_has_detail():
    obj = minimal_scenario()
    obj["assertions"] = [{"type": "closure_size", "size": 7}]
    res = run_scenario(scenario_from_json(obj))[0]
    assert not res.passed and "4 != 7" in res.detail


def test_rectangle_assertion_torus():
    # a full row plus a pitch-4 site grid fills the torus under the square
    # model: a 1 x n rectangle seeds row growth and every fourth row follows
    n = 16
    infected = [[x, 0] for x in range(n)]
    infected += [[x, y] for x in range(n) for y in range(n) if (x + y) % 4 == 0]
    obj = {
        "schema_version": 1,
        "name": "row-plus-grid-fills-torus",
        "domain": {"kind": "torus", "n": n},
        "neighbourhood": {"kind": "named", "name": "square"},
        "infected": infected,
        "assertions": [
            {"type": "contains_rectangle", "width": 1, "length": 16,
             "direction": [1, 0]},
            {"type": "closure_equals_domain"},
        ],
    }
    results = run_scenario(scenario_from_json(obj))
    assert all(r.passed for r in results)


def test_rectangle_assertion_wraps_around_torus():
    obj = {
        "schema_version": 1,
        "name": "wrapping-block",
        "domain": {"kind": "torus", "n": 8},
        "neighbourhood": {"kind": "named", "name": "square"},
        "infected": [[x % 8, y] for x in range(6, 10) for y in range(8)],
        "assertions": [
            {"type": "contains_rectangle", "width": 4, "length": 8,
             "direction": [0, 1]},
        ],
    }
    res = run_scenario(scenario_from_json(obj))[0]
    assert res.passed  # the 4 x 8 block straddles the seam


def test_rectangle_assertion_failure_detail():
    obj = minimal_scenario()
    obj["assertions"] = [{"type": "contains_rectangle", "width": 3,
                          "length": 3, "direction": [1, 0]}]
    res = run_scenario(scenario_from_json(obj))[0]
    assert not res.passed and "3x3" in res.detail


def test_closure_equals_domain_names_the_first_missing_site():
    # the frame column x = -2 and one site fill column x = -1; the first
    # healthy site in domain.sites() order is then (0, -2)
    frame = [[-2, y] for y in range(-2, 3)]
    failing = scenario_from_json(minimal_scenario(
        domain={"kind": "framed_box", "d": 2}, frozen=frame, infected=[[-1, -1]],
        assertions=[{"type": "closure_equals_domain"}]))
    with closure_results() as results:
        (res,) = run_scenario(failing)
    assert not res.passed and res.detail == "site (0, -2) stays healthy"
    cfg = results[0]
    assert cfg.size == 5 and not cfg.is_full()
    full = scenario_from_json(minimal_scenario(
        domain={"kind": "framed_box", "d": 2}, frozen=frame, infected=[[-1, -1], [0, 0], [1, 0], [2, 0]],
        assertions=[{"type": "closure_equals_domain"}]))
    with closure_results() as results:
        (res,) = run_scenario(full)
    assert res.passed and res.detail == ""
    assert results[0].is_full() and "times" not in results[0].__dict__
