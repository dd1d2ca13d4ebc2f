import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bperc.droplets import (
    SQUARE_DIRS,
    TRIANGULAR_DIRS,
    Droplet,
    canonical_radii,
    droplet_algorithm,
    droplet_union,
    internally_filled,
    model_neighbourhood,
    single_site_growth_check,
    smallest_containing,
)
from bperc.dynamics import Domain, closure
from conftest import closure_results, lazy


DIRS = {"square": SQUARE_DIRS, "triangular": TRIANGULAR_DIRS}


# ---------------------------------------------------------------------------
# Row-walk oracle: the intersection of half-planes read row by row
# ---------------------------------------------------------------------------


def oracle_row_interval(model, radii, y):
    l = dict(zip(DIRS[model], radii))
    if y > l[(0, 1)] or -y > l[(0, -1)]:
        return None
    lo, hi = -l[(-1, 0)], l[(1, 0)]
    if model == "triangular":
        hi = min(hi, l[(1, 1)] - y)
        lo = max(lo, -l[(-1, -1)] - y)
    return None if lo > hi else (lo, hi)


def oracle_rows(model, radii):
    l = dict(zip(DIRS[model], radii))
    for y in range(-l[(0, -1)], l[(0, 1)] + 1):
        iv = oracle_row_interval(model, radii, y)
        if iv is not None:
            yield y, iv


def oracle_canonical(model, radii):
    """Each canonical radius is the max of <x, u> over the point set, attained
    at the end of some row; None when no row is nonempty."""
    maxima = {u: None for u in DIRS[model]}
    for y, (lo, hi) in oracle_rows(model, radii):
        for u in DIRS[model]:
            v = max(u[0] * lo + u[1] * y, u[0] * hi + u[1] * y)
            if maxima[u] is None or v > maxima[u]:
                maxima[u] = v
    if any(v is None for v in maxima.values()):
        return None
    return tuple(maxima[u] for u in DIRS[model])


def oracle_point_count(model, radii):
    return sum(hi - lo + 1 for _, (lo, hi) in oracle_rows(model, radii))


def random_droplet(rng, model, max_radius=40):
    dirs = TRIANGULAR_DIRS if model == "triangular" else SQUARE_DIRS
    while True:
        radii = [rng.randint(-6, max_radius) for _ in dirs]
        d = canonical_radii(model, radii)
        if not d.is_empty:
            return d


def adjacent_outside_site(rng, d, nbhd):
    """A K-neighbour of the droplet just past a random extreme point."""
    k = rng.choice([o for o in nbhd.offsets if o != (0, 0)])
    best = None
    for y, (lo, hi) in d.rows():
        for px in (lo, hi):
            v = k[0] * px + k[1] * y
            if best is None or v > best[0]:
                best = (v, (px, y))
    p = best[1]
    x = (p[0] + k[0], p[1] + k[1])
    return x if not d.contains(x) else None


# ---------------------------------------------------------------------------
# Canonicalisation
# ---------------------------------------------------------------------------


def test_canonical_is_idempotent_square():
    d = canonical_radii("square", (3, 2, 0, 0))
    assert d.radii == (3, 2, 0, 0)
    assert canonical_radii("square", d.radii).radii == d.radii


def test_singleton_droplet():
    d = Droplet.singleton("square", (0, 0))
    assert d.radii == (0, 0, 0, 0)
    assert d.points() == {(0, 0)}
    t = Droplet.singleton("triangular", (2, -1))
    assert t.points() == {(2, -1)}


def test_triangular_reduction_by_diagonal():
    # a tight diagonal makes the nominal left radius unreachable
    d = canonical_radii("triangular", (5, 5, 5, 5, -1, 5))
    # constraint x+y <= -1 cuts the rectangle corner; radii must be minimal
    pts = d.points()
    for u, l in zip(TRIANGULAR_DIRS, d.radii):
        assert max(u[0] * x + u[1] * y for x, y in pts) == l


def test_canonical_matches_point_set_maxima():
    rng = random.Random(1)
    for model in ("square", "triangular"):
        dirs = TRIANGULAR_DIRS if model == "triangular" else SQUARE_DIRS
        for _ in range(50):
            d = random_droplet(rng, model, max_radius=15)
            pts = d.points()
            for u, l in zip(dirs, d.radii):
                assert max(u[0] * x + u[1] * y for x, y in pts) == l


def test_empty_droplet():
    d = canonical_radii("square", (-3, 0, 0, 0))
    assert d.is_empty and d.points() == set() and d.point_count() == 0


def model_and_radii(lo=-6, hi=6):
    return st.sampled_from(["square", "triangular"]).flatmap(
        lambda m: st.tuples(st.just(m), st.tuples(*[st.integers(lo, hi)] * len(DIRS[m]))))


@settings(max_examples=3000, deadline=None)
@given(model_and_radii())
@example(("triangular", (5, 5, 5, 5, -1, 5)))
@example(("triangular", (0, 0, 0, 0, -1, 0)))  # x + y <= -1 cuts the only point
@example(("triangular", (1, 1, 0, 0, 0, 0)))
def test_canonical_radii_equals_row_walk(case):
    model, radii = case
    assert canonical_radii(model, radii).radii == oracle_canonical(model, radii)


@settings(max_examples=3000, deadline=None)
@given(model_and_radii())
@example(("triangular", (6, 6, 6, 6, 0, 0)))  # both corners cut to a diagonal
def test_point_count_equals_row_walk(case):
    model, radii = case
    d = canonical_radii(model, radii)
    assert d.point_count() == len(d.points())
    assert d.point_count() == (0 if d.is_empty else oracle_point_count(model, d.radii))


@settings(max_examples=1000, deadline=None)
@given(model_and_radii(), st.integers(-8, 8))
def test_row_interval_equals_row_walk(case, y):
    # row intervals read any radii, canonical or not
    model, radii = case
    assert Droplet(model, radii).row_interval(y) == oracle_row_interval(model, radii, y)
    assert list(Droplet(model, radii).rows()) == list(oracle_rows(model, radii))


@settings(max_examples=2000, deadline=None)
@given(model_and_radii(-3, 4), st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_rows_past_lists_the_points_outside_in_row_major_order(case, grow):
    model, radii = case
    inner = canonical_radii(model, radii)
    if inner.is_empty:
        return
    outer = canonical_radii(model, [l + g for l, g in zip(inner.radii, grow)])
    got = [(x, y) for y, lo, hi in outer.rows_past(inner) for x in range(lo, hi + 1)]
    want = sorted(outer.points() - inner.points(), key=lambda p: (p[1], p[0]))
    assert got == want


@pytest.mark.parametrize("model, radii", [
    ("square", (2.7, 1, 0, 0)),
    ("square", (2.0, 1, 0, 0)),
    ("square", (True, 1, 0, 0)),
    ("square", "1234"),
    ("triangular", (1, 1, 1, 1, 1, None)),
])
def test_canonical_radii_rejects_non_integers(model, radii):
    with pytest.raises(ValueError, match="integers"):
        canonical_radii(model, radii)


def test_from_json_rejects_non_integers():
    with pytest.raises(ValueError, match="integers"):
        Droplet.from_json({"model": "square", "radii": [1.9, True, 0, 0]})


def test_canonical_radii_accepts_numpy_integers():
    d = canonical_radii("triangular", np.array([3, 2, 1, 1, 9, 9], dtype=np.int32))
    assert d.radii == (3, 2, 1, 1, 5, 2)
    assert all(type(v) is int for v in d.radii)


# ---------------------------------------------------------------------------
# smallest_containing
# ---------------------------------------------------------------------------


def test_smallest_containing_inside_is_identity():
    d = canonical_radii("square", (3, 2, 0, 0))
    assert smallest_containing(d, (1, 1)) is d


def test_smallest_containing_rectangle_example():
    d = canonical_radii("square", (3, 2, 0, 0))  # {0..3} x {0..2}
    grown = smallest_containing(d, (1, 3))
    assert grown.points() == {(x, y) for x in range(4) for y in range(4)}


def test_smallest_containing_from_empty():
    d = smallest_containing(Droplet.empty("triangular"), (4, -2))
    assert d.points() == {(4, -2)}


def brute_minimal_droplet(model, base_points, site):
    """Oracle: minimal radii over the point set base + site, then checked
    minimal coordinate-wise by decrement."""
    dirs = TRIANGULAR_DIRS if model == "triangular" else SQUARE_DIRS
    pts = set(base_points) | {site}
    radii = tuple(max(u[0] * x + u[1] * y for x, y in pts) for u in dirs)
    return canonical_radii(model, radii)


def test_smallest_containing_matches_oracle():
    rng = random.Random(4)
    for model in ("square", "triangular"):
        nb = model_neighbourhood(model)
        for _ in range(60):
            d = random_droplet(rng, model, max_radius=12)
            x = adjacent_outside_site(rng, d, nb)
            if x is None:
                continue
            grown = smallest_containing(d, x)
            oracle = brute_minimal_droplet(model, d.points(), x)
            assert grown.radii == oracle.radii
            assert grown.points() >= d.points() | {x}


# ---------------------------------------------------------------------------
# Single-site growth: a droplet plus an adjacent site fills its hull
# ---------------------------------------------------------------------------


def test_growth_rectangle_example():
    d = canonical_radii("square", (3, 2, 0, 0))
    nb = model_neighbourhood("square")
    assert single_site_growth_check(d, (1, 3), nb)


@pytest.mark.parametrize("model", ["square", "triangular"])
def test_growth_random_pairs(model):
    rng = random.Random(17)
    nb = model_neighbourhood(model)
    checked = 0
    while checked < 150:
        d = random_droplet(rng, model)
        x = adjacent_outside_site(rng, d, nb)
        if x is None:
            continue
        assert single_site_growth_check(d, x, nb), (model, d.radii, x)
        checked += 1


def test_growth_and_filling_checks_read_the_times_only():
    nb = model_neighbourhood("square")
    two = canonical_radii("square", (1, 1, 0, 0))
    with closure_results() as results:
        assert single_site_growth_check(canonical_radii("square", (3, 2, 0, 0)), (1, 3), nb)
        assert single_site_growth_check(Droplet.singleton("triangular", (0, 0)), (1, 0),
                                        model_neighbourhood("triangular"))
        assert internally_filled(two, [(0, 1), (1, 0)], nb)
        assert not internally_filled(two, [(0, 0), (5, 5)], nb)
    assert len(results) == 4 and lazy(results)


def test_growth_check_rejects_other_models():
    d = Droplet("diamond", (0, 0, 0, 0))
    with pytest.raises(ValueError):
        single_site_growth_check(d, (1, 1), model_neighbourhood("square"))


# ---------------------------------------------------------------------------
# internally_filled
# ---------------------------------------------------------------------------


def test_internally_filled_cases():
    nb = model_neighbourhood("square")
    single = Droplet.singleton("square", (2, 2))
    assert internally_filled(single, [(2, 2)], nb)
    two = canonical_radii("square", (1, 1, 0, 0))  # the 2x2 square
    assert internally_filled(two, [(0, 0), (1, 1)], nb)
    assert internally_filled(two, [(0, 1), (1, 0), (9, 9)], nb)
    assert not internally_filled(two, [(0, 0)], nb)
    assert not internally_filled(two, [], nb)


# ---------------------------------------------------------------------------
# Droplet algorithm
# ---------------------------------------------------------------------------


def test_droplet_algorithm_empty():
    assert droplet_algorithm([], "square") == []


def test_droplet_algorithm_pair():
    out = droplet_algorithm([(0, 0), (1, 1)], "square")
    assert len(out) == 1
    assert out[0].points() == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("model", ["square", "triangular"])
def test_droplet_algorithm_equals_closure(model):
    rng = random.Random(23)
    nb = model_neighbourhood(model)
    for trial in range(25):
        n = rng.choice([16, 32, 64])
        density = rng.uniform(0.01, 0.2)
        sites = [
            (x, y) for x in range(n) for y in range(n) if rng.random() < density
        ]
        dom = Domain.rect(-2, -2, n + 1, n + 1)
        expect = set(closure(dom, nb, sites).infected)
        unions = []
        for strategy in ("scan", "random"):
            out = droplet_algorithm(sites, model, strategy=strategy, seed=trial)
            u = droplet_union(out)
            assert u == expect, (model, n, density, strategy)
            for d in out:
                assert internally_filled(d, sites, nb)
            unions.append(u)
        assert unions[0] == unions[1]  # strategy independence of the union


def pinned_input(seed):
    rng = random.Random(seed)
    n = rng.choice([24, 40, 64])
    density = rng.uniform(0.03, 0.2)
    return [(x, y) for x in range(n) for y in range(n) if rng.random() < density]


# (model, strategy, seed): (droplet count, sha256 prefix of the radii list)
# as produced by the row-walk implementation of the droplet algebra
PINNED = {
    ("square", "scan", 1): (32, "d28977ea00e9c38a"),
    ("square", "scan", 2): (20, "64101b810bf6aed2"),
    ("square", "scan", 3): (33, "d7841b0706b13f3b"),
    ("square", "random", 1): (24, "9fd0ed0420b06cb0"),
    ("square", "random", 2): (20, "282ac3f3b5d4276d"),
    ("square", "random", 3): (27, "f12d0e9d5ddd3e30"),
    ("triangular", "scan", 1): (28, "27fb91a542b0aa9c"),
    ("triangular", "scan", 2): (25, "6dfc938c6ff0afdd"),
    ("triangular", "scan", 3): (44, "5f5165ee05e5e925"),
    ("triangular", "random", 1): (20, "20c4aa9e9b88bef3"),
    ("triangular", "random", 2): (25, "6dfc938c6ff0afdd"),
    ("triangular", "random", 3): (41, "3db173c1341ef901"),
}


@pytest.mark.parametrize("model, strategy, seed", sorted(PINNED))
def test_droplet_algorithm_output_pinned(model, strategy, seed):
    out = droplet_algorithm(pinned_input(seed), model, strategy=strategy, seed=seed)
    digest = hashlib.sha256(json.dumps([d.radii for d in out]).encode()).hexdigest()
    assert (len(out), digest[:16]) == PINNED[model, strategy, seed]


def test_droplet_algorithm_rejects_unknown_model():
    with pytest.raises(ValueError):
        droplet_algorithm([(0, 0)], "diamond")
    with pytest.raises(ValueError):
        droplet_algorithm([(0, 0)], "square", strategy="bogus")


def test_droplet_json_round_trip():
    d = canonical_radii("triangular", (3, 2, 1, 1, 4, 2))
    assert Droplet.from_json(d.to_json()).radii == d.radii
