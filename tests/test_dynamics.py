import dataclasses
import hashlib
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bperc import dynamics
from bperc.dynamics import (
    Configuration,
    Domain,
    closure,
    closure_synchronous,
    grid_step,
    infection_graph,
    is_closed,
    offsets_array,
    parse_grid_text,
    to_grid_text,
)
from bperc.geometry import Direction, NeighbourhoodSpec, build_neighbourhood
from conftest import NAMED, generation_branch, lazy, random_instances


@pytest.fixture(scope="module")
def square():
    return build_neighbourhood(NeighbourhoodSpec.named("square"))


@pytest.fixture(scope="module")
def triangular():
    return build_neighbourhood(NeighbourhoodSpec.named("triangular"))


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


def test_torus_too_small_rejected(square):
    with pytest.raises(ValueError):
        closure(Domain.torus(2), square, [(0, 0)])
    closure(Domain.torus(3), square, [(0, 0)])  # 2*1+1 is the minimum


def test_torus_minimum_scales_with_radius():
    nb = build_neighbourhood(NeighbourhoodSpec.named("square4"))
    with pytest.raises(ValueError):
        closure(Domain.torus(8), nb, [(0, 0)])
    closure(Domain.torus(9), nb, [(0, 0)])


def test_initial_outside_domain_rejected(square):
    with pytest.raises(ValueError):
        closure(Domain.box(2), square, [(5, 0)])
    with pytest.raises(ValueError):
        closure(Domain.torus(5), square, [(-1, 0)])


def test_frozen_sites_not_counted_in_size(square):
    dom = Domain.framed_box(3, [(-3, y) for y in range(-3, 4)])
    cfg = closure(dom, square, [(0, 0)])
    assert cfg.size == 1  # the frozen column is excluded from statistics


@pytest.mark.parametrize("build, what", [
    (lambda: Domain.torus(16.0), "torus side n"),
    (lambda: Domain.torus(True), "torus side n"),
    (lambda: Domain.box(3.0), "box half-width d"),
    (lambda: Domain.rect(0, 0, 3.0, 3), "rectangle bound x1"),
    (lambda: Domain.rect("0", 0, 3, 3), "rectangle bound x0"),
    (lambda: Domain.framed_box(3.0, []), "box half-width d"),
    (lambda: Domain.framed_rect(0, 0.5, 3, 3, []), "rectangle bound y0"),
    (lambda: Domain("torus", n=16.0), "torus side n"),
    (lambda: Domain("box", x0=0, y0=0, x1=2.5, y1=3), "rectangle bound x1"),
], ids=["torus-float", "torus-bool", "box-float", "rect-float", "rect-str", "framed-box-float",
        "framed-rect-float", "raw-torus-float", "raw-box-float"])
def test_domains_reject_non_integer_sizes(build, what):
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        build()


def test_raw_domains_are_checked_and_hold_ints(square):
    with pytest.raises(ValueError, match="unknown domain kind 'sphere'"):
        Domain("sphere", n=4)
    dom = Domain("torus", n=np.int64(8))
    assert type(dom.n) is int and dom == Domain.torus(8)
    assert closure(dom, square, [(0, 0), (1, 1)]).size == 4


def test_domains_store_numpy_integers_as_int(square):
    doms = [Domain.torus(np.int64(8)), Domain.box(np.int32(3)),
            Domain.rect(*map(np.int64, (0, -1, 4, 5))), Domain.framed_box(np.int64(2), [(2, 2)]),
            Domain.framed_rect(*map(np.int16, (0, 0, 3, 3)), [])]
    assert doms == [Domain.torus(8), Domain.box(3), Domain.rect(0, -1, 4, 5),
                    Domain.framed_box(2, [(2, 2)]), Domain.framed_rect(0, 0, 3, 3, [])]
    for dom in doms:
        assert all(type(v) is int for v in (dom.n, dom.x0, dom.y0, dom.x1, dom.y1))
    assert closure(doms[0], square, [(0, 0), (1, 1)]).size == 4


@pytest.mark.parametrize("engine", [closure, closure_synchronous])
def test_closure_rejects_non_integer_sites(engine, square):
    # the cascade used to truncate (0.5, 0) to (0, 0) and keep the float site
    with pytest.raises(ValueError, match="initial"):
        engine(Domain.box(3), square, [(0.5, 0), (1, 1)])
    with pytest.raises(ValueError, match="initial"):
        engine(Domain.torus(8), square, [(0, 0), (1, 1.0)])
    with pytest.raises(ValueError, match="region"):
        engine(Domain.box(3), square, [(0, 0), (1, 1)], region=[(0, 1), (1.5, 0)])
    with pytest.raises(ValueError, match="frozen"):
        engine(Domain.framed_box(3, [(-3, 0.5)]), square, [(0, 0)])
    # integers of any type, and empty sets, go through
    sites = np.array([(0, 0), (1, 1)], dtype=np.int32)
    assert engine(Domain.box(3), square, sites, region=sites.astype(np.uint8)).size == 2
    assert engine(Domain.box(3), square, [], region=[]).size == 0
    assert engine(Domain.torus(8), square, []).size == 0


# ---------------------------------------------------------------------------
# Closure basics
# ---------------------------------------------------------------------------


def test_two_by_two_example(square):
    cfg = closure(Domain.box(5), square, [(0, 0), (1, 1)])
    assert cfg.infected == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert cfg.times == {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1}


def test_empty_initial_empty_closure(square, triangular):
    for nb in (square, triangular):
        cfg = closure(Domain.box(4), nb, [])
        assert cfg.infected == frozenset()


def test_full_domain_fixed_point(square):
    dom = Domain.box(3)
    cfg = closure(dom, square, list(dom.sites()))
    assert cfg.is_full() and all(t == 0 for t in cfg.times.values())


def test_single_site_inert(square):
    cfg = closure(Domain.box(4), square, [(0, 0)])
    assert cfg.infected == frozenset({(0, 0)})


def test_is_closed(square):
    dom = Domain.box(5)
    assert is_closed(Configuration.initial(dom, []), square)
    assert is_closed(Configuration.initial(dom, list(dom.sites())), square)
    assert not is_closed(Configuration.initial(dom, [(0, 0), (1, 1)]), square)


# ---------------------------------------------------------------------------
# Closure results: the generation times, and what is derived from them
# ---------------------------------------------------------------------------


def test_configuration_stores_only_domain_and_times():
    assert [f.name for f in dataclasses.fields(Configuration)] == ["domain", "times"]


def test_closure_result_keeps_its_rounds_until_the_times_are_read(square):
    dom = Domain.box(3)
    times = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1}
    given = Configuration(dom, times)
    assert given.times is times and "_rounds" not in given.__dict__
    made = closure(dom, square, [(0, 0), (1, 1)])
    # the box is padded by reach 1: flat index f is (f // 9 - 4, f % 9 - 4)
    base, new, grid, count = made.__dict__["_rounds"]
    assert base == {(0, 0): 0, (1, 1): 0} and grid == (9, -4, -4) and count == 4
    assert [f.tolist() for f in new] == [[4 * 9 + 5, 5 * 9 + 4]]
    assert (made.size, made.is_full(), made.generation) == (4, False, 1)
    # the rounds go into the time-0 dict, which becomes the times; the
    # arrays are dropped
    assert made.times is base and made.__dict__.keys() == {"domain", "times", "generation"}
    assert made.times == times and list(made.times)[2:] == [(0, 1), (1, 0)]
    assert made == given and given == made and made != Configuration(dom, dict(base, x=1))
    assert made != times  # a dict is not a Configuration
    assert repr(made) == f"Configuration(domain={dom!r}, times={made.times!r})"
    assert dataclasses.replace(closure(dom, square, [(0, 0), (1, 1)]), domain=dom) == given
    with pytest.raises(dataclasses.FrozenInstanceError):
        made.times = {}
    with pytest.raises(AttributeError):
        made.missing
    with pytest.raises(TypeError):
        hash(closure(dom, square, [(0, 0), (1, 1)]))


def test_results_derive_infected_and_generation_on_first_use(square):
    dom = Domain.framed_box(4, [(-4, 0)])
    initial = [(0, 0), (1, 1)]
    made = [closure(dom, square, initial), closure_synchronous(dom, square, initial),
            Configuration.initial(dom, initial)]
    assert lazy(made) and not any("generation" in cfg.__dict__ for cfg in made)
    # closure keeps its one round as an array until the times are read
    assert "times" not in made[0].__dict__ and len(made[0].__dict__["_rounds"][1]) == 1
    assert [is_closed(cfg, square) for cfg in made] == [True, True, False]
    assert "times" in made[0].__dict__
    assert [to_grid_text(cfg).count("#") for cfg in made] == [4, 4, 2]
    assert lazy(made)
    for cfg in made:
        infected = cfg.infected
        assert infected == frozenset(cfg.times) and cfg.infected is infected
        assert cfg.size == len(infected) - 1
    assert [cfg.generation for cfg in made] == [1, 1, 0]
    assert all("generation" in cfg.__dict__ for cfg in made)


def test_dense_fill_builds_no_times_until_read(square):
    n = 64
    rng = random.Random(3)
    sites = [(x, y) for x in range(n) for y in range(n) if rng.random() < 0.1]
    dom = Domain.torus(n)
    cfg = closure(dom, square, sites)
    base, new, _, _ = cfg.__dict__["_rounds"]
    assert cfg.is_full() and cfg.size == n * n and cfg.generation == len(new) > 1
    assert base == dict.fromkeys(sites, 0)
    assert not {"times", "infected"} & cfg.__dict__.keys()
    times = cfg.times
    assert cfg.times is times and times == closure_synchronous(dom, square, sites).times
    assert cfg.infected == frozenset(dom.sites())
    # the times follow the initial sites, then the rounds in order
    assert list(times.values()) == sorted(times.values())


def test_threads_reading_one_unbuilt_result_agree(square):
    n = 48
    rng = random.Random(8)
    sites = [(x, y) for x in range(n) for y in range(n) if rng.random() < 0.1]
    dom = Domain.torus(n)
    want = closure_synchronous(dom, square, sites)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cfg = closure(dom, square, sites)
            seen = []

            def read():
                seen.append((cfg.size, cfg.is_full(), cfg.generation, len(cfg.times), cfg.size))

            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            row = (want.size, want.is_full(), want.generation, len(want.times), want.size)
            assert seen == [row] * 6 and cfg == want
    finally:
        sys.setswitchinterval(switch)


def _literal_rounds(dom, nbhd, initial):
    """The number of nonempty synchronous rounds of the threshold rule from
    ``initial`` and the frozen sites, by a literal loop over the sites that
    the last round's sites push."""
    infected = set(map(tuple, initial)) | dom.frozen
    offsets = [k for k in nbhd.offsets if k != (0, 0)]
    last, rounds = set(infected), 0
    while True:
        pushed = {dom.wrap(x - kx, y - ky) for x, y in last for kx, ky in offsets}
        new = set()
        for x, y in pushed - infected - {None}:
            hits = sum(dom.wrap(x + kx, y + ky) in infected for kx, ky in offsets)
            if hits >= nbhd.threshold:
                new.add((x, y))
        if not new:
            return rounds
        infected |= new
        last = new
        rounds += 1


@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_generation_and_size_match_a_literal_loop(branch):
    cases = []
    for i, (nbhd, n, sites, on_torus) in enumerate(random_instances(17, 40, max_n=24)):
        if on_torus:
            dom = Domain.torus(n)
        elif i % 2:
            dom = Domain.rect(0, 0, n - 1, n - 1)
        else:
            dom = Domain.framed_rect(0, 0, n - 1, n - 1, [(0, y) for y in range(0, n, 2)])
        cases.append((dom, nbhd, sites, _literal_rounds(dom, nbhd, sites)))
    assert any(dom.frozen for dom, *_ in cases) and max(r for *_, r in cases) > 1
    with generation_branch(branch):
        for dom, nbhd, sites, rounds in cases:
            for cfg in (closure(dom, nbhd, sites), closure_synchronous(dom, nbhd, sites)):
                assert cfg.generation == rounds
                assert cfg.size == len(cfg.infected) - len(dom.frozen)


# ---------------------------------------------------------------------------
# Engine equivalence and algebraic properties
# ---------------------------------------------------------------------------


def test_event_driven_equals_synchronous_oracle():
    for nbhd, n, sites, on_torus in random_instances(11, 60):
        dom = Domain.torus(n) if on_torus else Domain.rect(0, 0, n - 1, n - 1)
        a = closure(dom, nbhd, sites)
        b = closure_synchronous(dom, nbhd, sites)
        assert a.infected == b.infected
        assert a.times == b.times


def test_closure_matches_the_oracle_on_an_asymmetric_neighbourhood():
    # offsets not closed under k -> -k show which way the pushes go
    nbhd = build_neighbourhood(
        NeighbourhoodSpec.explicit([(0, 1), (1, 0), (2, 1), (-1, 2)], 2))
    rng = random.Random(5)
    n = 64
    sites = [(x, y) for x in range(n) for y in range(n) if rng.random() < 0.3]
    for dom in (Domain.torus(n), Domain.rect(0, 0, n - 1, n - 1)):
        a = closure(dom, nbhd, sites)
        b = closure_synchronous(dom, nbhd, sites)
        assert a.infected == b.infected
        assert a.times == b.times


def test_monotone_in_initial_set(square, triangular):
    rng = random.Random(2)
    for nb in (square, triangular):
        for _ in range(25):
            n = 20
            dom = Domain.torus(n)
            big = [(rng.randrange(n), rng.randrange(n)) for _ in range(60)]
            small = [s for s in big if rng.random() < 0.6]
            assert closure(dom, nb, small).infected <= closure(dom, nb, big).infected


def test_idempotent(square):
    rng = random.Random(3)
    n = 24
    dom = Domain.torus(n)
    for _ in range(10):
        sites = [(rng.randrange(n), rng.randrange(n)) for _ in range(80)]
        c1 = closure(dom, square, sites)
        c2 = closure(dom, square, sorted(c1.infected))
        assert c2.infected == c1.infected
        assert c2.generation == 0


# Every named model, plus lp balls of scale s <= 3: p = inf with s = 1 is the
# lone offset (0, 0), so nothing ever pushes.
_SPECS = [NeighbourhoodSpec.named(m) for m in NAMED] + [
    NeighbourhoodSpec.lp_ball(p, s)
    for p in ("1", "2", "inf") for s in ("1", "3/2", "2", "5/2", "3")
]
_NBHDS = [build_neighbourhood(spec) for spec in _SPECS]


# Offsets not closed under k -> -k, which show which way the pushes go.
_DIRECTED = [
    build_neighbourhood(NeighbourhoodSpec.explicit([(0, 1), (1, 0), (2, 1), (-1, 2)], 2)),
    build_neighbourhood(NeighbourhoodSpec.explicit(
        [(a, b) for a in range(5) for b in range(4) if (a, b) != (0, 0)], 8)),
]


@st.composite
def closure_cases(draw, nbhds=_NBHDS):
    """(domain, neighbourhood, initial, region) over every domain kind.

    The torus side starts at its minimum 2R + 1; rectangles sit off centre;
    the region, when given, is drawn independently of the initial set, so
    it may leave initial sites out; the initial set may be empty.
    """
    nbhd = draw(st.sampled_from(nbhds))
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["torus", "box", "rect", "framed_rect"]))
    if kind == "torus":
        dom = Domain.torus(draw(st.integers(0, 6)) + 2 * nbhd.radius_ceil + 1)
    elif kind == "box":
        dom = Domain.box(draw(st.integers(0, 6)))
    else:
        x0, y0 = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
        x1, y1 = x0 + draw(st.integers(0, 12)), y0 + draw(st.integers(0, 12))
        dom = Domain.rect(x0, y0, x1, y1)
        if kind == "framed_rect":
            frozen = [p for p in dom.sites() if rnd.random() < 0.1]
            dom = Domain.framed_rect(x0, y0, x1, y1, frozen)
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6]))
    initial = [p for p in dom.sites() if rnd.random() < density]
    region = None
    if draw(st.booleans()):
        keep = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0]))
        region = [p for p in dom.sites() if rnd.random() < keep]
    return dom, nbhd, initial, region


@settings(max_examples=400, deadline=None)
@given(case=closure_cases())
@example(case=(Domain.torus(3), _NBHDS[0], [(0, 0), (1, 1)], None))
# diamond: the site just right of the box sees both initial sites
@example(case=(Domain.rect(2, -3, 6, 1), _NBHDS[3], [(6, -2), (6, 0)], None))
@example(case=(Domain.torus(5), _NBHDS[0], [], None))  # no initial sites
@example(case=(Domain.box(3), _NBHDS[0], [(0, 0), (2, 2)], None))  # no growth
@example(case=(Domain.torus(5), _NBHDS[0], [(0, 0), (1, 1)], []))  # an empty region
@example(case=(Domain.framed_rect(0, 0, 4, 4, [(0, y) for y in range(5)]), _NBHDS[0],
               [(2, 1), (2, 3), (4, 0)], None))  # the frame helps fill the box
def test_closure_equals_synchronous_oracle(case):
    dom, nbhd, initial, region = case
    a = closure(dom, nbhd, initial, region=region)
    b = closure_synchronous(dom, nbhd, initial, region=region)
    # closure's result answers these from its round arrays, its times unbuilt
    assert (a.size, a.is_full(), a.generation) == (b.size, b.is_full(), b.generation)
    # either the rounds, unread, or no growth and the dict of the initial sites
    assert ("_rounds" in a.__dict__) != ("times" in a.__dict__)
    unbuilt = pickle.loads(pickle.dumps(a))
    assert a.infected == b.infected
    assert a.times == b.times
    assert a == b and b == a and unbuilt == b


@pytest.mark.parametrize("branch", ["dense", "sparse"])
@settings(max_examples=300, deadline=None)
@given(case=closure_cases(_NBHDS + _DIRECTED))
def test_each_branch_equals_synchronous_oracle(branch, case):
    dom, nbhd, initial, region = case
    with generation_branch(branch) as rounds:
        a = closure(dom, nbhd, initial, region=region)
    b = closure_synchronous(dom, nbhd, initial, region=region)
    assert a.infected == b.infected
    assert a.times == b.times
    assert a.generation == b.generation
    pushes = bool(initial or dom.frozen) and nbhd.max_infectable() > 0
    assert bool(rounds) == (branch == "dense" and pushes)


@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_each_branch_equals_synchronous_oracle_on_larger_instances(branch):
    # lp balls up to s = 8 on tori and squares up to n = 64, and the
    # asymmetric set at density 0.3
    asymmetric = _DIRECTED[0]
    rng = random.Random(5)
    sites = [(x, y) for x in range(64) for y in range(64) if rng.random() < 0.3]
    cases = [(nbhd, n, pts, on_torus) for nbhd, n, pts, on_torus in random_instances(13, 80)]
    cases += [(asymmetric, 64, sites, True), (asymmetric, 64, sites, False)]
    with generation_branch(branch) as rounds:
        for nbhd, n, pts, on_torus in cases:
            dom = Domain.torus(n) if on_torus else Domain.rect(0, 0, n - 1, n - 1)
            a = closure(dom, nbhd, pts)
            b = closure_synchronous(dom, nbhd, pts)
            assert a.infected == b.infected
            assert a.times == b.times
    assert bool(rounds) == (branch == "dense")


@settings(max_examples=200, deadline=None)
@given(case=closure_cases(), seed=st.integers(0, 2 ** 32))
def test_closure_is_monotone(case, seed):
    dom, nbhd, initial, region = case
    rng = random.Random(seed)
    fewer = [p for p in initial if rng.random() < 0.6]
    big = closure(dom, nbhd, initial, region=region).infected
    assert closure(dom, nbhd, fewer, region=region).infected <= big
    if region is not None:
        smaller = [p for p in region if rng.random() < 0.6]
        assert closure(dom, nbhd, initial, region=smaller).infected <= big
        assert big <= closure(dom, nbhd, initial).infected


@settings(max_examples=200, deadline=None)
@given(case=closure_cases())
def test_closure_is_idempotent(case):
    dom, nbhd, initial, region = case
    once = closure(dom, nbhd, initial, region=region)
    twice = closure(dom, nbhd, sorted(once.infected), region=region)
    assert twice.infected == once.infected
    assert twice.generation == 0


def test_back_to_back_closures_do_not_share_gather_tables():
    # The sparse branch's cached tables belong to one padded grid: rectangles
    # of one width and different heights, and a torus and a box with the
    # same offsets (the box is padded by their reach), each need their own.
    dynamics._small_gather_tables.cache_clear()
    nbhd = _DIRECTED[0]
    rng = random.Random(17)
    domains = [Domain.rect(0, 0, 11, 11), Domain.rect(0, 0, 11, 19), Domain.rect(0, 0, 11, 6),
               Domain.torus(12), Domain.rect(0, 0, 11, 11), Domain.torus(16), Domain.torus(12)]
    with generation_branch("sparse"):
        for dom in domains:
            sites = [p for p in dom.sites() if rng.random() < 0.3]
            a = closure(dom, nbhd, sites)
            b = closure_synchronous(dom, nbhd, sites)
            assert a.infected == b.infected
            assert a.times == b.times


def test_gather_tables_are_read_only():
    offs = offsets_array(_DIRECTED[1])
    key = offs.tobytes()
    for tables in (dynamics._small_gather_tables, dynamics._large_gather_tables):
        rowtab, coltab = tables(9, 13, key)
        for table in (rowtab, coltab):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1
        assert rowtab.dtype == coltab.dtype == np.int32


def _one_step(width, height, offs, r, front, tori=1):
    """One step on ``tori`` fresh tori whose only done sites are ``front``:
    returns (the counts before, the counts after, the new front)."""
    counts = np.zeros(tori * width * height, np.int32)
    counts[front] = dynamics.DONE
    before = counts.copy()
    new = grid_step(width, height, offs, r, tori)(counts, np.asarray(front))
    return before, counts, new


@pytest.mark.parametrize("nbhd", _DIRECTED + [
    build_neighbourhood(NeighbourhoodSpec.lp_ball("2", "24"))], ids=["skew", "quadrant", "lp2-24"])
def test_sparse_gather_lists_every_push(nbhd):
    # one sparse step on a width != height torus: each site gains one count
    # per push of the literal ((x - kx) mod w) * h + (y - ky) mod h over
    # every front site and offset, and the step returns the sites that are
    # not done at r or more, each once, in increasing order (at r = 1 every
    # site pushed more than once would be listed again without the dedupe)
    offs = offsets_array(nbhd)
    width, height = (11, 7) if len(offs) < 100 else (97, 83)
    rng = random.Random(len(offs))
    front = sorted(rng.sample(range(width * height), 5))
    want = np.zeros(width * height, np.int64)
    for s in front:
        for kx, ky in offs.tolist():
            want[((s // height - kx) % width) * height + (s % height - ky) % height] += 1
    assert (want > 1).any()
    for r in (1, 2):
        with generation_branch("sparse") as rounds:
            before, counts, new = _one_step(width, height, offs, r, front)
        assert rounds == []
        assert counts.tolist() == (before + want).tolist()
        assert new.tolist() == np.flatnonzero(counts >= r).tolist()
        assert new.size and (np.diff(new) > 0).all()


@pytest.mark.parametrize("nbhd", _DIRECTED + [
    build_neighbourhood(NeighbourhoodSpec.lp_ball("2", "4"))], ids=["skew", "quadrant", "lp2-4"])
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_stacked_tori_push_within_their_own_torus(branch, nbhd):
    # one step on three width != height tori stacked along x, against the
    # literal t*w*h + ((x - kx) mod w) * h + (y - ky) mod h per push, so a
    # push never wraps into the torus before or after; the new front is
    # every site that is not done at r or more, some of them at exactly r
    offs = offsets_array(nbhd)
    width, height, tori = 11, 9, 3
    cells = width * height
    rng = random.Random(len(offs))
    front = np.array(sorted(rng.sample(range(tori * cells), 40)))
    want = np.zeros(tori * cells, np.int64)
    for s in front.tolist():
        t, x, y = s // cells, s % cells // height, s % height
        for kx, ky in offs.tolist():
            want[t * cells + (x - kx) % width * height + (y - ky) % height] += 1
    r = 2
    with generation_branch(branch) as rounds:
        before, counts, new = _one_step(width, height, offs, r, front, tori)
    if branch == "dense":
        assert rounds == [front.size]
        want[front] += 1  # the runs' push onto the pusher itself, which nothing reads
    else:
        assert rounds == []
    assert counts.tolist() == (before + want).tolist()
    assert new.tolist() == np.flatnonzero(counts >= r).tolist()
    assert (counts == r).any() and (np.diff(new) > 0).all()


def test_large_gather_tables_keep_one_grid():
    # pairs above the small cache's size: a ladder of n pins one at a time
    offs = offsets_array(build_neighbourhood(NeighbourhoodSpec.lp_ball("2", "24")))
    for n in (80, 96, 112):
        assert 2 * n * len(offs) > dynamics._SMALL_GATHER_ENTRIES
        grid_step(n, n, offs, 2)
        assert dynamics._large_gather_tables.cache_info().currsize == 1
        assert dynamics._large_gather_tables(n, n, offs.tobytes())[0].shape == (n, len(offs))


def test_synchronous_oracle_rejects_region_outside_domain(square):
    # negative coordinates used to wrap through numpy indexing
    dom = Domain.rect(0, 0, 4, 4)
    region = [(-4, 1), (-4, 2), (-3, 1), (-3, 2)]
    for engine in (closure, closure_synchronous):
        with pytest.raises(ValueError, match="region sites outside domain"):
            engine(dom, square, [(1, 1), (2, 2)], region=region)
        with pytest.raises(ValueError, match="region sites outside domain"):
            engine(dom, square, [(1, 1), (2, 2)], region=[(5, 0)])


# ---------------------------------------------------------------------------
# Restricted closure
# ---------------------------------------------------------------------------


def test_restricted_full_region_is_closure(square):
    dom = Domain.box(5)
    sites = [(0, 0), (1, 1), (3, 3)]
    a = closure(dom, square, sites)
    b = closure(dom, square, sites, region=list(dom.sites()))
    assert a.infected == b.infected and a.times == b.times


def test_restricted_empty_region_is_identity(square):
    dom = Domain.box(5)
    cfg = closure(dom, square, [(0, 0), (1, 1)], region=[])
    assert cfg.infected == frozenset({(0, 0), (1, 1)})


def test_restricted_single_admissible_site(square):
    cfg = closure(Domain.box(5), square, [(0, 0), (1, 1)], region=[(0, 1)])
    assert cfg.infected == frozenset({(0, 0), (1, 1), (0, 1)})


def test_restricted_agrees_with_locality(square):
    # when the unrestricted run never leaves B, restriction changes nothing
    dom = Domain.box(8)
    sites = [(0, 0), (1, 1)]
    region = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    a = closure(dom, square, sites)
    b = closure(dom, square, sites, region=region)
    assert a.infected == b.infected


# ---------------------------------------------------------------------------
# Stable-direction barrier on framed boxes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model,directions", [
    ("square", [(1, 0), (0, 1), (-1, 0), (0, -1)]),
    ("triangular", [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]),
])
def test_half_plane_barrier(model, directions):
    nb = build_neighbourhood(NeighbourhoodSpec.named(model))
    W = 6 * nb.radius_ceil + 3
    margin = 2 * nb.radius_ceil
    for (ux, uy) in directions:
        frozen = [
            (x, y)
            for x in range(-W, W + 1)
            for y in range(-W, W + 1)
            if ux * x + uy * y < 0
        ]
        dom = Domain.framed_box(W, frozen)
        cfg = closure(dom, nb, [(0, 0)])
        for (x, y) in dom.sites():
            if max(abs(x), abs(y)) > W - margin:
                continue  # too close to the artificial boundary
            d = ux * x + uy * y
            if d > 0:
                assert (x, y) not in cfg.infected, (model, (ux, uy), (x, y))
            else:
                assert (x, y) in cfg.infected, (model, (ux, uy), (x, y))


# ---------------------------------------------------------------------------
# Infection graph
# ---------------------------------------------------------------------------


def test_infection_graph_two_by_two(square):
    cfg = closure(Domain.box(5), square, [(0, 0), (1, 1)])
    g = infection_graph(cfg, square)
    assert set(g.edges[(0, 1)]) == {(0, 0), (1, 1)}
    assert set(g.edges[(1, 0)]) == {(0, 0), (1, 1)}
    # r = 2 -> good bar is ceil(1.8) = 2; the generation-1 sites have
    # out-degree 0, so both are bad
    assert g.good == {(0, 1): False, (1, 0): False}


def test_infection_graph_no_edges_when_all_initial(square):
    dom = Domain.box(2)
    cfg = closure(dom, square, list(dom.sites()))
    g = infection_graph(cfg, square)
    assert g.edges == {} and g.good == {}


def test_infection_graph_in_degree_and_recount(square):
    rng = random.Random(9)
    n = 32
    dom = Domain.torus(n)
    sites = [(x, y) for x in range(n) for y in range(n) if rng.random() < 0.1]
    cfg = closure(dom, square, sites)
    for rule, seed in (("lex", 0), ("random", 4), ("random", 5)):
        g = infection_graph(cfg, square, rule=rule, seed=seed)
        assert all(len(parents) == square.threshold for parents in g.edges.values())
        for v, parents in g.edges.items():
            for u in parents:
                assert cfg.times[u] < cfg.times[v]
        # independent recount of good vertices from the edge list
        out = {}
        for parents in g.edges.values():
            for u in parents:
                out[u] = out.get(u, 0) + 1
        bar = 2  # ceil(0.9 * 2)
        recount = sum(
            1 for v in cfg.infected if cfg.times[v] > 0 and out.get(v, 0) >= bar
        )
        assert recount == g.good_count


@pytest.mark.parametrize("name, density, want", [
    ("square", 0.08, {"lex": "ba143f2cd0e5aea4", "random": "04b08bb54b4075c9"}),
    ("triangular", 0.12, {"lex": "d913b91c0379a14f", "random": "65b165d479ab71ed"}),
])
def test_infection_graph_is_pinned_on_fixed_closures(name, density, want):
    # sha256 (first 16 hex digits) of the sorted edges and good flags, on
    # one closure on the 16-torus per rule: "random" draws its parents in
    # the order it walks cfg.infected, which nothing else pins
    nbhd = build_neighbourhood(NeighbourhoodSpec.named(name))
    rng = random.Random(16)
    sites = [(x, y) for x in range(16) for y in range(16) if rng.random() < density]
    cfg = closure(Domain.torus(16), nbhd, sites)
    for rule in ("lex", "random"):
        g = infection_graph(cfg, nbhd, rule=rule, seed=3)
        text = repr((sorted(g.edges.items()), sorted(g.good.items())))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want[rule], rule


def test_infection_graph_requires_closed_configuration(square):
    cfg = Configuration.initial(Domain.box(5), [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        infection_graph(cfg, square)


# ---------------------------------------------------------------------------
# Grid text round-trip
# ---------------------------------------------------------------------------


def test_grid_text_round_trip(square):
    dom = Domain.framed_box(2, [(-2, -2)])
    cfg = closure(dom, square, [(0, 0), (1, 1)])
    text = to_grid_text(cfg)
    infected, frozen = parse_grid_text(text, origin=(-2, -2))
    assert frozenset(infected) | frozenset(frozen) == cfg.infected
    assert frozen == [(-2, -2)]


def test_grid_text_orientation():
    infected, frozen = parse_grid_text("#.\n..\n", origin=(0, 0))
    assert infected == [(0, 1)] and frozen == []  # top row is max y


def test_grid_text_rejects_bad_characters():
    with pytest.raises(ValueError):
        parse_grid_text("#x\n..\n")
    with pytest.raises(ValueError):
        parse_grid_text("#\n..\n")
