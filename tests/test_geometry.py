import dataclasses
import functools
import math
import pickle
import random
import re
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bperc.geometry import (
    Direction,
    NAMED_MODELS,
    ModelWarning,
    Neighbourhood,
    NeighbourhoodSpec,
    StabilityReport,
    SweepEntry,
    _lp_offsets,
    angular_cmp,
    breakpoint_directions,
    build_neighbourhood,
    consecutive_directions,
    critical_threshold,
    negative_count,
    quasi_stable_directions,
    sort_by_angle,
    stability_report,
    support_value,
)

AXES = {(1, 0), (0, 1), (-1, 0), (0, -1)}
DIAG = {(1, 1), (-1, -1), (1, -1), (-1, 1)}


def dirs(pairs):
    return {Direction(x, y) for x, y in pairs}


# ---------------------------------------------------------------------------
# Independent oracle: dense integer-direction scan
# ---------------------------------------------------------------------------


def oracle_threshold(offsets):
    """1 + min negative-side count over all breakpoints plus a dense angular
    grid of integer-rounded directions (>= 8 |K|^2 samples, all exact)."""
    import numpy as np

    offsets = list(offsets)
    best = min(
        negative_count(offsets, d) for d in breakpoint_directions(offsets)
    )
    samples = max(8 * len(offsets) ** 2, 64)
    M = 10 ** 6
    offs = np.asarray(offsets, dtype=np.int64)
    for start in range(0, samples, 65536):
        idx = np.arange(start, min(start + 65536, samples))
        theta = 2 * np.pi * idx / samples
        dirs_arr = np.stack(
            [np.rint(M * np.cos(theta)), np.rint(M * np.sin(theta))], axis=1
        ).astype(np.int64)
        dots = dirs_arr @ offs.T
        best = min(best, int((dots < 0).sum(axis=1).min()))
    return 1 + best


def _mid(a, b):
    """Exact interior direction of the counter-clockwise arc from a to b; an
    antipodal pair (only collinear offset sets have one) takes a quarter turn."""
    s = (a.x + b.x, a.y + b.y)
    return Direction.of(*s) if s != (0, 0) else a.rot90()


def reference_sweep(nbhd):
    """(breakpoints, counts) in O(|K| m): every breakpoint and arc midpoint
    counted directly."""
    offsets = list(nbhd.offsets)
    bps = breakpoint_directions(offsets)
    counts = tuple((negative_count(offsets, d), negative_count(offsets, _mid(d, nxt)))
                   for d, nxt in zip(bps, bps[1:] + bps[:1]))
    return tuple(bps), counts


def reference_entries(nbhd):
    """The pieces of the circle in angular order, point and arc alternating;
    without breakpoints, one arc from (1, 0) round the whole circle."""
    r = nbhd.threshold
    bps, counts = reference_sweep(nbhd)
    if not bps:
        d = Direction(1, 0)
        return (SweepEntry("arc", d, d, 0, 0 < r),)
    out = []
    for d, nxt, (c, c_arc) in zip(bps, bps[1:] + bps[:1], counts):
        out += [SweepEntry("point", d, d, c, c < r), SweepEntry("arc", d, nxt, c_arc, c_arc < r)]
    return tuple(out)


def reference_stability_report(nbhd):
    return StabilityReport(nbhd.threshold, *reference_sweep(nbhd))


def reference_stable_arcs(nbhd):
    """The maximal stable runs that hold an arc, walked piece by piece from
    the first unstable piece once round the circle."""
    pieces = reference_entries(nbhd)
    if all(e.stable for e in pieces):
        d = pieces[0].start
        return ((d, True, d, True),)
    n = len(pieces)
    first = next(i for i, e in enumerate(pieces) if not e.stable)
    runs, run = [], []
    for k in range(1, n + 1):
        e = pieces[(first + k) % n]
        if e.stable:
            run.append(e)
            continue
        if any(p.kind == "arc" for p in run):
            runs.append((run[0].start, run[0].kind == "point", run[-1].end,
                         run[-1].kind == "point"))
        run = []
    return tuple(runs)


def lp_member(p, s, x, y):
    """Brute-force lp-ball membership of (x, y), in Fractions."""
    ax, ay = abs(x), abs(y)
    if p == 1:
        return ax + ay <= s
    if p == 2:
        return x * x + y * y <= s * s
    m = max(ax, ay)
    return 2 * m * m <= s * s


# ---------------------------------------------------------------------------
# Directions
# ---------------------------------------------------------------------------


def test_direction_primitivity_enforced():
    with pytest.raises(ValueError):
        Direction(2, 4)
    with pytest.raises(ValueError):
        Direction(0, 0)
    assert Direction.of(2, 4) == Direction(1, 2)
    assert Direction.of(-3, 0) == Direction(-1, 0)


def test_angular_order_of_eight_directions():
    eight = sort_by_angle(dirs(AXES | DIAG))
    assert [(d.x, d.y) for d in eight] == [
        (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)
    ]


def test_angular_cmp_is_exact_on_close_slopes():
    a, b = Direction(1000000, 999999), Direction(999999, 1000000)
    assert angular_cmp(a, b) < 0
    assert angular_cmp(b, a) > 0
    assert angular_cmp(a, a) == 0


def _coords(bound):
    return st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))


_directions = st.one_of(_coords(3), _coords(10 ** 6)).filter(any).map(
    lambda v: Direction.of(*v))


@settings(max_examples=300, deadline=None)
@given(ds=st.lists(_directions, max_size=60))
@example(ds=[Direction(1000000, 999999), Direction(999999, 1000000), Direction(1, 0),
             Direction(-1, 0), Direction(0, -1), Direction(-999999, -1000000)])
@example(ds=[Direction(1, 0), Direction(-1, 0), Direction(1, 0), Direction(0, 1)])
def test_sort_by_angle_matches_angular_cmp(ds):
    # the integer key sorts exactly as the comparison that defines the order
    assert sort_by_angle(ds) == sorted(ds, key=cmp_to_key(angular_cmp))
    assert sort_by_angle(iter(ds)) == sort_by_angle(ds)


# ---------------------------------------------------------------------------
# Neighbourhood construction
# ---------------------------------------------------------------------------


def test_named_square():
    nb = build_neighbourhood(NeighbourhoodSpec.named("square"))
    assert nb.offsets == frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)})
    assert nb.threshold == 2


def test_named_triangular():
    nb = build_neighbourhood(NeighbourhoodSpec.named("triangular"))
    assert len(nb.offsets) == 7
    assert nb.threshold == 3


def test_named_square4_is_l1_ball_of_radius_4():
    nb = build_neighbourhood(NeighbourhoodSpec.named("square4"))
    assert len(nb.offsets) == 41
    assert nb.threshold == 17
    lp = build_neighbourhood(NeighbourhoodSpec.lp_ball("1", "4"))
    assert lp.offsets == nb.offsets and lp.threshold == 17


def test_linf_ball_s2_is_boxtimes():
    nb = build_neighbourhood(NeighbourhoodSpec.lp_ball("inf", "2"))
    assert nb.offsets == frozenset((x, y) for x in (-1, 0, 1) for y in (-1, 0, 1))
    assert nb.threshold == 4
    bx = build_neighbourhood(NeighbourhoodSpec.named("boxtimes"))
    assert nb.offsets == bx.offsets and nb.threshold == bx.threshold


def test_lp_ball_rejects_unsupported_exponent():
    msg = "lp_ball supports p in {1, 2, inf}; other exponents have no exact lattice test here"
    for p in ("3/2", "3"):
        with pytest.raises(ValueError, match=re.escape(msg)):
            build_neighbourhood(NeighbourhoodSpec.lp_ball(p, 4))


@pytest.mark.parametrize("p", ["1", "2", "inf"])
@pytest.mark.parametrize("s", ["1/2", "1", "3/2", "7/3", "5/2", "4", "17/4", "100/7", "12"])
def test_lp_offsets_match_brute_force(p, s):
    spec = NeighbourhoodSpec.lp_ball(p, s)
    bound = int(spec.s) + 1
    brute = {(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)
             if lp_member(spec.p, spec.s, x, y)}
    assert _lp_offsets(spec.p, spec.s) == brute


def test_explicit_threshold_validation():
    with pytest.raises(ValueError):
        build_neighbourhood(NeighbourhoodSpec.explicit([], 2))
    with pytest.raises(ValueError):
        build_neighbourhood(
            NeighbourhoodSpec.explicit([(1, 0), (0, 1), (-1, 0), (0, -1)], 9)
        )
    with pytest.raises(ValueError):
        build_neighbourhood(NeighbourhoodSpec.explicit([(1, 0), (0, 1)], 1))


VON_NEUMANN = [(1, 0), (0, 1), (-1, 0), (0, -1)]


@pytest.mark.parametrize("spec", [
    NeighbourhoodSpec.explicit(VON_NEUMANN, 2.9),
    NeighbourhoodSpec.explicit(VON_NEUMANN, "3"),
    NeighbourhoodSpec.explicit(VON_NEUMANN, True),
    NeighbourhoodSpec.lp_ball(2, 3, 5.5),
])
def test_explicit_threshold_is_not_truncated(spec):
    with pytest.raises(ValueError, match="threshold must be an integer"):
        build_neighbourhood(spec)


@pytest.mark.parametrize("r", [3, np.int64(3), 3.0])
def test_explicit_threshold_takes_integral_values(r):
    nbhd = build_neighbourhood(NeighbourhoodSpec.explicit(VON_NEUMANN, r))
    assert nbhd.threshold == 3 and type(nbhd.threshold) is int


def test_explicit_critical_requires_symmetry():
    with pytest.raises(ValueError):
        build_neighbourhood(NeighbourhoodSpec.explicit([(1, 0), (2, 1)], "critical"))


def test_spec_json_round_trip():
    for spec in (
        NeighbourhoodSpec.named("triangular"),
        NeighbourhoodSpec.lp_ball("2", "7/2", 9),
        NeighbourhoodSpec.lp_ball("inf", "4"),
        NeighbourhoodSpec.explicit([(1, 0), (0, 2)], 2),
    ):
        assert NeighbourhoodSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------------
# Critical thresholds
# ---------------------------------------------------------------------------


def test_critical_threshold_named(named_models):
    expected = {"square": 2, "triangular": 3, "boxtimes": 4, "diamond": 2,
                "square4": 17}
    for name, nb in named_models.items():
        assert critical_threshold(nb.offsets) == expected[name]


def test_critical_threshold_matches_dense_oracle(named_models):
    for nb in named_models.values():
        assert critical_threshold(nb.offsets) == oracle_threshold(nb.offsets)


@pytest.mark.parametrize("p", ["1", "2", "inf"])
@pytest.mark.parametrize("s", ["3", "5", "8", "12"])
def test_critical_threshold_lp_matches_oracle(p, s):
    nb = build_neighbourhood(NeighbourhoodSpec.lp_ball(p, s))
    assert nb.threshold == oracle_threshold(nb.offsets)


def test_eq4_interval_for_large_s():
    for p in ("1", "2", "inf"):
        for s in (4, 6, 8, 10, 12):
            nb = build_neighbourhood(NeighbourhoodSpec.lp_ball(p, str(s)))
            assert s * s / 2 <= nb.threshold <= 2 * s * s, (p, s, nb.threshold)


@pytest.mark.parametrize("p", ["1", "2", "inf"])
@pytest.mark.parametrize("s", [32, 64])
def test_threshold_and_stable_set_at_large_s(p, s):
    nb = build_neighbourhood(NeighbourhoodSpec.lp_ball(p, str(s)))
    assert s * s / 2 <= nb.threshold <= 2 * s * s
    stable = AXES | DIAG if p == "inf" else AXES
    assert stability_report(nb).stable_points == dirs(stable)


def test_small_s_violations_warn_not_fail():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            build_neighbourhood(NeighbourhoodSpec.lp_ball("2", "1"))
        except ModelWarning:
            pass  # a warning (raised as error here) is the documented outcome


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def test_stable_sets_of_small_models(named_models):
    assert stability_report(named_models["square"]).stable_points == dirs(AXES)
    assert stability_report(named_models["triangular"]).stable_points == dirs(
        AXES | {(1, 1), (-1, -1)}
    )
    assert stability_report(named_models["boxtimes"]).stable_points == dirs(
        AXES | DIAG
    )
    assert stability_report(named_models["square4"]).stable_points == dirs(AXES)


def test_stability_partition_property(named_models):
    # every reported entry must satisfy the defining inequality, recomputed
    # directly, and entries must alternate point/arc covering the circle
    for nb in named_models.values():
        rep = stability_report(nb)
        for e in rep.entries:
            c = negative_count(nb.offsets, e.start if e.kind == "point"
                               else _mid(e.start, e.end))
            assert c == e.count
            assert e.stable == (c < nb.threshold)
        kinds = [e.kind for e in rep.entries]
        assert all(k != kinds[i - 1] for i, k in enumerate(kinds))


def _check_sweep(offsets, r):
    nb = Neighbourhood(frozenset(offsets), r)
    assert stability_report(nb) == reference_stability_report(nb)
    assert stability_report(nb).entries == reference_entries(nb)
    bps = breakpoint_directions(offsets)
    assert critical_threshold(offsets) == 1 + min(
        (negative_count(offsets, d) for d in bps), default=0
    )



@pytest.mark.parametrize("spec", [
    NeighbourhoodSpec.lp_ball("2", "6"),
    NeighbourhoodSpec.lp_ball("inf", "5/2"),
    NeighbourhoodSpec.lp_ball("1", "1"),
    NeighbourhoodSpec.explicit([(0, 0)], "critical"),
    NeighbourhoodSpec.explicit([(1, 0), (0, 1), (-1, 0), (0, -1), (2, 1), (-1, 2),
                                (-2, -1), (1, -2)], "critical"),
])
def test_stability_report_reuses_the_critical_sweep(spec):
    cached = build_neighbourhood(spec)
    assert "_sweep" in cached.__dict__
    fresh = Neighbourhood(cached.offsets, cached.threshold, cached.name)
    assert "_sweep" not in fresh.__dict__
    assert stability_report(cached) == stability_report(fresh)
    assert stability_report(cached).entries == reference_entries(fresh)
    # the cache is not part of the value
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    again = pickle.loads(pickle.dumps(cached))
    assert again == cached and "_sweep" not in again.__dict__
    assert pickle.dumps(cached) == pickle.dumps(fresh)


_coord = st.integers(-5, 5)
_point = st.tuples(_coord, _coord)
_primitive = _point.filter(lambda v: math.gcd(*v) == 1)


@st.composite
def _on_one_line(draw, both_signs):
    """Multiples of one primitive direction: one ray, or a line through 0."""
    wx, wy = draw(_primitive)
    ks = draw(st.lists(st.integers(-4 if both_signs else 1, 4), min_size=1, max_size=6))
    return [(k * wx, k * wy) for k in ks]


_offset_sets = st.one_of(
    st.lists(_point, min_size=1, max_size=14),  # asymmetric in general
    st.builds(lambda ray, rest: ray + rest,
              _on_one_line(both_signs=False), st.lists(_point, max_size=6)),
    _on_one_line(both_signs=True),  # collinear
    st.builds(lambda v, origin: [v] + ([(0, 0)] if origin else []),
              _point.filter(lambda v: v != (0, 0)), st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(offsets=_offset_sets, r=st.integers(0, 16))
@example(offsets=[(0, 0)], r=1)
@example(offsets=[(1, 0)], r=1)
@example(offsets=[(2, 3), (0, 0)], r=2)
@example(offsets=[(1, 0), (2, 0)], r=2)
@example(offsets=[(1, 0), (2, 0), (0, 1), (-3, -1)], r=2)
@example(offsets=[(1, 1), (-2, -2), (3, 3), (0, 0)], r=2)
def test_sweep_matches_reference(offsets, r):
    _check_sweep(offsets, r)


@pytest.mark.parametrize("p", ["1", "2", "inf"])
@pytest.mark.parametrize("s", ["16", "24"])
def test_sweep_matches_reference_on_lp_balls(p, s):
    nb = build_neighbourhood(NeighbourhoodSpec.lp_ball(p, s))
    _check_sweep(nb.offsets, nb.threshold)


@settings(max_examples=400, deadline=None)
@given(offsets=_offset_sets, r=st.integers(0, 20))
@example(offsets=[(0, 0)], r=1)  # no breakpoint: the whole circle
@example(offsets=[(0, 0)], r=0)
@example(offsets=[(1, 0)], r=1)  # one run through the wrap past (1, 0)
@example(offsets=[(1, 0), (0, 1), (-1, 0), (0, -1)], r=2)  # isolated points only
@example(offsets=[(1, 0), (2, 1), (0, 3), (-1, 1), (3, -2)], r=2)
@example(offsets=[(1, 0), (0, 1), (-1, 0), (0, -1)], r=9)
def test_stable_arcs_match_a_literal_loop(offsets, r):
    nb = Neighbourhood(frozenset(offsets), r)
    assert stability_report(nb).stable_arcs == reference_stable_arcs(nb)


def test_report_stores_the_sweep_and_builds_entries_on_first_use(named_models):
    assert [f.name for f in dataclasses.fields(StabilityReport)] == [
        "threshold", "breakpoints", "counts"]
    for nb in named_models.values():
        rep = stability_report(nb)
        # the readers of the sweep build no entries
        stable = rep.stable_points
        for u in rep.breakpoints + (Direction(2, 1),):
            assert rep.count_at(u) == negative_count(nb.offsets, u)
            assert rep.is_stable(u) == (rep.count_at(u) < nb.threshold)
        assert "entries" not in vars(rep)
        entries = rep.entries
        assert entries == reference_entries(nb) and "entries" in vars(rep)
        # a stable point between two unstable arcs
        n = len(entries)
        assert stable == {e.start for i, e in enumerate(entries) if e.kind == "point"
                          and e.stable and not entries[i - 1].stable
                          and not entries[(i + 1) % n].stable}
        assert rep == stability_report(nb)  # the cache is not part of the value


def test_stability_rotation_invariance():
    rng = random.Random(5)
    for _ in range(20):
        offs = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(8)}
        offs |= {(-x, -y) for x, y in offs}
        offs.discard((0, 0))
        if not offs:
            continue
        r = max(2, critical_threshold(offs))
        if r > len(offs):
            continue
        nb = build_neighbourhood(NeighbourhoodSpec.explicit(sorted(offs), r))
        rot = build_neighbourhood(
            NeighbourhoodSpec.explicit([(-y, x) for x, y in offs], r)
        )
        sp = stability_report(nb).stable_points
        sp_rot = stability_report(rot).stable_points
        assert {d.rot90() for d in sp} == sp_rot


def test_stable_set_within_quasi_stable():
    for p in ("1", "2", "inf"):
        for s in (2, 3, 4, 6):
            nb = build_neighbourhood(NeighbourhoodSpec.lp_ball(p, str(s)))
            assert stability_report(nb).stable_points <= quasi_stable_directions(s)


def test_count_at_locates_arcs(named_models):
    nb = named_models["triangular"]
    rep = stability_report(nb)
    assert rep.is_stable(Direction(1, 0))
    assert rep.is_stable(Direction(1, 1))
    assert not rep.is_stable(Direction(2, 1))
    assert not rep.is_stable(Direction(1, -1))


COUNT_AT_SPECS = [NeighbourhoodSpec.named(name) for name in NAMED_MODELS] + [
    NeighbourhoodSpec.lp_ball(p, s) for p in ("1", "2", "inf") for s in ("2", "7/2")
] + [
    NeighbourhoodSpec.explicit([(1, 0), (2, 1), (0, 3), (-1, 1), (3, -2)], 2),
    NeighbourhoodSpec.explicit([(0, 0)], "critical"),
]


@functools.lru_cache(maxsize=None)
def _count_at_case(i):
    nb = build_neighbourhood(COUNT_AT_SPECS[i])
    return nb, stability_report(nb), breakpoint_directions(nb.offsets)


@settings(max_examples=300, deadline=None)
@given(i=st.integers(0, len(COUNT_AT_SPECS) - 1), data=st.data())
def test_count_at_is_the_negative_count(i, data):
    nb, rep, bps = _count_at_case(i)
    # breakpoints, where the count differs from both arcs, and any direction
    u = data.draw(st.sampled_from(bps) | _directions if bps else _directions)
    assert rep.count_at(u) == negative_count(nb.offsets, u)


def test_count_at_without_breakpoints():
    # only the origin: no breakpoint, one arc around the whole circle
    origin = build_neighbourhood(NeighbourhoodSpec.explicit([(0, 0)], "critical"))
    with pytest.warns(ModelWarning):
        tiny = build_neighbourhood(NeighbourhoodSpec.lp_ball(2, "1/2"))
    assert tiny.offsets == origin.offsets
    for nb in (origin, tiny):
        rep = stability_report(nb)
        assert nb.threshold == 1 and len(rep.entries) == 1
        for u in (Direction(1, 0), Direction(-3, 2), Direction(0, -1)):
            assert rep.count_at(u) == 0 and rep.is_stable(u)


# ---------------------------------------------------------------------------
# Quasi-stable directions
# ---------------------------------------------------------------------------


def test_quasi_stable_s1():
    assert quasi_stable_directions(1) == dirs(AXES | DIAG)


def test_quasi_stable_s2():
    q = quasi_stable_directions(2)
    assert len(q) == 16
    assert q == dirs(AXES | DIAG | {(1, 2), (2, 1), (-1, 2), (-2, 1),
                                    (1, -2), (2, -1), (-1, -2), (-2, -1)})


@pytest.mark.parametrize("s", range(1, 9))
def test_quasi_stable_bounds_and_nesting(s):
    q = quasi_stable_directions(s)
    assert len(q) <= 4 * (s * s + 1)
    assert all(math.gcd(abs(d.x), abs(d.y)) == 1 for d in q)
    assert all(max(abs(d.x), abs(d.y)) <= s for d in q)
    if s > 1:
        assert quasi_stable_directions(s - 1) <= q


def test_consecutive_directions_examples():
    q1 = quasi_stable_directions(1)
    pred, succ = consecutive_directions(q1, Direction(1, 0))
    assert (pred, succ) == (Direction(1, -1), Direction(1, 1))
    pred, succ = consecutive_directions(q1, Direction(0, 1))
    assert (pred, succ) == (Direction(1, 1), Direction(-1, 1))
    q2 = quasi_stable_directions(2)
    pred, succ = consecutive_directions(q2, Direction(1, 0))
    assert (pred, succ) == (Direction(2, -1), Direction(2, 1))
    with pytest.raises(ValueError):
        consecutive_directions(q1, Direction(2, 1))


# ---------------------------------------------------------------------------
# Support values
# ---------------------------------------------------------------------------


def test_support_values(named_models):
    assert support_value(named_models["square"], Direction(1, 0)) == 1
    assert support_value(named_models["triangular"], Direction(1, 1)) == 1
    assert support_value(named_models["square4"], Direction(1, 0)) == 4
    assert support_value(named_models["square4"], Direction(1, 1)) == 4
