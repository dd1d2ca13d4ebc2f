import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bperc.geometry import (
    Direction,
    NeighbourhoodSpec,
    build_neighbourhood,
    quasi_stable_directions,
    sort_by_angle,
)
from bperc.quasidroplets import (
    DegenerateDropletError,
    ExtensionParams,
    QuasiDroplet,
    _line_span,
    extension_algorithm,
    side_ge_cbrt,
    side_ge_sqrt,
    slab_points,
    u_extension,
)


# ---------------------------------------------------------------------------
# Reference oracles: Sutherland-Hodgman clipping of a box that no bounded
# droplet reaches, on Fractions, and lattice counting row by row
# ---------------------------------------------------------------------------


def _clip(poly, a, b, m):
    """Sutherland-Hodgman clip of a convex polygon by a x + b y <= m."""
    if not poly:
        return []
    out = []
    n = len(poly)
    vals = [a * x + b * y - m for x, y in poly]
    for i in range(n):
        p, vp = poly[i], vals[i]
        q, vq = poly[(i + 1) % n], vals[(i + 1) % n]
        if vp <= 0:
            out.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = Fraction(vp, vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _dedup(poly):
    out = []
    for v in poly:
        if not out or v != out[-1]:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def reference_polygon(qd):
    """The continuum polygon by clipping a box of half-width B: every vertex
    of a bounded droplet lies inside it, and an unbounded one reaches it."""
    cons = qd.constraints
    if not cons:
        raise DegenerateDropletError("no constraints: unbounded")
    smax = max(max(abs(u.x), abs(u.y)) for u, _ in cons)
    mmax = max(abs(m) for _, m in cons)
    B = 2 * smax * (mmax + 1) + 10
    poly = [
        (Fraction(-B), Fraction(-B)),
        (Fraction(B), Fraction(-B)),
        (Fraction(B), Fraction(B)),
        (Fraction(-B), Fraction(B)),
    ]
    for u, m in cons:
        poly = _clip(poly, u.x, u.y, m)
        if not poly:
            return []
    if any(max(abs(x), abs(y)) >= B for x, y in poly):
        raise DegenerateDropletError("constraint set does not bound the plane")
    return _dedup(poly)


def reference_side_vertices(poly, u):
    if not poly:
        return []
    h = max(u.x * x + u.y * y for x, y in poly)
    return [(x, y) for x, y in poly if u.x * x + u.y * y == h]


def reference_side_length_sq(poly, u):
    vs = reference_side_vertices(poly, u)
    if len(vs) < 2:
        return Fraction(0)
    w = u.rot90()
    proj = [(w.x * x + w.y * y, (x, y)) for x, y in vs]
    (_, a), (_, b) = min(proj), max(proj)
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def reference_y_range(poly):
    if not poly:
        return None
    ys = [y for _, y in poly]
    lo, hi = math.ceil(min(ys)), math.floor(max(ys))
    return (lo, hi) if lo <= hi else None


def reference_rows(qd, poly):
    """(y, lo, hi) for every row of the polygon holding a lattice point."""
    yr = reference_y_range(poly)
    if yr is None:
        return []
    rows = []
    for y in range(yr[0], yr[1] + 1):
        lo, hi = None, None
        for u, m in qd.constraints:
            c = m - u.y * y
            if u.x > 0:
                v = math.floor(Fraction(c, u.x))
                hi = v if hi is None else min(hi, v)
            elif u.x < 0:
                v = math.ceil(Fraction(c, u.x))
                lo = v if lo is None else max(lo, v)
            elif c < 0:
                break
        else:
            if lo <= hi:
                rows.append((y, lo, hi))
    return rows


def reference_count(qd):
    return sum(hi - lo + 1 for _, lo, hi in reference_rows(qd, reference_polygon(qd)))


def is_rotation(a, b):
    """Equal as cyclic sequences."""
    return len(a) == len(b) and (not a or any(a == b[i:] + b[:i] for i in range(len(b))))


def assert_matches_reference(qd):
    try:
        ref = reference_polygon(qd)
    except DegenerateDropletError as e:
        with pytest.raises(DegenerateDropletError, match=re.escape(str(e))):
            qd.polygon()
        return None
    poly = qd.polygon()
    assert is_rotation(poly, ref), (qd, poly, ref)
    rows = reference_rows(qd, ref)
    assert qd.lattice_point_count() == sum(hi - lo + 1 for _, lo, hi in rows)
    assert qd.lattice_points() == [(x, y) for y, lo, hi in rows for x in range(lo, hi + 1)]
    assert qd.y_range() == reference_y_range(ref)
    for u in qd.directions:
        assert qd.side_length_sq(u) == reference_side_length_sq(ref, u), (qd, u)
        assert sorted(qd.side_vertices(u)) == sorted(reference_side_vertices(ref, u)), (qd, u)
    return ref


def edge_walk_droplet(s, side_steps):
    """Exactly constructed droplet: every direction u of Q(s) gets a face of
    length side_steps[u] * ||u|| (edges are integer multiples of rot90(u),
    antipodal steps equal so the edge walk closes up)."""
    Q = sort_by_angle(quasi_stable_directions(s))
    steps = {}
    for u in Q:
        key = u if (u.y > 0 or (u.y == 0 and u.x > 0)) else u.neg()
        steps[u] = side_steps[key] if key in side_steps else side_steps
    verts = []
    v = (0, 0)
    for u in Q:
        verts.append(v)
        w = u.rot90()
        t = steps[u] if isinstance(steps[u], int) else steps[u]
        v = (v[0] + t * w.x, v[1] + t * w.y)
    assert v == (0, 0), "edge walk must close"
    cx = sum(x for x, _ in verts) // len(verts)
    cy = sum(y for _, y in verts) // len(verts)
    verts = [(x - cx, y - cy) for x, y in verts]
    cons = {}
    for u, vert in zip(Q, verts):
        cons[(u.x, u.y)] = u.x * vert[0] + u.y * vert[1]
    return QuasiDroplet.of(cons), dict(zip(Q, [steps[u] for u in Q]))


def uniform_steps(s, t):
    """side_steps giving every direction the same step count t."""
    return {u: t for u in quasi_stable_directions(s)}


def bar_steps(s, params, extra=0):
    """side_steps whose faces clear the side bars of params by extra steps:
    sqrt(C) on stable directions, C^(1/3) on the others."""
    steps = {}
    for u in quasi_stable_directions(s):
        bar = side_ge_sqrt if params.is_stable(u) or params.is_stable(u.neg()) else side_ge_cbrt
        t = 1
        while not bar(Fraction(t * t * u.norm_sq()), params.big_C):
            t += 1
        steps[u] = t + extra
    return steps


# ---------------------------------------------------------------------------
# Polygon and sides
# ---------------------------------------------------------------------------


def test_axis_square_polygon_and_count():
    qd = QuasiDroplet.of({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0})
    assert qd.lattice_point_count() == 36
    for u in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        assert qd.side_length_sq(Direction(*u)) == 25


def test_slack_constraint_gives_degenerate_side():
    qd = QuasiDroplet.of({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0,
                          (1, 1): 100})
    assert qd.side_length_sq(Direction(1, 1)) == 0


def test_octagon_cut():
    qd = QuasiDroplet.of({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0,
                          (1, 1): 8})
    assert qd.lattice_point_count() == 33  # 36 minus the three corner sites
    assert qd.side_length_sq(Direction(1, 1)) == 8  # a 2*sqrt(2) face


def test_empty_droplet():
    qd = QuasiDroplet.of({(1, 0): -1, (-1, 0): 0, (0, 1): 5, (0, -1): 0})
    assert qd.polygon() == []
    assert qd.lattice_point_count() == 0


def test_unbounded_droplet_rejected():
    qd = QuasiDroplet.of({(1, 0): 5, (0, 1): 5})
    with pytest.raises(DegenerateDropletError):
        qd.polygon()


def test_edge_walk_droplet_sides_are_exact():
    # the construction predicts every side length exactly: t_u^2 * |u|^2
    for s in (1, 2):
        qd, steps = edge_walk_droplet(s, uniform_steps(s, 4))
        for u, t in steps.items():
            assert qd.side_length_sq(u) == t * t * u.norm_sq(), (s, u)


def test_lattice_membership_matches_row_intervals():
    qd, _ = edge_walk_droplet(1, uniform_steps(1, 3))
    pts = set(qd.lattice_points())
    ylo = min(y for _, y in pts) - 2
    yhi = max(y for _, y in pts) + 2
    xlo = min(x for x, _ in pts) - 2
    xhi = max(x for x, _ in pts) + 2
    for x in range(xlo, xhi + 1):
        for y in range(ylo, yhi + 1):
            assert qd.contains((x, y)) == ((x, y) in pts)


def test_json_round_trip():
    qd, _ = edge_walk_droplet(2, uniform_steps(2, 3))
    assert QuasiDroplet.from_json(qd.to_json()).constraints == qd.constraints


@pytest.mark.parametrize("obj, field", [
    ({}, "no 'constraints' list"),
    ([[1, 0, 2]], "no 'constraints' list"),
    ({"constraints": {"1,0": 2}}, "no 'constraints' list"),
    ({"constraints": [[1, 0, 2], [0, 1]]}, r"'constraints\[1\]' is not an integer triple"),
    ({"constraints": [[1, 0, 2.5]]}, r"'constraints\[0\]' is not an integer triple"),
    ({"constraints": [[True, 0, 2]]}, r"'constraints\[0\]' is not an integer triple"),
    ({"constraints": ["1,0,2"]}, r"'constraints\[0\]' is not an integer triple"),
])
def test_from_json_names_the_bad_field(obj, field):
    with pytest.raises(ValueError, match=field):
        QuasiDroplet.from_json(obj)


@pytest.mark.parametrize("level", [2.7, 3.0, "3", True])
def test_of_rejects_non_integer_levels(level):
    cons = {(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): level}
    with pytest.raises(ValueError, match="level of .* is not an integer"):
        QuasiDroplet.of(cons)


@pytest.mark.parametrize("normal", [(2, 0), (0, -3), (2, 4), (0, 0)])
def test_of_rejects_non_primitive_normals(normal):
    # (2, 0) at level 3 is 2x <= 3: reduced to (1, 0) it would keep level 3
    cons = {(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0}
    cons[normal] = 3
    message = rf"normal \({normal[0]}, {normal[1]}\) of level 3 is not a primitive"
    with pytest.raises(ValueError, match=message):
        QuasiDroplet.of(cons)
    with pytest.raises(ValueError, match=message):
        QuasiDroplet.from_json({"constraints": [[ux, uy, m] for (ux, uy), m in cons.items()]})


def test_of_takes_numpy_integer_levels():
    qd = QuasiDroplet.of({(1, 0): np.int64(5), (0, 1): 5, (-1, 0): 0, (0, -1): 0})
    assert type(qd.level(Direction(1, 0))) is int
    assert qd == QuasiDroplet.of({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0})


@st.composite
def constraint_subsets(draw):
    """A random subset of Q(1)..Q(4), levelled a few steps around the
    supporting lines of 1-3 integer anchor points: negative steps can empty
    the set, zero steps make segments and points, few directions leave it
    unbounded."""
    s = draw(st.integers(1, 4))
    q = sort_by_angle(quasi_stable_directions(s))
    keep = draw(st.lists(st.booleans(), min_size=len(q), max_size=len(q)))
    point = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    anchors = draw(st.lists(point, min_size=1, max_size=3))
    step = st.sampled_from([0, 0, 0, -1, -2, 1, 2, 5, 20])
    return QuasiDroplet.of({u: max(u.dot(a) for a in anchors) + draw(step)
                            for u, k in zip(q, keep) if k})


_qd = QuasiDroplet.of


BOX = {(1, 0): 100, (-1, 0): 100, (0, 1): 100, (0, -1): 100}


@settings(max_examples=300, deadline=None)
@given(qd=constraint_subsets())
# empty: crossed axis levels, the anti-parallel pair of the search-limit test
# alone and boxed, a triangle turned inside out
@example(qd=_qd({(1, 0): -1, (-1, 0): 0, (0, 1): 5, (0, -1): 0}))
@example(qd=_qd({(1, 2): 0, (-1, -2): -5}))
@example(qd=_qd({(1, 2): 0, (-1, -2): -5, **BOX}))
@example(qd=_qd({(1, 0): 0, (0, 1): 0, (-1, -1): -1}))
# unbounded: no constraints, one, a quarter plane, a nonempty strip, a wedge
@example(qd=_qd({}))
@example(qd=_qd({(1, 1): 3}))
@example(qd=_qd({(1, 0): 5, (0, 1): 5}))
@example(qd=_qd({(1, 2): 5, (-1, -2): 0}))
@example(qd=_qd({(1, 0): 5, (1, 2): 5, (-1, 1): 0}))
# slack and redundant constraints: far off, touching a corner, through an
# edge's end, cutting a corner
@example(qd=_qd({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0, (1, 1): 100, (-1, 1): 5}))
@example(qd=_qd({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0, (1, 1): 10, (2, 1): 15}))
@example(qd=_qd({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0, (1, 1): 9, (1, -1): 5}))
# segments: vertical, diagonal with extra lines through its ends, and one
# whose line holds every other lattice point
@example(qd=_qd({(1, 0): 0, (-1, 0): 0, (0, 1): 5, (0, -1): 0}))
@example(qd=_qd({(1, -1): 0, (-1, 1): 0, (1, 1): 6, (-1, -1): 0, (0, 1): 3,
                 (1, 0): 3, (-1, 0): 0, (1, 2): 100}))
@example(qd=_qd({(1, 2): 1, (-1, -2): -1, (1, 0): 3, (-1, 0): 0}))
# points: a lattice point where three lines meet, and (1/3, 1/3)
@example(qd=_qd({(1, 0): 0, (0, 1): 0, (-1, -1): 0}))
@example(qd=_qd({(2, 1): 1, (-2, -1): -1, (1, 2): 1, (-1, -2): -1}))
def test_polygon_and_counts_match_reference(qd):
    assert_matches_reference(qd)


def test_degenerate_shapes_and_counts():
    seg = _qd({(1, 2): 1, (-1, -2): -1, (1, 0): 3, (-1, 0): 0})
    assert sorted(seg.polygon()) == [(0, Fraction(1, 2)), (3, -1)]
    assert seg.lattice_point_count() == 2  # (1, 0) and (3, -1)
    assert seg.side_length_sq(Direction(1, 2)) == 9 + Fraction(9, 4)
    point = _qd({(2, 1): 1, (-2, -1): -1, (1, 2): 1, (-1, -2): -1})
    assert point.polygon() == [(Fraction(1, 3), Fraction(1, 3))]
    assert point.lattice_point_count() == 0
    assert _qd({(1, 0): 0, (0, 1): 0, (-1, -1): 0}).lattice_point_count() == 1


def test_large_droplet_matches_reference():
    # a seed droplet of criterion 11's largest case: Q(6), C = 13824
    params = ExtensionParams(build_neighbourhood(NeighbourhoodSpec.named("square")), 13824)
    qd, _ = edge_walk_droplet(6, bar_steps(6, params, extra=2))
    assert params.non_degenerate(qd)
    assert assert_matches_reference(qd) is not None
    assert qd.lattice_point_count() == 1126073


def test_unsorted_constraints_rejected():
    qd = QuasiDroplet(tuple(reversed(_qd(BOX).constraints)))
    with pytest.raises(ValueError, match="sorted by angle"):
        qd.polygon()


# ---------------------------------------------------------------------------
# The per-droplet polygon cache
# ---------------------------------------------------------------------------


def test_polygon_result_is_a_copy():
    qd = _qd({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0, (1, 1): 8})
    first = qd.polygon()
    snapshot = list(first)
    first.append((Fraction(99), Fraction(99)))
    first[0] = (Fraction(-7), Fraction(-7))
    assert qd.polygon() == snapshot
    qd.side_vertices(Direction(1, 1)).clear()
    assert qd.side_length_sq(Direction(1, 1)) == 8


def test_derived_droplets_do_not_carry_the_cache():
    qd = _qd({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0})
    before = qd.polygon()
    grown = qd.with_level(Direction(1, 0), 8)
    rebuilt = QuasiDroplet.of(qd.constraints)
    assert "_polygon" not in vars(grown) and "_polygon" not in vars(rebuilt)
    assert is_rotation(grown.polygon(), reference_polygon(grown))
    assert grown.lattice_point_count() == 54 and qd.lattice_point_count() == 36
    assert rebuilt.polygon() == before


def test_cache_is_invisible_to_equality_hash_json_and_pickle():
    cons = {(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0, (1, 1): 8}
    fresh, used = _qd(cons), _qd(cons)
    used.polygon()
    assert fresh == used and hash(fresh) == hash(used)
    assert repr(fresh) == repr(used) and fresh.to_json() == used.to_json()
    assert pickle.dumps(fresh) == pickle.dumps(used)
    back = pickle.loads(pickle.dumps(used))
    assert back == used and "_polygon" not in vars(back)
    assert back.polygon() == used.polygon()


# ---------------------------------------------------------------------------
# Exact side-bar comparisons
# ---------------------------------------------------------------------------


def test_side_bars_match_float_reference():
    rng = random.Random(8)
    for _ in range(300):
        lsq = Fraction(rng.randint(0, 4000), rng.randint(1, 9))
        C = rng.randint(1, 200)
        side = math.sqrt(float(lsq))
        for mult in (1, 2):
            target = mult * C ** (1 / 3)
            if abs(side - target) > 1e-6:  # away from float round-off
                assert side_ge_cbrt(lsq, C, mult) == (side >= target)
            target = mult * math.sqrt(C)
            if abs(side - target) > 1e-6:
                assert side_ge_sqrt(lsq, C, mult) == (side >= target)


def test_side_bar_boundary_cases_exact():
    assert side_ge_cbrt(Fraction(4), 8)  # side 2 == 8^(1/3) exactly
    assert not side_ge_cbrt(Fraction(4) - Fraction(1, 10 ** 12), 8)
    assert side_ge_sqrt(Fraction(9), 9)
    assert not side_ge_sqrt(Fraction(9) - Fraction(1, 10 ** 12), 9)


def test_extension_params_require_big_enough_C():
    nb = build_neighbourhood(NeighbourhoodSpec.named("square4"))  # radius 4
    with pytest.raises(ValueError):
        ExtensionParams(nb, 63)  # 63^(1/3) < 4
    ExtensionParams(nb, 64)


# ---------------------------------------------------------------------------
# u-extensions
# ---------------------------------------------------------------------------


def brute_extension_level(qd, v, limit=64):
    """Oracle: scan integer points in a generous box for the first level
    above m_v whose slab is nonempty."""
    m = qd.level(v)
    others = [(u, mu) for u, mu in qd.constraints if u != v]
    B = 4 * (max(abs(mu) for _, mu in qd.constraints) + limit + 2)
    for t in range(m + 1, m + 1 + limit):
        for x in range(-B, B + 1):
            # solve v.x * x + v.y * y = t over the scan line when possible
            if v.y != 0:
                num = t - v.x * x
                if num % v.y:
                    continue
                y = num // v.y
            else:
                if v.x * x != t:
                    continue
                y = None
            ys = [y] if y is not None else range(-B, B + 1)
            for yy in ys:
                if all(u.x * x + u.y * yy <= mu for u, mu in others):
                    return t
    return None


def _ext_gcd(a, b):
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def reference_u_extension(qd, v, search_limit=4096):
    """Oracle: the level scan u_extension ran before it shared _line_span.
    Each level's lattice line is (x0 t - b k, y0 t + a k); every other
    constraint bounds k from one side, or holds for all k or none."""
    m_v = qd.level(v)
    a, b = v.x, v.y
    g, x0, y0 = _ext_gcd(a, b)
    assert g == 1
    others = [(u, m) for u, m in qd.constraints if u != v]
    for t in range(m_v + 1, m_v + 1 + search_limit):
        bx, by = x0 * t, y0 * t
        klo, khi = None, None
        feasible = True
        for u, m in others:
            e = a * u.y - b * u.x
            rhs = m - (u.x * bx + u.y * by)
            if e > 0:
                k = math.floor(Fraction(rhs, e))
                khi = k if khi is None else min(khi, k)
            elif e < 0:
                k = math.ceil(Fraction(rhs, e))
                klo = k if klo is None else max(klo, k)
            elif rhs < 0:
                feasible = False
                break
        if feasible and (klo is None or khi is None or klo <= khi):
            return qd.with_level(v, t)
    raise DegenerateDropletError(
        f"no lattice point within {search_limit} levels above {m_v} in direction "
        f"({v.x},{v.y}); droplet too thin for an extension"
    )


def reference_slab_points(before, after, v):
    """Oracle: the slab as its own thin droplet, after with <x, v> >= m_old + 1
    added, walked row by row."""
    cons = dict(after.constraints)
    neg = v.neg()
    floor = -(before.level(v) + 1)
    cons[neg] = min(cons[neg], floor) if neg in cons else floor
    return QuasiDroplet.of(cons.items()).lattice_points()


def test_axis_extension_is_one_step():
    qd = QuasiDroplet.of({(1, 0): 5, (0, 1): 5, (-1, 0): 0, (0, -1): 0})
    e = u_extension(qd, Direction(1, 0))
    assert e.level(Direction(1, 0)) == 6
    assert slab_points(qd, e, Direction(1, 0)) == [(6, y) for y in range(6)]


def test_skew_extension_matches_brute_force():
    rng = random.Random(12)
    for _ in range(40):
        size = rng.randint(4, 10)
        cons = {(1, 0): size, (0, 1): size, (-1, 0): 0, (0, -1): 0}
        extra = rng.choice([(1, 2), (2, 1), (1, 3), (3, 2), (-1, 2)])
        sup = max(extra[0] * x + extra[1] * y
                  for x in (0, size) for y in (0, size))
        cons[extra] = sup - rng.randint(0, 3)
        qd = QuasiDroplet.of(cons)
        if not qd.polygon():
            continue
        for v in (Direction.of(*extra), Direction(1, 0)):
            expect = brute_extension_level(qd, v)
            if expect is None:
                # the other faces cap this direction: no level is feasible
                with pytest.raises(DegenerateDropletError):
                    u_extension(qd, v, search_limit=64)
                continue
            got = u_extension(qd, v).level(v)
            assert got == expect, (cons, (v.x, v.y))


def test_extension_adds_finitely_many_points():
    qd, _ = edge_walk_droplet(1, uniform_steps(1, 4))
    before = set(qd.lattice_points())
    for v in qd.directions:
        after = u_extension(qd, v)
        added = set(after.lattice_points()) - before
        assert added  # at least one new point
        assert len(added) < 10 ** 4  # and only finitely many more


def test_repeated_axis_extensions_nest():
    qd = QuasiDroplet.of({(1, 0): 3, (0, 1): 3, (-1, 0): 0, (0, -1): 0})
    prev = qd
    count = prev.lattice_point_count()
    for _ in range(5):
        nxt = u_extension(prev, Direction(1, 0))
        assert nxt.contains_droplet(prev)
        c = nxt.lattice_point_count()
        assert c > count
        prev, count = nxt, c


def test_extension_search_limit_error():
    qd = QuasiDroplet.of({(1, 5): 0, (1, 0): 0, (-1, 0): 0, (0, 1): 100, (0, -1): 100})
    # x = 0 holds only lattice points with x + 5y a multiple of 5, so levels
    # 1..4 above (1,5)'s hold none
    with pytest.raises(DegenerateDropletError, match="no lattice point within 3 levels"):
        u_extension(qd, Direction(1, 5), search_limit=3)
    assert u_extension(qd, Direction(1, 5), search_limit=8).level(Direction(1, 5)) == 5


# ---------------------------------------------------------------------------
# Lattice lines: _line_span, u_extension and slab_points against oracles
# ---------------------------------------------------------------------------


Q3 = sort_by_angle(quasi_stable_directions(3))
SPAN_K = 80  # beyond every finite end: |c / e| <= |m| + |<base, u>| <= 20 + 15 + 15


@settings(max_examples=400, deadline=None)
@given(
    cons=st.lists(st.tuples(st.sampled_from(Q3), st.integers(-20, 20)), max_size=6),
    base=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    line=st.sampled_from([Direction(0, -1)] + Q3),
)
@example(cons=[], base=(0, 0), line=Direction(0, -1))
@example(cons=[(Direction(1, 0), 3), (Direction(-1, 0), -4)], base=(0, 0), line=Direction(0, -1))
@example(cons=[(Direction(0, 1), -1)], base=(0, 0), line=Direction(0, -1))
@example(cons=[(Direction(1, 2), 5), (Direction(-1, 0), 7)], base=(1, -2), line=Direction(2, 3))
def test_line_span_matches_brute_force(cons, base, line):
    # rows are the lines of (0, -1), whose step is (1, 0)
    step = (-line.y, line.x)
    inside = [k for k in range(-SPAN_K, SPAN_K + 1)
              if all(u.x * (base[0] + k * step[0]) + u.y * (base[1] + k * step[1]) <= m
                     for u, m in cons)]
    span = _line_span(cons, base, step)
    if not inside:
        assert span is None
        return
    assert inside == list(range(inside[0], inside[-1] + 1))
    assert span == (None if inside[0] == -SPAN_K else inside[0],
                    None if inside[-1] == SPAN_K else inside[-1])


def _bounded(qd):
    try:
        qd.polygon()
    except DegenerateDropletError:
        return False
    return True


@st.composite
def extension_cases(draw):
    """A droplet of constraint_subsets, one of its directions and a search limit."""
    qd = draw(constraint_subsets())
    assume(qd.constraints)
    return qd, draw(st.sampled_from(qd.directions)), draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(case=extension_cases())
# x = 0 leaves no lattice point on levels 1..4 above (1,5)'s: the limit error
@example(case=(_qd({(1, 5): 0, (1, 0): 0, (-1, 0): 0, (0, 1): 100, (0, -1): 100}),
               Direction(1, 5), 3))
@example(case=(_qd({(1, 5): 0, (1, 0): 0, (-1, 0): 0, (0, 1): 100, (0, -1): 100}),
               Direction(1, 5), 5))
# an empty strip has no extension at any limit
@example(case=(_qd({(1, 2): 0, (-1, -2): -5, **BOX}), Direction(1, 2), 5))
def test_u_extension_matches_reference(case):
    qd, v, limit = case
    if _bounded(qd) and qd.is_empty_continuum():
        # the level scan would raise v past the empty set
        with pytest.raises(DegenerateDropletError, match="empty droplet"):
            u_extension(qd, v, limit)
        return
    try:
        want = reference_u_extension(qd, v, limit)
    except DegenerateDropletError as e:
        with pytest.raises(DegenerateDropletError, match=re.escape(str(e))):
            u_extension(qd, v, limit)
        return
    assert u_extension(qd, v, limit) == want


def test_u_extension_rejects_an_empty_droplet():
    # x+y <= 0 and x+y >= 1 leave nothing; the level scan used to raise
    # (1,1) to 1 and return a droplet that does not bound the plane
    qd = _qd({(1, 1): 0, (-1, 0): 0, (-2, -1): 0, (-1, -1): -1})
    assert qd.polygon() == [] and qd.lattice_point_count() == 0
    with pytest.raises(DegenerateDropletError, match="empty droplet"):
        u_extension(qd, Direction(1, 1))


@settings(max_examples=200, deadline=None)
@given(qd=constraint_subsets(), data=st.data())
def test_slab_points_match_reference(qd, data):
    assume(qd.constraints and _bounded(qd))
    v = data.draw(st.sampled_from(qd.directions))
    after = qd.with_level(v, qd.level(v) + data.draw(st.integers(0, 6)))
    assume(_bounded(after))
    assert slab_points(qd, after, v) == reference_slab_points(qd, after, v)
    try:
        grown = u_extension(qd, v, search_limit=64)
    except DegenerateDropletError:
        return  # the other faces cap v
    assume(_bounded(grown))  # an empty strip with a level raised can open up
    assert slab_points(qd, grown, v) == reference_slab_points(qd, grown, v)


# ---------------------------------------------------------------------------
# Extension algorithm
# ---------------------------------------------------------------------------


def square_params(C=27):
    nb = build_neighbourhood(NeighbourhoodSpec.named("square"))
    return ExtensionParams(nb, C)


def test_all_sides_short_stalls_immediately():
    params = square_params(27)  # cbrt 3, sqrt ~5.2; doubled bars 6 / ~10.4
    # steps: axis sides 6 (< 2 sqrt C), diagonals 4*sqrt2 ~ 5.66 (< 6)
    steps = {Direction(1, 0): 6, Direction(0, 1): 6,
             Direction(1, 1): 4, Direction(-1, 1): 4}
    qd, _ = edge_walk_droplet(1, steps)
    assert params.non_degenerate(qd)
    trace = extension_algorithm(qd, [], params, stop_bound=100)
    assert trace.status == "stalled"
    assert len(trace.steps) == 1 and trace.steps[0].droplet is qd


def test_degenerate_seed_rejected():
    params = square_params(27)
    steps = {Direction(1, 0): 6, Direction(0, 1): 6,
             Direction(1, 1): 1, Direction(-1, 1): 1}  # diagonal sides < cbrt
    qd, _ = edge_walk_droplet(1, steps)
    with pytest.raises(DegenerateDropletError):
        extension_algorithm(qd, [], params, stop_bound=100)


def test_unstable_extensions_run_without_a_prime():
    params = square_params(27)
    steps = {Direction(1, 0): 8, Direction(0, 1): 8,
             Direction(1, 1): 6, Direction(-1, 1): 6}  # diagonals >= 2 cbrt
    qd, _ = edge_walk_droplet(1, steps)
    trace = extension_algorithm(qd, [], params, stop_bound=100)
    assert len(trace.steps) > 1
    assert all(s.kind == "unstable" for s in trace.steps[1:])
    for a, b in zip(trace.droplets, trace.droplets[1:]):
        assert b.contains_droplet(a)


def test_stable_extension_needs_witness():
    params = square_params(27)
    steps = {Direction(1, 0): 11, Direction(0, 1): 11,
             Direction(1, 1): 4, Direction(-1, 1): 4}  # axis sides >= 2 sqrt C
    qd, _ = edge_walk_droplet(1, steps)
    assert params.non_degenerate(qd)
    # no infections outside: stalls
    assert extension_algorithm(qd, [], params, stop_bound=100).status == "stalled"
    # a site adjacent to the slab past the right face triggers one extension
    right = qd.level(Direction(1, 0))
    ymid = 0
    witness = (right + 2, ymid)
    trace = extension_algorithm(qd, [witness], params, stop_bound=100)
    kinds = [s.kind for s in trace.steps[1:]]
    assert "stable" in kinds
    stable_step = next(s for s in trace.steps[1:] if s.kind == "stable")
    assert stable_step.witness == witness


def test_unstable_steps_come_before_stable():
    params = square_params(27)
    steps = {Direction(1, 0): 11, Direction(0, 1): 11,
             Direction(1, 1): 6, Direction(-1, 1): 6}  # both doubled bars cleared
    qd, _ = edge_walk_droplet(1, steps)
    witness = (qd.level(Direction(1, 0)) + 2, 0)
    trace = extension_algorithm(qd, [witness], params, stop_bound=100)
    kinds = [s.kind for s in trace.steps[1:]]
    assert kinds[0] == "unstable" and "stable" in kinds
    for before, step in zip(trace.droplets, trace.steps[1:]):
        if step.kind == "stable":
            assert step.witness == witness
            assert not any(side_ge_cbrt(before.side_length_sq(u), params.big_C, mult=2)
                           for u in before.directions if not params.is_stable(u))


def test_trace_point_counts_non_decreasing():
    params = square_params(27)
    steps = {Direction(1, 0): 9, Direction(0, 1): 9,
             Direction(1, 1): 6, Direction(-1, 1): 7}
    qd, _ = edge_walk_droplet(1, steps)
    trace = extension_algorithm(qd, [], params, stop_bound=100)
    counts = [d.lattice_point_count() for d in trace.droplets]
    assert counts == sorted(counts)


def test_stop_region_exit():
    params = square_params(27)
    steps = {Direction(1, 0): 8, Direction(0, 1): 8,
             Direction(1, 1): 6, Direction(-1, 1): 6}
    qd, _ = edge_walk_droplet(1, steps)
    trace = extension_algorithm(qd, [], params, stop_bound=9)
    assert trace.status == "exited"
