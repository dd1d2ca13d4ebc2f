"""Quasi-droplets: half-plane intersections over quasi-stable directions.

Constraints are <x, u> <= m_u with u a primitive integer normal and m_u an
integer (absent = unbounded in that direction), kept sorted by the angle of
u.  All geometry is exact.

The continuum polygon is the intersection of the half-planes, built in one
pass over the sorted constraints with a deque: each new half-plane pops the
lines at either end whose last corner it cuts off strictly.  Corners are
integer homogeneous triples (X, Y, D), D > 0, from Cramer's rule on two
lines, and a corner is outside <x, u> <= m iff u.x X + u.y Y > m D; only the
finished vertices become Fractions.  Whether the set is bounded is read off
the normals first: it is iff every gap between angularly consecutive normals
is below a half turn.  A gap of exactly a half turn is a strip, empty iff
its two levels sum below zero; otherwise the set is unbounded and raises.

The polygon is computed once per droplet and kept on the instance outside
the dataclass fields, so equality, hashing, repr, JSON and pickles do not
see it.  It records the face of every constraint direction (an edge, or the
vertex where a slack or touching line meets the polygon), so side lengths
are O(1).  The lattice count is Σ floor(R(y)) - Σ ceil(L(y)) + rows over the
rows of the polygon: every non-horizontal edge on a line a x + b y = m
adds one floor sum Σ_y floor((m - b y) / |a|) over the rows it spans, so a
count costs O(k log) for k constraints instead of O(rows * k).

On a lattice line base + k step every constraint bounds k from one side,
or holds for all k or none, so one routine, _line_span, gives the points of
a row (row_interval) and of a level line <x, v> = t: u_extension scans
levels for the first that holds a lattice point, and slab_points lists the
levels an extension added.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .geometry import (
    Direction,
    Neighbourhood,
    Site,
    angular_cmp,
    sort_by_angle,
    stability_report,
)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Σ_{i=0}^{n-1} floor((a i + b) / m) for n >= 0 and m > 0, in O(log m).

    Whole multiples of m come out of a and b in closed form; what remains
    counts lattice points under a line, which is the same sum with the
    roles of a and m exchanged, as in Euclid's algorithm.
    """
    total = 0
    while n > 0:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            break
        n, b, m, a = top // m, top % m, a, m
    return total


def _line_span(constraints, base, step) -> Optional[tuple]:
    """The integers k with base + k step inside every constraint.

    Returns (lo, hi), with None at an end no constraint closes, or None
    when no k fits.  A constraint <x, u> <= m reads k e <= c on the line,
    with e = <step, u> and c = m - <base, u>: an upper end floor(c / e)
    for e > 0, a lower end ceil(c / e) for e < 0, and for e = 0 all k or
    none.
    """
    (bx, by), (sx, sy) = base, step
    lo = hi = None
    for u, m in constraints:
        e = u.x * sx + u.y * sy
        c = m - u.x * bx - u.y * by
        if e > 0:
            k = c // e
            hi = k if hi is None else min(hi, k)
        elif e < 0:
            k = -(-c // e)
            lo = k if lo is None else max(lo, k)
        elif c < 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


class DegenerateDropletError(ValueError):
    pass


class _Polygon(NamedTuple):
    vertices: tuple  # CCW Fraction vertices, repeats merged
    faces: dict  # every constraint direction -> its face: an edge (start, end) or a vertex


_EMPTY = _Polygon((), {})


def _corner(g, h) -> tuple[int, int, int]:
    """Homogeneous (X, Y, D) of the crossing of two lines with cross(u, v) > 0."""
    (u, m), (v, n) = g, h
    return (m * v.y - n * u.y, u.x * n - v.x * m, u.x * v.y - u.y * v.x)


def _cuts(h, corner) -> bool:
    """Does the half-plane h leave the corner strictly outside?"""
    (u, m), (x, y, d) = h, corner
    return u.x * x + u.y * y > m * d


def _intersect(cons: tuple) -> _Polygon:
    if not cons:
        raise DegenerateDropletError("no constraints: unbounded")
    if any(angular_cmp(u, v) >= 0 for (u, _), (v, _) in zip(cons, cons[1:])):
        raise ValueError("constraints must be sorted by angle, one per direction")
    for (u, mu), (v, mv) in zip(cons, cons[1:] + cons[:1]):
        c = u.cross(v)
        if c == 0 and u != v and mu + mv < 0:
            return _EMPTY  # v = -u: the strip between them is empty
        if c <= 0:  # a gap of half a turn or more: the set runs off along rot90(u)
            raise DegenerateDropletError("constraint set does not bound the plane")

    dq: deque = deque()
    for h in cons:
        while len(dq) >= 2 and _cuts(h, _corner(dq[-2], dq[-1])):
            dq.pop()
        while len(dq) >= 2 and _cuts(h, _corner(dq[0], dq[1])):
            dq.popleft()
        if dq and dq[-1][0].cross(h[0]) <= 0:
            return _EMPTY  # h turns half a turn or more from what is left
        dq.append(h)
    while len(dq) >= 3 and _cuts(dq[0], _corner(dq[-2], dq[-1])):
        dq.pop()
    while len(dq) >= 3 and _cuts(dq[-1], _corner(dq[0], dq[1])):
        dq.popleft()
    if len(dq) < 3 or dq[-1][0].cross(dq[0][0]) <= 0:
        return _EMPTY

    lines = list(dq)
    corners = []  # corners[j]: where lines[j] meets lines[j + 1]
    for g, h in zip(lines, lines[1:] + lines[:1]):
        x, y, d = _corner(g, h)
        corners.append((Fraction(x, d), Fraction(y, d)))
    vertices = [p for p, q in zip(corners, corners[-1:] + corners[:-1]) if p != q]
    # a line of the boundary runs from the corner before it to the one after
    # it; a constraint off the boundary touches the polygon at the corner after
    # the last boundary line that precedes it in angle
    faces = {}
    on = {u: j for j, (u, _) in enumerate(lines)}
    j = len(lines) - 1
    for u, _ in cons:
        if u in on:
            j = on[u]
            p, q = corners[j - 1], corners[j]
            faces[u] = (p,) if p == q else (p, q)
        else:
            faces[u] = (corners[j],)
    return _Polygon(tuple(vertices or corners[:1]), faces)


@dataclass(frozen=True)
class QuasiDroplet:
    """Intersection of half-planes <x, u> <= m_u over quasi-stable directions."""

    constraints: tuple  # tuple of (Direction, int), sorted by angle

    @staticmethod
    def of(constraints) -> "QuasiDroplet":
        items = {}
        for u, m in (constraints.items() if isinstance(constraints, dict) else constraints):
            if not isinstance(u, Direction):
                ux, uy = u
                if math.gcd(ux, uy) != 1:  # a multiple of a normal would rescale its level
                    raise ValueError(f"quasi-droplet normal ({ux}, {uy}) of level {m!r} "
                                     "is not a primitive integer vector")
                u = Direction(int(ux), int(uy))
            if not isinstance(m, Integral) or isinstance(m, bool):
                raise ValueError(f"quasi-droplet level of {u} is not an integer: {m!r}")
            m = int(m)
            items[u] = min(m, items[u]) if u in items else m
        ordered = tuple((u, items[u]) for u in sort_by_angle(items))
        return QuasiDroplet(ordered)

    @property
    def directions(self) -> tuple:
        return tuple(u for u, _ in self.constraints)

    def level(self, u: Direction) -> int:
        for v, m in self.constraints:
            if v == u:
                return m
        raise KeyError(f"no constraint for direction {u}")

    def with_level(self, u: Direction, m: int) -> "QuasiDroplet":
        return QuasiDroplet(tuple((v, m if v == u else old) for v, old in self.constraints))

    def contains(self, site: Site) -> bool:
        x, y = site
        return all(u.x * x + u.y * y <= m for u, m in self.constraints)

    def __getstate__(self):
        # the cached polygon is derived from the constraints: leave it out
        return {"constraints": self.constraints}

    # -- continuum polygon -------------------------------------------------

    @functools.cached_property
    def _polygon(self) -> _Polygon:
        return _intersect(self.constraints)

    def polygon(self) -> list:
        """CCW Fraction vertex list of the continuum polygon (possibly empty
        or lower-dimensional); raises on unbounded constraint sets."""
        return list(self._polygon.vertices)

    def is_empty_continuum(self) -> bool:
        return not self._polygon.vertices

    def support(self, u: Direction) -> Fraction:
        """max <x, u> over the continuum polygon (may be below the m_u level)."""
        poly = self._polygon.vertices
        if not poly:
            raise DegenerateDropletError("empty droplet has no support value")
        return max(u.x * x + u.y * y for x, y in poly)

    def side_vertices(self, u: Direction) -> list:
        """Vertices of the u-side: the face where <x, u> is maximal."""
        shape = self._polygon
        if u in shape.faces:
            return list(shape.faces[u])
        if not shape.vertices:
            return []
        h = self.support(u)
        return [(x, y) for x, y in shape.vertices if u.x * x + u.y * y == h]

    def side_length_sq(self, u: Direction) -> Fraction:
        vs = self.side_vertices(u)
        if len(vs) < 2:
            return Fraction(0)
        (ax, ay), (bx, by) = vs
        return (ax - bx) ** 2 + (ay - by) ** 2

    # -- lattice points ----------------------------------------------------

    def row_interval(self, y: int) -> Optional[tuple[int, int]]:
        span = _line_span(self.constraints, (0, y), (1, 0))
        if span is not None and None in span:
            raise DegenerateDropletError("row unbounded: missing x constraints")
        return span

    def y_range(self) -> Optional[tuple[int, int]]:
        poly = self._polygon.vertices
        if not poly:
            return None
        ys = [y for _, y in poly]
        lo, hi = math.ceil(min(ys)), math.floor(max(ys))
        return (lo, hi) if lo <= hi else None

    def lattice_points(self) -> list:
        yr = self.y_range()
        if yr is None:
            return []
        out = []
        for y in range(yr[0], yr[1] + 1):
            iv = self.row_interval(y)
            if iv is not None:
                out.extend((x, y) for x in range(iv[0], iv[1] + 1))
        return out

    def lattice_point_count(self) -> int:
        """Σ floor(R(y)) - Σ ceil(L(y)) + 1 over the rows y of the polygon.

        An edge on the line u.x x + u.y y = m with u.x != 0 takes the rows of
        its half-open y span [ceil(y_lo), ceil(y_hi)).  Rising edges (u.x > 0)
        give R(y) = (m - u.y y) / u.x and falling ones give L, where
        -ceil(L(y)) = floor((m - u.y y) / |u.x|), so each edge adds one floor
        sum.  The top row, when its height is an integer, is counted from
        its vertices.
        """
        shape = self._polygon
        if not shape.vertices:
            return 0
        ys = [y for _, y in shape.vertices]
        top = max(ys)
        total = math.ceil(top) - math.ceil(min(ys))
        for u, m in self.constraints:
            face = shape.faces[u]
            if u.x and len(face) == 2:
                (_, y1), (_, y2) = face
                r1, r2 = math.ceil(y1), math.ceil(y2)
                lo = min(r1, r2)
                total += _floor_sum(abs(r1 - r2), abs(u.x), -u.y, m - u.y * lo)
        if top.denominator == 1:
            xs = [x for x, y in shape.vertices if y == top]
            total += math.floor(max(xs)) - math.ceil(min(xs)) + 1
        return total

    def contains_droplet(self, other: "QuasiDroplet") -> bool:
        """Constraint-wise containment (same direction set assumed)."""
        mine = dict(self.constraints)
        return all(u in mine and mine[u] >= m for u, m in other.constraints)

    def to_json(self) -> dict:
        return {"constraints": [[u.x, u.y, m] for u, m in self.constraints]}

    @staticmethod
    def from_json(obj: dict) -> "QuasiDroplet":
        """The droplet of {"constraints": [[ux, uy, m], ...]}; a missing or
        malformed field raises ValueError naming it."""
        rows = obj.get("constraints") if isinstance(obj, dict) else None
        if not isinstance(rows, list):
            raise ValueError("quasi-droplet JSON has no 'constraints' list")
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 3
                    and all(isinstance(v, Integral) and not isinstance(v, bool) for v in row)):
                raise ValueError(f"quasi-droplet field 'constraints[{i}]' is not an "
                                 f"integer triple [ux, uy, m]: {row!r}")
        return QuasiDroplet.of([((ux, uy), m) for ux, uy, m in rows])


# ---------------------------------------------------------------------------
# Non-degeneracy bars and extension parameters
# ---------------------------------------------------------------------------


def side_ge_cbrt(length_sq: Fraction, C: int, mult: int = 1) -> bool:
    """side >= mult * C^(1/3), exactly: (side^2)^3 >= mult^6 * C^2."""
    return length_sq ** 3 >= mult ** 6 * C * C


def side_ge_sqrt(length_sq: Fraction, C: int, mult: int = 1) -> bool:
    """side >= mult * C^(1/2), exactly: side^2 >= mult^2 * C."""
    return length_sq >= mult * mult * C


@dataclass(frozen=True)
class ExtensionParams:
    """The constant C with its derived side bars, tied to a neighbourhood."""

    nbhd: Neighbourhood
    big_C: int

    def __post_init__(self):
        if self.big_C < 1:
            raise ValueError("C must be a positive integer")
        # C^(1/3) >= ||K||  <=>  C^2 >= (||K||^2)^3
        if self.big_C ** 2 < self.nbhd.radius_sq ** 3:
            raise ValueError(
                f"C={self.big_C} too small: need C^(1/3) >= neighbourhood radius "
                f"(C^2 >= {self.nbhd.radius_sq ** 3})"
            )

    @functools.cached_property
    def stable(self) -> frozenset:
        """The neighbourhood's stable directions."""
        return stability_report(self.nbhd).stable_points

    def is_stable(self, u: Direction) -> bool:
        return u in self.stable

    def non_degenerate(self, qd: QuasiDroplet) -> bool:
        """Every stable side >= sqrt(C); every other side >= C^(1/3)."""
        if qd.is_empty_continuum():
            return False
        for u in qd.directions:
            lsq = qd.side_length_sq(u)
            if self.is_stable(u):
                if not side_ge_sqrt(lsq, self.big_C):
                    return False
            elif not side_ge_cbrt(lsq, self.big_C):
                return False
        return True


# ---------------------------------------------------------------------------
# u-extensions
# ---------------------------------------------------------------------------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _lattice_line(v: Direction, t: int) -> tuple:
    """(base, step) with the lattice points of <x, v> = t at base + k step.

    base comes from the extended gcd of the primitive v, and step = rot90(v).
    """
    _, x0, y0 = _ext_gcd(v.x, v.y)
    return (x0 * t, y0 * t), (-v.y, v.x)


def u_extension(qd: QuasiDroplet, v: Direction, search_limit: int = 4096) -> QuasiDroplet:
    """Raise the v-level minimally so the added slab holds a lattice point.

    Levels t = m_v+1, m_v+2, ... are scanned; the first whose lattice line
    <x, v> = t has a span under the other constraints wins (an end no
    constraint closes counts as a span).  A droplet whose continuum is
    empty has no extension: raising one level would not make it a droplet.
    """
    try:
        empty = qd.is_empty_continuum()
    except DegenerateDropletError:  # unbounded: scanned like any other
        empty = False
    if empty:
        raise DegenerateDropletError("empty droplet has no extension")
    m_v = qd.level(v)
    others = [(u, m) for u, m in qd.constraints if u != v]
    for t in range(m_v + 1, m_v + 1 + search_limit):
        if _line_span(others, *_lattice_line(v, t)) is not None:
            return qd.with_level(v, t)
    raise DegenerateDropletError(
        f"no lattice point within {search_limit} levels above {m_v} in direction "
        f"({v.x},{v.y}); droplet too thin for an extension"
    )


def slab_points(before: QuasiDroplet, after: QuasiDroplet, v: Direction) -> list:
    """Lattice points of after that lie strictly outside before's v-level.

    They lie on the lattice lines <x, v> = t for before's v-level < t <=
    after's, so the cost scales with the slab, not with the whole droplet;
    v must be a constraint direction of both.  The points come sorted by
    (y, x), the order of lattice_points.
    """
    pts = []
    for t in range(before.level(v) + 1, after.level(v) + 1):
        (bx, by), (sx, sy) = base_step = _lattice_line(v, t)
        span = _line_span(after.constraints, *base_step)
        if span is None:
            continue
        lo, hi = span
        if lo is None or hi is None:
            raise DegenerateDropletError("slab unbounded along its lattice lines")
        pts.extend((bx + k * sx, by + k * sy) for k in range(lo, hi + 1))
    pts.sort(key=lambda p: (p[1], p[0]))
    return pts


# ---------------------------------------------------------------------------
# The extension algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionStep:
    droplet: QuasiDroplet
    direction: Optional[Direction]  # None for the seed entry
    kind: str  # "seed" | "unstable" | "stable"
    witness: Optional[Site] = None


@dataclass(frozen=True)
class ExtensionTrace:
    steps: tuple
    status: str  # "stalled" | "exited" | "step_limit"

    @property
    def droplets(self) -> list:
        return [s.droplet for s in self.steps]


def extension_algorithm(
    qd: QuasiDroplet,
    a_prime: Union[Iterable[Site], Callable[[Site], bool]],
    params: ExtensionParams,
    stop_bound: int,
    max_steps: int = 10_000,
) -> ExtensionTrace:
    """Grow a non-degenerate quasi-droplet by u-extensions.

    Each step is the first extension _next_step finds: unstable ones before
    stable ones.  Stops when nothing applies (stalled), the droplet leaves
    the [-stop_bound, stop_bound]^2 box (exited), or max_steps is hit.
    """
    if not params.non_degenerate(qd):
        raise DegenerateDropletError("seed droplet violates the side bars")
    member = a_prime if callable(a_prime) else frozenset(map(tuple, a_prime)).__contains__
    offsets = sorted(params.nbhd.offsets)

    steps = [ExtensionStep(qd, None, "seed")]
    status = "step_limit"
    for _ in range(max_steps):
        current = steps[-1].droplet
        if any(max(abs(x), abs(y)) > stop_bound for x, y in current.polygon()):
            status = "exited"
            break
        step = _next_step(current, params, offsets, member)
        if step is None:
            status = "stalled"
            break
        steps.append(step)
    return ExtensionTrace(tuple(steps), status)


def _next_step(current, params, offsets, member) -> Optional[ExtensionStep]:
    """The first extension of current that applies, or None.

    The non-stable directions come first, then the stable ones, each in
    angular order.  A non-stable u applies when its side is >= 2 C^(1/3).
    A stable u applies when its side is >= 2 sqrt(C) and a_prime holds at
    some site of (((D' \\ D) + K) \\ D): new lattice points must be
    attackable from the slab.  A direction whose neighbouring faces cap it,
    so that no level above it ever captures a lattice point, has no
    extension and is passed over.
    """
    C = params.big_C
    for u in sorted(current.directions, key=params.is_stable):
        stable = params.is_stable(u)
        side = current.side_length_sq(u)
        if not (side_ge_sqrt(side, C, mult=2) if stable else side_ge_cbrt(side, C, mult=2)):
            continue
        try:
            grown = u_extension(current, u)
        except DegenerateDropletError:
            continue
        if not stable:
            return ExtensionStep(grown, u, "unstable")
        witness = _stable_witness(current, grown, u, offsets, member)
        if witness is not None:
            return ExtensionStep(grown, u, "stable", witness)
    return None


def _stable_witness(before, after, v, offsets, member):
    seen = set()
    for p in slab_points(before, after, v):
        for (kx, ky) in offsets:
            x = (p[0] + kx, p[1] + ky)
            if x in seen:
                continue
            seen.add(x)
            if not before.contains(x) and member(x):
                return x
    return None
