"""Neighbourhood construction and exact angular geometry.

All direction computations are done on primitive integer vectors with
cross-product comparisons; no floating point is used for any decision.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Optional, Sequence, Union

Site = tuple[int, int]

NAMED_MODELS = ("square", "triangular", "boxtimes", "diamond", "square4")


class ModelWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Direction:
    """Primitive integer vector standing for a point of S^1 with rational slope."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            raise ValueError("zero vector is not a direction")
        if math.gcd(abs(self.x), abs(self.y)) != 1:
            raise ValueError(f"({self.x},{self.y}) is not primitive")

    @staticmethod
    def of(x: int, y: int) -> "Direction":
        """Reduce an arbitrary nonzero integer vector to its primitive direction."""
        g = math.gcd(abs(x), abs(y))
        if g == 0:
            raise ValueError("zero vector is not a direction")
        return Direction(x // g, y // g)

    def dot(self, site: Site) -> int:
        return self.x * site[0] + self.y * site[1]

    def cross(self, other: "Direction") -> int:
        return self.x * other.y - self.y * other.x

    def rot90(self) -> "Direction":
        """Counter-clockwise quarter turn."""
        return Direction(-self.y, self.x)

    def neg(self) -> "Direction":
        return Direction(-self.x, -self.y)

    def norm_sq(self) -> int:
        return self.x * self.x + self.y * self.y

    def __repr__(self):
        return f"Direction({self.x},{self.y})"


def _half(d: Direction) -> int:
    # 0 for angle in [0, pi), 1 for [pi, 2pi); sweep starts at (1,0)
    return 0 if (d.y > 0 or (d.y == 0 and d.x > 0)) else 1


def angular_cmp(u: Direction, v: Direction) -> int:
    """Compare two directions by angle from (1,0), counter-clockwise, exactly."""
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = u.cross(v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def sort_by_angle(dirs: Iterable[Direction]) -> list[Direction]:
    """Sort by angle from (1,0), counter-clockwise, in the order of angular_cmp.

    The key is the half of the circle, then -x/y, which grows with the angle
    inside a half (the axis direction, y = 0, comes first in its half),
    scaled by S = max y^2 and floored.  Distinct slopes in one half differ
    by at least 1/|y1 y2| >= 1/S, so their keys differ in the same order,
    and equal slopes get equal keys: the integer key is exact.
    """
    dirs = list(dirs)
    scale = max((d.y * d.y for d in dirs), default=1)

    def key(d: Direction) -> tuple[int, bool, int]:
        if d.y == 0:
            return (0 if d.x > 0 else 1, False, 0)
        return (0 if d.y > 0 else 1, True, -d.x * scale // d.y)

    return sorted(dirs, key=key)


# ---------------------------------------------------------------------------
# Neighbourhood specifications
# ---------------------------------------------------------------------------

_SQUARE = frozenset({(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)})
_TRIANGULAR = _SQUARE | {(1, -1), (-1, 1)}
_BOXTIMES = frozenset((x, y) for x in (-1, 0, 1) for y in (-1, 0, 1))
_DIAMOND = frozenset({(1, 1), (-1, 1), (-1, -1), (1, -1)})
_SQUARE4 = frozenset((x, y) for x in range(-4, 5) for y in range(-4, 5) if abs(x) + abs(y) <= 4)

Threshold = Union[int, str]  # an explicit integer or the string "critical"


@dataclass(frozen=True)
class NeighbourhoodSpec:
    """Declarative description of a threshold model's neighbourhood."""

    kind: str  # "named" | "lp_ball" | "explicit"
    name: Optional[str] = None
    p: Optional[Union[Fraction, float]] = None  # Fraction or math.inf
    s: Optional[Fraction] = None
    offsets: Optional[tuple[Site, ...]] = None
    threshold: Threshold = "critical"

    @staticmethod
    def named(name: str) -> "NeighbourhoodSpec":
        if name not in NAMED_MODELS:
            raise ValueError(f"unknown named model {name!r}; choose from {NAMED_MODELS}")
        return NeighbourhoodSpec(kind="named", name=name)

    @staticmethod
    def lp_ball(p, s, threshold: Threshold = "critical") -> "NeighbourhoodSpec":
        p = math.inf if p in ("inf", math.inf) else Fraction(p)
        s = Fraction(s)
        if s <= 0:
            raise ValueError("scale s must be positive")
        if p is not math.inf and p < 1:
            raise ValueError("p must be >= 1 or inf")
        return NeighbourhoodSpec(kind="lp_ball", p=p, s=s, threshold=threshold)

    @staticmethod
    def explicit(offsets: Sequence[Site], threshold: Threshold) -> "NeighbourhoodSpec":
        return NeighbourhoodSpec(
            kind="explicit", offsets=tuple(sorted(set(map(tuple, offsets)))), threshold=threshold
        )

    def to_json(self) -> dict:
        if self.kind == "named":
            return {"kind": "named", "name": self.name}
        if self.kind == "lp_ball":
            p = "inf" if self.p is math.inf else str(self.p)
            return {"kind": "lp_ball", "p": p, "s": str(self.s), "threshold": self.threshold}
        return {"kind": "explicit", "offsets": [list(o) for o in self.offsets],
                "threshold": self.threshold}

    @staticmethod
    def from_json(obj: dict) -> "NeighbourhoodSpec":
        kind = obj["kind"]
        if kind == "named":
            return NeighbourhoodSpec.named(obj["name"])
        if kind == "lp_ball":
            return NeighbourhoodSpec.lp_ball(obj["p"], obj["s"], obj.get("threshold", "critical"))
        if kind == "explicit":
            return NeighbourhoodSpec.explicit(
                [tuple(o) for o in obj["offsets"]], obj["threshold"]
            )
        raise ValueError(f"unknown neighbourhood kind {kind!r}")


@dataclass(frozen=True)
class Neighbourhood:
    """A finite offset set with its infection threshold."""

    offsets: frozenset
    threshold: int
    name: str = "explicit"

    @property
    def radius_sq(self) -> int:
        """Square of the maximal Euclidean norm over the offsets."""
        return max(x * x + y * y for x, y in self.offsets)

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_sq)

    @property
    def radius_ceil(self) -> int:
        r2 = self.radius_sq
        k = math.isqrt(r2)
        return k if k * k == r2 else k + 1

    @functools.cached_property
    def reach(self) -> int:
        """The largest |kx| or |ky| over the offsets: how far a push goes
        along either axis.  Cached: every closure and run reads it, and it
        takes 0.2 ms over the 1792 offsets of p = 2, s = 24."""
        return max(map(abs, itertools.chain.from_iterable(self.offsets)))

    @functools.cached_property
    def _sweep(self) -> tuple:
        """(breakpoints, their angular sweep), for stability_report.  It does
        not depend on the threshold; _critical_neighbourhood fills it in with
        the sweep that found the threshold."""
        return _critical(list(self.offsets))[1]

    def max_infectable(self) -> int:
        # (0,0) never helps an uninfected site
        return len(self.offsets) - (1 if (0, 0) in self.offsets else 0)

    def __getstate__(self):
        # the angular sweep build_neighbourhood or stability_report may keep
        # is derived from the offsets: leave it out
        return {"offsets": self.offsets, "threshold": self.threshold, "name": self.name}


def _lp_offsets(p, s: Fraction) -> frozenset:
    """The lattice points of the lp ball of scale s, row by row in integers.

    The continuum body is scaled so its max Euclidean norm is exactly s:
    for p <= 2 the farthest point of the lp ball of radius a sits on an axis,
    so a = s; for p = inf it is a corner, so the half-width is s/sqrt(2).
    With s = num/den, row x holds the points with |y| <= h(|x|), where
      p = 1  : h = floor(s - |x|)        = (num - |x| den) // den
      p = 2  : h = floor(sqrt(s^2 - x^2)) = isqrt((num^2 - x^2 den^2) // den^2)
      p = inf: h = floor(s / sqrt(2))    = isqrt(num^2 // (2 den^2)),
               for the rows with |x| <= h.
    floor(sqrt(q)) = isqrt(floor(q)) for rational q >= 0, so every bound is exact.
    """
    num, den = s.numerator, s.denominator
    if p == 1:
        xmax = num // den
        heights = [(num - ax * den) // den for ax in range(xmax + 1)]
    elif p == 2:
        xmax = num // den
        heights = [math.isqrt((num * num - ax * ax * den * den) // (den * den))
                   for ax in range(xmax + 1)]
    elif p is math.inf:
        xmax = math.isqrt(num * num // (2 * den * den))
        heights = [xmax] * (xmax + 1)
    else:
        raise ValueError(
            "lp_ball supports p in {1, 2, inf}; other exponents have no exact lattice test here"
        )
    return frozenset(
        (x, y) for x in range(-xmax, xmax + 1)
        for y in range(-heights[abs(x)], heights[abs(x)] + 1)
    )


def _symmetric(offsets: frozenset) -> bool:
    return all((-x, -y) in offsets for x, y in offsets) and all(
        (-y, x) in offsets for x, y in offsets
    )


def build_neighbourhood(spec: NeighbourhoodSpec) -> Neighbourhood:
    """Materialise a spec into an exact offset set with a resolved threshold."""
    if spec.kind == "named":
        table = {
            "square": (_SQUARE, 2),
            "triangular": (_TRIANGULAR, 3),
            "boxtimes": (_BOXTIMES, 4),
            "diamond": (_DIAMOND, 2),
            "square4": (_SQUARE4, 17),
        }
        offsets, r = table[spec.name]
        return Neighbourhood(frozenset(offsets), r, spec.name)

    if spec.kind == "lp_ball":
        offsets = _lp_offsets(spec.p, spec.s)
        if not offsets:
            raise ValueError("lp_ball scale too small: empty offset set")
        name = f"lp{'inf' if spec.p is math.inf else spec.p}_s{spec.s}"
        if spec.threshold == "critical":
            nbhd = _critical_neighbourhood(offsets, name)
            r = nbhd.threshold
            lo, hi = spec.s * spec.s / 2, 2 * spec.s * spec.s
            if not lo <= r <= hi:
                msg = f"critical threshold {r} outside [s^2/2, 2s^2] = [{lo}, {hi}]"
                if spec.s >= 4:
                    raise AssertionError(msg)
                warnings.warn(msg + f" (s={spec.s} below the documented cutoff)", ModelWarning)
            return nbhd
        return _with_explicit_threshold(offsets, spec.threshold, name)

    if spec.kind == "explicit":
        offsets = frozenset(spec.offsets or ())
        if not offsets:
            raise ValueError("explicit offset set is empty")
        if spec.threshold == "critical":
            if not _symmetric(offsets):
                raise ValueError(
                    "critical threshold requires offsets symmetric under negation "
                    "and quarter turn; give an explicit threshold instead"
                )
            return _critical_neighbourhood(offsets, "explicit")
        return _with_explicit_threshold(offsets, spec.threshold, "explicit")

    raise ValueError(f"unknown spec kind {spec.kind!r}")


def _with_explicit_threshold(offsets: frozenset, r, name: str) -> Neighbourhood:
    # an integral float passes: the scenario schema types 2.0 as an integer
    if isinstance(r, bool) or not (isinstance(r, Integral)
                                   or isinstance(r, float) and r.is_integer()):
        raise ValueError(f"threshold must be an integer or 'critical', got {r!r}")
    r = int(r)
    nbhd = Neighbourhood(offsets, r, name)
    if r < 2:
        raise ValueError("threshold must be at least 2")
    if r > nbhd.max_infectable():
        raise ValueError(
            f"threshold {r} exceeds the {nbhd.max_infectable()} offsets that can "
            "ever be infected neighbours; no site could be infected"
        )
    return nbhd


# ---------------------------------------------------------------------------
# Critical thresholds and stability, by one exact rotating angular sweep
#
# The negative-side count of a direction u changes only when u crosses a
# breakpoint, a direction perpendicular to some offset.  The breakpoints are
# sorted by angle once; the count at the first one is taken directly, and
# every later count, at a breakpoint or on the open arc after it, follows
# from the previous one by adding the offsets that enter the open negative
# side and subtracting those that leave it.  With the multiplicity of each
# primitive offset direction in a dict, that is O(|K| log |K|) for the sort
# and O(|K|) for everything else.
# ---------------------------------------------------------------------------


def negative_count(offsets: Iterable[Site], u: Direction) -> int:
    """|{x in K : <x,u> < 0}|, the open-half-plane count for direction u."""
    return sum(1 for o in offsets if u.dot(o) < 0)


def breakpoint_directions(offsets: Iterable[Site]) -> list[Direction]:
    """All directions perpendicular to some offset, sorted by angle.

    The half-plane count is constant on each open arc between consecutive
    breakpoints, so these are the only places where anything can change.
    """
    prim = set()
    for x, y in offsets:
        if x or y:
            g = math.gcd(x, y)
            prim.add((-y // g, x // g))
            prim.add((y // g, -x // g))
    return sort_by_angle(Direction(x, y) for x, y in prim)


def _sweep(offsets: list, bps: list) -> list[tuple[int, int]]:
    """(count at b, count on the open arc after b) for each breakpoint b of bps.

    An offset with primitive direction w has <w, u> < 0 exactly for u strictly
    between rot90(w) and rot270(w), counter-clockwise.  So the offsets with
    direction rot270(b) = (b.y, -b.x) enter the negative side as u turns past
    b, and those with direction rot90(b) = (-b.y, b.x) leave it as u reaches b.
    """
    mult: dict[Site, int] = {}
    for x, y in offsets:
        if x or y:
            g = math.gcd(x, y)
            w = (x // g, y // g)
            mult[w] = mult.get(w, 0) + 1
    first = count = negative_count(offsets, bps[0])
    out = []
    for i, b in enumerate(bps):
        arc = count + mult.get((b.y, -b.x), 0)
        out.append((count, arc))
        nxt = bps[(i + 1) % len(bps)]
        count = arc - mult.get((-nxt.y, nxt.x), 0)
    if count != first:
        raise AssertionError(
            f"angular sweep did not close: {count} after a full turn, {first} at the start"
        )
    return out


def critical_threshold(offsets: Iterable[Site]) -> int:
    """1 + min over directions of the strictly-negative-side count.

    The count on each open arc dominates the counts at its endpoints, so the
    minimum is attained at a breakpoint.  One rotating sweep gives the count
    at every breakpoint, in O(|K| log |K|) for the whole set.
    """
    offsets = list(offsets)
    if not offsets:
        raise ValueError("empty offset set")
    return _critical(offsets)[0]


def _critical(offsets: list) -> tuple:
    """(critical threshold, (breakpoints, their _sweep)) of a nonempty list."""
    bps = breakpoint_directions(offsets)
    sweep = _sweep(offsets, bps) if bps else []
    # only the origin: no direction sees a negative side
    return 1 + min((c for c, _ in sweep), default=0), (bps, sweep)


def _critical_neighbourhood(offsets: frozenset, name: str) -> Neighbourhood:
    """The neighbourhood at its critical threshold.  The sweep that found the
    threshold is kept for stability_report outside the dataclass fields, so
    ==, hash, repr and pickles ignore it."""
    r, sweep = _critical(list(offsets))
    nbhd = Neighbourhood(offsets, r, name)
    nbhd.__dict__["_sweep"] = sweep
    return nbhd


@dataclass(frozen=True)
class SweepEntry:
    """One piece of the circle: an isolated breakpoint or an open arc."""

    kind: str  # "point" | "arc"
    start: Direction
    end: Direction  # == start for points
    count: int
    stable: bool


@dataclass(frozen=True)
class StabilityReport:
    """Exact partition of S^1 into stable and unstable parts, stored as the
    angular sweep it came from: the breakpoints in angular order and, for
    each, (count at it, count on the open arc after it).  A direction is
    stable iff its count is below the threshold.  ``entries`` spells the
    sweep out as SweepEntry pieces on first use."""

    threshold: int
    breakpoints: tuple  # Directions in angular order
    counts: tuple  # (count at, count on the arc after) per breakpoint

    @functools.cached_property
    def entries(self) -> tuple:
        """Cyclic sequence of SweepEntry, alternating point/arc; without
        breakpoints, one arc from (1, 0) round the whole circle."""
        r, bps = self.threshold, self.breakpoints
        if not bps:
            d = Direction(1, 0)
            return (SweepEntry("arc", d, d, 0, 0 < r),)
        out = []
        for d, nxt, (c, c_arc) in zip(bps, bps[1:] + bps[:1], self.counts):
            out.append(SweepEntry("point", d, d, c, c < r))
            out.append(SweepEntry("arc", d, nxt, c_arc, c_arc < r))
        return tuple(out)

    @property
    def stable_points(self) -> frozenset:
        """Breakpoints that are stable while both adjacent arcs are unstable."""
        r, counts = self.threshold, self.counts
        return frozenset(b for b, (c, after), (_, before)
                         in zip(self.breakpoints, counts, counts[-1:] + counts[:-1])
                         if c < r <= min(before, after))

    @property
    def stable_arcs(self) -> tuple:
        """Maximal stable runs containing at least one arc.

        Each run is (start, start_inclusive, end, end_inclusive) in angular
        order, from the first unstable entry on.  The walk reads the sweep:
        piece 2i is breakpoint i and piece 2i + 1 the arc after it.
        """
        r, bps = self.threshold, self.breakpoints
        if not bps:  # one arc round the whole circle
            d = Direction(1, 0)
            return ((d, True, d, True),) if 0 < r else ()
        stable = [c < r for pair in self.counts for c in pair]
        first = next((i for i, s in enumerate(stable) if not s), None)
        if first is None:
            return ((bps[0], True, bps[0], True),)  # whole circle
        m = len(stable)
        runs, start = [], None
        for i in range(first + 1, first + m + 1):  # back to the first unstable piece
            i %= m
            if stable[i]:
                if start is None:
                    start = i
                continue
            if start is not None:
                last = (i - 1) % m
                if last != start or start % 2:  # the run holds an arc
                    end = bps[(last + 1) // 2 % len(bps)]  # a point's own, or an arc's end
                    runs.append((bps[start // 2], start % 2 == 0, end, last % 2 == 0))
                start = None
        return tuple(runs)

    def count_at(self, u: Direction) -> int:
        """The count at u: its breakpoint's, or that of the arc it lies on,
        the arc after the last breakpoint at or before u (before the first
        one, the arc that wraps past (1,0))."""
        bps = self.breakpoints
        if not bps:  # only the origin: no direction sees a negative side
            return 0
        key = functools.cmp_to_key(angular_cmp)
        i = bisect.bisect_right(bps, key(u), key=key)
        if i and bps[i - 1] == u:
            return self.counts[i - 1][0]
        return self.counts[i - 1][1]

    def is_stable(self, u: Direction) -> bool:
        return self.count_at(u) < self.threshold


def stability_report(nbhd: Neighbourhood) -> StabilityReport:
    bps, sweep = nbhd._sweep
    return StabilityReport(nbhd.threshold, tuple(bps), tuple(sweep))


# ---------------------------------------------------------------------------
# Quasi-stable directions
# ---------------------------------------------------------------------------


def quasi_stable_directions(s: int) -> frozenset:
    """All primitive integer vectors with both coordinates in [-s, s]."""
    if s < 1:
        raise ValueError("s must be >= 1")
    out = set()
    for x in range(-s, s + 1):
        for y in range(-s, s + 1):
            if (x or y) and math.gcd(abs(x), abs(y)) == 1:
                out.add(Direction(x, y))
    return frozenset(out)


def consecutive_directions(q_set: Iterable[Direction], u: Direction):
    """Angular predecessor and successor of u within q_set."""
    ordered = sort_by_angle(set(q_set))
    if len(ordered) < 3:
        raise ValueError("need at least 3 directions")
    try:
        i = ordered.index(u)
    except ValueError:
        raise ValueError(f"{u} not in the direction set") from None
    n = len(ordered)
    return ordered[(i - 1) % n], ordered[(i + 1) % n]


def support_value(nbhd: Neighbourhood, u: Direction) -> int:
    """max <k, u> over the offsets, unscaled (divide by ||u|| to normalise)."""
    return max(u.dot(o) for o in nbhd.offsets)
