"""Droplet algebra for the square and triangular models.

A droplet is the lattice intersection of closed half-planes perpendicular to
the model's stable directions, stored as one integer radius per direction:
x is inside iff <x, u> <= l_u for every stable direction u.  Radii are kept
coordinate-wise minimal (canonical), so the radius for u is exactly the
maximum of <x, u> over the point set.  Canonical radii, point counts and
row intervals are closed forms, O(1) per droplet (see ``_canonical``).
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from typing import Iterable, Optional

from .dynamics import Domain, closure
from .geometry import Neighbourhood, NeighbourhoodSpec, Site, build_neighbourhood

# Stable directions, in the fixed storage order of the radii vectors.
SQUARE_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))
TRIANGULAR_DIRS = SQUARE_DIRS + ((1, 1), (-1, -1))

_MODELS = {"square": SQUARE_DIRS, "triangular": TRIANGULAR_DIRS}


def model_neighbourhood(model: str) -> Neighbourhood:
    if model not in _MODELS:
        raise ValueError(f"droplet model must be 'square' or 'triangular', got {model!r}")
    return build_neighbourhood(NeighbourhoodSpec.named(model))


def _hexagon(radii: tuple) -> tuple:
    """Six radii (a, b, c, d, e, f): a rectangle's diagonals are x+y <= a+b
    and -x-y <= c+d, so both models share one closed form."""
    return radii if len(radii) == 6 else radii + (radii[0] + radii[1], radii[2] + radii[3])


@dataclass(frozen=True)
class Droplet:
    """Canonical-radii droplet; ``radii`` is None for the empty droplet."""

    model: str
    radii: Optional[tuple]  # aligned with _MODELS[model]

    @property
    def is_empty(self) -> bool:
        return self.radii is None

    @property
    def dirs(self) -> tuple:
        return _MODELS[self.model]

    def row_interval(self, y: int) -> Optional[tuple[int, int]]:
        """Inclusive x-interval of row y, or None when the row is empty."""
        if self.radii is None:
            return None
        a, b, c, d, e, f = _hexagon(self.radii)
        lo, hi = max(-c, -f - y), min(a, e - y)
        return (lo, hi) if -d <= y <= b and lo <= hi else None

    def rows(self):
        if self.radii is not None:
            for y in range(-self.radii[3], self.radii[1] + 1):
                iv = self.row_interval(y)
                if iv is not None:
                    yield y, iv

    def rows_past(self, inner: "Droplet"):
        """(y, lo, hi) runs of this droplet outside ``inner``, a nonempty
        droplet it contains, in row-major order.

        Each row end is min(radius, diagonal - y), so the rows of ``inner``
        where both droplets end alike form one interval, never visited.
        """
        a, b, c, d, e, f = _hexagon(self.radii)
        ia, ib, ic, id_, ie, if_ = _hexagon(inner.radii)
        s0, s1 = _ends_agree(a, ia, e, ie, -id_, ib)
        s0, s1 = _ends_agree(c, ic, f, if_, -s1, -s0)  # left ends, in -y
        skip = range(max(-s1, -d), min(-s0, b) + 1) or range(b + 1, b + 1)
        for y in chain(range(-d, skip.start), range(skip.stop, b + 1)):
            lo, hi = max(-c, -f - y), min(a, e - y)
            if -id_ <= y <= ib:
                ilo, ihi = max(-ic, -if_ - y), min(ia, ie - y)
                if lo < ilo:
                    yield y, lo, ilo - 1
                if hi > ihi:
                    yield y, ihi + 1, hi
            else:
                yield y, lo, hi

    def points(self) -> set:
        return {(x, y) for y, (lo, hi) in self.rows() for x in range(lo, hi + 1)}

    def point_count(self) -> int:
        """The bounding rectangle less the two corners the diagonals cut,
        each a triangle of k(k+1)/2 points when the radii are canonical."""
        if self.radii is None:
            return 0
        a, b, c, d, e, f = _hexagon(self.radii)
        k, m = a + b - e, c + d - f
        return (a + c + 1) * (b + d + 1) - k * (k + 1) // 2 - m * (m + 1) // 2

    def contains(self, site: Site) -> bool:
        if self.radii is None:
            return False
        x, y = site
        return all(u[0] * x + u[1] * y <= l for u, l in zip(self.dirs, self.radii))

    def to_json(self) -> dict:
        return {"model": self.model,
                "radii": None if self.radii is None else list(self.radii)}

    @staticmethod
    def from_json(obj: dict) -> "Droplet":
        return canonical_radii(obj["model"], obj["radii"])

    @staticmethod
    def empty(model: str) -> "Droplet":
        if model not in _MODELS:
            raise ValueError(f"unknown droplet model {model!r}")
        return Droplet(model, None)

    @staticmethod
    def singleton(model: str, site: Site) -> "Droplet":
        x, y = site
        return Droplet(model, (x, y, -x, -y, x + y, -x - y)[:len(_MODELS[model])])


def _ends_agree(r, ir, g, ig, lo, hi):
    """The y in [lo, hi] with min(r, g - y) == min(ir, ig - y), for r >= ir
    and g >= ig; empty (lo > hi) when the ends differ on every row."""
    if r > ir:
        return (max(lo, ig - ir), hi) if g == ig else (hi + 1, hi)
    return (lo, min(hi, ig - ir)) if g > ig else (lo, hi)


def canonical_radii(model: str, radii) -> Droplet:
    """Tighten radii to the coordinate-wise minimum defining the same points.

    Radii must be Python or numpy integers; anything else raises ValueError.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown droplet model {model!r}")
    if radii is None:
        return Droplet(model, None)
    radii = tuple(radii)
    if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in radii):
        raise ValueError(f"droplet radii must be integers, got {radii!r}")
    if len(radii) != len(_MODELS[model]):
        raise ValueError(f"{model} droplets need {len(_MODELS[model])} radii, got {len(radii)}")
    return _canonical(model, tuple(map(int, radii)))


def _canonical(model: str, radii: tuple) -> Droplet:
    """canonical_radii for a tuple of ints of the right length.

    Every constraint bounds a difference of two of the nodes 0, x and -y:
    x - 0 <= a, 0 - (-y) <= b, 0 - x <= c, -y - 0 <= d, x - (-y) <= e and
    -y - x <= f.  The canonical radii are the shortest-path closure of this
    3-node difference-bound matrix (a closed integer matrix attains each of
    its bounds at a lattice point), and a negative cycle means no point
    satisfies them all.  On 3 nodes a shortest path has at most 2 edges.
    """
    a, b, c, d, e, f = _hexagon(radii)
    if min(a + c, b + d, e + f, a + b + f, c + d + e) < 0:
        return Droplet(model, None)
    tight = (min(a, e + d), min(b, e + c), min(c, f + b), min(d, f + a),
             min(e, a + b), min(f, c + d))
    return Droplet(model, tight[:len(radii)])


def smallest_containing(d: Droplet, site: Site) -> Droplet:
    """Inclusion-minimal droplet containing d and the site."""
    if d.contains(site):
        return d
    one = Droplet.singleton(d.model, site)
    return one if d.is_empty else _canonical(d.model, tuple(map(max, d.radii, one.radii)))


def _bounding_domain(points: Iterable[Site], margin: int) -> Domain:
    pts = list(points)
    m = max(max(abs(x), abs(y)) for x, y in pts)
    return Domain.box(m + margin)


def single_site_growth_check(d: Droplet, site: Site, nbhd: Neighbourhood) -> bool:
    """True iff closure(droplet + one adjacent site) is exactly the smallest
    droplet containing both."""
    if d.model not in _MODELS:
        raise ValueError(f"unknown droplet model {d.model!r}")
    target = smallest_containing(d, site)
    seed = d.points() | {tuple(site)}
    dom = _bounding_domain(target.points() | seed, 2 * nbhd.radius_ceil + 2)
    cfg = closure(dom, nbhd, seed)
    return cfg.infected == frozenset(target.points())


def internally_filled(d: Droplet, A: Iterable[Site], nbhd: Neighbourhood) -> bool:
    """True iff the closure of A's trace inside the droplet is the droplet."""
    if d.is_empty:
        return False
    dpts = d.points()
    seed = dpts & set(map(tuple, A))
    if seed == dpts:
        return True
    if not seed:
        return False
    dom = _bounding_domain(dpts, 2 * nbhd.radius_ceil + 2)
    cfg = closure(dom, nbhd, seed)
    return cfg.infected == frozenset(dpts)


def droplet_algorithm(A: Iterable[Site], model: str, strategy: str = "scan",
                      seed: int = 0) -> list:
    """Merge droplets until no uninfected site sees >= r of their union.

    Starts from singleton droplets of A.  Whenever a site x outside the union
    has >= r neighbours inside it, the droplets owning those neighbours are
    replaced by the smallest droplet containing their union and x (canonical
    radii are maxima, so union radii are coordinate-wise maxima).  The union
    of the output droplets is exactly the closure of A.

    strategy "scan" processes candidate sites in row-major order; "random"
    in a seeded random order.  The resulting union is strategy-independent.
    """
    if strategy not in ("scan", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    nbhd = model_neighbourhood(model)
    r = nbhd.threshold
    offsets = [o for o in nbhd.offsets if o != (0, 0)]
    rng = random.Random(seed)

    A = sorted(set(map(tuple, A)))
    if not A:
        return []
    # Sites are keyed (x - x0) * m + (y - y0).  A site outside the bounding box
    # of A sees fewer than r sites of it, so the closure stays in the box; one
    # spare line on each side keeps every pushed neighbour's key distinct, and
    # keys order like (x, y).
    x0, y0 = A[0][0] - 1, min(y for _, y in A) - 1
    m = max(y for _, y in A) - y0 + 2
    deltas = [kx * m + ky for kx, ky in offsets]
    droplets: dict[int, Droplet] = {i: Droplet.singleton(model, s) for i, s in enumerate(A)}
    owner: dict[int, int] = {(x - x0) * m + y - y0: i for i, (x, y) in enumerate(A)}
    parent: dict[int, int] = {}  # merged droplet id -> surviving id
    next_id = len(A)

    def find(i):
        while i in parent:
            parent[i] = parent.get(parent[i], parent[i])
            i = parent[i]
        return i
    counts: dict[int, int] = {}
    heap: list = []  # ready sites in (x, y) order, for "scan"
    pending: list = []  # ready sites in arrival order, for "random"

    def add_points(points, did):
        for p in points:
            owner[p] = did
            for k in deltas:
                q = p - k
                if q not in owner:
                    c = counts[q] = counts.get(q, 0) + 1
                    if c == r:
                        heapq.heappush(heap, q) if strategy == "scan" else pending.append(q)

    for p, i in list(owner.items()):
        add_points((p,), i)

    def pop():
        while heap or pending:
            site = heapq.heappop(heap) if heap else pending.pop(rng.randrange(len(pending)))
            if site not in owner:
                return site

    while (x := pop()) is not None:
        ids = {find(owner[x + k]) for k in deltas if x + k in owner}
        merged = [droplets.pop(i) for i in ids]
        site = (x // m + x0, x % m + y0)
        new = _canonical(model, tuple(map(max, Droplet.singleton(model, site).radii,
                                          *(d.radii for d in merged))))
        did, next_id = next_id, next_id + 1
        droplets[did] = new
        parent.update(dict.fromkeys(ids, did))
        # enumerate only the parts of the new droplet outside its biggest
        # constituent; everything else is already owned
        big = max(merged, key=Droplet.point_count)
        add_points([p for y, lo, hi in new.rows_past(big)
                    for p in range((lo - x0) * m + y - y0, (hi - x0) * m + y - y0 + 1, m)
                    if p not in owner], did)
        # stale owner ids of absorbed constituents resolve through find()

    return list(droplets.values())


def droplet_union(droplets: Iterable[Droplet]) -> set:
    return set().union(*(d.points() for d in droplets))
