"""Droplet algebra for the square and triangular models.

A droplet is the lattice intersection of closed half-planes perpendicular to
the model's stable directions, stored as one integer radius per direction:
x is inside iff <x, u> <= l_u for every stable direction u.  Radii are kept
coordinate-wise minimal (canonical), so the radius for u is exactly the
maximum of <x, u> over the point set.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
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
        l = dict(zip(self.dirs, self.radii))
        if y > l[(0, 1)] or -y > l[(0, -1)]:
            return None
        lo, hi = -l[(-1, 0)], l[(1, 0)]
        if self.model == "triangular":
            hi = min(hi, l[(1, 1)] - y)
            lo = max(lo, -l[(-1, -1)] - y)
        if lo > hi:
            return None
        return lo, hi

    def rows(self):
        if self.radii is None:
            return
        l = dict(zip(self.dirs, self.radii))
        for y in range(-l[(0, -1)], l[(0, 1)] + 1):
            iv = self.row_interval(y)
            if iv is not None:
                yield y, iv

    def points(self) -> set:
        return {(x, y) for y, (lo, hi) in self.rows() for x in range(lo, hi + 1)}

    def point_count(self) -> int:
        return sum(hi - lo + 1 for _, (lo, hi) in self.rows())

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
        radii = obj["radii"]
        return canonical_radii(obj["model"], radii)

    @staticmethod
    def empty(model: str) -> "Droplet":
        if model not in _MODELS:
            raise ValueError(f"unknown droplet model {model!r}")
        return Droplet(model, None)

    @staticmethod
    def singleton(model: str, site: Site) -> "Droplet":
        dirs = _MODELS[model]
        x, y = site
        return Droplet(model, tuple(u[0] * x + u[1] * y for u in dirs))


def canonical_radii(model: str, radii) -> Droplet:
    """Tighten radii to the coordinate-wise minimum defining the same points.

    One pass suffices: each canonical radius is the max of <x, u> over the
    (unchanged) point set, read off the row intervals.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown droplet model {model!r}")
    if radii is None:
        return Droplet(model, None)
    dirs = _MODELS[model]
    radii = tuple(int(v) for v in radii)
    if len(radii) != len(dirs):
        raise ValueError(f"{model} droplets need {len(dirs)} radii, got {len(radii)}")
    rough = Droplet(model, radii)
    maxima = {u: None for u in dirs}
    for y, (lo, hi) in rough.rows():
        # extremes of every linear form over a row are attained at its ends
        for u in dirs:
            v = max(u[0] * lo + u[1] * y, u[0] * hi + u[1] * y)
            if maxima[u] is None or v > maxima[u]:
                maxima[u] = v
    if any(v is None for v in maxima.values()):
        return Droplet(model, None)
    return Droplet(model, tuple(maxima[u] for u in dirs))


def smallest_containing(d: Droplet, site: Site) -> Droplet:
    """Inclusion-minimal droplet containing d and the site."""
    x, y = site
    if d.is_empty:
        return Droplet.singleton(d.model, site)
    if d.contains(site):
        return d
    dirs = d.dirs
    grown = tuple(max(l, u[0] * x + u[1] * y) for u, l in zip(dirs, d.radii))
    return canonical_radii(d.model, grown)


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
    droplets: dict[int, Droplet] = {i: Droplet.singleton(model, s) for i, s in enumerate(A)}
    owner: dict[Site, int] = {s: i for i, s in enumerate(A)}
    parent: dict[int, int] = {}  # merged droplet id -> surviving id
    next_id = len(A)

    def find(i):
        while i in parent:
            parent[i] = parent.get(parent[i], parent[i])
            i = parent[i]
        return i
    counts: dict[Site, int] = {}
    heap: list = []  # (sort key, site) for "scan"; sites list for "random"
    pending: list = []

    def push(site):
        if strategy == "scan":
            heapq.heappush(heap, site)
        else:
            pending.append(site)

    def bump(site):
        c = counts.get(site, 0) + 1
        counts[site] = c
        if c == r:
            push(site)

    def add_point(p, did):
        owner[p] = did
        for (kx, ky) in offsets:
            q = (p[0] - kx, p[1] - ky)
            if q not in owner:
                bump(q)

    for i, s in enumerate(A):
        for (kx, ky) in offsets:
            q = (s[0] - kx, s[1] - ky)
            if q not in owner:
                bump(q)

    def pop():
        while True:
            if strategy == "scan":
                if not heap:
                    return None
                site = heapq.heappop(heap)
            else:
                if not pending:
                    return None
                site = pending.pop(rng.randrange(len(pending)))
            if site not in owner:
                return site

    while True:
        x = pop()
        if x is None:
            break
        ids = set()
        for (kx, ky) in offsets:
            q = (x[0] + kx, x[1] + ky)
            if q in owner:
                ids.add(find(owner[q]))
        merged = [droplets.pop(i) for i in ids]
        dirs = _MODELS[model]
        radii = tuple(
            max(max(d.radii[j] for d in merged), dirs[j][0] * x[0] + dirs[j][1] * x[1])
            for j in range(len(dirs))
        )
        new = canonical_radii(model, radii)
        did = next_id
        next_id += 1
        droplets[did] = new
        for i in ids:
            parent[i] = did
        # enumerate only the parts of the new droplet outside its biggest
        # constituent; everything else is already owned
        big = max(merged, key=lambda d: d.point_count())
        for y, (lo, hi) in new.rows():
            biv = big.row_interval(y)
            if biv is None:
                segs = [(lo, hi)]
            else:
                segs = []
                if lo < biv[0]:
                    segs.append((lo, biv[0] - 1))
                if hi > biv[1]:
                    segs.append((biv[1] + 1, hi))
            for slo, shi in segs:
                for px in range(slo, shi + 1):
                    p = (px, y)
                    if p not in owner:
                        counts.pop(p, None)
                        add_point(p, did)
        # stale owner ids of absorbed constituents resolve through find()

    return list(droplets.values())


def droplet_union(droplets: Iterable[Droplet]) -> set:
    out = set()
    for d in droplets:
        out |= d.points()
    return out
