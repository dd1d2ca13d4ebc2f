"""Seeded input generators.

Ports of the generators the test suite uses (random closure instances, the
edge-walk quasi-droplet and the non-degenerate extension seed), written
against bperc's public API only so that the benchmark never imports the
tests or private library names.
"""
from __future__ import annotations

import random
from fractions import Fraction


def sample_sites(rng: random.Random, xs: range, ys: range, k: int):
    """k distinct sites of xs x ys, in sorted order.

    A fixed count (rather than a density) keeps the work per closure the
    same from seed to seed.
    """
    return sorted(rng.sample([(x, y) for x in xs for y in ys], k))


def spaced_sites(rng: random.Random, xs: range, ys: range, k: int):
    """k distinct sites drawn from the points of xs x ys, in sorted order.

    Given ranges with step 2R + 1, the sites are pairwise at l-inf distance
    above 2R, so no site within radius R of two of them exists and a
    threshold-2-or-more closure cannot grow from them.
    """
    return sorted(rng.sample([(x, y) for x in xs for y in ys], k))


def edge_walk_droplet(s: int, side_steps):
    """Quasi-droplet over Q(s) whose face normal to u has length
    side_steps[u] * ||u||.

    Edges are integer multiples of rot90(u) and antipodal directions share a
    step count, so the walk closes.  ``side_steps`` maps the upper-half-plane
    representative of each direction (or is a single int for all of them).
    """
    from bperc.geometry import quasi_stable_directions, sort_by_angle
    from bperc.quasidroplets import QuasiDroplet

    q = sort_by_angle(quasi_stable_directions(s))
    steps = {}
    for u in q:
        key = u if (u.y > 0 or (u.y == 0 and u.x > 0)) else u.neg()
        steps[u] = side_steps if isinstance(side_steps, int) else side_steps[key]
    verts = []
    v = (0, 0)
    for u in q:
        verts.append(v)
        w = u.rot90()
        v = (v[0] + steps[u] * w.x, v[1] + steps[u] * w.y)
    if v != (0, 0):
        raise ValueError("edge walk does not close")
    cx = sum(x for x, _ in verts) // len(verts)
    cy = sum(y for _, y in verts) // len(verts)
    cons = {(u.x, u.y): u.x * (vx - cx) + u.y * (vy - cy) for u, (vx, vy) in zip(q, verts)}
    return QuasiDroplet.of(cons)


def min_step(u, bar: str, big_c: int) -> int:
    """Smallest t >= 1 with t * ||u|| at or above the sqrt or cbrt side bar."""
    from bperc.quasidroplets import side_ge_cbrt, side_ge_sqrt

    t = 1
    while True:
        lsq = Fraction(t * t * u.norm_sq())
        if (side_ge_sqrt(lsq, big_c) if bar == "sqrt" else side_ge_cbrt(lsq, big_c)):
            return t
        t += 1


def random_nondegenerate(rng: random.Random, s: int, params):
    """Edge-walk droplet whose sides clear the side bars of ``params`` by a
    random 0..4 extra steps each."""
    from bperc.geometry import quasi_stable_directions

    reps = sorted(
        {u if (u.y > 0 or (u.y == 0 and u.x > 0)) else u.neg()
         for u in quasi_stable_directions(s)},
        key=lambda d: (d.x, d.y),
    )
    steps = {}
    for u in reps:
        bar = "sqrt" if params.is_stable(u) or params.is_stable(u.neg()) else "cbrt"
        steps[u] = min_step(u, bar, params.big_C) + rng.randint(0, 4)
    return edge_walk_droplet(s, steps)


def a_prime_around(rng: random.Random, qd, density: float, margin: int):
    """Random sites outside ``qd`` within ``margin`` of its bounding box."""
    if density <= 0:
        return []
    poly = qd.polygon()
    lo = [int(min(p[i] for p in poly)) - margin for i in (0, 1)]
    hi = [int(max(p[i] for p in poly)) + margin for i in (0, 1)]
    return [
        (x, y)
        for x in range(lo[0], hi[0] + 1)
        for y in range(lo[1], hi[1] + 1)
        if rng.random() < density and not qd.contains((x, y))
    ]
