"""The line tables of the rectangles certificate (process._LINE_TABLES),
derived from closures on boxes, on each of the four sides.

A side's table says where one infected site beyond it grows the shape by
a line: the shape is h lines by w with ``cut`` sites cut from each corner,
and a site d lines beyond a side of span W and depth H grows that side
when it lies within the span shrunk by s_d at each end, for W >= W0 and
H >= H0.  Here each window is the set of positions whose site, added to
the shape, has a closure that holds the grown shape.  The closure runs on
a box wide enough that no site near its edge is infected, so it is the
closure in Z^2.  A candidate site that is no neighbour of a site one push
short of the threshold leaves the shape with it closed, so only those
candidates are run, with the sites of the grown line (a line of one site
is its own trigger); no such site beyond a side is further from it than
twice the reach.
"""
import functools

import pytest

from bperc import process
from bperc.dynamics import Domain, closure, offsets_array
from bperc.geometry import NeighbourhoodSpec, build_neighbourhood

# (side frame) -> lattice: a counts lines from the far side toward the
# growing one, b runs along the side
SIDES = {
    "bottom": lambda a, b: (a, b),
    "top": lambda a, b: (-a, b),
    "right": lambda a, b: (b, a),
    "left": lambda a, b: (b, -a),
}


def shape(h, w, cut):
    """The shape in the side frame: lines [0, h) by positions [0, w), line
    i holding position j unless it is within ``cut`` of a corner (i + j <
    cut, counting i and j from that corner)."""
    return {(i, j) for i in range(h) for j in range(w)
            if min(i, h - 1 - i) + min(j, w - 1 - j) >= cut}


@functools.lru_cache(maxsize=None)
def rule(name):
    nbhd = build_neighbourhood(NeighbourhoodSpec.named(name))
    offs = [tuple(map(int, k)) for k in offsets_array(nbhd)]
    return nbhd, offs, max(max(abs(a), abs(b)) for a, b in offs)


def windows(name, side, h, w, cut):
    """{d: the positions b whose site at depth d grows the side}, for the
    side ``side`` of the shape of depth h and span w; asserts that the
    shape is closed and that each closure stays off the box's edge."""
    nbhd, offs, reach = rule(name)
    to = SIDES[side]
    grown = {to(a, b) for a, b in shape(h + 1, w, cut)}
    start = {to(a, b) for a, b in shape(h, w, cut)}
    pushes = {}
    for v in start:
        for k in offs:
            u = (v[0] - k[0], v[1] - k[1])  # u counts v when u + k = v
            if u not in start:
                pushes[u] = pushes.get(u, 0) + 1
    assert max(pushes.values()) < nbhd.threshold  # the shape is closed
    short = [u for u, c in pushes.items() if c == nbhd.threshold - 1]
    # the sites beyond the side, (a, b) in the side frame, that push one
    back = {to(a, b): (a, b) for a in range(h, h + 2 * reach + 1)
            for b in range(-2 * reach, w + 2 * reach)}
    candidates = {(u[0] + k[0], u[1] + k[1]) for u in short for k in offs} | (grown - start)
    candidates &= back.keys()
    margin = 2 * reach
    xs = [x for x, _ in grown | candidates]
    ys = [y for _, y in grown | candidates]
    box = (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
    domain = Domain.rect(*box)
    found = {}
    for z in candidates:
        infected = closure(domain, nbhd, start | {z}).infected
        xs, ys = zip(*infected)
        assert box[0] + reach <= min(xs) and max(xs) <= box[2] - reach
        assert box[1] + reach <= min(ys) and max(ys) <= box[3] - reach
        if grown <= infected:
            a, b = back[z]
            found.setdefault(a - h + 1, set()).add(b)
    return found


def shrinks(name, side, h, w, cut):
    """The windows as a table's shrinks (s_1, s_2, ...), each window being
    the span shrunk by s_d at both ends, or None if one is not."""
    found = windows(name, side, h, w, cut)
    out = []
    for d in range(1, len(found) + 1):
        s = min(found.get(d, {w}))
        if found.get(d) != set(range(s, w - s)):
            return None
        out.append(s)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def derived(name):
    """(cut, (W0, H0), shrinks) from closures on the bottom side: the least
    cut at which one site on the next line grows a long side, that cut's
    windows on a long side, and the least span and depth from which they
    hold."""
    _, _, reach = rule(name)
    big = 4 * reach + 8
    cut = next(c for c in range(4) if windows(name, "bottom", big, big, c).get(1))
    ref = shrinks(name, "bottom", big, big, cut)
    w0 = big
    while w0 > 1 and shrinks(name, "bottom", big, w0 - 1, cut) == ref:
        w0 -= 1
    h0 = big
    while h0 > 1 and shrinks(name, "bottom", h0 - 1, big, cut) == ref:
        h0 -= 1
    return cut, (w0, h0), ref


def key(name):
    nbhd, offs, _ = rule(name)
    return frozenset(offs), nbhd.threshold


@pytest.mark.parametrize("name", ["square", "square4"])
def test_line_table_is_the_derived_one(name):
    assert process._LINE_TABLES[key(name)] == derived(name)


def test_line_tables_are_the_square_and_square4_rules():
    assert set(process._LINE_TABLES) == {key("square"), key("square4")}
    assert derived("square") == (0, (1, 1), (-1, 0))
    assert derived("square4") == (2, (12, 7), (0, 1, 2, 4, 5))


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("name", ["square", "square4"])
def test_line_table_holds_on_every_side(name, side):
    # W from W0 to W0 + 2 (reach + 5) at depth H0, and H from H0 to
    # H0 + reach + 5 at span W0, with the windows of the table
    cut, (w0, h0), table = process._LINE_TABLES[key(name)]
    _, _, reach = rule(name)
    sizes = [(h0, w) for w in range(w0, w0 + 2 * (reach + 5) + 1)]
    sizes += [(h, w0) for h in range(h0 + 1, h0 + reach + 6)]
    for h, w in sizes:
        assert shrinks(name, side, h, w, cut) == table, (h, w)


@pytest.mark.parametrize("side", sorted(SIDES))
def test_square4_windows_stop_short_below_the_least_sides(side):
    # one line shallower or one site shorter, the windows differ
    cut, (w0, h0), table = process._LINE_TABLES[key("square4")]
    assert shrinks("square4", side, h0 - 1, w0, cut) != table
    assert shrinks("square4", side, h0, w0 - 1, cut) != table


def test_other_cuts_give_other_square4_windows():
    # a cut of 1 gives windows only from depth 2, and a plain rectangle
    # only from depth 3, so neither grows from one site on the next line
    _, (w0, h0), table = process._LINE_TABLES[key("square4")]
    for cut in (0, 1):
        found = windows("square4", "bottom", h0, w0, cut)
        assert 1 not in found and shrinks("square4", "bottom", h0, w0, cut) != table
