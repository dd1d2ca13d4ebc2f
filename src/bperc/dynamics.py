"""Closure dynamics on finite domains.

Two engines compute the same thing:

* ``closure``, the primary implementation: a counter push on flat index
  arrays, one synchronous generation at a time by the round
  ``grid_step`` builds, which the arrival process in ``bperc.process``
  shares (its driver advances every cascade of a chunk of runs, on
  stacked tori, one round at a time).  Each round takes the cheaper of
  two branches with the same result, by a cost rule: a sparse one that
  lists every push, gathered from two cached per-axis tables of wrapped
  row and column indices in a fixed number of numpy calls, and a dense
  one that counts the pushes per row run of the offsets with a
  difference array and one cumulative sum, whose cost hardly grows with
  |K*|, and
* ``closure_synchronous``, iterated whole-grid neighbour counts (numpy
  shifts): the independent oracle the tests check ``closure`` against.

Both report per-site generation times with synchronous-round semantics: a
site's time is the first parallel round at which it has >= r infected
neighbours, never "1 + max over chosen parents".  A result, a
``Configuration``, stores only these times; its infected set and its number
of generations are derived from them on first use.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .geometry import Neighbourhood, Site


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


def _integer(value) -> bool:
    """Whether ``value`` is an integer, Python or numpy; bool and float are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int(value, what: str) -> int:
    """``value`` as an int if it is an integer, else ValueError naming ``what``."""
    if _integer(value):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _bounds(x0, y0, x1, y1) -> tuple[int, int, int, int]:
    """A rectangle's inclusive bounds as ints (see _int)."""
    return tuple(_int(v, f"rectangle bound {name}")
                 for v, name in zip((x0, y0, x1, y1), ("x0", "y0", "x1", "y1")))


@dataclass(frozen=True)
class Domain:
    """Finite playing field: torus(n), a box of lattice sites (the centred
    [-d,d]^2 square or a general rectangle), or a box with a permanently
    infected frozen set (kind "framed_box")."""

    kind: str  # "torus" | "box" | "framed_box"
    n: int = 0  # torus side
    x0: int = 0
    y0: int = 0
    x1: int = 0
    y1: int = 0
    frozen: frozenset = frozenset()

    @staticmethod
    def torus(n: int) -> "Domain":
        n = _int(n, "torus side n")
        if n < 1:
            raise ValueError("torus side must be positive")
        return Domain("torus", n=n)

    @staticmethod
    def box(d: int) -> "Domain":
        d = _int(d, "box half-width d")
        if d < 0:
            raise ValueError("box half-width must be nonnegative")
        return Domain("box", x0=-d, y0=-d, x1=d, y1=d)

    @staticmethod
    def rect(x0: int, y0: int, x1: int, y1: int) -> "Domain":
        x0, y0, x1, y1 = _bounds(x0, y0, x1, y1)
        if x0 > x1 or y0 > y1:
            raise ValueError("empty rectangle")
        return Domain("box", x0=x0, y0=y0, x1=x1, y1=y1)

    @staticmethod
    def framed_box(d: int, frozen: Iterable[Site]) -> "Domain":
        d = _int(d, "box half-width d")
        return Domain.framed_rect(-d, -d, d, d, frozen)

    @staticmethod
    def framed_rect(x0, y0, x1, y1, frozen: Iterable[Site]) -> "Domain":
        x0, y0, x1, y1 = _bounds(x0, y0, x1, y1)
        frozen = frozenset(map(tuple, frozen))
        dom = Domain("framed_box", x0=x0, y0=y0, x1=x1, y1=y1, frozen=frozen)
        bad = [s for s in frozen if not dom.contains(s)]
        if bad:
            raise ValueError(f"frozen sites outside box: {sorted(bad)[:5]}")
        return dom

    def contains(self, site: Site) -> bool:
        x, y = site
        if self.kind == "torus":
            return 0 <= x < self.n and 0 <= y < self.n
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    @property
    def bounds(self) -> tuple[int, int, int, int]:
        """(xmin, ymin, xmax, ymax), inclusive."""
        if self.kind == "torus":
            return (0, 0, self.n - 1, self.n - 1)
        return (self.x0, self.y0, self.x1, self.y1)

    @property
    def size(self) -> int:
        if self.kind == "torus":
            return self.n * self.n
        return (self.x1 - self.x0 + 1) * (self.y1 - self.y0 + 1)

    def sites(self):
        xmin, ymin, xmax, ymax = self.bounds
        for x in range(xmin, xmax + 1):
            for y in range(ymin, ymax + 1):
                yield (x, y)

    def validate_for(self, nbhd: Neighbourhood) -> None:
        """A torus must keep distinct offsets distinct and off the origin:
        n >= 2 reach + 1, reach the largest |kx| or |ky| of an offset, so two
        offsets differ by at most 2 reach < n along each axis."""
        if self.kind == "torus" and self.n < 2 * nbhd.reach + 1:
            raise ValueError(
                f"torus side {self.n} too small for neighbourhood reach "
                f"{nbhd.reach} (the largest |kx| or |ky| of an offset): need "
                f"n >= {2 * nbhd.reach + 1} so distinct offsets stay distinct "
                "on the torus"
            )

    def wrap(self, x: int, y: int) -> Optional[Site]:
        """Map a raw coordinate into the domain; None when it falls outside."""
        if self.kind == "torus":
            return (x % self.n, y % self.n)
        if self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1:
            return (x, y)
        return None


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """Infected sites with their generation times: ``times`` maps each
    infected site to the synchronous round that infected it, 0 for the
    initial and frozen sites.  It is the one stored fact; ``infected`` (its
    sites) and ``generation`` (the rounds applied, its largest time) are
    derived on first use and cached.  Frozen sites are infected with time 0
    but excluded from closure-size statistics.
    """

    domain: Domain
    times: dict

    @functools.cached_property
    def infected(self) -> frozenset:
        return frozenset(self.times)

    @functools.cached_property
    def generation(self) -> int:
        return max(self.times.values(), default=0)

    @property
    def size(self) -> int:
        """Number of infected sites, frozen frame excluded."""
        return len(self.times) - len(self.domain.frozen & self.times.keys())

    def is_full(self) -> bool:
        return len(self.times) == self.domain.size

    @staticmethod
    def initial(domain: Domain, initial: Iterable[Site]) -> "Configuration":
        infected = _inside(domain, initial, "initial") | domain.frozen
        return Configuration(domain, dict.fromkeys(infected, 0))


def _inside(domain: Domain, sites: Iterable[Site], what: str) -> frozenset:
    """``sites`` as a set of tuples, each checked to lie in ``domain``."""
    sites = frozenset(map(tuple, sites))
    xmin, ymin, xmax, ymax = domain.bounds
    bad = [(x, y) for x, y in sites if not (xmin <= x <= xmax and ymin <= y <= ymax)]
    if bad:
        raise ValueError(f"{what} sites outside domain: {sorted(bad)[:5]}")
    return sites


# ---------------------------------------------------------------------------
# The counter-push cascade on flat arrays
# ---------------------------------------------------------------------------


def offsets_array(nbhd: Neighbourhood) -> np.ndarray:
    """The nonzero offsets, sorted, as a (|K*|, 2) int64 array."""
    offs = sorted(o for o in nbhd.offsets if o != (0, 0))
    return np.asarray(offs, dtype=np.int64).reshape(-1, 2)


# The cost rule of the generation step, in pushed targets of the sparse
# branch: a dense round costs about _DENSE_CELL_COST per cell of the grid,
# plus _DENSE_ROUND_COST for the numpy calls it makes beyond the sparse
# round's, and runs when that is less than front * |K*|.  Both branches
# were timed, twice, on the same 488 rounds of real runs (lp balls,
# square4, boxtimes, square and diamond; n = 128 to 2048; at most 400
# rounds of a run, those with front * |K*| >= 0.05 cells;
# BENCH_one_state_array.json, "rounds"; 2-vCPU VM).  A search over the
# constants puts the cell cost at 1.1: the rounds it picks take 0.1% longer
# than the faster branch of each, averaged over the 22 cases, and at most
# 1.24x on one round, against 2.2-3.4% and up to 2.1x with 0.9.  The
# batches of 2048 arrivals of lp p = 2, s = 16 at n = 2048 (0.39 targets
# per cell) run sparse in 0.5-0.7 of the dense time.  The largest square4
# fronts at n = 192 (690 sites over 60 seeds, where dense starts at 1026)
# stay sparse.
_DENSE_CELL_COST = 1.1
_DENSE_ROUND_COST = 512


@functools.lru_cache(maxsize=64)
def _row_runs(key: bytes):
    """The runs of consecutive dy, per dx, in the pushed offsets: -k for k
    in K*, and the origin, which joins the run it would split (a pusher is
    done, so nothing reads the push onto itself).  ``key`` holds the
    offsets' int64 bytes, in (dx, dy) pairs.  Returns (dx, lowest dy,
    length), one entry per run, read-only.  Cached, because every grid
    whose front goes dense needs them, and a closure of a few rounds on a
    small grid would otherwise pay for them each call."""
    offs = np.frombuffer(key, dtype=np.int64).reshape(-1, 2)
    k = np.concatenate((-offs, np.zeros((1, 2), dtype=np.int64)))
    k = k[np.lexsort((k[:, 1], k[:, 0]))]
    head = np.ones(len(k), dtype=bool)
    head[1:] = (k[1:, 0] != k[:-1, 0]) | (k[1:, 1] != k[:-1, 1] + 1)
    starts = np.flatnonzero(head)
    runs = k[starts, 0], k[starts, 1], np.diff(starts, append=len(k))
    for a in runs:
        a.flags.writeable = False  # cached and shared by every caller
    return runs


def _row_run_push(width: int, height: int, offs: np.ndarray, tori: int = 1):
    """The dense branch on ``tori`` width x height tori stacked along x:
    ``push(front, counts)`` adds every push of ``front`` into ``counts`` by
    row runs.

    Each front site adds +1 at the start and -1 past the end of each run in
    a per-row difference array; one cumulative sum along the rows turns it
    into push counts (the summed-area idea, Crow, SIGGRAPH 1984).  Each
    torus has ``reach`` rows and columns of margin on each side, plus a
    column for the ends, so no push wraps: the margins then fold back onto
    the rows and columns across the same torus, the rows before the sum and
    the columns after.
    """
    dx, dy, length = _row_runs(np.ascontiguousarray(offs, dtype=np.int64).tobytes())
    reach = int(np.abs(offs).max(initial=0))
    rows, line = width + 2 * reach, height + 2 * reach + 1
    off = (dx + reach) * line + dy + reach
    cells = tori * rows * line

    def push(front, counts):
        fx, fy = np.divmod(front, height)
        if tori > 1:
            fx += fx // width * (2 * reach)  # the margins of the tori before
        start = np.add.outer(fx * line + fy, off)
        diff = np.bincount(start.ravel(), minlength=cells)
        start += length
        diff -= np.bincount(start.ravel(), minlength=cells)
        diff = diff.reshape(tori, rows, line)
        diff[:, width:width + reach] += diff[:, :reach]
        diff[:, reach:2 * reach] += diff[:, width + reach:]
        grid = diff[:, reach:width + reach]
        np.cumsum(grid, axis=2, out=grid)
        grid[:, :, height:height + reach] += grid[:, :, :reach]
        grid[:, :, reach:2 * reach] += grid[:, :, height + reach:-1]
        counts.reshape(tori, width, height)[:] += grid[:, :, reach:height + reach]

    return push


def _gather_tables(width: int, height: int, key: bytes, tori: int = 1):
    """The sparse branch's gather tables on ``tori`` width x height tori
    stacked along x: ``rowtab[t * width + x, i] = (t * width + (x - kx) mod
    width) * height`` and ``coltab[y, i] = (y - ky) mod height`` for the
    i-th offset (kx, ky), so the sites front site (t * width + x, y) pushes
    are ``rowtab[t * width + x] + coltab[y]``, all in its own torus t.
    ``key`` holds the offsets' int64 bytes, in (kx, ky) pairs.  int32 while
    the indices fit, read-only: the callers below cache them.

    The pair takes (tori * width + height) * |K*| * 4 bytes: 12 KB for
    square at n = 384, 3.7 MB for lp p = 2, s = 24 at n = 256 and 29 MB at
    n = 2048.
    """
    itype = np.int32 if tori * width * height < 1 << 31 else np.int64
    kx, ky = np.frombuffer(key, dtype=np.int64).reshape(-1, 2).astype(itype).T
    rowtab = np.arange(width, dtype=itype)[:, None] - kx
    rowtab %= width
    rowtab = rowtab + np.arange(0, tori * width, width, dtype=itype)[:, None, None]
    rowtab = rowtab.reshape(tori * width, -1) * height
    coltab = np.arange(height, dtype=itype)[:, None] - ky
    coltab %= height
    rowtab.flags.writeable = coltab.flags.writeable = False  # shared by every caller
    return rowtab, coltab


# Pairs of at most _SMALL_GATHER_ENTRIES entries (1 MiB) are cached 32 at a
# time, enough for the grids a mix of small closures cycles through; of the
# larger ones only the latest is kept, so the tables pin at most 32 MiB plus
# the largest pair in use, and a ladder of n for one large lp ball keeps one
# size at a time.  Building the pair costs about 4 ns per entry, so the
# cache matters where a call makes few pushes: small closures, and the runs
# of one sweep on one grid.
_SMALL_GATHER_ENTRIES = 1 << 18
_small_gather_tables = functools.lru_cache(maxsize=32)(_gather_tables)
_large_gather_tables = functools.lru_cache(maxsize=1)(_gather_tables)


# A done site holds DONE: "done" is ``counts < 0``.  A site x is pushed
# once by each of its |K*| pushers x + k, and once by itself in the dense
# branch's row runs, so between two restores it gets at most |K*| + 1
# pushes, and once done its count stays negative.
DONE = -(1 << 30)


def grid_step(width: int, height: int, offs: np.ndarray, r: int, tori: int = 1) -> Callable:
    """One round of the counter-push cascade of threshold ``r`` on ``tori``
    width x height tori stacked along x, with site (x, y) of torus t at
    index (t * width + x) * height + y, where each front site y pushes
    y - k for each offset k, wrapped within its own torus.

    ``step(counts, front)`` pushes ``front``, whose sites are already done,
    and returns the sites whose count crosses r, in strictly increasing
    order, without marking them done.  ``counts`` is a flat int32 array over
    the sites, updated in place, and the only state: a done site holds DONE,
    so "done" is ``counts < 0``.

    Each round takes the cheaper of two branches with the same result, by
    the cost rule above, over the cells of all the tori.  The sparse one
    costs about front * |K*| pushed targets: it lists each push, as int32
    while the indices fit, by two row gathers from the per-axis tables of
    _gather_tables and one sum, whatever |K*|; adds them all with one
    np.add.at; takes the pushed sites now at r or more; and sorts only
    those, to list each once.  It reads the flat array with take and
    compress, each one call with less overhead than the fancy indexing it
    replaces.  The dense one costs about 1.1 targets per site of the grid
    and a fixed 512: it counts the pushes per row run with a difference
    array and one cumulative sum, and takes the sites at r or more.  Its
    row runs are fetched on the first round that takes it, so a call whose
    fronts stay small pays only one product and comparison of integers per
    round.  Both add pushes onto done sites too, which leave them below
    zero (see DONE); dropping them first costs a take and a compress over
    every push, and made square and square4 sweeps 5-7% slower.

    The round relies on one invariant: no site that is not done holds r or
    more counts, apart from those ``front`` pushes to r.  Each round keeps
    it for the next, because every site its pushes lift to r joins the
    next front.  So a site crosses r exactly when its count reaches r, and
    the dense branch's test of the whole grid finds the same sites as the
    sparse branch's test of those pushed.
    """
    key = np.ascontiguousarray(offs, dtype=np.int64).tobytes()
    nk = len(offs)
    small = (tori * width + height) * nk <= _SMALL_GATHER_ENTRIES
    tables = _small_gather_tables if small else _large_gather_tables
    rowtab, coltab = tables(width, height, key, tori)
    dense_at = int(_DENSE_CELL_COST * tori * width * height) + _DENSE_ROUND_COST
    dense = None

    def step(counts, front):
        nonlocal dense
        if front.size * nk > dense_at:
            if dense is None:
                dense = _row_run_push(width, height, offs, tori)
            dense(front, counts)
            return np.flatnonzero(counts >= r)
        fx, fy = np.divmod(front, height)
        hit = (rowtab.take(fx, axis=0) + coltab.take(fy, axis=0)).ravel()
        # np.int32, not 1: a Python int sends ufunc.at down its slow generic
        # path, 13-15 times slower (44 against 3.5 us for 600 pushes, numpy
        # 2.4.6; BENCH_one_state_array.json, "add_at")
        np.add.at(counts, hit, np.int32(1))
        new = hit.compress(counts.take(hit) >= r)
        if new.size > 1:  # a site pushed to r more than once is listed once
            new.sort()
            first = np.empty(new.size, dtype=bool)
            first[0] = True
            np.not_equal(new[1:], new[:-1], out=first[1:])
            new = new.compress(first)
        return new

    return step


def closure(
    domain: Domain,
    nbhd: Neighbourhood,
    initial: Iterable[Site],
    region: Optional[Iterable[Site]] = None,
) -> Configuration:
    """Least fixed point of the threshold rule, with generation times.

    ``region``, if given, limits which sites may become infected; initial
    sites outside it stay infected and still push.  A box is padded by the
    offsets' reach with sites that start done, like the initial and frozen
    sites and those outside ``region``, so pushes leaving it infect nothing.
    """
    domain.validate_for(nbhd)
    cfg = Configuration.initial(domain, initial)
    allowed = None if region is None else _inside(domain, region, "region")
    offs = offsets_array(nbhd)
    xmin, ymin, xmax, ymax = domain.bounds
    pad = 0 if domain.kind == "torus" else nbhd.reach
    width, height = xmax - xmin + 1 + 2 * pad, ymax - ymin + 1 + 2 * pad

    def index(sites, what):
        # numpy infers the dtype of the flat coordinates (an empty set's is float64)
        xy = np.array([c for site in sites for c in site])
        if xy.size and xy.dtype.kind not in "iu":
            bad = [s for s in sites if not (_integer(s[0]) and _integer(s[1]))]
            raise ValueError(f"{what} sites must be integers, got {bad[:5]}")
        xy = xy.astype(np.int64, copy=False)
        return (xy[0::2] + pad - xmin) * height + (xy[1::2] + pad - ymin)

    if allowed is None and not pad:  # the whole torus
        counts = np.zeros(width * height, dtype=np.int32)
    else:
        counts = np.full(width * height, DONE, dtype=np.int32)  # the padding stays done
        if allowed is None:
            counts.reshape(width, height)[pad:width - pad, pad:height - pad] = 0
        else:
            counts[index(allowed, "region")] = 0
    front = index(cfg.times, "initial and frozen")
    counts[front] = DONE
    step = grid_step(width, height, offs, nbhd.threshold)
    new = []  # each round's newly infected sites
    while front.size:
        front = step(counts, front)
        if front.size:
            counts.put(front, DONE)
            new.append(front)
    if not new:
        return cfg
    xs, ys = np.divmod(np.concatenate(new), height)
    sites = zip((xs + xmin - pad).tolist(), (ys + ymin - pad).tolist())
    gens = np.repeat(np.arange(1, len(new) + 1), [f.size for f in new]).tolist()
    times = dict(cfg.times)
    times.update(zip(sites, gens))
    return Configuration(domain, times)


# ---------------------------------------------------------------------------
# Synchronous engine (numpy)
# ---------------------------------------------------------------------------


def _to_grid(domain: Domain, sites: Iterable[Site], what: str) -> np.ndarray:
    xmin, ymin, xmax, ymax = domain.bounds
    g = np.zeros((xmax - xmin + 1, ymax - ymin + 1), dtype=bool)
    what = f"{what} site coordinate"
    for (x, y) in sites:
        g[_int(x, what) - xmin, _int(y, what) - ymin] = True
    return g


def _from_grid(domain: Domain, grid: np.ndarray) -> frozenset:
    xmin, ymin, _, _ = domain.bounds
    xs, ys = np.nonzero(grid)
    return frozenset(zip((xs + xmin).tolist(), (ys + ymin).tolist()))


def _neighbour_counts(domain: Domain, nbhd: Neighbourhood, grid: np.ndarray) -> np.ndarray:
    offsets = [o for o in nbhd.offsets if o != (0, 0)]
    counts = np.zeros(grid.shape, dtype=np.int32)
    if domain.kind == "torus":
        for (kx, ky) in offsets:
            counts += np.roll(grid, (-kx, -ky), axis=(0, 1))
    else:
        R = nbhd.radius_ceil
        W, H = grid.shape
        padded = np.zeros((W + 2 * R, H + 2 * R), dtype=np.int32)
        padded[R : R + W, R : R + H] = grid
        for (kx, ky) in offsets:
            counts += padded[R + kx : R + kx + W, R + ky : R + ky + H]
    return counts


def _ready(domain: Domain, nbhd: Neighbourhood, grid: np.ndarray) -> np.ndarray:
    """The healthy sites of ``grid`` with at least r infected neighbours."""
    return (_neighbour_counts(domain, nbhd, grid) >= nbhd.threshold) & ~grid


def closure_synchronous(
    domain: Domain,
    nbhd: Neighbourhood,
    initial: Iterable[Site],
    region: Optional[Iterable[Site]] = None,
) -> Configuration:
    """Iterated synchronous fixed point; vectorised, same contract as closure()."""
    domain.validate_for(nbhd)
    cfg = Configuration.initial(domain, initial)
    grid = _to_grid(domain, cfg.times, "initial and frozen")
    allowed = None if region is None else _inside(domain, region, "region")
    mask = None if allowed is None else _to_grid(domain, allowed, "region")
    times = dict(cfg.times)
    g = 0
    while True:
        new = _ready(domain, nbhd, grid)
        if mask is not None:
            new &= mask
        if not new.any():
            break
        g += 1
        times.update(dict.fromkeys(_from_grid(domain, new), g))
        grid |= new
    return Configuration(domain, times)


def is_closed(cfg: Configuration, nbhd: Neighbourhood) -> bool:
    return not _ready(cfg.domain, nbhd, _to_grid(cfg.domain, cfg.times, "infected")).any()


# ---------------------------------------------------------------------------
# Infection graph and the good-vertex diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfectionGraph:
    """r chosen parents per infected non-initial vertex, plus the 0.9r test."""

    edges: dict  # v -> tuple of r selected in-neighbours
    out_degree: dict  # u -> number of vertices that selected u
    good: dict  # v in closure minus initial -> bool
    rule: str

    @property
    def good_count(self) -> int:
        return sum(1 for v in self.good.values() if v)


def infection_graph(
    cfg: Configuration,
    nbhd: Neighbourhood,
    rule: str = "lex",
    seed: int = 0,
) -> InfectionGraph:
    """Build the parent-selection graph from a closure's generation times.

    rule "lex": among strictly-earlier infected neighbours, prefer earlier
    generation, then lexicographically smaller offset.  rule "random": a
    seeded uniform choice of r of them.
    """
    if not is_closed(cfg, nbhd):
        raise ValueError("configuration is not closed")
    if rule not in ("lex", "random"):
        raise ValueError(f"unknown selection rule {rule!r}")
    import random as _random

    rng = _random.Random(seed)
    r = nbhd.threshold
    offsets = sorted(o for o in nbhd.offsets if o != (0, 0))
    wrap = cfg.domain.wrap
    edges = {}
    out_degree = {}
    good = {}
    for v in cfg.infected:
        tv = cfg.times[v]
        if tv == 0:
            continue
        cands = []
        for k in offsets:
            u = wrap(v[0] + k[0], v[1] + k[1])
            if u is not None and u in cfg.infected and cfg.times[u] < tv:
                cands.append((cfg.times[u], k, u))
        if len(cands) < r:
            raise ValueError(f"site {v} has only {len(cands)} earlier-infected "
                             "neighbours; generation times are corrupt")
        if rule == "lex":
            cands.sort()
            chosen = [u for _, _, u in cands[:r]]
        else:
            chosen = [u for _, _, u in rng.sample(cands, r)]
        edges[v] = tuple(chosen)
        for u in chosen:
            out_degree[u] = out_degree.get(u, 0) + 1
    bar = math.ceil(0.9 * r)
    for v in cfg.infected:
        if cfg.times[v] > 0:
            good[v] = out_degree.get(v, 0) >= bar
    return InfectionGraph(edges, out_degree, good, rule)


# ---------------------------------------------------------------------------
# Grid text format
# ---------------------------------------------------------------------------


def to_grid_text(cfg: Configuration) -> str:
    """Rows of '.', '#', 'F' (healthy / infected / frozen), top row = max y."""
    xmin, ymin, xmax, ymax = cfg.domain.bounds
    rows = []
    for y in range(ymax, ymin - 1, -1):
        row = []
        for x in range(xmin, xmax + 1):
            s = (x, y)
            if s in cfg.domain.frozen:
                row.append("F")
            elif s in cfg.times:
                row.append("#")
            else:
                row.append(".")
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


def parse_grid_text(text: str, origin: Site = (0, 0)) -> tuple[list, list]:
    """Inverse of to_grid_text: returns (infected, frozen) site lists.

    ``origin`` is the (x, y) of the bottom-left character.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return [], []
    width = len(lines[0])
    if any(len(ln) != width for ln in lines):
        raise ValueError("grid rows have unequal length")
    ox, oy = origin
    infected, frozen = [], []
    height = len(lines)
    for row, line in enumerate(lines):
        y = oy + (height - 1 - row)
        for col, ch in enumerate(line):
            x = ox + col
            if ch == "#":
                infected.append((x, y))
            elif ch == "F":
                frozen.append((x, y))
            elif ch != ".":
                raise ValueError(f"unexpected grid character {ch!r}")
    return infected, frozen
