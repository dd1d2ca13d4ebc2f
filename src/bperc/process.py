"""Random-permutation arrival process on the torus.

Sites arrive in the order of a uniformly random permutation; the running
infected set is maintained incrementally (monotonicity makes it equal to the
closure of the arrived set at every step).  tau is the first arrival count
whose closure is the full torus; closure_before is the infected count just
before that arrival.

The cascade has one arrival loop (``_run_batched``) on one ``_Torus``
state: arrivals go in batches of n as fronts of the generation round
that ``dynamics.grid_step`` builds, with a checkpoint per batch, resting on
the state after any prefix of the arrivals being the closure of that prefix.
A batch that crosses its cap is undone and searched for the arrival that
crosses it, in one of two ways with the same result: small neighbourhoods
replay its arrivals one at a time as scalar cascades (``_replay``); from
_BATCHED_MIN_OFFSETS nonzero offsets on, it is bisected (``_bisect``).

Runs advance in chunks (``_lockstep``).  The tori of a chunk's runs lie side
by side in one flat int32 array of counters, where a done site holds
``dynamics.DONE``.  The loop is a generator that hands every cascade it
needs grown to one driver: each batch, each bisection probe, a replayed
cascade that outgrows n sites and the final fill.  The driver advances
all of them one generation round at a time, so a round's fixed cost of
numpy calls is paid once for the chunk, not once per run (iteration-level
batching; Yu et al., Orca, OSDI 2022).  ``run_once`` is a chunk of one;
``run_sweep`` cuts each (model, n) group into chunks of consecutive runs
and maps them over one pool of worker processes.

PRNG contract (frozen under schema_version 1):

* stream generator: xoshiro256** — state s[0..3]; next() returns
  rotl64(s[1] * 5, 7) * 9, then updates
  t = s[1] << 17; s[2] ^= s[0]; s[3] ^= s[1]; s[1] ^= s[2]; s[0] ^= s[3];
  s[2] ^= t; s[3] = rotl64(s[3], 45).  All arithmetic mod 2^64.
* seeding: s[0..3] are four successive outputs of SplitMix64 started at the
  64-bit seed.  SplitMix64: z += 0x9E3779B97F4A7C15; r = z;
  r = (r ^ (r >> 30)) * 0xBF58476D1CE4E5B9;
  r = (r ^ (r >> 27)) * 0x94D049BB133111EB; return r ^ (r >> 31).
* bounded draw below n: rejection with limit = (2^64 // n) * n, result
  r % n for the first raw draw r < limit.
* permutation: Fisher-Yates over sites in row-major order (index x*n + y),
  swapping index i with a bounded draw below i+1, for i = n^2-1 down to 1.
* per-run seeds in sweeps: one SplitMix64 output of (master_seed XOR
  run_index), run_index enumerating the model/n/seed grid row-major.

The contract is this scalar definition; the test suite keeps it as a literal
loop (``Xoshiro256StarStar`` in tests/test_process.py) and checks the engine
against it.  The engine produces the same stream faster: K lanes start 2^m
steps apart (jump-ahead by powers of the GF(2) transition matrix, Blackman &
Vigna, ACM TOMS 2021), are stepped together as uint64 vectors and
concatenated into the first K * 2^m raw outputs.  Each power T^(2^j) is a
cached table of 64 x 16 nibble images (32 KiB), built from the one before on
first use; a jump is 64 table lookups XORed together, done for a whole array
of states at once, and the lane starts come by doubling: lanes [h, 2h) are
lanes [0, h) moved on by T^(h 2^m).  The draws are mapped as vectors, only
raw >= 2^64 - n^2 are checked for rejection one by one, and a rejection
shifts the later draws along the stream; the lanes' outputs are the scalar
stream in order whatever their count, so when the rejections use up the
spare outputs the draws are taken again from a longer prefix.  The swaps are
not replayed one by one either, and a run solves only the prefix of the
permutation its loop reads (``_Arrivals``): tau is 3-5% of n^2 on the
square torus.  The steps that draw below a prefix's end, sorted by (draw,
step), give each of its positions the last step to move a value there, and
the value follows from a table of the first step to draw each value (the
order drawn lazily, as Newman & Ziff, PRL 85, 4104, 2000, draw theirs).
``random_permutation`` walks the runs' blocks (n^2/16, then doubling) to the end.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import statistics
import time
from concurrent import futures
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .dynamics import DONE, Domain, _integer, grid_step, offsets_array
from .geometry import Neighbourhood

SCHEMA_VERSION = 1

_MASK = (1 << 64) - 1


def _seed64(value, name: str) -> int:
    """``value`` as a 64-bit seed: an integer in [0, 2^64), else ValueError."""
    if _integer(value) and 0 <= value <= _MASK:
        return int(value)
    raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")


def _items(value) -> int:
    """``value`` as a permutation size: an integer in [0, 2^31), the indices
    the solver's int32 arrays hold, else ValueError."""
    if _integer(value) and 0 <= value < 1 << 31:
        return int(value)
    raise ValueError(f"n_items must be a nonnegative integer below 2^31, got {value!r}")


def _side(value, nbhd: Neighbourhood) -> int:
    """``value`` as the side n of a torus for ``nbhd``: an integer with
    n^2 < 2^31 (n <= 46340) that Domain.validate_for accepts, else
    ValueError."""
    if not _integer(value) or value * value >= 1 << 31:
        raise ValueError(f"n must be an integer in [1, 46340], got {value!r}")
    Domain.torus(value).validate_for(nbhd)
    return int(value)


def _rejects(r: int, b: int) -> bool:
    """Whether raw draw ``r`` is rejected by the bounded draw below ``b``.

    The frozen rule accepts r < (2^64 // b) * b = 2^64 - rem, where
    rem = 2^64 mod b = (last + 1) mod b and last = (2^64 - 1) mod b; nothing
    is rejected when b is a power of two.
    """
    last = _MASK % b
    return last != b - 1 and r >= _MASK - last


# ---------------------------------------------------------------------------
# Seeding: SplitMix64
# ---------------------------------------------------------------------------


def splitmix64(state: int):
    """One SplitMix64 step: returns (output, new_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    r = state
    r = ((r ^ (r >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    r = ((r ^ (r >> 27)) * 0x94D049BB133111EB) & _MASK
    return (r ^ (r >> 31)), state


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """The v1 seed of run ``run_index``: SplitMix64(master_seed XOR index).

    The XOR lets streams of different master seeds collide: sweeps with
    master seeds m and m' repeat a run whenever m ^ i == m' ^ j, so
    ``derive_run_seed(0, 1) == derive_run_seed(1, 0)``.  The v1 stream stays
    frozen; collision-free streams need a new schema version."""
    out, _ = splitmix64((master_seed ^ run_index) & _MASK)
    return out


# ---------------------------------------------------------------------------
# The v1 stream in lanes: GF(2) jump-ahead
# ---------------------------------------------------------------------------
#
# The xoshiro256** transition T is linear over GF(2) on the 256-bit state
# whose bit 64 w + b is bit b of s[w].  A power of T is kept as a nibble
# table: the 256 bits fall into 64 chunks of four, and row [c, v] is the
# image of the nibble v placed in chunk c, so a product is 64 row lookups
# XORed together, done for many states at once.  Lane k starts 2^m steps
# after lane k - 1, so stepping K lanes together for 2^m steps yields the
# first K * 2^m outputs of the scalar stream.


def _step(s0, s1, s2, s3, t) -> None:
    """One xoshiro256** transition of every lane, in place; ``t`` is scratch."""
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64).reshape(1, 16, 1)
_CHUNK_ROWS = np.arange(0, 64 * 16, 16, dtype=np.intp).reshape(64, 1)


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The tabled matrix times each column of the (4, k) uint64 ``states``.

    Returns a (4, k) array.  Chunk c = 16 w + q holds bits 4q..4q+3 of word
    w, so a product is the XOR of the 64 rows [c, nibble c] of the table.
    """
    idx = ((states[:, None, :] >> _NIBBLE_SHIFTS) & np.uint64(15)).reshape(64, -1)
    idx = idx.astype(np.intp)
    idx += _CHUNK_ROWS
    return np.bitwise_xor.reduce(table.reshape(1024, 4)[idx], axis=0).T


def _nibble_table(cols: np.ndarray) -> np.ndarray:
    """(64, 16, 4) table of a matrix given as its (256, 4) columns: entry
    [c, v] is the XOR of the columns 4c + b for the bits b set in v."""
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    quads = cols.reshape(64, 4, 4)
    for b in range(4):
        np.bitwise_xor(table[:, : 1 << b], quads[:, b, None], out=table[:, 1 << b: 2 << b])
    table.flags.writeable = False  # cached and shared by every later jump
    return table


@functools.lru_cache(maxsize=None)
def _jump_table(m: int) -> np.ndarray:
    """The nibble table of T^(2^m), T the one-step transition (32 KiB).

    T's columns are one step of the 256 unit states; T^(2^m) is T^(2^(m-1))
    applied to its own columns, which are the table rows of single bits.
    """
    if m == 0:
        bit = np.arange(256)
        unit = np.zeros((4, 256), dtype=np.uint64)
        unit[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
        _step(*unit, np.empty(256, dtype=np.uint64))
        return _nibble_table(unit.T)
    half = _jump_table(m - 1)
    return _nibble_table(_jump(half, half[:, [1, 2, 4, 8]].reshape(256, 4).T).T)


_SCRAMBLE_BLOCK = 1 << 14  # raw outputs scrambled at a time: 128 KiB
_JUMP_BLOCK = 256  # lane starts jumped at a time: 512 KiB of table rows


def _lane_starts(state: Sequence[int], m: int, lanes: int) -> np.ndarray:
    """The states k * 2^m steps after ``state``, k < lanes, as (4, lanes).

    Lanes [h, 2h), h = 2^j, are lanes [0, h) moved on by T^(2^(m + j)), so
    every start comes from log2(lanes) table products over many lanes.
    """
    starts = np.empty((4, lanes), dtype=np.uint64)
    starts[:, 0] = state
    h, j = 1, 0
    while h < lanes:
        table = _jump_table(m + j)
        top = min(2 * h, lanes)
        for b in range(h, top, _JUMP_BLOCK):
            e = min(b + _JUMP_BLOCK, top)
            starts[:, b:e] = _jump(table, starts[:, b - h:e - h])
        h, j = top, j + 1
    return starts


def _lane_stream(seed: int, n_raw: int) -> np.ndarray:
    """The first K * 2^m >= n_raw raw outputs of the seed's stream, in
    stream order, as a uint64 array."""
    state, z = [], seed & _MASK
    for _ in range(4):
        out, z = splitmix64(z)
        state.append(out)
    # A lane step is ten numpy calls and a lane start a share of one table
    # product; lanes of about sqrt(n_raw) / 2 steps were the fastest at
    # n_raw = 192^2 to 2048^2.
    m = max(0, (math.isqrt(n_raw) // 2).bit_length() - 1)
    steps = 1 << m
    lanes = max(1, -(-n_raw // steps))
    s0, s1, s2, s3 = _lane_starts(state, m, lanes)
    t = np.empty(lanes, dtype=np.uint64)
    raw = np.empty((lanes, steps), dtype=np.uint64)
    for j in range(steps):
        raw[:, j] = s1
        _step(s0, s1, s2, s3, t)
    raw = raw.reshape(-1)
    # the ** scrambler, rotl(s1 * 5, 7) * 9, a block at a time: the rotate's
    # carried-out bits then need one block-sized array, not a second stream
    carry = np.empty(min(raw.size, _SCRAMBLE_BLOCK), dtype=np.uint64)
    for b in range(0, raw.size, _SCRAMBLE_BLOCK):
        block = raw[b:b + _SCRAMBLE_BLOCK]
        hi = carry[:block.size]
        block *= 5
        np.right_shift(block, 57, out=hi)
        block <<= 7
        block |= hi
        block *= 9
    return raw


def _bounded_draws(raw: np.ndarray, top: int, count: int) -> Optional[np.ndarray]:
    """The first ``count`` bounded draws below top, top - 1, ... from the
    uint64 raw stream ``raw``, or None when ``raw`` is too short for them.

    A rejected raw draw shifts every later draw one place down the stream:
    the output at j, after ``rejected`` rejections, is draw j - rejected.
    Only raw >= 2^64 - top can be rejected, so only those are checked one by
    one; a real rejection has probability below top / 2^64 per draw.
    """
    rejected = []
    for j in np.flatnonzero(raw > _MASK - top).tolist():
        d = j - len(rejected)
        if d >= count:
            break
        if _rejects(int(raw[j]), top - d):
            rejected.append(j)
    if rejected:
        raw = np.delete(raw, rejected)
    if raw.size < count:
        return None
    draws = np.arange(top, top - count, -1, dtype=np.uint64)
    np.remainder(raw[:count], draws, out=draws)
    return draws.view(np.int64)


def _swap_draws(n_items: int, seed: int) -> np.ndarray:
    """The bounded draws of the v1 shuffle of 0..n_items-1, n_items >= 2.

    Element j is the draw of step n_items - 1 - j, a bound of n_items - j.
    """
    n_raw = n_items - 1
    while True:
        raw = _lane_stream(seed, n_raw)
        draws = _bounded_draws(raw, n_items, n_items - 1)
        if draws is not None:
            return draws
        n_raw = raw.size + 1  # the rejections used up the spare outputs


# ---------------------------------------------------------------------------
# The permutation, solved a prefix at a time
# ---------------------------------------------------------------------------
#
# Step i (n_items - 1 down to 1) swaps positions i and d_i <= i, so position
# i is final after step i and keeps the value step i finds at d_i.  Among
# the steps that ran before (those above i), the last to write there is
# nw(i), the smallest step above i with the same draw; with no such step the
# value is d_i itself.  The value step k finds at its own position, W(k), is
# W(succ(k)) for succ(k) the smallest step above k that drew k, and k when
# there is none.  Position 0 acts as a step 0 that draws 0.  So
# perm[i] = W(nw(i)) when nw(i) exists, else d_i.
#
# Every step below hi draws below hi, so the steps that position i < hi
# needs, i and nw(i), are among the steps that draw below hi.  Sorting the
# steps of a range of draws by (draw, step) puts each one's nw right after
# it, and W only climbs succ, a table of every value built once per run,
# along short chains.  So a prefix costs the draws and succ, O(n_items)
# numpy work once, plus work in proportion to the steps that draw below its
# end, each sorted once: its nw is kept in place of its draw.

def _chain_ends(succ, w):
    """W(k) for each step k of the int array ``w``, in place: succ followed
    from k while it rises.  A chain from a random k rises about once, the
    longest 17 to 19 times from n_items = 384^2 to 2048^2."""
    cur, live = w, None  # live: the entries of w that cur still follows
    while cur.size:
        nxt = succ.take(cur)
        up = np.flatnonzero(nxt > cur)
        live = up if live is None else live.take(up)
        cur = nxt.take(up)
        w.put(live, cur)
    return w


class _Arrivals:
    """One run's arrival order, the v1 permutation, solved on demand.

    ``perm[:solved]`` is solved; ``need(hi)`` extends it to hi or more, in
    blocks that double (from n_items / 16).  ``seconds`` is all the time
    spent drawing and solving, and ``release()`` drops the arrays once the
    run is over.  The state is the draws and succ, int32 each, plus perm, as
    long as the solved prefix; a block adds work arrays for its steps, at
    most about n_items / 4 (for [n_items / 4, n_items / 2)), or for
    n_items / 16 positions.  So a run at 1/16 of n_items holds about as
    much as a whole permutation; the whole solve peaks at 20 bytes an entry:
    draws, succ and the last two perms.
    """

    def __init__(self, n_items: int, seed: int):
        n_items = _items(n_items)
        start = time.perf_counter()
        self.n_items = n_items
        if n_items < 2:
            self.perm, self.solved = np.arange(n_items, dtype=np.int64), n_items
        else:
            m = n_items - 1
            draws = _swap_draws(n_items, seed)
            draw = np.empty(n_items, dtype=np.int32)  # element j: the draw of step m - j
            draw[:m] = draws
            draw[m] = 0  # position 0 as a step 0 that draws 0
            del draws
            # succ[v]: the first step that drew v, or 0 for none; that is v
            # itself when step v drew v, but W(v) is then never needed: nw(i)
            # = v would need d_i = v > i, and succ(j) = v would need d_v = j.
            # The minimum runs on step - 1 as uint32, so step 0 (-1) and no
            # step (the fill, 2^32 - 1) are the largest and wrap back to 0.
            succ = np.full(n_items, -1, dtype=np.int32).view(np.uint32)
            np.minimum.at(succ, draw, np.arange(m - 1, -2, -1, dtype=np.int32).view(np.uint32))
            succ += np.uint32(1)
            self._draw, self._succ = draw, succ.view(np.int32)
            self.perm, self.solved = np.empty(0, dtype=np.int64), 0
        self.seconds = time.perf_counter() - start

    @classmethod
    def given(cls, perm: np.ndarray, seconds: float) -> "_Arrivals":
        """An arrival order that is already solved: an injected permutation
        and the ``seconds`` its check took."""
        self = cls.__new__(cls)
        self.n_items = self.solved = perm.size
        self.perm, self.seconds = perm, seconds
        return self

    def need(self, hi: int) -> np.ndarray:
        """perm, solved at least up to min(hi, n_items) in the one schedule of
        blocks: [0, max(1, n_items // 16)), then doubling, cut at n_items."""
        hi = min(hi, self.n_items)
        if hi > self.solved:
            start = time.perf_counter()
            while self.solved < hi:
                top = min(self.n_items, max(1, self.n_items // 16, 2 * self.solved))
                self._solve(self.solved, top)
                self.solved = top
            self.seconds += time.perf_counter() - start
        return self.perm

    def release(self) -> None:
        self.perm = self._draw = self._succ = None

    def _solve(self, lo: int, hi: int) -> None:
        """Solves perm[lo:hi], perm[:lo] being solved; perm, as long as the
        solved prefix, moves to a new array of hi entries.

        The steps that draw in [lo, hi) are packed as draw << bits | step in
        an int64 and sorted: each draw's steps then follow in increasing
        order.  A step with a next one, its nw, gets -1 - nw in place of its
        draw, which no later block selects.  Then position i holds
        -1 - nw(i) or d_i, so the solved block is a slice of the draws,
        reversed, with the chains followed from the nw, n_items / 16
        positions at a time."""
        m = self.n_items - 1
        bits = m.bit_length()
        draw = self._draw
        steps = draw[:self.n_items - lo]  # only steps from lo up draw from lo up
        key = np.flatnonzero((steps >= lo) & (steps < hi) if lo else steps < hi)
        step = m - key.astype(np.int32)
        np.left_shift(steps.take(key), bits, out=key, dtype=np.int64)
        key |= step
        key.sort()
        np.bitwise_and(key, (1 << bits) - 1, out=step, casting="unsafe")
        key >>= bits
        nw = key[1:] == key[:-1]  # the entry's draw has a next step
        del key
        at, nxt = step[:-1].compress(nw), step[1:].compress(nw)
        del step, nw
        np.subtract(m, at, out=at)
        np.subtract(-1, nxt, out=nxt)
        draw[at] = nxt
        del at, nxt
        perm = np.empty(hi, dtype=np.int64)
        perm[:lo] = self.perm
        self.perm = perm
        for p in range(lo, hi, max(1, self.n_items // 16)):
            q = min(p + max(1, self.n_items // 16), hi)
            code = draw[m + 1 - q:m + 1 - p][::-1]  # positions p .. q - 1
            chained = code < 0
            nw = code.compress(chained)
            np.subtract(-1, nw, out=nw)
            block = perm[p:q]
            block[:] = code
            block[chained] = _chain_ends(self._succ, nw)
            del chained, nw


def random_permutation(n_items: int, seed: int) -> np.ndarray:
    """Seeded Fisher-Yates permutation of 0..n_items-1 (the v1 stream).

    Same result as the scalar loop the module docstring defines: the raw
    stream comes from jump-ahead lanes, the draws are mapped as vectors and
    the swaps are solved in the runs' blocks by their solver, _Arrivals.
    n_items must be an integer in [0, 2^31) (a torus side up to 46340), and
    seed one in [0, 2^64).
    """
    return _Arrivals(n_items, _seed64(seed, "seed")).need(n_items)


def arrival_prefix(n_items: int, seed: int, k: int) -> np.ndarray:
    """The first k entries of random_permutation(n_items, seed), solved only
    up to the end of the runs' block that holds them (a copy; k an integer
    in [0, n_items], n_items and seed as random_permutation takes them)."""
    n_items, seed = _items(n_items), _seed64(seed, "seed")
    if not (_integer(k) and 0 <= k <= n_items):
        raise ValueError(f"k must lie in [0, {n_items}] and be an integer, got {k!r}")
    return _Arrivals(n_items, seed).need(k)[:k].copy()


# ---------------------------------------------------------------------------
# The arrival cascade: batches, replayed or bisected where they cross their cap
# ---------------------------------------------------------------------------

# |K*| from which a batch that crosses its cap is bisected (_bisect) rather
# than replayed arrival by arrival (_replay).  The cascade's CPU time when
# every crossing batch is replayed, over its time when every one is
# bisected, on the same runs in the chunks a sweep makes of them (16, 16, 7
# and 1 runs; medians of 4 alternating pairs, 8 for boxtimes; 2-vCPU VM;
# BENCH_batch_replay.json, "search"):
#
#   |K*|  neighbourhood        n = 128  n = 256  n = 512  n = 1024
#      4  square                  0.82     0.74     0.64     0.75
#      6  triangular              0.78     0.89     0.85     0.90
#      8  boxtimes                0.97     1.04     0.89     0.89
#     12  lp p = 1, s = 2         1.11     1.17     1.02     0.99
#     24  lp p = 1, s = 3         1.25     1.07     1.16     1.00
#     40  square4                 1.11     1.08     1.07     0.99
#
# A replay costs Python time per arrival and per push, which grows with
# |K*|; a bisection costs rounds, which a small neighbourhood's slow-growing
# cascades make many.  At |K*| = 8 the two are about even up to n = 256,
# and the replay about 11% faster from n = 512; that margin changes sign
# with n, so boxtimes stays with the bisection.
_BATCHED_MIN_OFFSETS = 8

# A replaying batch's cap: this many times n sites beyond its new arrivals.
# The cascade's CPU time over the former scalar loop's over every arrival
# (medians of 6 alternating pairs in the chunks a sweep makes; square
# n = 384 at 2, 4 and 8 from a rerun of 8 pairs on a quiet VM;
# BENCH_batch_replay.json, "cap_multiple"):
#
#   multiple                      1      2      4      8
#   square n = 128 (16 runs)   0.92   0.82   0.77   0.80
#   square n = 384 (2 runs)    0.96   0.86   0.75   0.87
#   square n = 1024 (1 run)    0.79   0.79   0.77   0.74
#   diamond n = 255 (15 runs)  0.85   0.74   0.66   0.66
#   triangular n = 256 (16)    0.73   0.65   0.57   0.60
#
# A small cap stops batches that a few mid-sized cascades push past it,
# and each such stop is a restore and a replay; a large one lets the batch
# that holds tau grow further before it is undone.
_REPLAY_CAP_MULTIPLE = 4


def _arrival_path(offs) -> str:
    """How a batch that crosses its cap is searched, for the nonzero offsets
    ``offs``: "scalar" (replayed arrival by arrival) or "batched" (bisected)."""
    return "batched" if len(offs) >= _BATCHED_MIN_OFFSETS else "scalar"


class _Torus:
    """One run's counter-push state: ``counts``, a view of its block of a
    chunk's flat int32 array, where a done site holds dynamics.DONE, and
    ``saved``, the checkpoint copy of it, made on the first save()."""

    def __init__(self, counts):
        self.counts = counts
        self.saved = None

    def save(self):
        if self.saved is None:
            self.saved = np.empty_like(self.counts)
        np.copyto(self.saved, self.counts)

    def restore(self):
        np.copyto(self.counts, self.saved)


def _run_batched(n, r, offs, arrivals, state):
    """Arrivals in batches of n on ``state``, a loop for _lockstep; returns
    (tau, closure_before).  Each batch asks ``arrivals`` (an _Arrivals) to
    solve the permutation up to its end before it slices it.

    The infected set after any prefix of the arrivals is the closure of that
    prefix, so a batch goes in as one front of the generation step, after a
    checkpoint.  A batch whose cascade infects more sites than its cap
    beyond its own new arrivals, or fills the torus, is undone from the
    checkpoint and searched:

    * below _BATCHED_MIN_OFFSETS nonzero offsets the cap is
      _REPLAY_CAP_MULTIPLE * n, and _replay runs the batch's arrivals one at
      a time, up to the first whose cascade outgrows n sites or fills the
      torus;
    * from there on the cap is n, and _bisect finds the first arrival t
      whose prefix crosses it; t's cascade then runs to the end.

    Either way tau is that arrival's index + 1 if it fills the torus, and
    otherwise the batches go on from the arrival after it.  So a large
    cascade runs in full once; a crossing batch or probe stops as soon as
    it passes its cap.
    """
    n2 = n * n
    replay = _arrival_path(offs) == "scalar"
    multiple = _REPLAY_CAP_MULTIPLE if replay else 1
    num = 0  # infected sites: the closure of perm[:lo]
    lo = 0
    while lo < n2:
        hi = min(lo + n, n2)
        perm = arrivals.need(hi)
        batch = perm[lo:hi]
        new = int(np.count_nonzero(state.counts.take(batch) >= 0))
        cap = min(multiple * n + new, n2 - num - 1)
        state.save()
        added = yield batch, cap
        if added <= cap:
            num += added
            lo = hi
            continue
        state.restore()
        if replay:
            lo, before, num = yield from _replay(n, r, offs, state, perm, lo, hi, num)
        else:
            t, added = yield from _bisect(state, perm, lo, hi, cap)
            before = num + added
            num = before + (yield perm[t:t + 1], n2)
            lo = t + 1
        if num == n2:
            return lo, before
    raise AssertionError(f"all {n2} arrivals infected only {num} sites")


def _replay(n, r, offs, state, perm, lo, hi, num):
    """The arrivals perm[lo:hi] one at a time on ``state``, the closure of
    perm[:lo] with ``num`` sites; a search for _run_batched.  Returns (end,
    before, num): the closure of perm[:end] is in place, with ``num``
    sites, ``before`` of them before arrival end - 1.  It stops after the
    first arrival whose cascade fills the torus or outgrows n sites, or at
    hi.

    Each cascade runs as a scalar loop over a memoryview of
    ``state.counts``.  A site is done once it holds DONE, and no push lifts
    a done site to r, so ``c == r`` alone finds the sites to infect, and
    each is stacked once.  Once one arrival's cascade has infected more
    than n sites, the sites still to infect are handed to the generation
    step, with cap n^2, which finishes the cascade on the same state; the
    result is the same because the infected set after each arrival is the
    closure of the arrivals so far, whatever order the counter pushes run
    in.
    """
    n2 = n * n
    counts = memoryview(state.counts)
    offsets = [(int(a), int(b)) for a, b in offs]
    deltas = [kx * n + ky for kx, ky in offsets]
    reach = int(np.abs(offs).max(initial=0))
    inner = np.zeros((n, n), dtype=np.uint8)  # sites whose neighbours never wrap
    inner[reach:n - reach, reach:n - reach] = 1
    interior = inner.tobytes()
    stack = []  # each site at most once: it is pushed when its count reaches r
    push, pop = stack.append, stack.pop
    for end, s in enumerate(perm[lo:hi].tolist(), lo + 1):
        if counts[s] < 0:
            continue
        prev = num
        push(s)
        while stack:
            y = pop()
            if num - prev > n:
                push(y)
                num += yield np.array(stack, dtype=np.int64), n2
                return end, prev, num
            counts[y] = DONE
            num += 1
            if interior[y]:
                for d in deltas:
                    x = y - d
                    c = counts[x] + 1
                    counts[x] = c
                    if c == r:
                        push(x)
            else:
                yx, yy = divmod(y, n)
                for kx, ky in offsets:
                    x = (yx - kx) % n * n + (yy - ky) % n
                    c = counts[x] + 1
                    counts[x] = c
                    if c == r:
                        push(x)
        if num == n2:
            return end, prev, num
    return hi, num, num


def _bisect(state, perm, lo, hi, cap):
    """The first arrival t in [lo, hi) whose prefix perm[:t + 1] infects more
    than cap sites beyond the saved state, which is the closure of perm[:lo]
    and the current one; perm[:hi] is known to.  Probes run from the last
    prefix known not to, kept as the checkpoint.  Leaves the closure of
    perm[:t] and returns (t, the sites it added).
    """
    added = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        more = yield perm[lo:mid], cap - added
        if added + more > cap:
            hi = mid
            state.restore()
        else:
            added += more
            lo = mid
            state.save()
    return lo, added


def _lockstep(n, r, offs, arrivals, loop):
    """Runs ``loop`` on each _Arrivals of ``arrivals``, on one stack of n x n
    tori; returns (tau, closure_before, seconds) for each.

    ``loop(n, r, offs, arrivals, state)`` is a generator on its run's _Torus,
    such as _run_batched.  It yields grow requests (sites, cap):
    infect ``sites``, torus indices each given once, and their cascade.
    The reply is the number of sites infected; once more than ``cap`` are,
    it is some number above cap, and the torus is left in a state only the
    loop's restore() mends.  The loop returns (tau, closure_before), and
    its run's arrays are released.

    Every pending request advances in one round of the chunk's step, one
    dynamics.grid_step over all the tori, in one int32 ``counts`` array.  A
    request joins the front between rounds, shifted to its torus's block,
    without the sites already done (``counts < 0``), and its sites are
    marked done by writing DONE, as is each round's new front: the step
    leaves that to its callers.  A round's new front is in strictly
    increasing order, so one searchsorted over the block bounds gives each
    run's slice of it.  A run leaves the front once its cascade ends or
    passes its cap: a run past its cap takes its slice with it, so those
    sites push nothing, and either way its loop resumes before the next
    round.  Pushes stay in their own block, so no other torus sees the one
    left behind, and the loop's restore() mends it before it is pushed
    again.  The bookkeeping is a Python pass over the runs in the front,
    and there is none while one run is in the front.

    ``seconds`` is the time the run's own loop took plus its share of the
    set-up and of each round it was in, a round's time split evenly among
    the runs in it.  Solving the permutation inside the loop is not in it:
    that time goes to the run's _Arrivals.
    """
    start = time.perf_counter()
    k, n2 = len(arrivals), n * n
    counts = np.zeros(k * n2, dtype=np.int32)
    step = grid_step(n, n, offs, r, k)
    bounds = np.arange(0, (k + 1) * n2, n2)  # run j's block: bounds[j] to bounds[j + 1]
    runs = [loop(n, r, offs, source, _Torus(counts[j * n2:(j + 1) * n2]))
            for j, source in enumerate(arrivals)]
    out = [None] * k
    caps = [0] * k
    room = [0] * k  # while in the front: cap + 1 - the sites added so far
    active = set()  # the runs with a request in the front
    pieces = []  # the next front, in pieces
    seconds = [(time.perf_counter() - start) / k] * k
    clock = 0.0  # the rounds' time so far, each round's split among its runs
    entered = [0.0] * k  # the clock when the run's request joined

    def resume(j, reply):
        """Runs j's loop from ``reply`` to its next request that needs a
        round, and adds its sites to ``pieces``; or to its end."""
        begin = time.perf_counter()
        solving = arrivals[j].seconds
        base = j * n2
        try:
            while True:
                sites, cap = runs[j].send(reply)
                piece = sites + base if base else sites
                piece = piece.compress(counts.take(piece) >= 0)
                if 0 < piece.size <= cap:
                    break
                reply = piece.size  # nothing to push, or past the cap already
        except StopIteration as stop:
            out[j] = stop.value
            runs[j] = None
            arrivals[j].release()
        else:
            counts.put(piece, DONE)
            caps[j] = cap
            room[j] = cap + 1 - piece.size
            entered[j] = clock
            active.add(j)
            pieces.append(piece)
        seconds[j] += time.perf_counter() - begin - (arrivals[j].seconds - solving)

    for j in range(k):
        resume(j, None)
    while active:
        mark = time.perf_counter()
        front = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        if len(active) == 1:
            # one run in the front: its rounds run on until it leaves, and
            # the front, all its own, leaves with it
            (j,) = active
            left = room[j]
            while True:
                front = step(counts, front)
                if not front.size:
                    break
                counts.put(front, DONE)
                left -= front.size
                if left <= 0:
                    break
            room[j] = left
            leaving, pieces = [j], []
        else:
            leaving = []
            while not leaving:
                front = step(counts, front)
                if front.size:
                    counts.put(front, DONE)
                ends = front.searchsorted(bounds).tolist()
                for j in active:
                    size = ends[j + 1] - ends[j]
                    room[j] -= size
                    if not size or room[j] <= 0:
                        leaving.append(j)
            leaving.sort()
            pieces, at = [], 0
            for j in leaving:  # each takes its slice, empty unless past its cap
                pieces.append(front[at:ends[j]])
                at = ends[j + 1]
            pieces.append(front[at:])
        clock += (time.perf_counter() - mark) / len(active)
        active.difference_update(leaving)
        for j in leaving:
            seconds[j] += clock - entered[j]
            resume(j, caps[j] + 1 - room[j])
    return [(*out[j], seconds[j]) for j in range(k)]


# ---------------------------------------------------------------------------
# Records and the driver
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "schema_version",
    "model",
    "n",
    "seed",
    "tau",
    "closure_before",
    "jump_ratio",
    "tau_scaled",
    "wall_ms",
)


@dataclass(frozen=True)
class ProcessRecord:
    model: str
    n: int
    seed: int
    tau: int
    closure_before: int
    wall_ms: float
    perm_ms: float = 0.0  # drawing and solving (or checking an injected) permutation
    cascade_ms: float = 0.0  # the arrival loop and its share of shared rounds
    schema_version: int = SCHEMA_VERSION
    arrival_path: str = "scalar"  # crossing batches "scalar": replayed, "batched": bisected
    chunk_runs: int = 1  # the runs whose generation rounds this one shared
    arrivals_solved: int = 0  # the prefix of the permutation solved (n^2 if injected)

    @property
    def jump_ratio(self) -> float:
        return self.closure_before / self.tau

    @property
    def tau_scaled(self) -> float:
        return self.tau * math.log(self.n) / (self.n * self.n)

    def csv_row(self) -> list:
        return [
            self.schema_version,
            self.model,
            self.n,
            self.seed,
            self.tau,
            self.closure_before,
            f"{self.jump_ratio:.9g}",
            f"{self.tau_scaled:.9g}",
            f"{self.wall_ms:.3f}",
        ]

    def to_json(self) -> dict:
        return {**asdict(self), "jump_ratio": self.jump_ratio, "tau_scaled": self.tau_scaled}


def _run_chunk(model, nbhd, n, seeds, arrivals) -> list:
    """The records of runs on the arrival orders ``arrivals`` (_Arrivals),
    advanced together by _lockstep."""
    offs = offsets_array(nbhd)
    path = _arrival_path(offs)
    records = []
    for seed, source, (tau, before, cascade) in zip(
            seeds, arrivals, _lockstep(n, nbhd.threshold, offs, arrivals, _run_batched)):
        perm_ms, cascade_ms = source.seconds * 1000.0, cascade * 1000.0
        records.append(ProcessRecord(model, n, seed, int(tau), int(before),
                                     wall_ms=perm_ms + cascade_ms, perm_ms=perm_ms,
                                     cascade_ms=cascade_ms, arrival_path=path,
                                     chunk_runs=len(arrivals),
                                     arrivals_solved=source.solved))
    return records


def run_once(
    nbhd: Neighbourhood,
    n: int,
    seed: int,
    model: Optional[str] = None,
    permutation: Optional[Sequence[int]] = None,
) -> ProcessRecord:
    """One arrival-process run; injecting ``permutation`` bypasses the PRNG.

    ``n`` must be an integer from 2 reach + 1 (Domain.validate_for) to 46340,
    and ``seed`` must lie in [0, 2^64).  The arrivals go in batches; a batch
    that crosses its cap is bisected for neighbourhoods with at least
    _BATCHED_MIN_OFFSETS nonzero offsets and replayed arrival by arrival
    for smaller ones, which gives the same record.  The run is a chunk of
    one: its rounds are its own.  A drawn permutation is solved only as far
    as the loop reads it.
    """
    n = _side(n, nbhd)
    seed = _seed64(seed, "seed")
    n2 = n * n
    start = time.perf_counter()
    if permutation is not None:
        perm = np.asarray(permutation)
        # integer kinds only: casting would truncate floats and parse strings
        if (perm.dtype.kind not in "iu" or perm.shape != (n2,)
                or perm.min() < 0 or perm.max() >= n2):
            raise ValueError("injected permutation is not a bijection on the torus")
        perm = perm.astype(np.int64, copy=False)
        seen = np.zeros(n2, dtype=bool)
        seen[perm] = True
        if not seen.all():
            raise ValueError("injected permutation is not a bijection on the torus")
        arrivals = _Arrivals.given(perm, time.perf_counter() - start)
    else:
        arrivals = _Arrivals(n2, seed)
    return _run_chunk(model or nbhd.name, nbhd, n, [seed], [arrivals])[0]


@dataclass(frozen=True)
class SweepSummary:
    groups: dict  # (model, n) -> statistics dict

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "groups": [dict(model=m, n=n, **st) for (m, n), st in sorted(self.groups.items())],
        }


def _quantile(sorted_vals, q):
    # linear interpolation between closest ranks (inclusive method)
    if not sorted_vals:
        raise ValueError("no values")
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def summarise(records: Sequence[ProcessRecord]) -> SweepSummary:
    if not records:
        raise ValueError("cannot summarise zero runs")
    groups = {}
    by_key = {}
    for rec in records:
        by_key.setdefault((rec.model, rec.n), []).append(rec)
    for key, recs in by_key.items():
        ts = sorted(r.tau_scaled for r in recs)
        js = sorted(r.jump_ratio for r in recs)
        # the infected fraction just before tau: 1 minus the fraction of the
        # torus in the healthy core when it first appears (arrivals reversed)
        fs = sorted(r.closure_before / (r.n * r.n) for r in recs)
        stats = {
            "count": len(recs),
            "tau_scaled_median": _quantile(ts, 0.5),
            "tau_scaled_q1": _quantile(ts, 0.25),
            "tau_scaled_q3": _quantile(ts, 0.75),
            "tau_scaled_mean": statistics.fmean(ts),
            "tau_scaled_var": statistics.pvariance(ts) if len(ts) > 1 else 0.0,
            "jump_ratio_median": _quantile(js, 0.5),
            "jump_ratio_q1": _quantile(js, 0.25),
            "jump_ratio_q3": _quantile(js, 0.75),
            "jump_ratio_mean": statistics.fmean(js),
            "closure_before_frac_median": _quantile(fs, 0.5),
        }
        for thr in (1.5, 2.0):
            frac = sum(1 for r in recs if r.closure_before >= thr * r.tau) / len(recs)
            stats[f"frac_jump_ge_{thr:g}"] = frac
        groups[key] = stats
    return SweepSummary(groups)


# The sites a chunk of a sweep may hold, each run counted as n^2 plus the
# n * |K*| entries it adds to the gather tables.  run_sweep at parallelism 1
# on 32 runs of square n = 384, diamond n = 255 and square4 n = 192, 16 of
# square n = 512 and 4 of square n = 1024, each budget interleaved with
# chunks of one (5 repeats, least CPU seconds per run, 2-vCPU VM;
# BENCH_lockstep_runs.json, "chunk_budget"), as a share of chunks of one:
#
#   budget               2^19   2^20   2^21   2^22
#   square n = 384       0.88   0.77   0.75   0.80   (3, 7, 14, 28 runs)
#   square n = 512       1.09   0.92   0.80   0.78   (1, 3, 7, 15 runs)
#   diamond n = 255      0.67   0.64   0.61   0.61   (7, 15, 31, 32 runs)
#   square4 n = 192      0.95   1.03   1.08   1.00   (11, 23, 32, 32 runs)
#
# (square and diamond then ran a scalar loop over every arrival.)  Chunks
# of one differ from each other by up to 18% (square n = 1024), so only the
# gain of square and diamond stands out: their final fills run many rounds
# on small fronts, while square4 pushes whole batches.  2^21 keeps that gain
# at n = 512.  A chunk's peak, arrays and the runs' solver state
# (draws and succ, 8 bytes a site, and the solved prefix), is about 33 MB
# for 7 square runs at n = 512, 7 MB of it their checkpoint copies of n^2
# int32 (26 MB when square runs took no checkpoint), and 41 MB for 27
# square4 runs at n = 256 (tracemalloc, after a warm-up run).
_CHUNK_SITES = 1 << 21


def _sweep_chunk(model, nbhd, n, seeds) -> list:
    """The records of one chunk of a sweep: its arrival orders, then its runs."""
    return _run_chunk(model, nbhd, n, seeds, [_Arrivals(n * n, seed) for seed in seeds])


def run_sweep(
    models: Sequence[tuple[str, Neighbourhood]],
    ns: Sequence[int],
    n_seeds: int,
    master_seed: int = 0,
    parallelism: Optional[int] = None,
    engine: str = "python",
) -> tuple[list, SweepSummary]:
    """Cartesian product of models x ns x seed indices; deterministic in the
    master seed, which must lie in [0, 2^64), regardless of the parallelism
    degree.

    Each (model, n) group is cut into chunks of consecutive runs, as many as
    _CHUNK_SITES allows, and the runs of a chunk advance together on stacked
    tori, one generation round for all their cascades at a time (_lockstep).
    The chunks go to one pool of up to ``parallelism`` worker processes
    (default: the CPU count), never more than there are chunks; with one
    worker they run in this process, so a sweep that fits one chunk starts
    no process.  ``n_seeds`` and ``parallelism`` must be positive integers,
    each n a torus side that run_once takes, and ``engine`` must be
    "python", the only arrival engine."""
    if not _integer(n_seeds):
        raise ValueError(f"n_seeds must be an integer, got {n_seeds!r}")
    if n_seeds < 1:
        raise ValueError("cannot aggregate over zero runs")
    if parallelism is not None and not (_integer(parallelism) and parallelism >= 1):
        raise ValueError(f"parallelism must be a positive integer, got {parallelism!r}")
    if engine != "python":
        raise ValueError(f"unknown engine {engine!r}; the only engine is 'python'")
    master_seed = _seed64(master_seed, "master_seed")
    jobs = []  # (model name, nbhd, n, seeds) of each chunk, in grid order
    idx = 0
    for name, nbhd in models:
        offs = offsets_array(nbhd)
        for n in ns:
            n = _side(n, nbhd)
            size = max(1, _CHUNK_SITES // (n * n + n * len(offs)))
            for first in range(idx, idx + n_seeds, size):
                seeds = [derive_run_seed(master_seed, i)
                         for i in range(first, min(first + size, idx + n_seeds))]
                jobs.append((name, nbhd, n, seeds))
            idx += n_seeds
    workers = min(len(jobs), int(parallelism or os.cpu_count() or 1))
    if workers <= 1:
        parts = [_sweep_chunk(*job) for job in jobs]
    else:
        # the first lookup imports the pool and multiprocessing (about 10 ms),
        # so importing bperc does not
        with futures.ProcessPoolExecutor(workers) as pool:
            parts = list(pool.map(_sweep_chunk, *zip(*jobs)))
    records = [rec for part in parts for rec in part]
    return records, summarise(records)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def records_to_csv(records: Iterable[ProcessRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for rec in records:
        w.writerow(rec.csv_row())
    return buf.getvalue()


def records_to_jsonl(records: Iterable[ProcessRecord]) -> str:
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in records)
