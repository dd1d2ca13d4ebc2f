"""Random-permutation arrival process on the torus.

Sites arrive in the order of a uniformly random permutation; the running
infected set is maintained incrementally (monotonicity makes it equal to the
closure of the arrived set at every step).  tau is the first arrival count
whose closure is the full torus; closure_before is the infected count just
before that arrival.

The cascade has two paths with the same result and one ``_Torus`` state.
Small neighbourhoods run a scalar loop per arrival (``_run_python``); from
_BATCHED_MIN_OFFSETS nonzero offsets on, arrivals go in batches of n as
fronts of the generation step ``dynamics.next_generation``, with a
checkpoint per batch and bisection of a batch that fills the torus
(``_run_batched``).  Both rest on the state after any prefix of the
arrivals being the closure of that prefix.

Runs advance in chunks (``_lockstep``).  The tori of a chunk's runs lie side
by side in one pair of flat arrays.  Both loops are generators that hand
every cascade they need grown to one driver: the scalar loop's hand-off,
each batch, each bisection probe and the final fill.  The driver advances
all of them one generation round at a time, so a round's fixed cost of
numpy calls is paid once for the chunk, not once per run (iteration-level
batching; Yu et al., Orca, OSDI 2022).  ``run_once`` is a chunk of one;
``run_sweep`` cuts each (model, n) group into chunks of consecutive runs.

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
not replayed one by one either: a sort of the (draw, step) pairs and pointer
jumping give every final position at once (``_fisher_yates``).
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .dynamics import Domain, grid_targets, next_generation, offsets_array
from .geometry import Neighbourhood

SCHEMA_VERSION = 1

_MASK = (1 << 64) - 1


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
    table.flags.writeable = False  # cached and shared by the sweep's threads
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


def _fisher_yates(draws: np.ndarray, n_items: int) -> np.ndarray:
    """The permutation the backward Fisher-Yates swaps leave, solved in bulk.

    ``draws`` is the int64 output of ``_swap_draws``: step i (n_items - 1
    down to 1) swaps positions i and d_i <= i.  Its buffer is consumed, and
    1 <= n_items < 2^31.

    Position i is final after step i and keeps the value step i finds at d_i.
    Among the steps that ran before (those above i), the last to write there
    is nw(i), the smallest step above i with the same draw; with no such step
    the value is d_i itself.  The value step k finds at its own position,
    W(k), is W(succ(k)) for succ(k) the smallest step above k that drew k,
    and k when there is none.  Position 0 acts as a step 0 that draws 0.  So
    perm[i] = W(nw(i)) when nw(i) exists, else d_i.

    One in-place sort of the (draw, step) pairs, packed in an int64, groups
    the steps by draw in step order: nw(i) is the next entry of i's group,
    and succ(k) the first entry of group k.  That entry is k itself when
    step k drew itself, but W(k) is then never needed: nw(i) = k would need
    d_i = k > i, and succ(j) = k would need d_k = j < k.  W follows by
    pointer jumping; succ chains increase strictly, so the rounds grow with
    the log of the longest chain.  The work arrays are int32 and the draws'
    buffer goes once it is split, so less than 2.5 * n_items * 8 bytes are
    alive at once.
    """
    m = n_items - 1
    bits = m.bit_length()
    key = draws
    key <<= bits
    key |= np.arange(m, 0, -1, dtype=np.int32)
    key.sort()
    step = np.empty(m, dtype=np.int32)
    np.bitwise_and(key, (1 << bits) - 1, out=step, casting="unsafe")
    key >>= bits
    draw = key.astype(np.int32)
    del draws, key
    head = np.empty(m, dtype=bool)  # the entry opens its draw's group
    head[:1] = True
    np.not_equal(draw[1:], draw[:-1], out=head[1:])
    succ = np.arange(n_items + 1, dtype=np.int32)  # entry n_items absorbs the rest
    succ[np.where(head, draw, n_items)] = step
    w = succ[:n_items]
    del succ
    while True:
        jumped = w[w]
        if np.array_equal(jumped, w):
            break
        w = jumped
    del jumped
    value = draw  # d_i for the last entry of a group, else W(nw(i))
    first_value = w[step[0]] if m and draw[0] == 0 else 0  # nw(0) leads group 0
    np.copyto(value[:-1], w[step[1:]], where=~head[1:])
    del w, head
    perm = np.empty(n_items, dtype=np.int64)
    perm[0] = first_value
    perm[step] = value
    return perm


def random_permutation(n_items: int, seed: int) -> np.ndarray:
    """Seeded Fisher-Yates permutation of 0..n_items-1 (the v1 stream).

    Same result as the scalar loop the module docstring defines: the raw
    stream comes from jump-ahead lanes, the draws are mapped as vectors and
    the swaps are solved in bulk by ``_fisher_yates``.  n_items must be
    below 2^31 (a torus side up to 46340).
    """
    if n_items >= 1 << 31:
        raise ValueError(f"n_items must be below 2^31, got {n_items}")
    if n_items < 2:
        return np.arange(n_items, dtype=np.int64)
    # no reference to the draws stays here, so the solver can free them
    return _fisher_yates(_swap_draws(n_items, seed), n_items)


# ---------------------------------------------------------------------------
# The arrival cascade: a scalar loop and batched arrivals
# ---------------------------------------------------------------------------

# |K*| from which the batched path is the faster one.  Time of the batched
# path over the scalar loop's on the same permutations, each run through
# _lockstep in the chunks a sweep makes of them (up to 16 runs; seeds 11 on,
# best of 5, interleaved; 2-vCPU VM; BENCH_lockstep_runs.json, "crossover"):
#
#   |K*|  neighbourhood           n = 128    n = 256    n = 512   n = 1024
#      4  square, diamond       1.15-1.24  1.14-1.15  1.20-1.27  1.15-1.29
#      6  triangular                 1.11       1.00       0.99       0.96
#      8  boxtimes; lp inf s = 2 0.71-0.79 0.83-0.85  0.81-0.93  0.83-0.93
#     12  lp p = 1, 2; s = 2    0.83-0.85  0.84-0.85  0.87-0.90  0.82-0.83
#     24  lp p = 1; s = 3            0.54       0.70       0.70       0.54
#     40  square4                    0.36       0.47       0.55       0.61
#
# (lp inf s = 2, |K*| = 24 and 40 best of 3; 16, 16, 7 and 1 runs a
# chunk.)  Shared rounds favour the batched path,
# whose batches at small n run many rounds of small fronts: the crossover
# now lies between 6 and 8 at every n, where it used to fall from between
# 12 and 24 at n = 128 to about 8 at n = 1024.  A run alone still finds
# |K*| = 8 and 12 slower batched at n = 128 (1.28-1.41) and about even at
# n = 256 (1.02-1.09), a few ms a run; sweeps of them gain 3-19% at
# parallelism 2.
_BATCHED_MIN_OFFSETS = 8


def _arrival_path(offs) -> str:
    """The arrival loop for the nonzero offsets ``offs``: "batched" or "scalar"."""
    return "batched" if len(offs) >= _BATCHED_MIN_OFFSETS else "scalar"


class _Torus:
    """One run's counter-push state: ``counts`` and ``done`` are views of its
    block of a chunk's flat arrays, and ``infected`` is a memoryview of the
    bytes of ``done``, which the scalar loop indexes.  The checkpoint copies
    are made on the first save(), so a run that never saves never holds
    them."""

    def __init__(self, counts, infected):
        self.counts = counts
        self.infected = infected
        self.done = np.frombuffer(infected, dtype=np.uint8)
        self.saved = None

    def save(self):
        if self.saved is None:
            self.saved = (np.empty_like(self.counts), np.empty_like(self.done))
        np.copyto(self.saved[0], self.counts)
        np.copyto(self.saved[1], self.done)

    def restore(self):
        np.copyto(self.counts, self.saved[0])
        np.copyto(self.done, self.saved[1])


def _run_python(n, r, offs, perm, state):
    """Arrival loop with incremental cascade on ``state``, a loop for
    _lockstep; returns (tau, closure_before).

    Arrivals and small cascades run as scalar loops.  Once one arrival's
    cascade has infected more than n sites, the loop hands the sites still
    to infect to the generation step, which finishes the cascade on the
    same state; the result is the same because the infected set after each
    arrival is the closure of the arrivals so far, whatever order the
    counter pushes run in.
    """
    n2 = n * n
    counts = memoryview(state.counts)
    infected = state.infected
    num = 0
    offsets = [(int(a), int(b)) for a, b in offs]
    deltas = [kx * n + ky for kx, ky in offsets]
    reach = int(np.abs(offs).max(initial=0))
    inner = np.zeros((n, n), dtype=np.uint8)  # sites whose neighbours never wrap
    inner[reach:n - reach, reach:n - reach] = 1
    interior = bytearray(inner)
    stack = []  # each site at most once: it is pushed when its count reaches r
    push, pop = stack.append, stack.pop
    for t, s in enumerate(memoryview(np.ascontiguousarray(perm, dtype=np.int64))):
        if infected[s]:
            continue
        prev = num
        push(s)
        while stack:
            y = pop()
            if infected[y]:
                continue
            if num - prev > n:
                push(y)
                num += yield np.array(stack, dtype=np.int64), n2
                stack.clear()
                break
            infected[y] = 1
            num += 1
            if interior[y]:
                for d in deltas:
                    x = y - d
                    c = counts[x] + 1
                    counts[x] = c
                    if c == r and not infected[x]:
                        push(x)
            else:
                yx, yy = divmod(y, n)
                for kx, ky in offsets:
                    x = (yx - kx) % n * n + (yy - ky) % n
                    c = counts[x] + 1
                    counts[x] = c
                    if c == r and not infected[x]:
                        push(x)
        if num == n2:
            return t + 1, prev
    return n2, num


def _run_batched(n, r, offs, perm, state):
    """Arrivals in batches of n on ``state``, a loop for _lockstep; returns
    (tau, closure_before).

    The infected set after any prefix of the arrivals is the closure of that
    prefix, so a batch goes in as one front of the generation step.  A batch
    whose cascade infects more than n sites beyond its own new arrivals, or
    fills the torus, is undone from the checkpoint taken before it, and
    _bisect finds the first arrival t whose prefix crosses that limit.  Its
    cascade then runs to the end: tau is t + 1 if it fills the torus, and
    otherwise the batches go on from t + 1.  So a large cascade runs in full
    once; the probes stop as soon as they cross the limit.
    """
    n2 = n * n
    perm = np.asarray(perm, dtype=np.int64)
    num = 0  # infected sites: the closure of perm[:lo]
    lo = 0
    while lo < n2:
        hi = min(lo + n, n2)
        batch = perm[lo:hi]
        new = batch.size - int(np.count_nonzero(state.done.take(batch)))
        cap = min(n + new, n2 - num - 1)
        state.save()
        added = yield batch, cap
        if added > cap:
            state.restore()
            lo, added = yield from _bisect(state, perm, lo, hi, cap)
            num += added
            hi = lo + 1
            added = yield perm[lo:hi], n2
            if num + added == n2:
                return hi, num
        num += added
        lo = hi
    raise AssertionError(f"all {n2} arrivals infected only {num} sites")


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


_IDLE_ROOM = 1 << 62  # the room of a run with no request in the front


def _lockstep(n, r, offs, perms, loop):
    """Runs ``loop`` on each permutation of ``perms``, on one stack of n x n
    tori; returns (tau, closure_before, seconds) for each.

    ``loop(n, r, offs, perm, state)`` is a generator on its run's _Torus
    (_run_python or _run_batched).  It yields grow requests (sites, cap):
    infect ``sites``, torus indices each given once, and their cascade.
    The reply is the number of sites infected; once more than ``cap`` are,
    it is some number above cap, and the torus is left in a state only the
    loop's restore() mends.  The loop returns (tau, closure_before).

    Every pending request advances in one round of next_generation over
    all the tori at a time.  A request joins the front between rounds,
    shifted to its torus's block, without the sites already done.  A run
    leaves once its cascade ends or passes its cap, and its loop resumes
    before the next round.  A run past its cap while others go on still has
    sites in the front, though; its torus is marked done, so their pushes
    reach no site that is not done, and its loop resumes, and restores the
    torus, after one more round.  When no run goes on, the front is dropped
    instead.  Each round's bookkeeping is a fixed number of numpy calls
    over the runs, and none while one run is in the front.

    ``seconds`` is the time the run's own loop took plus its share of the
    set-up and of each round it was in, a round's time split evenly among
    the runs in it.
    """
    start = time.perf_counter()
    k, n2 = len(perms), n * n
    counts = np.zeros(k * n2, dtype=np.int32)
    buf = bytearray(k * n2)
    done = np.frombuffer(buf, dtype=np.uint8)
    targets = grid_targets(n, n, offs, k)
    # a chunk of one keeps the bytearray, which the scalar loop indexes
    # faster than a memoryview
    blocks = [buf] if k == 1 else [memoryview(buf)[j * n2:(j + 1) * n2] for j in range(k)]
    runs = [loop(n, r, offs, perm, _Torus(counts[j * n2:(j + 1) * n2], blocks[j]))
            for j, perm in enumerate(perms)]
    out = [None] * k
    caps = [0] * k
    room = np.full(k, _IDLE_ROOM, dtype=np.int64)  # cap + 1 - sites added so far
    idle = np.ones(k, dtype=np.int64)  # 0 while the run has a request in the front
    active = set()  # the runs with a request in the front
    front = np.empty(0, dtype=np.int64)
    wake = [(j, None) for j in range(k)]  # runs to resume now, with their replies
    later = []  # runs past their cap, resumed after the next round
    seconds = [(time.perf_counter() - start) / k] * k
    clock = 0.0  # the rounds' time so far, each round's split among its runs
    entered = [0.0] * k  # the clock when the run's request joined

    def resume(j, reply):
        """Runs j's loop from ``reply`` to its next request that needs a
        round, joined to the front; returns its sites, or None once the
        loop has returned."""
        begin = time.perf_counter()
        base = j * n2
        try:
            while True:
                sites, cap = runs[j].send(reply)
                piece = sites + base if base else sites
                piece = piece.compress(done.take(piece) == 0)
                if 0 < piece.size <= cap:
                    break
                reply = piece.size  # nothing to push, or past the cap already
        except StopIteration as stop:
            out[j] = stop.value
            piece = None
        else:
            done.put(piece, 1)
            caps[j] = cap
            room[j] = cap + 1 - piece.size
            idle[j] = 0
            entered[j] = clock
            active.add(j)
        seconds[j] += time.perf_counter() - begin
        return piece

    mark = time.perf_counter()
    while True:
        if wake:
            if active:
                now = time.perf_counter()
                clock += (now - mark) / len(active)
            pieces = [front] if front.size else []
            for j, reply in wake:
                piece = resume(j, reply)
                if piece is not None:
                    pieces.append(piece)
            wake = []
            if pieces:
                front = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            mark = time.perf_counter()
        if not active:
            return [(*out[j], seconds[j]) for j in range(k)]
        if len(active) == 1 and not later:
            # one run in the front: its rounds run on until it leaves
            (j,) = active
            left = int(room[j])
            while True:
                front = next_generation(counts, done, front, r, targets)
                if not front.size:
                    break
                done.put(front, 1)
                left -= front.size
                if left <= 0:
                    break
            room[j] = left
            leaving = [j]
        else:
            front = next_generation(counts, done, front, r, targets)
            if front.size:
                done.put(front, 1)
            wake, later = later, []
            sizes = np.bincount(front // n2, minlength=k)
            room -= sizes
            leaving = np.flatnonzero(np.minimum(sizes + idle, room) <= 0).tolist()
            if not leaving:
                continue
        now = time.perf_counter()
        clock += (now - mark) / len(active)
        mark = now
        active.difference_update(leaving)
        for j in leaving:
            over = room[j] <= 0
            reply = caps[j] + 1 - int(room[j])
            room[j] = _IDLE_ROOM
            idle[j] = 1
            seconds[j] += clock - entered[j]
            if over and active:
                done[j * n2:(j + 1) * n2] = 1
                later.append((j, reply))
            else:
                wake.append((j, reply))
        if not active:
            front = front[:0]  # only the sites of runs past their cap are left


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
    perm_ms: float = 0.0  # drawing (or checking an injected) permutation
    cascade_ms: float = 0.0  # the arrival loop and its share of shared rounds
    schema_version: int = SCHEMA_VERSION
    arrival_path: str = "scalar"  # "scalar" or "batched": the loop that ran
    chunk_runs: int = 1  # the runs whose generation rounds this one shared

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


def _seed64(value, name: str) -> int:
    """``value`` as a 64-bit seed: an integer in [0, 2^64), else ValueError."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value <= _MASK):
        return int(value)
    raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")


def _run_chunk(model, nbhd, n, seeds, perms, perm_s) -> list:
    """The records of runs on the permutations ``perms``, advanced together
    by _lockstep; ``perm_s`` holds the seconds each permutation took."""
    offs = offsets_array(nbhd)
    path = _arrival_path(offs)
    loop = _run_batched if path == "batched" else _run_python
    records = []
    for seed, drawn, (tau, before, cascade) in zip(
            seeds, perm_s, _lockstep(n, nbhd.threshold, offs, perms, loop)):
        perm_ms, cascade_ms = drawn * 1000.0, cascade * 1000.0
        records.append(ProcessRecord(model, n, seed, int(tau), int(before),
                                     wall_ms=perm_ms + cascade_ms, perm_ms=perm_ms,
                                     cascade_ms=cascade_ms, arrival_path=path,
                                     chunk_runs=len(perms)))
    return records


def run_once(
    nbhd: Neighbourhood,
    n: int,
    seed: int,
    model: Optional[str] = None,
    permutation: Optional[Sequence[int]] = None,
) -> ProcessRecord:
    """One arrival-process run; injecting ``permutation`` bypasses the PRNG.

    ``seed`` must lie in [0, 2^64).  Neighbourhoods with at least
    _BATCHED_MIN_OFFSETS nonzero offsets take the batched arrival path,
    smaller ones the scalar loop; both give the same record.  The run is a
    chunk of one: its rounds are its own.
    """
    Domain.torus(n).validate_for(nbhd)
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
    else:
        perm = random_permutation(n2, seed)
    drawn = time.perf_counter() - start
    return _run_chunk(model or nbhd.name, nbhd, n, [seed], [perm], [drawn])[0]


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


def summarise(records: Sequence[ProcessRecord],
              jump_thresholds: Sequence[float] = (1.5, 2.0)) -> SweepSummary:
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
        for thr in jump_thresholds:
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
#   square n = 384       0.88   0.77   0.75   0.80   (3, 6, 13, 27 runs)
#   square n = 512       1.09   0.92   0.80   0.78   (1, 3, 7, 15 runs)
#   diamond n = 255      0.67   0.64   0.61   0.61   (7, 15, 31, 32 runs)
#   square4 n = 192      0.95   1.03   1.08   1.00   (11, 23, 32, 32 runs)
#
# Chunks of one differ from each other by up to 18% (square n = 1024), so
# only the scalar path's gain stands out: its final fills run many rounds
# on small fronts, while the batched path pushes whole batches.  2^21 keeps
# that gain at n = 512 and holds about 27 MB of arrays and permutations per
# scalar chunk, 38 MB per batched one.
_CHUNK_SITES = 1 << 21


def _sweep_chunk(model, nbhd, n, seeds) -> list:
    """The records of one chunk of a sweep: its permutations, then its runs."""
    perms, perm_s = [], []
    for seed in seeds:
        start = time.perf_counter()
        perms.append(random_permutation(n * n, seed))
        perm_s.append(time.perf_counter() - start)
    return _run_chunk(model, nbhd, n, seeds, perms, perm_s)


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
    Batched-path chunks, mostly numpy calls that release the interpreter
    lock, go to up to ``parallelism`` threads (default: the CPU count).
    Scalar-path chunks hold the lock in their Python loops, so they run one
    after another in this thread once the pool has closed.  ``engine`` must
    be "python", the only arrival engine."""
    if n_seeds < 1:
        raise ValueError("cannot aggregate over zero runs")
    if parallelism is not None and parallelism < 1:
        raise ValueError(f"parallelism must be a positive integer, got {parallelism}")
    if engine != "python":
        raise ValueError(f"unknown engine {engine!r}; the only engine is 'python'")
    master_seed = _seed64(master_seed, "master_seed")
    chunks = {"batched": [], "scalar": []}
    idx = 0
    for name, nbhd in models:
        offs = offsets_array(nbhd)
        for n in ns:
            Domain.torus(n).validate_for(nbhd)
            size = max(1, _CHUNK_SITES // (n * n + n * len(offs)))
            for first in range(idx, idx + n_seeds, size):
                seeds = [derive_run_seed(master_seed, i)
                         for i in range(first, min(first + size, idx + n_seeds))]
                chunks[_arrival_path(offs)].append((first, name, nbhd, n, seeds))
            idx += n_seeds
    results = [None] * idx

    def work(chunk):
        first, name, nbhd, n, seeds = chunk
        results[first:first + len(seeds)] = _sweep_chunk(name, nbhd, n, seeds)

    threads = (os.cpu_count() or 1) if parallelism is None else parallelism
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, chunks["batched"]))
    for chunk in chunks["scalar"]:
        work(chunk)
    return results, summarise(results)


def jump_event_rate(records: Sequence[ProcessRecord], c: float) -> float:
    """Fraction of records with closure_before >= tau * (1 + c/ln n)."""
    if not records:
        raise ValueError("no records")
    ns = {r.n for r in records}
    if len(ns) != 1:
        raise ValueError(f"records mix torus sizes {sorted(ns)}")
    n = ns.pop()
    bar = 1 + c / math.log(n)
    return sum(1 for r in records if r.closure_before >= r.tau * bar) / len(records)


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
