import contextlib
import dataclasses
import itertools
import json
import math
import random
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bperc import dynamics, process
from bperc.dynamics import DONE, Domain, closure, closure_synchronous, offsets_array
from bperc.geometry import NeighbourhoodSpec, build_neighbourhood
from bperc.process import (
    CSV_COLUMNS,
    _Arrivals,
    _bounded_draws,
    _lane_stream,
    _rejects,
    _run_batched,
    _swap_draws,
    derive_run_seed,
    random_permutation,
    records_to_csv,
    records_to_jsonl,
    run_once,
    run_sweep,
    splitmix64,
    summarise,
)
from conftest import dense_rounds, generation_branch


@pytest.fixture(scope="module")
def square():
    return build_neighbourhood(NeighbourhoodSpec.named("square"))


def row_major_permutation(n):
    """Arrivals in row-major site order: index x*n + y increasing."""
    return list(range(n * n))


# ---------------------------------------------------------------------------
# PRNG: the lane stream against the scalar definition, bit for bit
# ---------------------------------------------------------------------------

U64 = 1 << 64
MASK = U64 - 1
EDGE_SEEDS = (0, (1 << 63) + 5, U64 - 1)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


class Xoshiro256StarStar:
    """The v1 stream generator as the contract states it, one output at a
    time: xoshiro256** on a state of four SplitMix64 outputs of the seed."""

    def __init__(self, seed):
        self.s = []
        state = seed & MASK
        for _ in range(4):
            out, state = splitmix64(state)
            self.s.append(out)

    def next_raw(self):
        s = self.s
        result = (_rotl((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result


def reference_bounded(next_raw, b):
    """The frozen v1 bounded draw, written as the contract states it."""
    limit = (U64 // b) * b
    while True:
        r = next_raw()
        if r < limit:
            return r % b


def reference_permutation(n_items, seed):
    """The frozen v1 permutation: scalar backward Fisher-Yates."""
    rng = Xoshiro256StarStar(seed)
    perm = list(range(n_items))
    for i in range(n_items - 1, 0, -1):
        j = reference_bounded(rng.next_raw, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_splitmix_known_vector():
    out, _ = splitmix64(0)
    assert out == 0xE220A8397B1DCDAF  # first output of SplitMix64 from 0


def test_xoshiro_streams_differ_by_seed():
    a = [Xoshiro256StarStar(1).next_raw() for _ in range(4)]
    b = [Xoshiro256StarStar(2).next_raw() for _ in range(4)]
    assert a != b


def test_permutation_is_bijection():
    for n_items, seed in ((1, 0), (25, 7), (64 * 64, 123)):
        perm = random_permutation(n_items, seed)
        assert sorted(perm.tolist()) == list(range(n_items))


# lanes are 2^m <= n_items steps long, so n_items - 1 = 2^k raw draws fill
# whole lanes; the neighbours of 2^k + 1 leave a lane short or start a new one
LANE_EDGES = sorted({(1 << k) + d for k in range(1, 13) for d in (-1, 0, 1, 2)})


@settings(max_examples=60, deadline=None)
@given(
    n_items=st.one_of(st.integers(0, 3000), st.sampled_from(LANE_EDGES)),
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, U64 - 1)),
)
@example(n_items=0, seed=0)
@example(n_items=1, seed=U64 - 1)
@example(n_items=2, seed=(1 << 63) + 5)
def test_permutation_matches_scalar_reference(n_items, seed):
    assert random_permutation(n_items, seed).tolist() == reference_permutation(n_items, seed)


@pytest.mark.parametrize("n_raw", [1, 2, 3, 15, 16, 17, 255, 256, 257, 4097, 70000])
def test_lane_stream_matches_next_raw(n_raw):
    for seed in EDGE_SEEDS:
        raw = _lane_stream(seed, n_raw)
        rng = Xoshiro256StarStar(seed)
        assert raw.size >= n_raw
        assert raw.tolist() == [rng.next_raw() for _ in range(raw.size)]


# The jump-ahead as a 256 x 256 GF(2) matrix on Python ints: column j is
# the image of state bit j, bit 64 w + b being bit b of s[w].


def _pack(s):
    return int(s[0]) | int(s[1]) << 64 | int(s[2]) << 128 | int(s[3]) << 192


def _unpack(v):
    return [(v >> (64 * w)) & (U64 - 1) for w in range(4)]


def _apply(cols, v):
    """Matrix-vector product over GF(2)."""
    out = 0
    for bit, col in zip(reversed(bin(v)[2:]), cols):
        if bit == "1":
            out ^= col
    return out


def reference_jump_columns(max_m):
    """Columns of T^(2^m) for m = 0..max_m, T by stepping the unit states
    with next_raw and each power by squaring the one before."""
    cols = []
    for j in range(256):
        rng = Xoshiro256StarStar(0)
        rng.s = _unpack(1 << j)
        rng.next_raw()
        cols.append(_pack(rng.s))
    powers = [cols]
    for _ in range(max_m):
        powers.append([_apply(powers[-1], c) for c in powers[-1]])
    return powers


def test_jump_tables_match_squaring():
    for m, want in enumerate(reference_jump_columns(12)):
        table = process._jump_table(m)
        # the rows of the single bits of each nibble are the columns
        got = table[:, [1, 2, 4, 8]].reshape(256, 4).tolist()
        assert [_pack(c) for c in got] == want, m
        # and every row is the XOR of the columns its nibble selects
        for c in (0, 17, 63):
            for v in range(16):
                row = 0
                for b in range(4):
                    if v >> b & 1:
                        row ^= want[4 * c + b]
                assert _pack(table[c, v].tolist()) == row


@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("lanes", [1, 2, 3, 5, 7, 100, 257, 300])
def test_lane_starts_match_the_scalar_stream(m, lanes):
    for seed in EDGE_SEEDS:
        rng = Xoshiro256StarStar(seed)
        starts = process._lane_starts(rng.s, m, lanes)
        want = []
        for _ in range(lanes):
            want.append(list(rng.s))
            for _ in range(1 << m):
                rng.next_raw()
        assert starts.T.tolist() == want


def test_lane_starts_match_matrix_products():
    # far jumps, where stepping the scalar generator would take too long
    jump = reference_jump_columns(12)[12]
    state = Xoshiro256StarStar(7).s
    starts = process._lane_starts(state, 12, 300)  # uses the tables up to m = 20
    v = _pack(state)
    for k in range(300):
        assert _pack(starts[:, k].tolist()) == v, k
        v = _apply(jump, v)


def test_permutations_agree_under_threads_from_a_cold_cache():
    # a caller's own threads may all build the jump-ahead cache at once
    process._jump_table.cache_clear()
    want = reference_permutation(600, 9)
    results = []
    barrier = threading.Barrier(6)

    def work():
        barrier.wait(timeout=30)
        results.append(random_permutation(600, 9).tolist())

    threads = [threading.Thread(target=work) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [want] * 6


@pytest.mark.parametrize("b", [2, 3, 4, 1 << 20])
@pytest.mark.parametrize("r", [U64 - 1, U64 - 2])
def test_rejection_rule_on_top_draws(r, b):
    expect = r >= (U64 // b) * b  # only b = 3 rejects, and only 2^64 - 1
    assert expect == (b == 3 and r == U64 - 1)
    assert _rejects(r, b) == expect


def reference_draws(stream, top, n_draws):
    """The scalar rule's first n_draws draws from ``stream``, or None when
    the stream runs out first."""
    it = iter(stream)
    try:
        return [reference_bounded(it.__next__, top - d) for d in range(n_draws)]
    except StopIteration:
        return None


def _draws(stream, top, n_draws):
    got = _bounded_draws(np.array(stream, dtype=np.uint64), top, n_draws)
    return None if got is None else got.tolist()


# bounds 6, 5, 4, 3, 2: 2^64 mod b is 4, 1, 0, 1, 0
REALIGN_STREAM = [
    U64 - 1, U64 - 4, U64 - 5,  # b=6: two rejections, then accepted
    U64 - 1, 7,                 # b=5: one rejection
    U64 - 1,                    # b=4: a power of two rejects nothing
    U64 - 1, U64 - 2,           # b=3: one rejection
    U64 - 1,                    # b=2
    11, 12, 13,                 # never consumed
]


def test_bounded_draws_realign_after_rejections():
    want = [(U64 - 5) % 6, 7 % 5, (U64 - 1) % 4, (U64 - 2) % 3, (U64 - 1) % 2]
    assert reference_draws(REALIGN_STREAM, 6, 5) == want
    # the five draws take nine outputs: the spare ones and a prefix just
    # long enough give the draws, a shorter prefix gives None
    for size in (12, 10, 9):
        assert _draws(REALIGN_STREAM[:size], 6, 5) == want
    assert _draws(REALIGN_STREAM[:8], 6, 5) is None


def test_bounded_draws_stop_at_count(monkeypatch):
    # bounds 3, 2 take the first two outputs; every output after them is
    # near 2^64 but is no draw, so none of them is checked for rejection
    checked = []

    def spy(r, b):
        checked.append(b)
        return _rejects(r, b)

    monkeypatch.setattr(process, "_rejects", spy)
    got = _draws([5, 6, U64 - 2, U64 - 2, U64 - 1], 3, 2)
    assert got == [5 % 3, 6 % 2]
    assert checked == []
    # a rejection among the draws moves the stop one output on
    got = _draws([U64 - 1, 5, 6, U64 - 2, U64 - 1], 3, 2)
    assert got == [5 % 3, 6 % 2]
    assert checked == [3]


@settings(max_examples=80, deadline=None)
@given(
    top=st.integers(2, 12),
    values=st.lists(
        st.one_of(st.integers(U64 - 12, U64 - 1), st.integers(0, U64 - 1)),
        min_size=0,
        max_size=40,
    ),
)
def test_bounded_draws_match_scalar_rule(top, values):
    # values near 2^64 make rejections common; too many for the values
    # drawn must give None
    assert _draws(values, top, top - 1) == reference_draws(values, top, top - 1)


@pytest.mark.parametrize("chunk, calls", [(16, [5]), (4, [5, 9]), (1, [5, 6, 7, 8, 9])])
def test_swap_draws_take_a_longer_prefix_after_rejections(monkeypatch, chunk, calls):
    # a lane stream of ``chunk``-sized lanes over REALIGN_STREAM: every
    # call returns a prefix of the same stream, at least n_raw long
    asked = []

    def lane_stream(seed, n_raw):
        asked.append(n_raw)
        assert len(asked) <= 10, "the retries do not lengthen the prefix"
        return np.array(REALIGN_STREAM[: -(-n_raw // chunk) * chunk], dtype=np.uint64)

    monkeypatch.setattr(process, "_lane_stream", lane_stream)
    assert _swap_draws(6, 0).tolist() == reference_draws(REALIGN_STREAM, 6, 5)
    assert asked == calls


# ---------------------------------------------------------------------------
# The swap solver against the swap loop it replaces
# ---------------------------------------------------------------------------


def reference_swaps(draws, n_items):
    """The v1 swaps one by one: step i = n_items-1 .. 1 swaps i and draws[n_items-1-i]."""
    perm = np.arange(n_items, dtype=np.int64)
    p = memoryview(perm)
    for i, j in zip(range(n_items - 1, 0, -1), memoryview(np.asarray(draws, dtype=np.int64))):
        p[i], p[j] = p[j], p[i]
    return perm


def crafted(draws, n_items):
    """The runs' solver, _Arrivals, on the crafted ``draws`` in place of the
    seed's."""
    with mock.patch.object(process, "_swap_draws",
                           lambda n, seed: np.array(draws, dtype=np.int64)):
        return _Arrivals(n_items, 0)


def _solve(draws, n_items):
    return crafted(draws, n_items).need(n_items).tolist()


@st.composite
def swap_draws(draw):
    """(draws, n_items) with the draw of step i in [0, i]; small and negative
    codes favour self-swaps (-1), swaps with the next position down (-2) and
    zeros, which make long chains of moves."""
    n_items = draw(st.integers(1, 400))
    codes = draw(st.lists(st.integers(-3, U64 - 1), min_size=n_items - 1,
                          max_size=n_items - 1))
    draws = [max(i + 1 + c, 0) if c < 0 else c % (i + 1)
             for i, c in zip(range(n_items - 1, 0, -1), codes)]
    return draws, n_items


@settings(max_examples=200, deadline=None)
@given(swap_draws())
def test_swap_solver_matches_swap_loop(case):
    draws, n_items = case
    assert _solve(draws, n_items) == reference_swaps(draws, n_items).tolist()


@pytest.mark.parametrize("n_items", [1, 2, 3, 17, 400, 4097])
def test_swap_solver_on_extreme_draws(n_items):
    steps = range(n_items - 1, 0, -1)
    # every step swaps with itself: nothing moves
    assert _solve(list(steps), n_items) == list(range(n_items))
    # every step swaps with position 0: 0 travels to the top, the rest shift down
    assert _solve([0] * (n_items - 1), n_items) == list(range(1, n_items)) + [0]
    # every step swaps with the position below: one chain through all steps
    below = [i - 1 for i in steps]
    assert _solve(below, n_items) == reference_swaps(below, n_items).tolist()


@pytest.mark.parametrize("n_items", [1, 2, 3, 4, 5, 6])
def test_swap_solver_is_a_bijection_from_draws(n_items):
    # Fisher-Yates maps the n! draw vectors one to one onto the permutations
    seen = set()
    for draws in itertools.product(*(range(i + 1) for i in range(n_items - 1, 0, -1))):
        perm = _solve(draws, n_items)
        assert perm == reference_swaps(draws, n_items).tolist()
        seen.add(tuple(perm))
    assert len(seen) == math.factorial(n_items)


@settings(max_examples=200, deadline=None)
@given(swap_draws(), st.lists(st.integers(1, 400), max_size=8), st.data())
def test_prefix_solver_matches_swap_loop_in_any_blocks(case, ends, data):
    # the solved prefix after each block, whatever the blocks' sizes, is the
    # swap loop's; need() walks the runs' blocks, _solve takes any block
    draws, n_items = case
    want = reference_swaps(draws, n_items).tolist()
    arrivals = crafted(draws, n_items)
    for end in sorted(min(e, n_items) for e in ends):
        if data.draw(st.booleans()):
            arrivals.need(end)
        elif end > arrivals.solved:
            arrivals._solve(arrivals.solved, end)
            arrivals.solved = end
        k = arrivals.solved
        assert k >= end and arrivals.perm[:k].tolist() == want[:k]
    assert arrivals.need(n_items).tolist() == want


def runs_blocks(n_items):
    """The blocks a run solves: [0, n_items // 16), at least one entry,
    then blocks that double, the last cut at n_items."""
    ends = [max(1, n_items // 16)]
    while ends[-1] < n_items:
        ends.append(min(2 * ends[-1], n_items))
    return list(zip([0] + ends[:-1], ends))


@pytest.mark.parametrize("n_items", [2, 3, 1000, 65537])
def test_every_solve_walks_the_runs_blocks(square, monkeypatch, n_items):
    # the whole order, any prefix of it and a run's arrivals are solved in
    # the same blocks, each sorting at most about n_items / 4 steps; every
    # prefix is the whole order's
    solves = []
    solve = _Arrivals._solve

    def spied(self, lo, hi):
        solves.append((lo, hi))
        solve(self, lo, hi)

    def check_blocks(size, seed):
        # the solves so far, of an order of ``size`` entries
        assert solves == runs_blocks(size)[:len(solves)]
        if size > 4:
            draws = np.sort(_swap_draws(size, seed))
            for lo, hi in solves:
                steps = np.searchsorted(draws, hi) - np.searchsorted(draws, lo)
                assert steps <= 1.1 * size / 4

    monkeypatch.setattr(_Arrivals, "_solve", spied)
    want = random_permutation(n_items, 7)
    assert solves == runs_blocks(n_items)
    check_blocks(n_items, 7)
    for k in (0, 1, n_items // 16, n_items // 5, n_items):
        solves.clear()
        assert (process.arrival_prefix(n_items, 7, k) == want[:k]).all()
        assert solves == [b for b in runs_blocks(n_items) if b[0] < k]
    for k in (-1, n_items + 1):
        with pytest.raises(ValueError, match="k must lie in"):
            process.arrival_prefix(n_items, 7, k)
    if n_items > 4:
        side = math.isqrt(n_items)  # 31 and 256
        for seed in (1, 2):
            solves.clear()
            run_once(square, side, seed)
            assert solves
            check_blocks(side * side, seed)


@pytest.mark.parametrize("n_items, seed", [(2, 0), (1000, 5), (65537, U64 - 1), (384 * 384, 11)])
def test_swap_loop_on_the_drawn_stream(n_items, seed):
    assert (random_permutation(n_items, seed) == reference_swaps(_swap_draws(n_items, seed),
                                                                n_items)).all()


def test_permutation_memory_stays_within_three_arrays():
    # the whole order and a prefix that needs its last block
    n_items = 384 * 384
    random_permutation(n_items, 1)  # builds the jump-ahead tables
    for solve in (lambda: random_permutation(n_items, 2),
                  lambda: process.arrival_prefix(n_items, 2, n_items // 2 + 1)):
        tracemalloc.start()
        try:
            solve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n_items * 8


def test_lane_stream_scrambles_without_a_second_stream():
    # the raw stream itself is N * 8 bytes; the scrambler's rotate used to
    # hold a second array as long, for a peak of 2 N * 8
    n_raw = 384 * 384
    _lane_stream(1, n_raw)  # builds the jump-ahead tables
    tracemalloc.start()
    try:
        raw = _lane_stream(2, n_raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.size == n_raw
    assert peak <= 1.25 * n_raw * 8


def test_permutation_rejects_sizes_beyond_int32():
    with pytest.raises(ValueError, match="below 2"):
        random_permutation(1 << 31, 0)


def test_arrival_permutation_is_what_run_once_draws(square):
    perm = random_permutation(16 * 16, 3)
    assert perm.tolist() == reference_permutation(16 * 16, 3)
    a = run_once(square, 16, 3)
    b = run_once(square, 16, 3, permutation=perm)
    assert (a.tau, a.closure_before) == (b.tau, b.closure_before)


def test_derive_run_seed_spreads():
    seeds = {derive_run_seed(5, i) for i in range(100)}
    assert len(seeds) == 100


def test_derive_run_seed_repeats_across_master_seeds():
    # the documented v1 collision: m ^ i == m' ^ j gives the same run seed
    assert derive_run_seed(0, 1) == derive_run_seed(1, 0)
    assert derive_run_seed(6, 3) == derive_run_seed(4, 1)


# ---------------------------------------------------------------------------
# Row-major arrival order: closed-form hitting time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 8, 16, 64])
def test_row_major_formula(square, n):
    rec = run_once(square, n, 0, permutation=row_major_permutation(n))
    assert rec.tau == (n - 1) ** 2
    assert rec.closure_before == n * (n - 2)


def test_row_major_audit_from_scratch(square):
    # recompute the claimed tau/closure_before with the event-driven closure,
    # independently of the incremental kernel
    n = 8
    perm = row_major_permutation(n)
    rec = run_once(square, n, 0, permutation=perm)
    dom = Domain.torus(n)
    sites = [divmod(p, n) for p in perm]
    before = closure(dom, square, sites[: rec.tau - 1])
    at = closure(dom, square, sites[: rec.tau])
    assert not before.is_full()
    assert at.is_full()
    assert before.size == rec.closure_before


def reference_run(n, r, offs, perm):
    """Scalar arrival loop with a depth-first counter push and no hand-off
    to the generation step; returns (tau, closure_before)."""
    n2 = n * n
    counts = [0] * n2
    infected = [False] * n2
    offsets = [(int(kx), int(ky)) for kx, ky in offs]
    num = 0
    for t, s in enumerate(perm):
        prev = num
        stack = [int(s)]
        while stack:
            y = stack.pop()
            if infected[y]:
                continue
            infected[y] = True
            num += 1
            yx, yy = divmod(y, n)
            for kx, ky in offsets:
                x = (yx - kx) % n * n + (yy - ky) % n
                counts[x] += 1
                if counts[x] == r and not infected[x]:
                    stack.append(x)
        if num == n2:
            return t + 1, prev
    raise AssertionError("the last arrival always fills the torus")


def solved(perm):
    """An arrival order that is already solved, as run_once wraps an
    injected permutation."""
    return _Arrivals.given(np.asarray(perm, dtype=np.int64), 0.0)


def run_alone(loop, n, r, offs, perm):
    """(tau, closure_before) of the arrival loop ``loop`` on ``perm``, as a
    chunk of one."""
    ((tau, before, *_),) = process._lockstep(n, r, offs, [solved(perm)], loop)
    return tau, before


@contextlib.contextmanager
def uncertified():
    """Every fill run as a cascade: the rectangles certificate never holds."""
    with mock.patch.object(process, "_certify", lambda *args: False):
        yield


@contextlib.contextmanager
def searched(path):
    """Searches every batch that crosses its cap one way, whatever the
    offsets: replayed arrival by arrival ("scalar") or bisected ("batched")."""
    with mock.patch.object(process, "_BATCHED_MIN_OFFSETS",
                           {"scalar": 1 << 30, "batched": 0}[path]):
        yield


SEARCHES = ("scalar", "batched")


def searched_run(path, n, r, offs, perm):
    """run_alone on _run_batched, each crossing batch searched by ``path``."""
    with searched(path):
        return run_alone(_run_batched, n, r, offs, perm)


@contextlib.contextmanager
def replays():
    """Records each _replay as (lo, hi, end, handed off, filled): the
    batch it replays, the arrivals it took in, whether it handed a cascade
    to the rounds and whether the torus ended full."""
    calls = []
    replay = process._replay

    def spy(n, r, offs, state, perm, lo, hi, num):
        gen = replay(n, r, offs, state, perm, lo, hi, num)
        handed, reply = False, None
        while True:
            try:
                request = gen.send(reply)
            except StopIteration as stop:
                end, before, after = stop.value
                calls.append((lo, hi, end, handed, after == n * n))
                return stop.value
            handed = True
            reply = yield request

    with mock.patch.object(process, "_replay", spy):
        yield calls


def watched(loop, events, rounds):
    """``loop`` with each of its grow requests appended to ``events`` as
    (cap, reply, sites done before the request, sites done at the reply,
    len(rounds) at the request, len(rounds) at the reply), ``rounds`` being
    a list that grows by one each round (see counted_rounds)."""
    def spied(n, r, offs, arrivals, state):
        gen = loop(n, r, offs, arrivals, state)
        reply = None
        while True:
            try:
                sites, cap = gen.send(reply)
            except StopIteration as stop:
                return stop.value
            before, asked = int(np.count_nonzero(state.counts < 0)), len(rounds)
            reply = yield sites, cap
            events.append((cap, reply, before, int(np.count_nonzero(state.counts < 0)),
                           asked, len(rounds)))
    return spied


def wrapping_steps(wrap):
    """process.grid_step, with ``wrap(step)`` in place of each step it builds."""
    build = process.grid_step
    return lambda *args: wrap(build(*args))


@contextlib.contextmanager
def counted_rounds():
    """Appends the size of each round's new front to the list it yields."""
    rounds = []

    def wrap(step):
        def counted(counts, front):
            front = step(counts, front)
            rounds.append(front.size)
            return front
        return counted

    with mock.patch.object(process, "grid_step", wrapping_steps(wrap)):
        yield rounds


def _random_order(n, seed):
    perm = list(range(n * n))
    random.Random(seed).shuffle(perm)
    return perm


# Asymmetric neighbourhoods on which every oracle order below gives another
# (tau, closure_before) once the offsets are reversed, so that pushes made
# the wrong way round fail the oracle tests on both arrival paths.
SKEW = NeighbourhoodSpec.explicit([(0, 1), (1, 0), (2, 1), (-1, 2)], 3)
QUADRANT = NeighbourhoodSpec.explicit(
    [(a, b) for a in range(5) for b in range(4) if (a, b) != (0, 0)], 8)

# (spec, n, arrival order, whether some replayed cascade outgrows n sites
# and is handed to the generation-by-generation expansion, the search
# run_once takes for a crossing batch)
ORACLE_CASES = [
    pytest.param(NeighbourhoodSpec.named("square"), 16, "random", True, "scalar", id="square"),
    pytest.param(NeighbourhoodSpec.named("square"), 12, "row-major", True, "scalar",
                 id="square-row-major"),
    pytest.param(NeighbourhoodSpec.named("square"), 16, "rows", True, "scalar", id="square-rows"),
    pytest.param(NeighbourhoodSpec.named("square4"), 12, "random", True, "batched", id="square4"),
    pytest.param(NeighbourhoodSpec.named("diamond"), 15, "random", True, "scalar", id="diamond-odd"),
    pytest.param(NeighbourhoodSpec.named("diamond"), 16, "random", True, "scalar",
                 id="diamond-even"),
    pytest.param(NeighbourhoodSpec.lp_ball("2", "2"), 10, "random", True, "batched", id="lp2"),
    pytest.param(NeighbourhoodSpec.lp_ball("2", "3"), 10, "random", True, "batched",
                 id="lp2-s3"),
    pytest.param(NeighbourhoodSpec.explicit([(0, 1), (1, 0), (2, 1), (-1, 2)], 2), 12,
                 "random", True, "scalar", id="asymmetric"),
    pytest.param(SKEW, 12, "random", True, "scalar", id="skew"),
    pytest.param(QUADRANT, 12, "random", True, "batched", id="quadrant"),
    # a threshold of 3 out of 4 neighbours keeps every cascade small
    pytest.param(NeighbourhoodSpec.explicit([(0, 1), (1, 0), (-1, 0), (0, -1)], 3), 24,
                 "random", False, "scalar", id="scalar-only"),
]


def _rows_order(n):
    """A square order whose first batch grows one rectangle a row at a
    time: every other site of row 0's first n - 3 columns, which infect the
    columns between them, then the first site of each next row, which
    infects the rest of its row's n - 3 columns, up to row n - 3; the rest
    in row-major order."""
    grown = list(range(0, n - 3, 2)) + [x * n for x in range(1, n - 2)]
    return grown + sorted(set(range(n * n)) - set(grown))


def _oracle_orders(n, order):
    orders = [_random_order(n, seed) for seed in range(5)]
    if order == "row-major":
        orders.append(row_major_permutation(n))
    elif order == "rows":
        orders.append(_rows_order(n))
    return orders


@pytest.mark.parametrize("spec, n", [(SKEW, 12), (QUADRANT, 12)])
def test_directed_cases_depend_on_the_push_direction(spec, n):
    nbhd = build_neighbourhood(spec)
    offs = offsets_array(nbhd)
    for perm in _oracle_orders(n, "random"):
        assert reference_run(n, nbhd.threshold, offs, perm) != reference_run(
            n, nbhd.threshold, -offs, perm)


@pytest.mark.parametrize("spec, n, order, handoff, path", ORACLE_CASES)
def test_run_python_matches_reference_run(spec, n, order, handoff, path):
    # the scalar Python cascade: every crossing batch replayed arrival by
    # arrival, whatever the offsets
    nbhd = build_neighbourhood(spec)
    offs = offsets_array(nbhd)
    with replays() as calls:
        for perm in _oracle_orders(n, order):
            assert searched_run("scalar", n, nbhd.threshold, offs, perm) == reference_run(
                n, nbhd.threshold, offs, perm)
    assert calls and any(handed for *_, handed, _ in calls) == handoff


@pytest.mark.parametrize("spec, n, order, handoff, path", ORACLE_CASES)
def test_run_batched_matches_reference_run(spec, n, order, handoff, path):
    # every crossing batch bisected, whatever the offsets
    nbhd = build_neighbourhood(spec)
    offs = offsets_array(nbhd)
    for perm in _oracle_orders(n, order):
        assert searched_run("batched", n, nbhd.threshold, offs, perm) == reference_run(
            n, nbhd.threshold, offs, perm)


@pytest.mark.parametrize("p", ["1", "2", "inf"])
@pytest.mark.parametrize("s", ["2", "3", "4"])
def test_run_batched_matches_reference_run_on_lp_balls(p, s):
    nbhd = build_neighbourhood(NeighbourhoodSpec.lp_ball(p, s))
    offs = offsets_array(nbhd)
    n = 2 * nbhd.radius_ceil + 3
    for seed in range(3):
        perm = _random_order(n, seed)
        want = reference_run(n, nbhd.threshold, offs, perm)
        for path in SEARCHES:
            assert searched_run(path, n, nbhd.threshold, offs, perm) == want


def test_replay_reaches_each_of_its_ends():
    # across the oracle cases, every crossing batch replayed: some replays
    # take in the whole batch with no hand-off, some hand a cascade to the
    # rounds that does not fill the torus (the batches resume from the next
    # arrival), and some fill it, by a hand-off or in the scalar loop
    ends = {"whole batch": 0, "hand-off, batches resume": 0, "fill": 0,
            "fill in the scalar loop": 0}
    for case in ORACLE_CASES:
        spec, n, order, _, _ = case.values
        nbhd = build_neighbourhood(spec)
        offs = offsets_array(nbhd)
        for perm in _oracle_orders(n, order):
            with replays() as calls:
                got = searched_run("scalar", n, nbhd.threshold, offs, perm)
            assert got == reference_run(n, nbhd.threshold, offs, perm)
            tau = got[0]
            for lo, hi, end, handed, filled in calls:
                if filled:
                    assert end == tau
                    ends["fill"] += 1
                    ends["fill in the scalar loop"] += not handed
                elif handed:
                    assert lo < end <= hi and end < tau
                    ends["hand-off, batches resume"] += 1
                else:
                    assert end == hi < tau
                    ends["whole batch"] += 1
    assert all(ends.values()), ends


@pytest.mark.parametrize("spec, n, order, handoff, path", ORACLE_CASES)
def test_run_once_matches_batch_closures(spec, n, order, handoff, path):
    # tau and closure_before from the library's incremental cascade, checked
    # against from-scratch closures as `bperc tau --audit` does
    nbhd = build_neighbourhood(spec)
    dom = Domain.torus(n)
    for seed in range(3):
        perm = row_major_permutation(n) if order == "row-major" else _random_order(n, seed)
        rec = run_once(nbhd, n, 0, permutation=perm)
        assert rec.arrival_path == path
        sites = [divmod(p, n) for p in perm]
        before = closure(dom, nbhd, sites[: rec.tau - 1])
        after = closure(dom, nbhd, sites[: rec.tau])
        assert not before.is_full()
        assert after.is_full()
        assert before.size == rec.closure_before


def healthy_core(n, r, offs, arrived):
    """The sites that ``arrived`` never infects, by peeling (Batagelj &
    Zaversnik 2003): site x stays healthy iff at least |K*| - r + 1 of its
    neighbours x + k stay healthy, so the healthy sites are that core of the
    complement of ``arrived``.  Returns their number."""
    need = len(offs) - r + 1
    healthy = [True] * (n * n)
    for s in arrived:
        healthy[s] = False

    def neighbours(s, sign):
        x, y = divmod(s, n)
        return [(x + sign * kx) % n * n + (y + sign * ky) % n for kx, ky in offs]

    degree = [sum(healthy[t] for t in neighbours(s, 1)) for s in range(n * n)]
    peel = [s for s in range(n * n) if healthy[s] and degree[s] < need]
    while peel:
        s = peel.pop()
        if not healthy[s]:
            continue
        healthy[s] = False
        for t in neighbours(s, -1):  # the sites that count s as a neighbour
            degree[t] -= 1
            if healthy[t] and degree[t] < need:
                peel.append(t)
    return sum(healthy)


@pytest.mark.parametrize("spec, n", [
    pytest.param(NeighbourhoodSpec.named("square"), 16, id="square"),
    pytest.param(NeighbourhoodSpec.named("triangular"), 14, id="triangular"),
    pytest.param(NeighbourhoodSpec.named("boxtimes"), 14, id="boxtimes"),
    pytest.param(NeighbourhoodSpec.named("square4"), 12, id="square4"),
    pytest.param(SKEW, 12, id="skew"),
])
def test_run_once_matches_the_k_core_dual(spec, n):
    # the torus fills at tau: the core of the sites not yet arrived is empty
    # then, and one arrival earlier it holds every site outside the closure
    nbhd = build_neighbourhood(spec)
    offs = [tuple(map(int, k)) for k in offsets_array(nbhd)]
    for seed in range(5):
        perm = _random_order(n, seed)
        rec = run_once(nbhd, n, 0, permutation=perm)
        assert healthy_core(n, nbhd.threshold, offs, perm[: rec.tau]) == 0
        assert healthy_core(n, nbhd.threshold, offs, perm[: rec.tau - 1]) == (
            n * n - rec.closure_before)


# The same oracles with every round of the generation step forced onto one
# branch: the batches, the replays' hand-offs, the bisections, and the
# cascade that fills the torus.

@pytest.mark.parametrize("spec, n, order, handoff, path", ORACLE_CASES)
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_each_branch_matches_reference_run(branch, spec, n, order, handoff, path):
    nbhd = build_neighbourhood(spec)
    offs = offsets_array(nbhd)
    with generation_branch(branch) as rounds:
        for perm in _oracle_orders(n, order):
            want = reference_run(n, nbhd.threshold, offs, perm)
            for path in SEARCHES:
                assert searched_run(path, n, nbhd.threshold, offs, perm) == want
    assert bool(rounds) == (branch == "dense")


@pytest.mark.parametrize("p", ["1", "2", "inf"])
@pytest.mark.parametrize("s", ["2", "3", "4"])
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_each_branch_matches_reference_run_on_lp_balls(branch, p, s):
    nbhd = build_neighbourhood(NeighbourhoodSpec.lp_ball(p, s))
    offs = offsets_array(nbhd)
    n = 2 * nbhd.radius_ceil + 3
    with generation_branch(branch) as rounds:
        for seed in range(3):
            perm = _random_order(n, seed)
            want = reference_run(n, nbhd.threshold, offs, perm)
            for path in SEARCHES:
                assert searched_run(path, n, nbhd.threshold, offs, perm) == want
    assert bool(rounds) == (branch == "dense")


@pytest.mark.parametrize("spec, n", [
    pytest.param(NeighbourhoodSpec.named("square"), 16, id="square"),
    pytest.param(NeighbourhoodSpec.named("square4"), 12, id="square4"),
    pytest.param(NeighbourhoodSpec.lp_ball("2", "3"), 12, id="lp2-s3"),
    pytest.param(SKEW, 12, id="skew"),
    pytest.param(QUADRANT, 12, id="quadrant"),
])
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_each_branch_matches_the_k_core_dual(branch, spec, n):
    nbhd = build_neighbourhood(spec)
    offs = [tuple(map(int, k)) for k in offsets_array(nbhd)]
    with generation_branch(branch):
        for seed in range(3):
            perm = _random_order(n, seed)
            rec = run_once(nbhd, n, 0, permutation=perm)
            assert healthy_core(n, nbhd.threshold, offs, perm[: rec.tau]) == 0
            assert healthy_core(n, nbhd.threshold, offs, perm[: rec.tau - 1]) == (
                n * n - rec.closure_before)


def test_cost_rule_picks_dense_on_lp_balls_and_sparse_on_square_fills():
    lp = build_neighbourhood(NeighbourhoodSpec.lp_ball("2", "8"))
    rng = random.Random(3)
    sites = [(x, y) for x in range(64) for y in range(64) if rng.random() < 0.2]
    with dense_rounds() as rounds:
        closure(Domain.torus(64), lp, sites)
    assert rounds and rounds[0] == len(sites)
    with dense_rounds() as rounds:
        run_once(lp, 128, 1)
    assert rounds
    # the square fill runs about 2n rounds on fronts of about n sites, and
    # square4's fronts at n = 192 (at most about 690 sites) stay below the
    # 1026 where dense would start: both stay sparse
    with dense_rounds() as rounds:
        run_once(build_neighbourhood(NeighbourhoodSpec.named("square")), 384, 1)
        run_once(build_neighbourhood(NeighbourhoodSpec.named("square4")), 192, 1)
    assert rounds == []


# Chunks: the runs of a sweep advance together on stacked tori.  The same
# oracles, with all the orders of a case in one chunk, with both searches
# and with every round forced onto each branch.

LP_GRID = [pytest.param(p, s, id=f"lp{p}-s{s}") for p in ("1", "2", "inf") for s in ("2", "3", "4")]


def _lp_case(p, s):
    nbhd = build_neighbourhood(NeighbourhoodSpec.lp_ball(p, s))
    return nbhd, 2 * nbhd.radius_ceil + 3


def _chunk_against_reference(nbhd, n, orders):
    offs = offsets_array(nbhd)
    want = [reference_run(n, nbhd.threshold, offs, perm) for perm in orders]
    for path in SEARCHES:
        with searched(path):
            got = process._lockstep(n, nbhd.threshold, offs, [solved(perm) for perm in orders],
                                    _run_batched)
        assert [(tau, before) for tau, before, *_ in got] == want


@pytest.mark.parametrize("spec, n, order, handoff, path", ORACLE_CASES)
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_chunk_matches_reference_run(branch, spec, n, order, handoff, path):
    with generation_branch(branch) as rounds:
        _chunk_against_reference(build_neighbourhood(spec), n, _oracle_orders(n, order))
    assert bool(rounds) == (branch == "dense")


@pytest.mark.parametrize("p, s", LP_GRID)
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_chunk_matches_reference_run_on_lp_balls(branch, p, s):
    nbhd, n = _lp_case(p, s)
    with generation_branch(branch) as rounds:
        _chunk_against_reference(nbhd, n, [_random_order(n, seed) for seed in range(4)])
    assert bool(rounds) == (branch == "dense")


SWEEP_CASES = [pytest.param(*case.values[:2], id=case.id) for case in ORACLE_CASES] + [
    pytest.param(NeighbourhoodSpec.lp_ball(p, s), None, id=f"lp{p}-s{s}")
    for p in ("1", "2", "inf") for s in ("2", "3", "4")]


@pytest.mark.parametrize("spec, n", SWEEP_CASES)
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_sweep_chunks_match_chunks_of_one(monkeypatch, branch, spec, n):
    nbhd = build_neighbourhood(spec)
    n = n or 2 * nbhd.radius_ceil + 3
    per_run = n * n + n * len(offsets_array(nbhd))
    runs = {}
    with generation_branch(branch):
        # one run a chunk, chunks of two (2, 2, 1) and the whole group
        for budget, sizes in ((1, [1] * 5), (2 * per_run + 1, [2, 2, 2, 2, 1]),
                              (1 << 40, [5] * 5)):
            monkeypatch.setattr(process, "_CHUNK_SITES", budget)
            records, _ = run_sweep([("case", nbhd)], [n], 5, master_seed=41, parallelism=1)
            assert [r.chunk_runs for r in records] == sizes
            runs[budget] = [(r.model, r.n, r.seed, r.tau, r.closure_before, r.arrival_path)
                            for r in records]
    assert len(set(map(tuple, runs.values()))) == 1


def _leaves_while_another_stays(events):
    """For each request of ``events`` that passed its cap in a round,
    whether another request was in that round and stayed in the front."""
    return [any(a < answered < b for _, _, _, _, a, b in events)
            for cap, reply, _, _, asked, answered in events if reply > cap and answered > asked]


@pytest.mark.parametrize("path", SEARCHES)
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_chunk_run_past_its_cap_leaves_the_front_in_that_round(branch, path):
    # square4 runs in one chunk: a batch or probe that passes its cap while
    # another run's request goes on leaves the front in that round, and its
    # loop gets the reply with the torus as the cascade left it, the sites
    # done before and exactly ``reply`` more, as a run alone does; the other
    # tori are not touched, so each run still matches the oracle
    nbhd = build_neighbourhood(NeighbourhoodSpec.named("square4"))
    offs, r, n = offsets_array(nbhd), nbhd.threshold, 12
    orders = [_random_order(n, seed) for seed in range(8)]
    want = [reference_run(n, r, offs, o) for o in orders]
    chunked, alone = [], []
    with generation_branch(branch) as dense, searched(path), counted_rounds() as rounds:
        got = process._lockstep(n, r, offs, [solved(o) for o in orders],
                                watched(_run_batched, chunked, rounds))
        assert [(tau, before) for tau, before, *_ in got] == want
        for o, run in zip(orders, want):
            assert run_alone(watched(_run_batched, alone, rounds), n, r, offs, o) == run
    assert bool(dense) == (branch == "dense")
    assert any(_leaves_while_another_stays(chunked))
    for events in (chunked, alone):
        over = [event for event in events if event[1] > event[0]]
        assert over and all(after == before + reply for _, reply, before, after, _, _ in over)


@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_generation_fronts_come_in_increasing_order(monkeypatch, branch):
    # _lockstep splits a round's front among the runs by one searchsorted
    # over the block bounds, so the step must return sorted sites, each
    # once: strictly increasing, though a sparse round lists a site once
    # per push
    fronts = []

    def wrap(step):
        def spied(counts, front):
            front = step(counts, front)
            fronts.append(front)
            return front
        return spied

    monkeypatch.setattr(process, "grid_step", wrapping_steps(wrap))
    monkeypatch.setattr(process, "_CHUNK_SITES", 1 << 40)
    with generation_branch(branch) as rounds:
        for name in ("square", "square4"):
            nbhd = build_neighbourhood(NeighbourhoodSpec.named(name))
            run_sweep([(name, nbhd)], [16], 4, master_seed=13, parallelism=1)
    assert bool(rounds) == (branch == "dense")
    assert sum(f.size > 1 for f in fronts) > 20
    assert all((np.diff(f) > 0).all() for f in fronts)


@pytest.mark.parametrize("branch", ["dense", "sparse"])
@pytest.mark.parametrize("chunk", [1, 5])
@pytest.mark.parametrize("name, path", [("square", "scalar"), ("square4", "batched")])
def test_cascade_state_is_its_pushes_after_every_round_and_restore(monkeypatch, branch,
                                                                    chunk, name, path):
    # the one state array against an oracle recounted from scratch: a round
    # marks no site done and unmarks none, every site that is not done
    # (counts >= 0) holds the pushes of its done neighbours, and the round
    # returns exactly the sites that are not done at r or more; a restore
    # brings back the done sites of its save, and a replay leaves its
    # scalar cascades, with the same invariant.  In chunks of 5 some run
    # leaves the front past its cap while another stays: the rounds after
    # it still find every block, the staying runs' too, in that state
    nbhd = build_neighbourhood(NeighbourhoodSpec.named(name))
    offs, r, n = offsets_array(nbhd), nbhd.threshold, 12
    torus = Domain.torus(n)

    def check(block):
        done = block.reshape(n, n) < 0
        pushed = dynamics._neighbour_counts(torus, nbhd, done)
        assert np.array_equal(block.reshape(n, n)[~done], pushed[~done])
        return done

    fronts = []

    def wrap(step):
        def checked(counts, front):
            before = counts < 0
            new = step(counts, front)
            assert np.array_equal(counts < 0, before)
            for block in counts.reshape(-1, n * n):
                check(block)
            assert np.array_equal(new, np.flatnonzero(counts >= r))
            fronts.append(new.size)
            return new
        return checked

    save, restore = process._Torus.save, process._Torus.restore
    restores = []

    def saved(self):
        save(self)
        self.oracle = self.counts < 0

    def restored(self):
        restore(self)
        assert np.array_equal(check(self.counts), self.oracle.reshape(n, n))
        restores.append(self)

    replay = process._replay
    replayed = []

    def replay_checked(n, r, offs, state, perm, lo, hi, num):
        out = yield from replay(n, r, offs, state, perm, lo, hi, num)
        assert np.count_nonzero(check(state.counts)) == out[2]
        replayed.append(out)
        return out

    monkeypatch.setattr(process, "grid_step", wrapping_steps(wrap))
    monkeypatch.setattr(process._Torus, "save", saved)
    monkeypatch.setattr(process._Torus, "restore", restored)
    monkeypatch.setattr(process, "_replay", replay_checked)
    orders = [_random_order(n, seed) for seed in range(10)]
    events = []
    with generation_branch(branch) as dense:
        for at in range(0, len(orders), chunk):
            part = orders[at:at + chunk]
            got = process._lockstep(n, r, offs, [solved(o) for o in part],
                                    watched(_run_batched, events, fronts))
            assert [(tau, before) for tau, before, *_ in got] == [
                reference_run(n, r, offs, o) for o in part]
    assert bool(dense) == (branch == "dense") and sum(f > 1 for f in fronts) > 20
    assert any(_leaves_while_another_stays(events)) == (chunk > 1)
    assert process._arrival_path(offs) == path
    assert restores and bool(replayed) == (path == "scalar")


@pytest.mark.parametrize("n, most", [(64, 64 * 64 - 1), (384, 384 * 384 // 8)])
def test_square_runs_solve_only_a_prefix_of_the_permutation(square, n, most):
    for seed in (1, 2):
        rec = run_once(square, n, seed)
        assert rec.tau <= rec.arrivals_solved <= most
    injected = run_once(square, 16, 0, permutation=row_major_permutation(16))
    assert injected.arrivals_solved == 16 * 16


def test_solves_inside_the_loop_count_as_permutation_time(square, monkeypatch):
    # every solve is timed by the arrival order, not by the loop it runs in
    solves = []
    solve = _Arrivals._solve

    def slow(self, lo, hi):
        solve(self, lo, hi)
        time.sleep(0.05)
        solves.append(hi)

    monkeypatch.setattr(_Arrivals, "_solve", slow)
    monkeypatch.setattr(process, "_CHUNK_SITES", 1 << 40)
    records, _ = run_sweep([("square", square)], [32], 3, master_seed=3, parallelism=1)
    assert len(solves) >= 3
    for rec in records:
        assert rec.perm_ms >= 50 and rec.cascade_ms < 50
        assert rec.perm_ms + rec.cascade_ms == pytest.approx(rec.wall_ms, rel=1e-9)


def test_run_state_is_released_when_its_loop_returns(monkeypatch):
    # a run's draws, succ and permutation go as soon as its loop returns,
    # while the other runs of its chunk go on
    nbhd = build_neighbourhood(NeighbourhoodSpec.named("square4"))
    arrivals = [_Arrivals(16 * 16, seed) for seed in range(4)]
    released = []
    release = _Arrivals.release

    def spied(self):
        released.append(sum(a.perm is not None for a in arrivals))
        release(self)

    monkeypatch.setattr(_Arrivals, "release", spied)
    records = process._run_chunk("square4", nbhd, 16, list(range(4)), arrivals)
    assert released == [4, 3, 2, 1]
    assert all(a.perm is None and a._draw is None for a in arrivals)
    assert [r.arrivals_solved for r in records] == [a.solved for a in arrivals]


def test_chunk_records_split_the_wall_time(square, monkeypatch):
    monkeypatch.setattr(process, "_CHUNK_SITES", 1 << 40)
    records, _ = run_sweep([("square", square)], [24], 4, master_seed=3, parallelism=1)
    for rec in records:
        assert rec.chunk_runs == 4
        assert rec.perm_ms > 0 and rec.cascade_ms > 0
        assert rec.perm_ms + rec.cascade_ms == pytest.approx(rec.wall_ms, rel=1e-9)


@pytest.mark.parametrize("seed", [-1, -5, 1 << 64, 1 << 70, 1.0, "3", True, None])
def test_run_once_rejects_seeds_outside_64_bits(square, seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\), got "):
        run_once(square, 8, seed)


def test_run_once_takes_seeds_at_both_ends(square):
    assert run_once(square, 8, 0).seed == 0
    top = run_once(square, 8, (1 << 64) - 1)
    assert top.seed == (1 << 64) - 1
    assert run_once(square, 8, np.uint64((1 << 64) - 1)).tau == top.tau


@pytest.mark.parametrize("master", [-5, -1, 1 << 64, 2.0])
def test_sweep_rejects_master_seeds_outside_64_bits(square, master):
    # -5 used to run the sweep of 2^64 - 5, reduced mod 2^64
    with pytest.raises(ValueError, match=r"master_seed must be an integer in \[0, 2\^64\)"):
        run_sweep([("square", square)], [8], 2, master_seed=master)
    records, _ = run_sweep([("square", square)], [8], 2, master_seed=(1 << 64) - 5)
    assert len(records) == 2


# Hand-built orders for the searches' edge cases, every crossing batch
# bisected unless said otherwise.  The spy records each bisection as (batch
# start, batch end, first arrival past the limit); the batches hold n
# arrivals and restart after the arrival a bisection found.

SQUARE = NeighbourhoodSpec.named("square")
FOUR_OF_3 = NeighbourhoodSpec.explicit([(0, 1), (1, 0), (-1, 0), (0, -1)], 3)


@pytest.fixture
def bisections(monkeypatch):
    calls = []
    bisect = process._bisect

    def spy(state, perm, lo, hi, cap):
        t, added = yield from bisect(state, perm, lo, hi, cap)
        calls.append((lo, hi, t))
        return t, added

    monkeypatch.setattr(process, "_bisect", spy)
    return calls


def _batched_against_reference(spec, n, perm, path="batched"):
    nbhd = build_neighbourhood(spec)
    offs = offsets_array(nbhd)
    tau, before = searched_run(path, n, nbhd.threshold, offs, perm)
    assert (tau, before) == reference_run(n, nbhd.threshold, offs, perm)
    return tau, before


def test_batched_tau_at_the_first_arrival_of_a_batch(bisections):
    # row-major square: each row's first arrival infects the rest of the row,
    # so later arrivals are already infected, and row n - 2 starts batch n - 2
    n = 8
    tau, before = _batched_against_reference(SQUARE, n, row_major_permutation(n))
    assert (tau, before) == ((n - 1) ** 2, n * (n - 2))
    assert bisections == [(n * (n - 2), n * (n - 1), tau - 1)]


def test_batched_tau_at_the_last_arrival_of_a_batch(bisections):
    # row n - 3 arrives without its first site, which the row's cascade
    # infects anyway; the next arrival, in row n - 2, ends the batch and fills
    n = 8
    k = (n - 3) * n
    filler = (n - 2) * n
    order = list(range(k)) + list(range(k + 1, k + n)) + [filler, k]
    order += [s for s in range(k + n, n * n) if s != filler]
    tau, _ = _batched_against_reference(SQUARE, n, order)
    assert tau == k + n
    assert bisections == [(k, k + n, tau - 1)]


def test_batched_runs_on_after_a_large_cascade(bisections):
    # a diagonal of n/2 + 1 sites spans a square droplet that does not fill
    # the torus; the batches go on from the arrival after the one that spans it
    n = 12
    diagonal = [i * n + i for i in range(n // 2 + 1)]
    order = diagonal + [s for s in range(n * n) if s not in diagonal]
    tau, _ = _batched_against_reference(SQUARE, n, order)
    carried = [t for _, _, t in bisections[:-1]]
    assert carried and all(t + 1 < tau for t in carried)
    assert carried[0] < len(diagonal)
    assert any((t + 1) % n for t in carried)  # the batches no longer start at multiples of n
    assert bisections[-1][2] == tau - 1


def test_batched_tau_in_a_short_last_batch(bisections):
    # odd sites first: their cascades infect most even ones, and each large
    # one moves the batch starts; a 2x2 block arriving last holds tau, so
    # the last batch is cut short by the end of the order
    n = 8
    block = {(n - 2) * n + n - 2, (n - 2) * n + n - 1, (n - 1) * n + n - 2, n * n - 1}
    short = []
    for seed in range(4):
        rng = random.Random(seed)
        odd = [s for s in range(n * n) if sum(divmod(s, n)) % 2 and s not in block]
        even = [s for s in range(n * n) if not sum(divmod(s, n)) % 2 and s not in block]
        rng.shuffle(odd)
        rng.shuffle(even)
        bisections.clear()
        tau, _ = _batched_against_reference(FOUR_OF_3, n, odd + even + sorted(block))
        assert tau == n * n - 3
        lo, hi, t = bisections[-1]
        short.append(hi == n * n and hi - lo < n)
    assert any(short)


def test_replayed_tau_at_the_first_arrival_of_a_batch():
    # the row-major square order through the replay: each row's batch adds
    # the row; batch n - 2 fills the torus, and its first arrival's cascade
    # outgrows n sites.  Without the certificate the replay hands that
    # cascade to the rounds, which fill the torus
    n = 8
    with uncertified(), replays() as calls:
        tau, before = _batched_against_reference(SQUARE, n, row_major_permutation(n), "scalar")
    assert (tau, before) == ((n - 1) ** 2, n * (n - 2))
    assert calls == [(n * (n - 2), n * (n - 1), tau, True, True)]


def test_certified_tau_at_the_first_arrival_of_a_batch(square):
    # the same replay with the certificate: the rectangle from that arrival
    # grows through rows 0 to n - 2 and then by (a) over the last row, so
    # the replay returns with the torus full and hands nothing to the rounds
    n = 8
    with replays() as calls:
        tau, before = _batched_against_reference(SQUARE, n, row_major_permutation(n), "scalar")
    assert (tau, before) == ((n - 1) ** 2, n * (n - 2))
    assert calls == [(n * (n - 2), n * (n - 1), tau, False, True)]
    assert run_once(square, n, 0, permutation=row_major_permutation(n)).fill == "certified"
    with uncertified():
        assert run_once(square, n, 0, permutation=row_major_permutation(n)).fill == "cascade"


def _cap_order(n, d, a, b, m):
    """An order on the n x n square torus whose second batch crosses a cap
    of c n plus its new arrivals, where (c + 1) n >= d^2 and c n + m < a b
    <= (c + 1) n, but not a cap that counts every arrival of the batch as
    new.  Batch 0 spans the d x d square at the origin: its diagonal and
    n - d more of its sites.  Batch 1 holds n - m sites of that square, all
    infected already, and m new arrivals that span an a x b rectangle two
    rows below it: its diagonal, every other site of its last row on to
    column b - 1, and sites inside it.  The rest follow in row-major order."""
    square = [(i, i) for i in range(d)]
    inside = [(x, y) for x in range(d) for y in range(d) if x != y]
    top = d + 2
    span = [(top + i, i) for i in range(a)] + [(top + a - 1, y) for y in range(a + 1, b, 2)]
    span += [(x, y) for x in range(top, top + a) for y in range(b) if (x, y) not in span]
    first = square + inside[:n - d]
    second = inside[n - d:2 * n - d - m] + span[:m]
    assert len(first) == len(second) == n and d * d - n >= n - m
    order = [x * n + y for x, y in first + second]
    return order + sorted(set(range(n * n)) - set(order))


@pytest.mark.parametrize("path, n, d, a, b, m", [
    pytest.param("scalar", 24, 10, 10, 12, 11, id="replay"),
    pytest.param("batched", 16, 5, 4, 8, 7, id="bisect"),
])
def test_batch_caps_count_only_the_new_arrivals(monkeypatch, bisections, path, n, d, a, b, m):
    # the cap of a batch is c n plus its arrivals not yet infected (c is
    # _REPLAY_CAP_MULTIPLE for a replay, 1 for a bisection): the second
    # batch of _cap_order adds a b sites with m new arrivals, past c n + m,
    # so it is the first batch searched; counting all n arrivals as new, or
    # a wrong multiple, searches another batch first
    c = process._REPLAY_CAP_MULTIPLE if path == "scalar" else 1
    assert d * d <= (c + 1) * n and c * n + m < a * b <= (c + 1) * n
    order = _cap_order(n, d, a, b, m)
    with replays() as calls:
        _batched_against_reference(SQUARE, n, order, path)
    searches = calls if path == "scalar" else bisections
    assert searches and (calls if path == "batched" else bisections) == []
    assert searches[0][:2] == (n, 2 * n)


# ---------------------------------------------------------------------------
# The rectangles certificate of the final fill
# ---------------------------------------------------------------------------

DIAMOND = NeighbourhoodSpec.named("diamond")
TIMINGS = ("wall_ms", "perm_ms", "cascade_ms")


def untimed(records):
    """The records' fields but the timings and ``fill``."""
    return [{k: v for k, v in dataclasses.asdict(rec).items() if k not in TIMINGS + ("fill",)}
            for rec in records]


def certifiable(nbhd, n):
    """Whether _certify runs for ``nbhd`` at side n: the square rule, or the
    diamond rule at odd n."""
    rule = {tuple(map(int, k)) for k in offsets_array(nbhd)}
    return nbhd.threshold == 2 and (rule == {(1, 0), (-1, 0), (0, 1), (0, -1)} or (
        rule == {(1, 1), (1, -1), (-1, 1), (-1, -1)} and n % 2 == 1))


def exact_fill(n, r, offs, mask):
    """Whether the closure of ``mask``, n^2 bools flat or n x n, is the whole
    torus, by synchronous rounds: a site is infected once r of its
    neighbours x + k are."""
    grid = np.asarray(mask, dtype=bool).reshape(n, n)
    while True:
        count = sum(np.roll(grid, (-int(kx), -int(ky)), axis=(0, 1)).astype(np.int8)
                    for kx, ky in offs)
        grown = grid | (count >= r)
        if (grown == grid).all():
            return bool(grid.all())
        grid = grown


def reference_rectangles(infected, n, x, y, widen=1, ahead=0):
    """Whether the rectangles process of the square rule covers the n x n
    torus from site (x, y), ``infected`` a set of sites; one side grows by
    one line at a time.  R, rows x .. x + h - 1 by columns y .. y + w - 1
    mod n, grows by the line beyond a side when R is one line short of the
    torus that way, when that line holds an infected site within the side's
    span widened by ``widen`` at each end, or when the line after it holds
    one within the span widened by ``ahead``."""
    def row(a, lo, hi):
        return any((a % n, b % n) in infected for b in range(lo, hi))

    def col(b, lo, hi):
        return any((a % n, b % n) in infected for a in range(lo, hi))

    h = w = 1
    while True:
        if h < n and (h == n - 1 or row(x + h, y - widen, y + w + widen)
                      or row(x + h + 1, y - ahead, y + w + ahead)):
            h += 1
        elif h < n and (row(x - 1, y - widen, y + w + widen)
                        or row(x - 2, y - ahead, y + w + ahead)):
            x, h = x - 1, h + 1
        elif w < n and (w == n - 1 or col(y + w, x - widen, x + h + widen)
                        or col(y + w + 1, x - ahead, x + h + ahead)):
            w += 1
        elif w < n and (col(y - 1, x - widen, x + h + widen)
                        or col(y - 2, x - ahead, x + h + ahead)):
            y, w = y - 1, w + 1
        else:
            return h == w == n


def square_frame(rule, n, sites):
    """The sites of the torus as the square rule sees them: as they are for
    "square"; for "diamond" at odd n, site (x, y) at ((x + y) h, (x - y) h)
    mod n, h = (n + 1) / 2, where each diagonal neighbour becomes a
    nearest one."""
    if rule == "square":
        return {(x % n, y % n) for x, y in sites}
    h = (n + 1) // 2
    return {((x + y) * h % n, (x - y) * h % n) for x, y in sites}


def certify(rule, n, infected, site, stacked=()):
    """process._certify on the torus whose infected sites are ``infected``
    (done) and ``stacked`` (on the stack), from ``site``."""
    offs = offsets_array(build_neighbourhood(NeighbourhoodSpec.named(rule)))
    counts = np.zeros(n * n, dtype=np.int32)
    counts[[x * n + y for x, y in infected]] = DONE
    stack = np.array([x * n + y for x, y in stacked], dtype=np.int64)
    return process._certify(n, 2, offs, counts, stack, site[0] * n + site[1])


@pytest.mark.parametrize("rule", ["square", "diamond"])
def test_certificate_matches_the_reference_rectangles(rule):
    # random masks, some of their sites on the stack: the certificate is the
    # reference process on the square-rule frame, and it holds only where
    # the closure is the whole torus
    rng = random.Random(11)
    offs = offsets_array(build_neighbourhood(NeighbourhoodSpec.named(rule)))
    held = 0
    for _ in range(400):
        n = rng.choice([5, 7, 9, 13] if rule == "diamond" else [4, 5, 8, 9, 12])
        p = rng.uniform(0.05, 0.4)
        sites = [(x, y) for x in range(n) for y in range(n) if rng.random() < p]
        site = (rng.randrange(n), rng.randrange(n))
        sites = sorted(set(sites) | {site})
        stacked = [s for s in sites if rng.random() < 0.3]
        done = [s for s in sites if s not in stacked]
        got = certify(rule, n, done, site, stacked)
        x, y = square_frame(rule, n, [site]).pop()
        assert got == reference_rectangles(square_frame(rule, n, sites), n, x, y)
        mask = np.zeros((n, n), dtype=bool)
        mask[tuple(zip(*sites))] = True
        assert not got or exact_fill(n, 2, offs, mask)
        held += got
    assert 50 < held < 350


def staircase(n):
    """Sites (k, 2k) mod n, odd n >= 5: no site has two of them as nearest
    neighbours, so the set is its own closure, and each is a knight's move
    from the one before."""
    return [(k, 2 * k % n) for k in range(n)]


# (n, infected sites, start) on which the torus does not fill under the
# square rule, but the rectangles process with (b) widened by two, or with
# (c) widened by one, covers it
CRAFTED = [
    pytest.param(9, staircase(9), (0, 0), id="staircase-9"),
    pytest.param(15, staircase(15), (3, 6), id="staircase-15"),
    pytest.param(5, [(1, 1), (2, 3), (4, 0)], (1, 1), id="three-5"),
    pytest.param(5, [(0, 1), (1, 4), (2, 2), (3, 0)], (0, 1), id="four-5"),
    pytest.param(6, [(0, 1), (0, 2), (2, 4), (3, 0), (3, 2), (5, 0)], (5, 0), id="six-6"),
]


@pytest.mark.parametrize("rule, n, sites, start", [
    pytest.param(rule, *case.values, id=f"{rule}-{case.id}")
    for rule in ("square", "diamond") for case in CRAFTED
    if rule == "square" or case.values[0] % 2])  # diamond: odd n only
def test_certificate_refuses_crafted_masks(rule, n, sites, start):
    infected = set(sites)
    assert not reference_rectangles(infected, n, *start)
    assert reference_rectangles(infected, n, *start, widen=2)
    assert reference_rectangles(infected, n, *start, ahead=1)
    mask = np.zeros((n, n), dtype=bool)
    mask[tuple(zip(*sites))] = True
    assert not exact_fill(n, 2, offsets_array(build_neighbourhood(SQUARE)), mask)
    if rule == "diamond":
        # the same mask as the diamond rule sees it: site (a + b, a - b)
        # of the torus for each site (a, b) of the frame
        sites = [((a + b) % n, (a - b) % n) for a, b in sites]
        start = ((start[0] + start[1]) % n, (start[0] - start[1]) % n)
        assert square_frame(rule, n, sites) == infected
    for cut in range(len(sites) + 1):  # any split between done and stacked
        assert not certify(rule, n, sites[cut:], start, sites[:cut])


@pytest.mark.parametrize("spec, n, order, handoff, path", ORACLE_CASES)
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_certificate_leaves_chunk_records_unchanged(branch, spec, n, order, handoff, path):
    nbhd = build_neighbourhood(spec)
    orders = _oracle_orders(n, order)

    def chunk():
        return process._run_chunk(nbhd.name, nbhd, n, list(range(len(orders))),
                                  [solved(perm) for perm in orders])

    with generation_branch(branch):
        got = chunk()
        with uncertified():
            want = chunk()
    assert untimed(got) == untimed(want)
    assert {rec.fill for rec in want} == {"cascade"}
    assert any(rec.fill == "certified" for rec in got) == certifiable(nbhd, n)


@pytest.mark.parametrize("grid", ["square_sweep", "diamond_sweep"])
def test_certificate_leaves_the_fixture_grids_unchanged(request, grid):
    # the first chunk of each (model, n) group of the shared sweeps, run
    # again without the certificate
    records, _ = request.getfixturevalue(grid)
    groups = {}
    for rec in records:
        groups.setdefault((rec.model, rec.n), []).append(rec)
    for (model, n), recs in groups.items():
        nbhd = build_neighbourhood(NeighbourhoodSpec.named(model))
        first = recs[:recs[0].chunk_runs]
        with uncertified():
            again = process._sweep_chunk(model, nbhd, n, [rec.seed for rec in first])
        assert untimed(again) == untimed(first)
        assert {rec.fill for rec in again} == {"cascade"}
        certified = sum(rec.fill == "certified" for rec in recs)
        assert certified > len(recs) // 2 if certifiable(nbhd, n) else certified == 0


def test_certificate_leaves_diamond_records_unchanged_at_either_parity():
    nbhd = build_neighbourhood(DIAMOND)
    ns = [9, 10, 17, 18, 33, 34]
    got, _ = run_sweep([("diamond", nbhd)], ns, 12, master_seed=41, parallelism=1)
    with uncertified():
        want, _ = run_sweep([("diamond", nbhd)], ns, 12, master_seed=41, parallelism=1)
    assert untimed(got) == untimed(want)
    for n in ns:
        fills = {rec.fill for rec in got if rec.n == n}
        assert ("certified" in fills) == (n % 2 == 1)


def test_every_certified_state_fills(monkeypatch):
    # the exact fill of every state the certificate holds on: square n from
    # 8 to 64 and diamond at odd n, 1040 runs
    certificate = process._certify
    held = []

    def checked(n, r, offs, counts, stack, site):
        ok = certificate(n, r, offs, counts, stack, site)
        if ok:
            mask = counts < 0
            mask[stack] = True
            assert exact_fill(n, r, offs, mask)
        held.append(ok)
        return ok

    monkeypatch.setattr(process, "_certify", checked)
    runs = []
    for spec, ns, master in ((SQUARE, [8, 11, 16, 23, 32, 64], 5),
                             (DIAMOND, [5, 7, 9, 15, 21, 33, 63], 6)):
        records, _ = run_sweep([(spec.name, build_neighbourhood(spec))], ns, 80,
                               master_seed=master, parallelism=1)
        runs += records
    assert len(runs) == 1040
    assert sum(held) == sum(rec.fill == "certified" for rec in runs) > 900


# ---------------------------------------------------------------------------
# Driver behaviour
# ---------------------------------------------------------------------------


def test_run_once_rejects_small_torus(square):
    # the torus-size rule of Domain.validate_for: n >= 2 reach + 1
    with pytest.raises(ValueError, match="need n >= 3"):
        run_once(square, 2, 0)
    square4 = build_neighbourhood(NeighbourhoodSpec.named("square4"))
    with pytest.raises(ValueError, match="torus side 8 too small .* need n >= 9"):
        run_once(square4, 8, 0)
    with pytest.raises(ValueError, match="torus side must be positive"):
        run_once(square, 0, 0)
    assert run_once(square4, 9, 0).n == 9


MINIMUM_TORI = [pytest.param(NeighbourhoodSpec.named(name), id=name) for name in
                ("square", "triangular", "boxtimes", "diamond", "square4")] + [
    pytest.param(NeighbourhoodSpec.lp_ball(p, s), id=f"lp{p}-s{s}")
    for p in ("1", "2", "inf") for s in ("2", "4", "6")]


@pytest.mark.parametrize("spec", MINIMUM_TORI)
def test_torus_minimum_is_twice_the_reach_plus_one(spec):
    # distinct offsets stay distinct on the torus once n >= 2 reach + 1,
    # reach the largest |kx| or |ky|, whatever the Euclidean radius:
    # triangular, boxtimes and diamond (radius above 1) run at n = 3
    nbhd = build_neighbourhood(spec)
    offs = offsets_array(nbhd)
    reach = nbhd.reach
    assert reach == int(np.abs(offs).max())
    least = 2 * reach + 1
    for n in (least - 1, 1):
        with pytest.raises(ValueError, match=f"torus side {n} too small .* need n >= {least}"):
            run_once(nbhd, n, 0)
        with pytest.raises(ValueError, match=f"need n >= {least}"):
            run_sweep([("case", nbhd)], [n], 1, parallelism=1)
        with pytest.raises(ValueError, match=f"need n >= {least}"):
            closure(Domain.torus(n), nbhd, [(0, 0)])
    wrapped = {(kx % least, ky % least) for kx, ky in offs.tolist()}
    assert len(wrapped) == len(offs) and (0, 0) not in wrapped  # distinct, off the origin
    assert run_once(nbhd, least, 0).n == least
    assert run_sweep([("case", nbhd)], [least], 1, parallelism=1)[0][0].n == least


@pytest.mark.parametrize("spec", MINIMUM_TORI)
@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_minimum_tori_match_their_oracles(branch, spec):
    # at n = 2 reach + 1 and the next size up, with each branch forced:
    # runs against the scalar reference loop (drawn and injected orders,
    # both searches) and closures against the synchronous engine
    nbhd = build_neighbourhood(spec)
    offs, r = offsets_array(nbhd), nbhd.threshold
    rng = random.Random(len(offs))
    with generation_branch(branch) as rounds:
        for n in (2 * nbhd.reach + 1, 2 * nbhd.reach + 2):
            for seed in range(3):
                rec = run_once(nbhd, n, seed)
                perm = reference_permutation(n * n, seed)
                assert (rec.tau, rec.closure_before) == reference_run(n, r, offs, perm)
                perm = _random_order(n, seed)
                want = reference_run(n, r, offs, perm)
                for path in SEARCHES:
                    assert searched_run(path, n, r, offs, perm) == want
            dom = Domain.torus(n)
            for density in (0.05, 0.2, 0.4):
                sites = [p for p in dom.sites() if rng.random() < density]
                a, b = closure(dom, nbhd, sites), closure_synchronous(dom, nbhd, sites)
                assert a.infected == b.infected and a.times == b.times
    assert bool(rounds) == (branch == "dense")


def _square_run(n):
    return run_once(build_neighbourhood(NeighbourhoodSpec.named("square")), n, 1)


def _square_sweep(n):
    return run_sweep([("square", build_neighbourhood(NeighbourhoodSpec.named("square")))],
                     [n], 1, parallelism=1)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: random_permutation(10, 1 << 64), "seed", id="perm-seed-2^64"),
    pytest.param(lambda: random_permutation(10, -1), "seed", id="perm-seed-minus-1"),
    pytest.param(lambda: random_permutation(10, 3.0), "seed", id="perm-seed-float"),
    pytest.param(lambda: random_permutation(-5, 3), "n_items", id="perm-size-minus-5"),
    pytest.param(lambda: random_permutation(10.0, 3), "n_items", id="perm-size-float"),
    pytest.param(lambda: random_permutation(True, 3), "n_items", id="perm-size-bool"),
    pytest.param(lambda: process.arrival_prefix(10, 1 << 64, 3), "seed", id="prefix-seed-2^64"),
    pytest.param(lambda: process.arrival_prefix(10, -1, 3), "seed", id="prefix-seed-minus-1"),
    pytest.param(lambda: process.arrival_prefix(-5, 3, 0), "n_items", id="prefix-size-minus-5"),
    pytest.param(lambda: process.arrival_prefix(10, 3, 2.0), "k", id="prefix-k-float"),
    pytest.param(lambda: process.arrival_prefix(10, 3, 11), "k", id="prefix-k-past-the-end"),
    pytest.param(lambda: _square_run(16.0), "n", id="run-side-float"),
    pytest.param(lambda: _square_run(46341), "n", id="run-side-past-int32"),
    pytest.param(lambda: _square_sweep(16.0), "n", id="sweep-side-float"),
])
def test_permutation_helpers_reject_bad_arguments(call, name):
    # each used to wrap, truncate or fail deep inside the solver: seeds mod
    # 2^64, a negative size as an empty order, a float k or n in a slice
    with pytest.raises(ValueError, match=rf"^{name} must "):
        call()


def test_permutation_helpers_take_integers_of_any_kind():
    want = random_permutation(10, 3)
    assert (random_permutation(np.int64(10), np.uint64(3)) == want).all()
    assert (process.arrival_prefix(10, (1 << 64) - 1, np.int32(4))
            == random_permutation(10, (1 << 64) - 1)[:4]).all()
    assert random_permutation(0, 0).size == 0
    assert run_once(build_neighbourhood(NeighbourhoodSpec.named("square")), np.int64(8), 1).n == 8


def test_run_once_rejects_bad_permutation(square):
    # repeated entries, then entries that only a cast would turn into sites
    for perm in ([0] * 25, list(range(23)) + [0, 24],
                 [i + 0.7 for i in range(25)], [float(i) for i in range(25)],
                 [str(i) for i in range(25)]):
        with pytest.raises(ValueError, match="not a bijection"):
            run_once(square, 5, 0, permutation=perm)


def test_run_once_accepts_any_integer_dtype(square):
    want = run_once(square, 5, 0, permutation=row_major_permutation(5))
    for dtype in (np.uint8, np.int32, np.uint64):
        rec = run_once(square, 5, 0, permutation=np.arange(25, dtype=dtype))
        assert (rec.tau, rec.closure_before) == (want.tau, want.closure_before)


def test_run_once_rejects_permutation_of_wrong_length(square):
    for perm in (list(range(24)), list(range(26)), [list(range(5))] * 5):
        with pytest.raises(ValueError, match="not a bijection"):
            run_once(square, 5, 0, permutation=perm)


def test_run_once_rejects_permutation_off_the_torus(square):
    for perm in (list(range(1, 26)), [-1] + list(range(1, 25))):
        with pytest.raises(ValueError, match="not a bijection"):
            run_once(square, 5, 0, permutation=perm)


def test_run_once_rejects_bad_engine(square):
    # run_once has no engine knob; run_sweep keeps one that takes "python" only
    with pytest.raises(TypeError, match="engine"):
        run_once(square, 8, 0, engine="python")
    for engine in ("fortran", "numba"):
        with pytest.raises(ValueError, match="unknown engine"):
            run_sweep([("square", square)], [8], 2, parallelism=2, engine=engine)


def _mixed_models():
    return [(name, build_neighbourhood(NeighbourhoodSpec.named(name)))
            for name in ("square", "square4", "diamond")]


def test_sweep_deterministic_across_parallelism():
    runs = {}
    for workers in (1, 2, 4):
        records, _ = run_sweep(_mixed_models(), [16, 24], 4, master_seed=31,
                               parallelism=workers)
        runs[workers] = [(r.model, r.n, r.seed, r.tau, r.closure_before, r.arrival_path)
                         for r in records]
    assert {path for *_, path in runs[1]} == {"scalar", "batched"}
    assert runs[1] == runs[2] == runs[4]


def test_sweep_pools_only_more_than_one_chunk(monkeypatch):
    # one chunk, or one worker, runs in the caller; more chunks go to one
    # pool of min(parallelism, chunks) worker processes
    pools = []
    pool = process.futures.ProcessPoolExecutor

    def spied(workers):
        pools.append(workers)
        return pool(workers)

    def runs(records):
        return [(r.model, r.n, r.seed, r.tau, r.closure_before, r.arrival_path, r.chunk_runs)
                for r in records]

    monkeypatch.setattr(process.futures, "ProcessPoolExecutor", spied)
    models = _mixed_models()
    for parallelism in (None, 1, 2, 4):
        run_sweep(models[:1], [16], 3, master_seed=5, parallelism=parallelism)
    assert pools == []
    serial, _ = run_sweep(models, [16], 3, master_seed=5, parallelism=1)
    assert [r.chunk_runs for r in serial] == [3] * 9 and pools == []
    pooled, _ = run_sweep(models, [16], 3, master_seed=5, parallelism=2)
    assert pools == [2] and runs(pooled) == runs(serial)
    pooled, _ = run_sweep(models, [16], 3, master_seed=5, parallelism=4)
    assert pools == [2, 3] and runs(pooled) == runs(serial)
    monkeypatch.setattr(process, "_CHUNK_SITES", 1)  # a run a chunk: nine chunks
    one, _ = run_sweep(models, [16], 3, master_seed=5, parallelism=1)
    assert pools == [2, 3]
    pooled, _ = run_sweep(models, [16], 3, master_seed=5, parallelism=2)
    assert pools == [2, 3, 2] and runs(pooled) == runs(one)
    assert [r[:5] for r in runs(one)] == [r[:5] for r in runs(serial)]


@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
def test_sweep_rejects_counts_that_are_not_integers(square, value):
    # bool and float are not integers, as for seeds
    with pytest.raises(ValueError, match=f"n_seeds must be an integer, got {value!r}"):
        run_sweep([("square", square)], [8], value)
    if value is not None:
        with pytest.raises(ValueError,
                           match=f"parallelism must be a positive integer, got {value!r}"):
            run_sweep([("square", square)], [8], 2, parallelism=value)
    records, _ = run_sweep([("square", square)], [8], np.int64(2), parallelism=np.int64(1))
    assert len(records) == 2


def test_torus_state_saves_and_restores_its_block_of_the_chunk():
    # run 1 of a chunk of two 8 x 8 tori: a view of the second block
    counts = np.zeros(128, dtype=np.int32)
    state = process._Torus(counts[64:])
    state.counts[[3, 9]] = DONE
    state.counts[5] = 2
    assert counts[67] == counts[73] == DONE and np.count_nonzero(counts < 0) == 2
    assert state.saved is None  # no checkpoint copy before the first save
    state.save()
    saved = counts.copy()
    state.counts[4] = DONE
    state.counts[5] = 7
    state.counts[3] += 1  # a push onto a done site
    assert counts[68] == DONE and counts[69] == 7
    state.restore()
    assert np.array_equal(counts, saved)
    assert state.counts[4] == 0 and state.counts[5] == 2 and state.counts[3] == DONE


@pytest.mark.parametrize("chunk", [1, 6])
def test_restore_after_a_crossing_batch_returns_the_saved_counts(square, monkeypatch, chunk):
    # every square run checkpoints its batches; a batch past its cap has
    # changed the counts (in a chunk, it leaves the front with sites marked
    # done that never pushed), and the restore brings back the exact counts
    # of the save before it, from which the replay starts
    checkpoints, restores, replays_started = {}, [], []
    save, restore, replay = process._Torus.save, process._Torus.restore, process._replay

    def saved(self):
        save(self)
        checkpoints[id(self)] = self.counts.copy()

    def restored(self):
        changed = not np.array_equal(self.counts, checkpoints[id(self)])
        restore(self)
        assert changed and np.array_equal(self.counts, checkpoints[id(self)])
        restores.append(self)

    def replay_spied(n, r, offs, state, perm, lo, hi, num):
        assert np.array_equal(state.counts, checkpoints[id(state)])
        assert np.count_nonzero(state.counts < 0) == num
        replays_started.append(lo)
        return (yield from replay(n, r, offs, state, perm, lo, hi, num))

    monkeypatch.setattr(process._Torus, "save", saved)
    monkeypatch.setattr(process._Torus, "restore", restored)
    monkeypatch.setattr(process, "_replay", replay_spied)
    monkeypatch.setattr(process, "_CHUNK_SITES", 1 << 40)
    n = 24
    offs = offsets_array(square)
    records, _ = run_sweep([("square", square)], [n], chunk, master_seed=3, parallelism=1)
    assert [r.chunk_runs for r in records] == [chunk] * chunk
    for rec in records:
        assert rec.arrival_path == "scalar"
        perm = process.arrival_prefix(n * n, rec.seed, n * n).tolist()
        assert (rec.tau, rec.closure_before) == reference_run(n, square.threshold, offs, perm)
    assert len(restores) == len(replays_started) >= chunk


@pytest.mark.parametrize("parallelism", [0, -1])
def test_sweep_rejects_parallelism_below_one(square, parallelism):
    with pytest.raises(ValueError, match=f"parallelism must be a positive integer, got {parallelism}"):
        run_sweep([("square", square)], [16], 2, parallelism=parallelism)


def test_sweep_rejects_zero_seeds(square):
    with pytest.raises(ValueError):
        run_sweep([("square", square)], [16], 0)


# ---------------------------------------------------------------------------
# Summaries and jump events
# ---------------------------------------------------------------------------


def test_summary_statistics_match_manual(square):
    records, summary = run_sweep([("square", square)], [16], 9, master_seed=2)
    g = summary.groups[("square", 16)]
    taus = sorted(r.tau_scaled for r in records)
    assert g["count"] == 9
    assert g["tau_scaled_median"] == taus[4]  # odd count: middle element
    assert abs(g["tau_scaled_mean"] - sum(taus) / 9) < 1e-12
    assert g["jump_ratio_q1"] <= g["jump_ratio_median"] <= g["jump_ratio_q3"]
    assert 0.0 <= g["frac_jump_ge_2"] <= g["frac_jump_ge_1.5"] <= 1.0
    assert g["certified_frac"] == sum(r.fill == "certified" for r in records) / 9
    assert g["perm_ms_median"] == sorted(r.perm_ms for r in records)[4]
    assert g["cascade_ms_median"] == sorted(r.cascade_ms for r in records)[4]


def test_summary_closure_before_fraction_on_hand_built_records():
    def rec(model, n, closure_before):
        return process.ProcessRecord(model, n, 0, closure_before + 1, closure_before, 0.0)

    records = [rec("square", 10, 5), rec("square", 10, 30), rec("square", 10, 8),
               rec("square", 4, 6), rec("square", 4, 10), rec("boxtimes", 10, 50)]
    groups = summarise(records).groups
    assert groups[("square", 10)]["closure_before_frac_median"] == 0.08  # of .05 .08 .30
    assert groups[("square", 4)]["closure_before_frac_median"] == 0.5  # of 6/16 and 10/16
    assert groups[("boxtimes", 10)]["closure_before_frac_median"] == 0.5
    # a summary field only: the v1 CSV row keeps its columns
    header = records_to_csv(records).splitlines()[0]
    assert header.split(",") == list(CSV_COLUMNS)


def test_record_derived_fields(square):
    rec = run_once(square, 8, 1)
    assert rec.jump_ratio == rec.closure_before / rec.tau
    assert rec.tau_scaled == rec.tau * math.log(8) / 64


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def test_csv_layout(square):
    rec = run_once(square, 8, 5)
    text = records_to_csv([rec])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = lines[1].split(",")
    assert row[0] == "1" and row[1] == "square" and row[2] == "8"
    assert row[4] == str(rec.tau) and row[5] == str(rec.closure_before)


def test_csv_rows_reproducible_except_wall_ms(square):
    a = records_to_csv([run_once(square, 8, 5)]).splitlines()[1].split(",")
    b = records_to_csv([run_once(square, 8, 5)]).splitlines()[1].split(",")
    assert a[:-1] == b[:-1]  # wall_ms is the one timing-dependent column


def test_jsonl_round_trip(square):
    rec = run_once(square, 8, 5)
    line = records_to_jsonl([rec]).splitlines()[0]
    obj = json.loads(line)
    assert obj["tau"] == rec.tau
    assert obj["schema_version"] == 1
    assert set(obj) == set(CSV_COLUMNS) | {"perm_ms", "cascade_ms", "arrival_path",
                                           "chunk_runs", "arrivals_solved", "fill"}
    assert obj["arrival_path"] == "scalar"
    assert obj["fill"] in ("certified", "cascade")
    assert obj["chunk_runs"] == 1
    assert rec.tau <= obj["arrivals_solved"] <= 64


def test_records_name_the_arrival_path(square):
    square4 = build_neighbourhood(NeighbourhoodSpec.named("square4"))
    for nbhd, path in ((square, "scalar"), (square4, "batched")):
        rec = run_once(nbhd, 16, 5)
        assert rec.arrival_path == path
        assert json.loads(records_to_jsonl([rec]))["arrival_path"] == path
        # the frozen v1 CSV row does not carry it
        header, row = records_to_csv([rec]).splitlines()
        assert header.split(",") == list(CSV_COLUMNS)
        assert len(row.split(",")) == len(CSV_COLUMNS)


def test_phase_timings_split_the_wall_time(square):
    for perm in (None, row_major_permutation(16)):
        rec = run_once(square, 16, 5, permutation=perm)
        assert rec.perm_ms > 0 and rec.cascade_ms > 0
        assert rec.perm_ms + rec.cascade_ms == pytest.approx(rec.wall_ms, rel=1e-9)
        obj = rec.to_json()
        assert (obj["perm_ms"], obj["cascade_ms"]) == (rec.perm_ms, rec.cascade_ms)
        # the frozen v1 CSV row carries none of them
        assert len(rec.csv_row()) == len(CSV_COLUMNS)


# ---------------------------------------------------------------------------
# Diamond parity spot check
# ---------------------------------------------------------------------------


def test_diamond_even_torus_never_fills_from_one_class():
    nb = build_neighbourhood(NeighbourhoodSpec.named("diamond"))
    # arrivals restricted to one parity class first: the full torus is only
    # reached once the other class arrives, so tau > n^2/2 always on even n
    n = 8
    evens = [x * n + y for x in range(n) for y in range(n) if (x + y) % 2 == 0]
    odds = [x * n + y for x in range(n) for y in range(n) if (x + y) % 2 == 1]
    rec = run_once(nb, n, 0, permutation=evens + odds)
    assert rec.tau > n * n // 2
