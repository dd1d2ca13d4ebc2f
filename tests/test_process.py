import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bperc import process
from bperc.dynamics import Domain, closure, offsets_array
from bperc.geometry import NeighbourhoodSpec, build_neighbourhood
from bperc.process import (
    CSV_COLUMNS,
    Xoshiro256StarStar,
    _bounded_draws,
    _lane_stream,
    _rejects,
    _run_python,
    derive_run_seed,
    jump_event_rate,
    random_permutation,
    records_to_csv,
    records_to_jsonl,
    run_once,
    run_sweep,
    splitmix64,
    summarise,
)


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
EDGE_SEEDS = (0, (1 << 63) + 5, U64 - 1)


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
        raw, state = _lane_stream(seed, n_raw)
        rng = Xoshiro256StarStar(seed)
        assert raw.size >= n_raw
        assert raw.tolist() == [rng.next_raw() for _ in range(raw.size)]
        assert [int(w) for w in state] == rng.s


def test_permutations_agree_under_threads_from_a_cold_cache():
    # the pool threads of a sweep may all build the jump-ahead cache at once
    process._jump_matrix.cache_clear()
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


def _draws_against_reference(stream, top, n_draws):
    """_bounded_draws on the head of ``stream`` vs the scalar rule on all of it."""
    rest = iter(stream[n_draws:])
    got = _bounded_draws(np.array(stream[:n_draws], dtype=np.uint64), top, rest.__next__)
    it = iter(stream)
    want = [reference_bounded(it.__next__, top - d) for d in range(n_draws)]
    assert got.tolist() == want


def test_bounded_draws_realign_after_rejections():
    # bounds 6, 5, 4, 3, 2: 2^64 mod b is 4, 1, 0, 1, 0
    stream = [
        U64 - 1, U64 - 4, U64 - 5,  # b=6: two rejections, then accepted
        U64 - 1, 7,                 # b=5: one rejection
        U64 - 1,                    # b=4: a power of two rejects nothing
        U64 - 1, U64 - 2,           # b=3: one rejection
        U64 - 1,                    # b=2
        11, 12, 13,                 # never consumed
    ]
    _draws_against_reference(stream, 6, 5)


@settings(max_examples=80, deadline=None)
@given(
    top=st.integers(2, 12),
    values=st.lists(
        st.one_of(st.integers(U64 - 12, U64 - 1), st.integers(0, U64 - 1)),
        min_size=40,
        max_size=40,
    ),
)
def test_bounded_draws_match_scalar_rule(top, values):
    # values near 2^64 make rejections common
    it = iter(values)
    try:
        for d in range(top - 1):
            reference_bounded(it.__next__, top - d)
    except StopIteration:
        assume(False)  # too many rejections for the 40 values drawn
    _draws_against_reference(values, top, top - 1)


def test_arrival_permutation_is_what_run_once_draws(square):
    perm = random_permutation(16 * 16, 3)
    assert perm.tolist() == reference_permutation(16 * 16, 3)
    a = run_once(square, 16, 3)
    b = run_once(square, 16, 3, permutation=perm)
    assert (a.tau, a.closure_before) == (b.tau, b.closure_before)


def test_derive_run_seed_spreads():
    seeds = {derive_run_seed(5, i) for i in range(100)}
    assert len(seeds) == 100


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


def _random_order(n, seed):
    perm = list(range(n * n))
    random.Random(seed).shuffle(perm)
    return perm


# (spec, n, arrival order, whether some cascade outgrows the scalar loop and
# is finished by the generation-by-generation expansion)
ORACLE_CASES = [
    pytest.param(NeighbourhoodSpec.named("square"), 16, "random", True, id="square"),
    pytest.param(NeighbourhoodSpec.named("square"), 12, "row-major", True, id="square-row-major"),
    pytest.param(NeighbourhoodSpec.named("square4"), 12, "random", True, id="square4"),
    pytest.param(NeighbourhoodSpec.named("diamond"), 15, "random", True, id="diamond-odd"),
    pytest.param(NeighbourhoodSpec.named("diamond"), 16, "random", True, id="diamond-even"),
    pytest.param(NeighbourhoodSpec.lp_ball("2", "2"), 10, "random", True, id="lp2"),
    pytest.param(NeighbourhoodSpec.explicit([(0, 1), (1, 0), (2, 1), (-1, 2)], 2), 12,
                 "random", True, id="asymmetric"),
    # a threshold of 3 out of 4 neighbours keeps every cascade small
    pytest.param(NeighbourhoodSpec.explicit([(0, 1), (1, 0), (-1, 0), (0, -1)], 3), 24,
                 "random", False, id="scalar-only"),
]


@pytest.mark.parametrize("spec, n, order, handoff", ORACLE_CASES)
def test_run_python_matches_reference_run(spec, n, order, handoff):
    nbhd = build_neighbourhood(spec)
    offs = offsets_array(nbhd)
    orders = [_random_order(n, seed) for seed in range(5)]
    if order == "row-major":
        orders.append(row_major_permutation(n))
    for perm in orders:
        assert _run_python(n, nbhd.threshold, offs, perm) == reference_run(
            n, nbhd.threshold, offs, perm)


@pytest.mark.parametrize("spec, n, order, handoff", ORACLE_CASES)
def test_run_once_matches_batch_closures(monkeypatch, spec, n, order, handoff):
    # tau and closure_before from the library's incremental cascade, checked
    # against from-scratch closures as `bperc tau --audit` does
    nbhd = build_neighbourhood(spec)
    expansions = []
    expand = process._expand

    def counted(*args):
        expansions.append(True)
        return expand(*args)

    monkeypatch.setattr(process, "_expand", counted)
    dom = Domain.torus(n)
    for seed in range(3):
        perm = row_major_permutation(n) if order == "row-major" else _random_order(n, seed)
        rec = run_once(nbhd, n, 0, permutation=perm)
        sites = [divmod(p, n) for p in perm]
        before = closure(dom, nbhd, sites[: rec.tau - 1])
        after = closure(dom, nbhd, sites[: rec.tau])
        assert not before.is_full()
        assert after.is_full()
        assert before.size == rec.closure_before
    assert bool(expansions) == handoff


# ---------------------------------------------------------------------------
# Driver behaviour
# ---------------------------------------------------------------------------


def test_run_once_rejects_small_torus(square):
    with pytest.raises(ValueError):
        run_once(square, 2, 0)


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
    for engine in ("fortran", "numba"):
        with pytest.raises(ValueError, match="unknown engine"):
            run_once(square, 8, 0, engine=engine)
        with pytest.raises(ValueError, match="unknown engine"):
            run_sweep([("square", square)], [8], 2, parallelism=2, engine=engine)


def test_sweep_deterministic_across_parallelism(square):
    models = [("square", square)]
    runs = {}
    for workers in (1, 4):
        records, _ = run_sweep(models, [16, 24], 10, master_seed=31,
                               parallelism=workers)
        runs[workers] = [(r.model, r.n, r.seed, r.tau, r.closure_before)
                         for r in records]
    assert runs[1] == runs[4]


def test_sweep_thread_env_override(square, monkeypatch):
    monkeypatch.setenv("BPERC_THREADS", "2")
    records, summary = run_sweep([("square", square)], [16], 5, master_seed=1)
    assert len(records) == 5
    assert ("square", 16) in summary.groups


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


def test_jump_event_rate_extremes(square):
    rec = run_once(square, 8, 0, permutation=row_major_permutation(8))
    # closure_before/tau = 48/49; the c=0 bar is tau itself
    assert jump_event_rate([rec], 0.0) == 0.0
    # a hugely negative c makes the bar trivial
    assert jump_event_rate([rec], -10.0) == 1.0


def test_jump_event_rate_rejects_mixed_sizes(square):
    a = run_once(square, 8, 0)
    b = run_once(square, 16, 0)
    with pytest.raises(ValueError):
        jump_event_rate([a, b], 1.0)
    with pytest.raises(ValueError):
        jump_event_rate([], 1.0)


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
    import json

    rec = run_once(square, 8, 5)
    line = records_to_jsonl([rec]).splitlines()[0]
    obj = json.loads(line)
    assert obj["tau"] == rec.tau
    assert obj["schema_version"] == 1
    assert set(obj) == set(CSV_COLUMNS)


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
