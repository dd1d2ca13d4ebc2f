"""Random-permutation arrival process on the torus.

Sites arrive in the order of a uniformly random permutation; the running
infected set is maintained incrementally (monotonicity makes it equal to the
closure of the arrived set at every step).  tau is the first arrival count
whose closure is the full torus; closure_before is the infected count just
before that arrival.

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
loop and checks the engine against it.  The engine produces the same stream
faster: K lanes start 2^m steps apart (jump-ahead by powers of the GF(2)
transition matrix, Blackman & Vigna, ACM TOMS 2021), are stepped together as
uint64 vectors and concatenated into the first K * 2^m raw outputs; the draws
are mapped as vectors, only raw >= 2^64 - n^2 are checked for rejection one
by one, and a rejection shifts the later draws along the stream.  Only the
Fisher-Yates swaps remain a scalar loop.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .dynamics import grid_targets, offsets_array, push_generations
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
# Scalar PRNG (the definition the lane stream reproduces)
# ---------------------------------------------------------------------------


def splitmix64(state: int):
    """One SplitMix64 step: returns (output, new_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    r = state
    r = ((r ^ (r >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    r = ((r ^ (r >> 27)) * 0x94D049BB133111EB) & _MASK
    return (r ^ (r >> 31)), state


def derive_run_seed(master_seed: int, run_index: int) -> int:
    out, _ = splitmix64((master_seed ^ run_index) & _MASK)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256StarStar:
    """Reference implementation; state seeded from SplitMix64."""

    def __init__(self, seed: int):
        s = []
        state = seed & _MASK
        for _ in range(4):
            out, state = splitmix64(state)
            s.append(out)
        self.s = s

    @classmethod
    def from_state(cls, state: Sequence[int]) -> "Xoshiro256StarStar":
        rng = cls.__new__(cls)
        rng.s = [int(w) & _MASK for w in state]
        return rng

    def next_raw(self) -> int:
        s = self.s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result


# ---------------------------------------------------------------------------
# The v1 stream in lanes: GF(2) jump-ahead
# ---------------------------------------------------------------------------
#
# The xoshiro256** transition is linear over GF(2) on the 256-bit state
# s[0] | s[1] << 64 | s[2] << 128 | s[3] << 192.  A matrix is stored as its
# 256 columns, each a 256-bit int; column j is the image of bit j.  Lane k
# starts 2^m steps after lane k - 1, so stepping K lanes together for 2^m
# steps yields the first K * 2^m outputs of the scalar stream.



def _pack(s: Sequence[int]) -> int:
    return int(s[0]) | int(s[1]) << 64 | int(s[2]) << 128 | int(s[3]) << 192


def _unpack(v: int) -> list:
    return [(v >> (64 * w)) & _MASK for w in range(4)]


def _apply(cols: list, v: int) -> int:
    """Matrix-vector product over GF(2)."""
    out = 0
    for bit, col in zip(reversed(bin(v)[2:]), cols):
        if bit == "1":
            out ^= col
    return out


@functools.lru_cache(maxsize=None)
def _jump_matrix(m: int) -> tuple:
    """Columns of T^(2^m), T the one-step transition, by repeated squaring."""
    if m > 0:
        cols = _jump_matrix(m - 1)
        return tuple(_apply(cols, c) for c in cols)
    cols = []
    for j in range(256):
        rng = Xoshiro256StarStar.from_state(_unpack(1 << j))
        rng.next_raw()
        cols.append(_pack(rng.s))
    return tuple(cols)


def _lane_stream(seed: int, n_raw: int) -> tuple:
    """The first K * 2^m >= n_raw raw outputs of the seed's stream.

    Returns (raw, state): raw holds the outputs as a uint64 array in stream
    order, and state is the generator state after the last of them.
    """
    # A lane start costs one Python matrix-vector product and a lane step ten
    # numpy calls; lanes of about 2 sqrt(n_raw) steps balance the two.
    m = max(0, (2 * math.isqrt(n_raw)).bit_length() - 1)
    steps = 1 << m
    lanes = max(1, -(-n_raw // steps))
    jump = _jump_matrix(m)
    starts = np.empty((4, lanes), dtype=np.uint64)
    v = _pack(Xoshiro256StarStar(seed).s)
    for k in range(lanes):
        starts[:, k] = _unpack(v)
        v = _apply(jump, v)
    s0, s1, s2, s3 = starts
    t = np.empty(lanes, dtype=np.uint64)
    raw = np.empty((lanes, steps), dtype=np.uint64)
    for j in range(steps):
        raw[:, j] = s1
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t
    raw = raw.reshape(-1)
    raw *= 5  # the ** scrambler, rotl(s1 * 5, 7) * 9, on the whole block
    hi = raw >> 57
    raw <<= 7
    raw |= hi
    raw *= 9
    return raw, _unpack(v)


def _bounded_draws(raw: np.ndarray, top: int, more) -> np.ndarray:
    """Bounded draws below top, top - 1, ..., one per element of ``raw``.

    ``raw`` is the uint64 raw stream the draws consume in order, and
    ``more()`` returns the raw output after the last one handed over so far.
    A rejected raw draw shifts every later draw one place down the stream.
    Only raw >= 2^64 - top can be rejected, so only those are checked one by
    one; a real rejection has probability below top / 2^64 per draw.
    """
    k = 0  # draws before k are final
    while True:
        near_top = np.flatnonzero(raw[k:] > _MASK - top).tolist()
        rejected = next(
            (k + c for c in near_top if _rejects(int(raw[k + c]), top - k - c)), None
        )
        if rejected is None:
            break
        tail = np.array([more()], dtype=np.uint64)
        raw = np.concatenate((raw[:rejected], raw[rejected + 1:], tail))
        k = rejected
    draws = np.arange(top, top - raw.size, -1, dtype=np.uint64)
    np.remainder(raw, draws, out=draws)
    return draws.view(np.int64)


def random_permutation(n_items: int, seed: int) -> np.ndarray:
    """Seeded Fisher-Yates permutation of 0..n_items-1 (the v1 stream).

    Same result as the scalar loop the module docstring defines; the raw
    stream comes from jump-ahead lanes and the draws are mapped as vectors.
    """
    if n_items < 2:
        return np.arange(n_items, dtype=np.int64)
    raw, state = _lane_stream(seed & _MASK, n_items - 1)
    tail = Xoshiro256StarStar.from_state(state)
    more = itertools.chain(raw[n_items - 1:].tolist(), iter(tail.next_raw, None))
    draws = _bounded_draws(raw[: n_items - 1], n_items, more.__next__)
    del raw  # at most two n_items-long arrays are alive at once
    perm = np.arange(n_items, dtype=np.int64)
    p = memoryview(perm)
    for i, j in zip(range(n_items - 1, 0, -1), memoryview(draws)):
        p[i], p[j] = p[j], p[i]
    return perm


def _run_python(n, r, offs, perm):
    """Arrival loop with incremental cascade; returns (tau, closure_before).

    Arrivals and small cascades run as scalar loops.  Once one arrival's
    cascade has infected more than n sites, _expand finishes it a generation
    at a time; the result is the same because the infected set after each
    arrival is the closure of the arrivals so far, whatever order the
    counter pushes run in.
    """
    n2 = n * n
    counts_arr = np.zeros(n2, dtype=np.int32)
    counts = memoryview(counts_arr)
    infected = bytearray(n2)
    num = 0
    offsets = [(int(a), int(b)) for a, b in offs]
    deltas = [kx * n + ky for kx, ky in offsets]
    reach = int(np.abs(offs).max(initial=0))
    lo, hi = reach, n - reach  # rows/columns whose neighbours never wrap
    for t, s in enumerate(memoryview(np.ascontiguousarray(perm, dtype=np.int64))):
        prev = num
        if not infected[s]:
            stack = [s]
            while stack:
                y = stack.pop()
                if infected[y]:
                    continue
                if num - prev > n:
                    stack.append(y)
                    num += _expand(n, r, offs, counts_arr, infected, stack)
                    break
                infected[y] = 1
                num += 1
                yx, yy = divmod(y, n)
                if lo <= yx < hi and lo <= yy < hi:
                    targets = [y - d for d in deltas]
                else:
                    targets = [(yx - kx) % n * n + (yy - ky) % n for kx, ky in offsets]
                for x in targets:
                    c = counts[x] + 1
                    counts[x] = c
                    if c == r and not infected[x]:
                        stack.append(x)
        if num == n2:
            return t + 1, prev
    return n2, num


def _expand(n, r, offs, counts, infected, pending) -> int:
    """Finish a cascade from its pending sites, one generation at a time.

    ``counts`` (an array) and ``infected`` (a bytearray) are updated in
    place; returns the number of sites infected.
    """
    done = np.frombuffer(infected, dtype=np.uint8)
    front = np.unique(np.asarray(pending, dtype=np.int64))
    front = front[done[front] == 0]
    return sum(f.size for f in push_generations(counts, done, front, r, grid_targets(n, n, offs)))


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
    schema_version: int = SCHEMA_VERSION

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
        return {
            "schema_version": self.schema_version,
            "model": self.model,
            "n": self.n,
            "seed": self.seed,
            "tau": self.tau,
            "closure_before": self.closure_before,
            "jump_ratio": self.jump_ratio,
            "tau_scaled": self.tau_scaled,
            "wall_ms": self.wall_ms,
        }


def run_once(
    nbhd: Neighbourhood,
    n: int,
    seed: int,
    model: Optional[str] = None,
    permutation: Optional[Sequence[int]] = None,
    engine: str = "python",
) -> ProcessRecord:
    """One arrival-process run; injecting ``permutation`` bypasses the PRNG.

    ``engine`` must be "python", the only arrival engine.
    """
    if engine != "python":
        raise ValueError(f"unknown engine {engine!r}; the only engine is 'python'")
    if n < 2 * nbhd.radius_ceil + 1:
        raise ValueError(
            f"torus side {n} too small for neighbourhood radius {nbhd.radius:.3f}"
        )
    offs = offsets_array(nbhd)
    seed = int(seed) & _MASK
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
    tau, closure_before = _run_python(n, nbhd.threshold, offs, perm)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return ProcessRecord(model or nbhd.name, n, seed, int(tau), int(closure_before), wall_ms)


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
        }
        for thr in jump_thresholds:
            frac = sum(1 for r in recs if r.closure_before >= thr * r.tau) / len(recs)
            stats[f"frac_jump_ge_{thr:g}"] = frac
        groups[key] = stats
    return SweepSummary(groups)


def default_parallelism() -> int:
    """Sweep worker threads: ``BPERC_THREADS`` if set, else the CPU count."""
    env = os.environ.get("BPERC_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"BPERC_THREADS must be a positive integer, got {env!r}")
    return threads


def run_sweep(
    models: Sequence[tuple[str, Neighbourhood]],
    ns: Sequence[int],
    n_seeds: int,
    master_seed: int = 0,
    parallelism: Optional[int] = None,
    engine: str = "python",
) -> tuple[list, SweepSummary]:
    """Cartesian product of models x ns x seed indices; deterministic in the
    master seed regardless of the parallelism degree."""
    if n_seeds < 1:
        raise ValueError("cannot aggregate over zero runs")
    jobs = []
    idx = 0
    for name, nbhd in models:
        for n in ns:
            for _ in range(n_seeds):
                jobs.append((idx, name, nbhd, n, derive_run_seed(master_seed, idx)))
                idx += 1
    workers = parallelism if parallelism else default_parallelism()

    def work(job):
        i, name, nbhd, n, seed = job
        return i, run_once(nbhd, n, seed, model=name, engine=engine)

    results = [None] * len(jobs)
    if workers == 1:
        for job in jobs:
            i, rec = work(job)
            results[i] = rec
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i, rec in pool.map(work, jobs):
                results[i] = rec
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
