"""The exact law of (tau, closure_before) on tiny tori, against sweeps.

On a torus of N = n^2 <= 16 sites the closure of every subset is taken as
a bitmask, in pure Python and apart from the library's cascade.  The first
k arrivals of a uniform permutation are a uniform k-subset S, and arrival
k + 1 a uniform site outside it, so

    P(tau = k + 1, closure_before = c)
        = sum over the k-subsets S that do not fill, with |cl S| = c, of
          #{x not in S : cl(S + x) is full} / ((N - k) C(N, k)).

Sweeps at fixed master seeds must fit that law: no run may land in a cell
of probability 0, and a chi-squared goodness-of-fit statistic must stay
below its upper 1e-4 quantile.  That checks the whole pipeline at once:
the v1 stream, the prefix solver, both searches, the chunks and the
generation step.
"""
import functools
import math
from fractions import Fraction
from statistics import NormalDist

import pytest

from bperc.geometry import NeighbourhoodSpec, build_neighbourhood
from bperc.process import run_sweep

# The rejection level of the goodness-of-fit test: a correct pipeline
# fails a given sweep with probability 1e-4, or a little less, as the
# Wilson-Hilferty quantile errs high.
LEVEL = 1e-4

# (model, n, runs, master seed).  Master seeds 0, 1 and 2 share their first
# 4000 run seeds (derive_run_seed XORs the master seed with the run index),
# so the seeds here lie 2^32 apart.
SWEEPS = [
    ("square", 4, 3000, 1 << 32),
    ("triangular", 4, 1500, 2 << 32),
    ("square", 3, 500, 3 << 32),
    ("triangular", 3, 500, 3 << 32),
    ("boxtimes", 3, 500, 3 << 32),
    ("diamond", 3, 500, 3 << 32),
]

MEAN_TAU = {
    ("square", 3): Fraction(18, 7),
    ("square", 4): Fraction(2447, 585),
    ("triangular", 3): Fraction(93, 28),
    ("triangular", 4): Fraction(10523, 2145),
    ("boxtimes", 3): Fraction(4),
    ("diamond", 3): Fraction(18, 7),
}


def closures(n, offsets, r):
    """cl S for every subset S of the n x n torus's sites, as bitmasks
    indexed by S, site (x, y) being bit x n + y.  A site is infected once r
    of the sites x + k, k a nonzero offset, are.  cl S is the closure of
    cl(S - x) + x, x the lowest site of S."""
    sites = n * n
    sees = [sum(1 << ((x + kx) % n * n + (y + ky) % n) for kx, ky in offsets)
            for x in range(n) for y in range(n)]
    seen_by = [[t for t in range(sites) if sees[t] >> s & 1] for s in range(sites)]
    cl = [0] * (1 << sites)
    for subset in range(1, 1 << sites):
        low = subset & -subset
        done = cl[subset ^ low]
        if not done & low:
            done |= low
            stack = [low.bit_length() - 1]
            while stack:
                for t in seen_by[stack.pop()]:
                    if not done >> t & 1 and (done & sees[t]).bit_count() >= r:
                        done |= 1 << t
                        stack.append(t)
        cl[subset] = done
    return cl


@functools.lru_cache(maxsize=None)
def exact_law(model, n):
    """{(tau, closure_before): probability} for ``model`` on the n x n torus."""
    nbhd = build_neighbourhood(NeighbourhoodSpec.named(model))
    cl = closures(n, [k for k in nbhd.offsets if k != (0, 0)], nbhd.threshold)
    sites = n * n
    full = (1 << sites) - 1
    weights = {}  # (k, |cl S|): the pairs (S, x) with x filling, summed
    for subset, c in enumerate(cl):
        if c == full:
            continue
        free, hits = full ^ subset, 0
        while free:
            low = free & -free
            hits += cl[subset | low] == full
            free ^= low
        if hits:
            key = (subset.bit_count(), c.bit_count())
            weights[key] = weights.get(key, 0) + hits
    return {(k + 1, c): Fraction(w, (sites - k) * math.comb(sites, k))
            for (k, c), w in weights.items()}


def chi_squared(law, observed, runs):
    """(statistic, degrees of freedom) of ``observed`` counts per cell
    against ``law``, the cells whose expected count is below 5 pooled into
    one, with the next smallest cells while the pool stays below 5."""
    cells = sorted(law, key=law.get)
    expected = [float(runs * law[c]) for c in cells]
    counts = [observed.get(c, 0) for c in cells]
    i = pool_e = pool_o = 0
    while i < len(cells) and (expected[i] < 5 or 0 < pool_e < 5):
        pool_e += expected[i]
        pool_o += counts[i]
        i += 1
    groups = ([(pool_e, pool_o)] if i else []) + list(zip(expected[i:], counts[i:]))
    return sum((o - e) ** 2 / e for e, o in groups), len(groups) - 1


def upper_quantile(dof, level):
    """The chi-squared quantile that ``level`` of the law lies above, by
    the Wilson-Hilferty cube-root normal approximation."""
    z = NormalDist().inv_cdf(1 - level)
    h = 2 / (9 * dof)
    return dof * (1 - h + z * math.sqrt(h)) ** 3


@pytest.mark.parametrize("model, n", sorted(MEAN_TAU))
def test_exact_law_is_a_law_with_the_known_mean(model, n):
    law = exact_law(model, n)
    assert sum(law.values()) == 1
    assert sum(p * tau for (tau, _), p in law.items()) == MEAN_TAU[model, n]
    assert all(before < n * n and 0 < tau <= before + 1 for tau, before in law)


def test_chi_squared_pools_the_small_cells():
    law = {(1, 1): Fraction(1, 100), (2, 2): Fraction(3, 100), (3, 3): Fraction(96, 100)}
    # expected 1, 3 and 96: the two small cells make one pool of 4, still
    # below 5, so it takes in the last cell too
    assert chi_squared(law, {(3, 3): 100}, 100) == (0.0, 0)
    stat, dof = chi_squared(law, {(1, 1): 4, (3, 3): 196}, 200)  # expected 2, 6, 192
    assert dof == 1 and stat == pytest.approx((4 - 8) ** 2 / 8 + (196 - 192) ** 2 / 192)
    # the quantiles at 1e-4 are 15.14 (1 dof) and 35.56 (10 dof), and
    # Wilson-Hilferty errs high: by 7% at 1 dof and 1.2% at 10 dof
    assert 15.14 < upper_quantile(1, 1e-4) < 1.08 * 15.14
    assert 35.56 < upper_quantile(10, 1e-4) < 1.02 * 35.56


@pytest.mark.parametrize("model, n, runs, master", SWEEPS)
def test_sweeps_follow_the_exact_law(model, n, runs, master):
    law = exact_law(model, n)
    nbhd = build_neighbourhood(NeighbourhoodSpec.named(model))
    records, _ = run_sweep([(model, nbhd)], [n], runs, master_seed=master, parallelism=1)
    observed = {}
    for rec in records:
        cell = (rec.tau, rec.closure_before)
        observed[cell] = observed.get(cell, 0) + 1
    assert set(observed) <= set(law), sorted(set(observed) - set(law))
    stat, dof = chi_squared(law, observed, runs)
    assert dof == 0 or stat <= upper_quantile(dof, LEVEL), (stat, dof)
