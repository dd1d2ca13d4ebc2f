import contextlib
import random
from unittest import mock

import pytest

from bperc import cli, droplets, dynamics, scenarios
from bperc.geometry import NeighbourhoodSpec, build_neighbourhood
from bperc.process import run_sweep

NAMED = ("square", "triangular", "boxtimes", "diamond", "square4")


@contextlib.contextmanager
def dense_rounds():
    """Records the front size of every dense round of the generation step."""
    rounds = []
    build = dynamics._row_run_push

    def counted(*args):
        push = build(*args)

        def spy(front, counts):
            rounds.append(front.size)
            push(front, counts)

        return spy

    with mock.patch.object(dynamics, "_row_run_push", counted):
        yield rounds


@contextlib.contextmanager
def generation_branch(branch):
    """Puts every round of the generation step on one branch, "dense" or
    "sparse", through the cost rule's constants; yields the dense rounds."""
    cell = {"dense": 0, "sparse": 1 << 40}[branch]
    with dense_rounds() as rounds, mock.patch.multiple(
            dynamics, _DENSE_CELL_COST=cell, _DENSE_ROUND_COST=0):
        yield rounds


@contextlib.contextmanager
def closure_results():
    """Records every result of ``closure`` while it runs, whichever module
    of bperc calls it: each binds the name at import."""
    results = []
    closure = dynamics.closure

    def caught(*args, **kwargs):
        cfg = closure(*args, **kwargs)
        results.append(cfg)
        return cfg

    with contextlib.ExitStack() as stack:
        for module in (dynamics, cli, droplets, scenarios):
            stack.enter_context(mock.patch.object(module, "closure", caught))
        yield results


def lazy(results) -> bool:
    """Whether no result in ``results`` has built its ``infected`` set;
    there must be some."""
    return bool(results) and all("infected" not in cfg.__dict__ for cfg in results)


# acceptance-criterion pass/fail lines, replayed in the terminal summary
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def named_models():
    return {name: build_neighbourhood(NeighbourhoodSpec.named(name)) for name in NAMED}


@pytest.fixture(scope="session")
def square_sweep():
    """Shared sweep for the hitting-time trend checks: square model over
    n in {64,128,256,512}, 100 seeds each."""
    nbhd = build_neighbourhood(NeighbourhoodSpec.named("square"))
    records, summary = run_sweep(
        [("square", nbhd)], [64, 128, 256, 512], 100, master_seed=20260824
    )
    return records, summary


@pytest.fixture(scope="session")
def diamond_sweep():
    """Diamond-model parity sweep: even and odd torus sides, 200 seeds each."""
    nbhd = build_neighbourhood(NeighbourhoodSpec.named("diamond"))
    records, summary = run_sweep(
        [("diamond", nbhd)], [127, 128, 255, 256], 200, master_seed=977
    )
    return records, summary


def random_instances(seed, count, max_n=64, densities=(0.01, 0.5),
                     include_lp=True):
    """Random (neighbourhood, n, initial-set) instances for oracle tests.

    Instance sizes shrink with the offset count so the pure-python engine
    stays within its time budget.
    """
    rng = random.Random(seed)
    specs = [NeighbourhoodSpec.named(m) for m in NAMED]
    if include_lp:
        for p in ("1", "2", "inf"):
            for s in ("3", "4", "6", "8"):
                specs.append(NeighbourhoodSpec.lp_ball(p, s))
    out = []
    for i in range(count):
        spec = rng.choice(specs)
        nbhd = build_neighbourhood(spec)
        k = len(nbhd.offsets)
        cap = max_n if k <= 12 else (32 if k <= 50 else 20)
        n = rng.randint(2 * nbhd.radius_ceil + 1, max(cap, 2 * nbhd.radius_ceil + 1))
        density = rng.uniform(*densities)
        sites = [
            (x, y) for x in range(n) for y in range(n) if rng.random() < density
        ]
        out.append((nbhd, n, sites, rng.random() < 0.5))
    return out
