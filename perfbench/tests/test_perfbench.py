"""Tests of the benchmark itself: tiny workloads, seeding, metric names, the
tail-percentile rule and the refusal to run without the sources."""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_every_check(name):
    res = run.role_worker(name, seed=7, seconds=0, trace=True, size="tiny")
    assert res["attempted"] > 0
    assert res["failed"] == 0, res["report"]["errors"] + res["report"]["traced_errors"]
    assert res["e2e"]["failed_frac"] == 0
    assert set(res["layers"]) == set(run.LAYER_UNITS)
    assert res["spans"], "the traced pass recorded no spans"


def test_run_prints_the_result_line():
    out = run.run("closure-mix", seed=5, seconds=0, trace=False, size="tiny")
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    fp = out["report"]["fingerprint"]
    assert fp["engine_requested"] == "python" and fp["workload_seed"] == 5


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_seed_gives_the_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    digests = run.load_digests()
    run.role_setup(name, "tiny")  # imports bperc from src/
    ctx = wl.setup("tiny")
    first = json.dumps(wl.make_inputs(ctx, 11, "tiny", digests))
    assert json.dumps(wl.make_inputs(ctx, 11, "tiny", digests)) == first
    others = {json.dumps(wl.make_inputs(ctx, s, "tiny", digests)) for s in range(12, 16)}
    assert others - {first}, "the seed does not change the inputs"


def test_extension_pool_entries_are_reproducible():
    geo = workloads.WORKLOADS["exact-geometry"]
    run.role_setup("exact-geometry", "tiny")
    params = geo.setup("tiny")["params"]["square-s1"]
    a = geo.extension_input(params, "square-s1", 4)
    b = geo.extension_input(params, "square-s1", 4)
    assert a[0].to_json() == b[0].to_json() and a[1:] == b[1:]


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    names = list(run.E2E_UNITS) + list(run.LAYER_UNITS) + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name


def test_tail_is_the_highest_rung_with_ten_samples_beyond():
    assert stats.tail(range(1, 1001)) == {
        "percentile": 99.0, "value": 990, "beyond": 10, "samples": 1000}
    # one sample fewer leaves only 9 beyond p99, so p95 is reported
    assert stats.tail(range(1, 1000))["percentile"] == 95.0
    assert stats.tail(range(1, 41))["percentile"] == 75.0
    assert stats.tail(range(1, 40))["percentile"] == 50.0
    # too small for any rung: the median, with the shortfall stated
    assert stats.tail([5.0, 1.0, 3.0]) == {
        "percentile": 50.0, "value": 3.0, "beyond": 1, "samples": 3}
    # order does not matter
    assert stats.tail([9, 1, 5, 7, 3] * 20) == stats.tail(sorted([9, 1, 5, 7, 3] * 20))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tau-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
