"""The benchmark records at the repository root (BENCH_<label>.json) share
their top-level keys, so a reader or a script can find what changed, where
it was measured, how, and the per-workload figures in any of them."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("label", "change", "environment", "method", "workloads")


def test_the_root_holds_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_keeps_the_shared_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert [key for key in KEYS if key not in record] == []
    # the label is the file name's suffix, written with '-' or '_'
    assert record["label"].replace("-", "_") == path.stem[len("BENCH_"):].replace("-", "_")
