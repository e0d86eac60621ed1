"""The committed benchmark rows: every BENCH_<pr>.json at the repository
root parses, and carries the keys that all of them share (`change`, a
string; `claim`, null or an object; `method`, an object; `workloads`, an
object keyed by the workloads of BENCHMARK.json), so that a malformed row
fails here instead of going unnoticed.  A claim names what it measured:
its `workload` is one of BENCHMARK.json's workloads and its `metric` one
of its end-to-end metrics."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}


def test_rows_are_committed():
    assert ROWS


@pytest.mark.parametrize("path", ROWS, ids=lambda path: path.name)
def test_row_has_the_shared_keys(path):
    row = json.loads(path.read_text())
    assert isinstance(row, dict)
    assert {"change", "claim", "method", "workloads"} <= row.keys()
    assert isinstance(row["change"], str) and row["change"]
    assert row["claim"] is None or isinstance(row["claim"], dict)
    assert isinstance(row["method"], dict)
    assert set(row["workloads"]) == WORKLOADS


@pytest.mark.parametrize("path", ROWS, ids=lambda path: path.name)
def test_claim_names_a_workload_and_an_end_to_end_metric(path):
    claim = json.loads(path.read_text())["claim"]
    if claim is not None:
        assert claim.get("workload") in WORKLOADS
        assert claim.get("metric") in END_TO_END
