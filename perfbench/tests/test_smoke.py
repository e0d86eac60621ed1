"""Smoke check for the benchmark itself (not part of the library's tests).

    python3 -m pytest -q perfbench/tests

Runs every workload at its minimal size (``--seconds 0``: one op, or one
audit for perm_t_audit, per phase), checks each reported metric name and
unit against BENCHMARK.json, and feeds corrupted outputs to every
workload's check to show that they are counted as failures.  Takes about
a minute on two cores.
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_qhelab()

import workloads  # noqa: E402
from qhelab import states  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# counts that must repeat exactly: they pin the protocol, not its speed
INVARIANTS = {
    "perm_t_audit": {"permkey.rows_consumed_per_op": 10,
                     "protocol.classical_msgs_per_op": 8},
    "concat_qec_cycle": {"permkey.rows_consumed_per_op": 6,
                         "qec.decode_per_op": 1},
    "exact_security_sweep": {"schemes.keys_swept_per_op": 1440,
                             "states.dense_gate_share": 1.0},
    "pauli_t_session": {"paulikey.t_injections_per_op": 2},
}


def _bench(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_match_spec(workload, trace):
    result, stdout = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if trace:
        for name, value in INVARIANTS[workload].items():
            assert result["metrics"][name]["value"] == value, name
    else:
        for name in want:
            assert result["metrics"][name]["value"] > 0, name
    assert '"seed": 5' in stdout and '"blas_threads"' in stdout


def _corrupt(name: str, out):
    if name in ("perm_t_audit", "pauli_t_session"):
        got, ref, transcript = out
        return states.DensityMatrix.maximally_mixed(got.n_qubits), ref, transcript
    if name == "concat_qec_cycle":
        plain, value = out
        return plain, -value
    return dataclasses.replace(out, delta=out.delta + 1e-9)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_outputs_count_as_failures(name):
    w = workloads.WORKLOADS[name](seed=0)
    good = w.op(0)
    assert w.check(good)
    bad = _corrupt(name, good)
    assert not w.check(bad)
    # every op of a minimal run now returns the corrupted output
    if name == "perm_t_audit":
        w.session = lambda plain, rng: bad
    else:
        w.op = lambda i: bad
    loop = run.Loop(run._NoTracer()).run(w, 0)
    assert loop.attempted >= 1
    assert loop.failed == loop.attempted
    assert loop.ops_per_s() == 0


def test_exception_is_a_failure_not_an_abort():
    w = workloads.WORKLOADS["pauli_t_session"](seed=0)
    real = w.op

    def flaky(i):
        if i == 0:
            raise RuntimeError("injected")
        return real(i)

    w.op = flaky
    loop = run.Loop(run._NoTracer())
    loop.timed(w, 0)
    loop.timed(w, 1)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "injected" in loop.errors[0]
