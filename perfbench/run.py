"""qhelab benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

One process, one client: each op starts when the previous one returned.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the run spends half its time in an
untraced phase and half in a traced phase, and reports per-layer metrics
and the tracing overhead.  The library is imported from ``src/`` next to
this directory and nowhere else.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 3
WARMUP_OP = 10 ** 9  # op index of the untimed warm-up op, never timed
READY = "setup-ready"
BLAS_THREADS = 1


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Pin BLAS/OpenMP to one thread (capped at nproc); runs before numpy loads.

    One client multiplies matrices of at most 64 x 64: a second BLAS thread
    only adds hand-off cost and exposure to other load on the machine.
    """
    threads = min(BLAS_THREADS, _nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_qhelab():
    """Import qhelab from this checkout's src/; exit 2 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import qhelab
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import qhelab from {SRC}: {exc}\n")
        sys.exit(2)
    if not Path(qhelab.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: qhelab came from {qhelab.__file__}, "
                         f"not {SRC}\n")
        sys.exit(2)
    return qhelab


# -- the loop ---------------------------------------------------------------------

class Loop:
    """Books every op: latency, verdict, and the first failures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.start = time.perf_counter()
        self.stop = self.start

    def timed_call(self, fn, check, op_id: int):
        """Run one op and check its output; None on failure.

        The check runs after the timed interval but inside the op's span,
        with recording paused, so no layer's self time includes it.
        """
        out, ok = None, False
        with self.tracer.span("bench.op", op_id):
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception:
                self._error(traceback.format_exc(limit=3))
            dt = time.perf_counter() - t0
            if out is not None:
                with self.tracer.paused():
                    try:
                        ok = bool(check(out))
                    except Exception:
                        self._error(traceback.format_exc(limit=3))
                if not ok:
                    self._error(f"op {op_id}: output check failed")
        self.attempted += 1
        self.latencies.append(dt)
        if not ok:
            self.failed += 1
            return None
        return out

    def timed(self, workload, i: int):
        return self.timed_call(lambda: workload.op(i), workload.check, i)

    def _error(self, text: str) -> None:
        if len(self.errors) < 3:
            self.errors.append(text.strip())

    def run(self, workload, seconds: float) -> "Loop":
        self.start = time.perf_counter()
        workload.run(self.start + seconds, self)
        self.stop = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return self.stop - self.start

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed


class _NoTracer:
    """Stands in for the tracer in untraced phases."""

    def span(self, *_args):
        return nullcontext()

    def paused(self):
        return nullcontext()


# -- set-up ------------------------------------------------------------------------

def setup_workload(name: str, seed: int):
    """Build the workload and run one untimed, unchecked warm-up op."""
    import workloads
    w = workloads.WORKLOADS[name](seed)
    w.op(WARMUP_OP)
    return w


def measure_setup(args) -> list[float]:
    """Process start to first timed op, in fresh processes (median reported)."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                              cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        last = done.stdout.strip().splitlines()[-1].split()
        if last[0] != READY:
            raise RuntimeError(f"set-up probe printed {done.stdout!r}")
        samples.append(float(last[1]) - t0)
    return samples


# -- reporting ---------------------------------------------------------------------

def provenance(seed: int, blas_threads: int, n_warnings: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "git_commit": _git_commit(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": _nproc(), "blas_threads": blas_threads,
            "warnings": n_warnings, "loop": "closed, 1 client, 1 process"}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup: list[float]) -> dict:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(loop.ops_per_s(), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def extra_lines(loop: Loop, setup: list[float]) -> list[str]:
    """Reported but not gated: the quantiles jump between the host's fast
    and slow phases (see README), while ops_per_s, a mean, moves smoothly."""
    n = len(loop.latencies)
    lines = [f"  ops timed            {n} over {loop.elapsed:.2f} s",
             f"  fail_ratio           {loop.failed / max(loop.attempted, 1):.4f}"
             f" ({loop.failed}/{loop.attempted})",
             f"  setup samples (s)    {', '.join(f'{s:.4f}' for s in setup)}",
             f"  op_ms_p50            {statistics.median(loop.latencies) * 1e3:.4f} ms"
             f" over {n} ops"]
    if n >= 100:
        lines.append(f"  op_ms_p90            {percentile_ms(loop.latencies, 90):.4f} ms")
    else:
        lines.append("  op_ms_p90            n/a: fewer than 100 ops, so the "
                     "median is the highest percentile with 10 samples beyond it")
    return lines


def per_layer(loop: Loop, untraced: Loop, tracer) -> dict:
    from tracer import LAYERS
    summ = tracer.summary()
    ops = max(loop.attempted, 1)

    def calls(*names):
        return sum(summ.get(n, {}).get("calls", 0) for n in names)

    def us_per_call(name):
        s = summ.get(name)
        return s["incl_s"] / s["calls"] * 1e6 if s and s["calls"] else 0.0

    out = {}
    for layer in LAYERS:
        rows = [v for k, v in summ.items() if k.split(".")[0] == layer]
        out[f"{layer}.calls_per_op"] = metric(
            sum(r["calls"] for r in rows) / ops, "count")
        out[f"{layer}.self_ms_per_op"] = metric(
            sum(r["self_s"] for r in rows) / ops * 1e3, "ms")
    dense_gates = calls("states.DensityMatrix.apply_gate")
    all_gates = dense_gates + tracer.stab_gates
    audits = calls("protocol.audit_transcript")
    per_op = {
        "paulis.pauli_mul_per_op": calls("paulis.PauliString.__mul__",
                                         "paulis.multiply"),
        "paulis.clifford_from_gates_per_op": calls("paulis.CliffordOp.from_gates"),
        "paulis.conjugate_per_op": calls("paulis.CliffordOp.conjugate",
                                         "paulis.conjugate"),
        "paulis.to_matrix_per_op": calls("paulis.PauliString.to_matrix"),
        "states.stab_apply_clifford_per_op":
            calls("states.StabilizerState.apply_clifford"),
        "states.stab_measure_per_op": calls("states.StabilizerState.measure_pauli"),
        "states.stab_discard_per_op": calls("states.StabilizerState.discard_qubits"),
        "states.dense_gate_per_op": dense_gates,
        "states.gate_unitary_per_op": calls("states.gate_unitary"),
        "states.dense_measure_per_op": calls("states.DensityMatrix.measure_pauli"),
        "permkey.transversal_per_op": calls(
            "permkey.SpreadRegister.transversal_single",
            "permkey.SpreadRegister.transversal_pair"),
        "permkey.measure_row_per_op": calls("permkey.SpreadRegister.measure_row"),
        "permkey.rows_consumed_per_op": tracer.rows_consumed,
        "schemes.keys_swept_per_op": calls("schemes.SchemeDescriptor.encrypt"),
        "qec.decode_per_op": calls("qec.lookup_decode"),
        "gf2.solve_per_op": calls("gf2.solve"),
        "paulikey.t_injections_per_op": calls("paulikey.inject_t_gate"),
        "protocol.classical_msgs_per_op": tracer.classical_msgs,
    }
    for name, total in per_op.items():
        out[name] = metric(total / ops, "count")
    out.update({
        "states.stab_apply_clifford_us_per_call": metric(
            us_per_call("states.StabilizerState.apply_clifford"), "us"),
        "states.dense_apply_gate_us_per_call": metric(
            us_per_call("states.DensityMatrix.apply_gate"), "us"),
        "states.stab_qubits_max": metric(tracer.stab_qubits_max, "qubits"),
        "states.dense_qubits_max": metric(tracer.dense_qubits_max, "qubits"),
        "states.dense_gate_share": metric(
            dense_gates / all_gates if all_gates else 0.0, "ratio"),
        "states.stab_apply_clifford_ms_per_call_200q": metric(
            _mean_ms(tracer.stab_200q), "ms"),
        "states.dense_gate_ms_per_call_6q": metric(_mean_ms(tracer.dense_6q), "ms"),
        "permkey.t_deterministic_ms_per_call": metric(
            us_per_call("permkey.t_gate_deterministic") / 1e3, "ms"),
        "protocol.audit_ms_per_run": metric(
            summ.get("protocol.audit_transcript", {}).get("self_s", 0.0)
            / audits * 1e3 if audits else 0.0, "ms"),
        "trace.ops_per_s_untraced": metric(untraced.ops_per_s(), "1/s"),
        "trace.ops_per_s_traced": metric(loop.ops_per_s(), "1/s"),
        "trace.overhead_pct": metric(
            (1.0 - loop.ops_per_s() / untraced.ops_per_s()) * 100, "%"),
        "trace.spans_per_op": metric(len(tracer.start) / ops, "count"),
    })
    return out


def _mean_ms(acc: list) -> float:
    return acc[1] / acc[0] * 1e3 if acc[0] else 0.0


def span_table(tracer, ops: int, top: int = 15) -> list[str]:
    summ = tracer.summary()
    called = [kv for kv in summ.items() if kv[1]["calls"]]
    rows = sorted(called, key=lambda kv: -kv[1]["self_s"])[:top]
    lines = [f"  {'span':<48} {'calls/op':>10} {'self ms/op':>11} {'us/call':>10}"]
    for name, s in rows:
        lines.append(f"  {name:<48} {s['calls'] / ops:>10.1f} "
                     f"{s['self_s'] / ops * 1e3:>11.3f} "
                     f"{s['incl_s'] / s['calls'] * 1e6:>10.1f}")
    return lines


# -- entry points ---------------------------------------------------------------

def run_one(args, blas_threads: int) -> int:
    from tracer import Tracer

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setup = [] if args.trace else measure_setup(args)
        w = setup_workload(args.workload, args.seed)
        # a traced run splits its time between an untraced and a traced phase
        phase_s = args.seconds / 2 if args.trace else args.seconds
        untraced = Loop(_NoTracer()).run(w, phase_s)
        outputs = copy.deepcopy(w.outputs)
        lines = [f"workload {args.workload}: {w.__doc__.split(chr(10))[0]}"]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.active = True
            traced = Loop(tracer).run(w, phase_s)
            tracer.active = False
            tracer.uninstall()
            metrics = per_layer(traced, untraced, tracer)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"trace_{args.workload}.npz"
            tracer.write(spans_path)
            lines += [f"  traced ops           {traced.attempted}, "
                      f"{len(tracer.start)} spans -> {spans_path.relative_to(ROOT)}"]
            lines += span_table(tracer, max(traced.attempted, 1))
            loops = [untraced, traced]
        else:
            metrics = end_to_end(untraced, setup)
            lines += extra_lines(untraced, setup)
            loops = [untraced]
    for key, val in outputs.items():
        lines.append(f"  output {key}: {json.dumps(val)}")
    prov = provenance(args.seed, blas_threads, len(caught))
    lines.append("  provenance " + json.dumps(prov))
    for lp in loops:
        lines += [f"  error: {e}" for e in lp.errors]
    lines += [f"  {k:<44} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    import workloads
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        res = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    blas_threads = cap_blas_threads()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    import_qhelab()
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        setup_workload(args.workload, args.seed)
        print(READY, repr(time.monotonic()))
        return 0
    return run_one(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
