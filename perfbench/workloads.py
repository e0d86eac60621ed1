"""The four benchmark workloads.

Each workload builds its fixed objects in `__init__` (part of set-up), and
`run(deadline, loop)` drives a closed loop with one client: the next op
starts only when the previous one has returned.  Every op's output goes
through `check`, and `loop.timed_call` books its latency and verdict.
qhelab is used as a black box through module attributes
(``protocol.run_session``), so the tracer's wrappers are picked up when
tracing is on.
"""
from __future__ import annotations

import time

import numpy as np

from qhelab import paulis, permkey, protocol, qec, schemes, states

# `qhelab audit` flags a leak above this fixed TV (cli.cmd_audit).
CLI_LEAK_THRESHOLD = 0.05
TRACE_TOL = 1e-10
SWEEP_DELTA = 0.125
SWEEP_KEYS = 720


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.outputs: dict = {}

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def op(self, i: int):
        raise NotImplementedError

    def check(self, out) -> bool:
        raise NotImplementedError

    def run(self, deadline: float, loop) -> None:
        """Ops back to back until `deadline` (perf_counter seconds)."""
        i = 0
        while True:
            loop.timed(self, i)
            i += 1
            if time.perf_counter() >= deadline:
                return


def _session_check(out) -> bool:
    got, ref, _transcript = out
    return states.trace_distance(got, ref) < TRACE_TOL


class PermTAudit(Workload):
    """One `audit_transcript` over 1000 permutation-key sessions for each
    of the plaintexts 0 and +, on H;T;S;T;H at m = 1.  An op is one
    `run_session`; the loop runs whole audits until the deadline."""

    name = "perm_t_audit"
    plaintexts = ["0", "+"]
    runs = 1000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.circuit = paulis.parse_circuit("H 0\nT 0\nS 0\nT 0\nH 0\n")
        self.outputs = {"audits": []}
        self._loop = None
        self._next = 0

    def session(self, plain: str, rng: np.random.Generator):
        return protocol.run_session("perm", plain, self.circuit, rng, m=1)

    def op(self, i: int):
        return self.session(self.plaintexts[i % 2], self.rng(i))

    def check(self, out) -> bool:
        return _session_check(out)

    def _factory(self, plain: str, rng: np.random.Generator):
        out = self._loop.timed_call(lambda: self.session(plain, rng),
                                    self.check, self._next)
        self._next += 1
        return out[2] if out is not None else protocol.Transcript()

    def run(self, deadline: float, loop) -> None:
        """Whole audits; another starts only if half of it fits before the
        deadline, so the run lasts the requested time give or take half an
        audit (at least one audit)."""
        self._loop = loop
        audit = 0
        while True:
            # each audit reads seeds base .. base + 1_001_002; keep them disjoint
            base = (self.seed * 64 + audit) * 4_000_037
            t0 = time.perf_counter()
            with loop.tracer.span("bench.audit"):
                report = protocol.audit_transcript(
                    self._factory, self.plaintexts, self.runs, base_seed=base)
            self.outputs["audits"].append({
                "base_seed": base, "max_tv": report["max_tv"],
                "leak_at_cli_threshold":
                    report["max_tv"] > CLI_LEAK_THRESHOLD})
            audit += 1
            now = time.perf_counter()
            if now + (now - t0) / 2 >= deadline:
                return


class ConcatQecCycle(Workload):
    """One encrypted QEC cycle on Steane [[7,1,3]] concatenated with
    spreading at m = 5: encrypt, inject a logical error, 6 syndrome
    rounds, lookup decode, 14 conditional corrections, decrypt, and the
    client reads the logical operator."""

    name = "concat_qec_cycle"
    m = 5
    plaintexts = ["0", "1", "+"]
    errors = ["none", "X", "Z"]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inner = qec.steane_code()
        self.inner.decode_table()
        self.cat = permkey.build_concatenated_code(self.inner, self.m)
        n_cols = 2 * self.m
        n = self.inner.n
        self.logical = {}
        for letter in "XZ":
            qubits = [r * n_cols + c for r in range(n) for c in range(self.m)]
            self.logical[letter] = paulis.PauliString(*_letter_bits(
                letter, n * n_cols, qubits))

    def op(self, i: int):
        rng = self.rng(i)
        plain = self.plaintexts[i % 3]
        err = self.errors[int(rng.integers(3))]
        err_row = int(rng.integers(self.inner.n))
        n = self.inner.n
        key = permkey.PermKey.sample(self.m, rng)
        client = permkey.PermClient(key=key, rng=rng)
        reg = self.cat.encode(plain)
        anc = [reg.add_ancilla_row("plus") for _ in self.inner.generators]
        for r in range(n):
            for letter in "XZ":
                roles = client.pair_order("zero", "one")
                slots = (reg.add_ancilla_row(roles[0]),
                         reg.add_ancilla_row(roles[1]))
                client.record_pair(f"c{r}{letter}", roles, slots)
        reg.encrypt(key)
        # server side: the error, syndrome rounds and corrections
        if err != "none":
            reg.transversal_single(err_row, err)
        parities = []
        for a, stab in zip(anc, self.inner.generators):
            parity, _ = permkey.encrypted_syndrome_protocol(
                reg, stab, list(range(n)), a, client, rng)
            parities.append(parity)
        corr = qec.lookup_decode(qec.Syndrome(tuple(parities)), self.inner)
        for r in range(n):
            letter_r = corr.restricted_letter(r)
            for letter in "XZ":
                on = letter_r in (letter, "Y")
                named = client.row_for(f"c{r}{letter}", "one" if on else "zero")
                permkey.apply_conditional_logical(reg, letter, r, named)
        # client: decrypt, drop the correction rows, read the logical operator
        reg.decrypt(key)
        for row, (role, alive) in enumerate(zip(reg.roles, reg.alive)):
            if alive and role != "data":
                reg.discard_row(row)
        (factor,) = reg.factors
        letter = "X" if plain == "+" else "Z"
        value = factor.state.expectation(self.logical[letter])
        return plain, value

    def check(self, out) -> bool:
        plain, value = out
        return value == (-1 if plain == "1" else 1)


def _letter_bits(letter: str, n: int, qubits: list[int]):
    x = np.zeros(n, np.uint8)
    z = np.zeros(n, np.uint8)
    (x if letter == "X" else z)[qubits] = 1
    return x, z


class ExactSecuritySweep(Workload):
    """One exact `security_delta` over perm_scheme(3): 720 keys x 2 spread
    basis inputs on 6-qubit dense matrices.  The seed picks the order in
    which the two inputs are passed."""

    name = "exact_security_sweep"
    m = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.scheme = permkey.perm_scheme(self.m)
        self.inputs = [permkey.spread_basis_input(self.m, 0),
                       permkey.spread_basis_input(self.m, 1)]
        self.bound = permkey.security_bound(0, self.m)

    def op(self, i: int):
        order = self.rng(i).permutation(2)
        return schemes.security_delta(self.scheme,
                                      [self.inputs[j] for j in order])

    def check(self, report) -> bool:
        return (report.method == "exact-sweep"
                and report.key_count == SWEEP_KEYS
                and abs(report.delta - SWEEP_DELTA) < 1e-12
                and report.delta <= self.bound)


class PauliTSession(Workload):
    """One Pauli-key session on a 4-qubit circuit with two T gates: a
    6-qubit dense register with two magic wires."""

    name = "pauli_t_session"
    plaintexts = ["0000", "1010"]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.circuit = paulis.parse_circuit(
            "H 0\nCNOT 0 1\nT 1\nH 2\nCNOT 2 3\nT 3\nCNOT 1 2\n")

    def op(self, i: int):
        return protocol.run_session("pauli", self.plaintexts[i % 2],
                                    self.circuit, self.rng(i))

    def check(self, out) -> bool:
        return _session_check(out)


WORKLOADS = {w.name: w for w in
             (PermTAudit, ConcatQecCycle, ExactSecuritySweep, PauliTSession)}
