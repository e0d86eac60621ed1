"""Two-party (client/server) session runtime with transcript auditing.

The quantum channel is modeled as ownership transfer of a register handle;
classical messages are plain bits and are the only thing the audit looks
at.  The server never holds a key: session code is structured so key
material lives exclusively in client-side objects, and the audit includes
a deliberately broken canary scheme to prove the test has teeth.

`run_session` is the one session loop.  A private per-scheme session
object encrypts when it is built and makes every client draw there: the
key, then the Pauli scheme's magic-wire keys or the permutation scheme's
pair orders.  The runner logs both quantum handoffs, sends each gate
through the session's `step(gate, rng)` (a Clifford runs verbatim; a T
runs the scheme's gadget, which draws its measurements from rng and
returns the classical messages the runner logs), has the session decrypt,
and builds the plain reference.  `canary_session` stays outside: it puts
its key on the wire, the very boundary the runner's sessions keep.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .paulis import Circuit, PauliString
from .paulikey import PauliKey, inject_t_gate, prepare_magic_register
from .permkey import PermKey, build_t_register, t_gate_deterministic
from .states import StateVector


class ProtocolViolation(RuntimeError):
    """The security boundary was crossed (key requested by the server,
    client exceeding its allowed quantum operations)."""


@dataclass(frozen=True)
class Message:
    sender: str               # "client" | "server"
    kind: str                 # "quantum-handoff" | "classical-bits"
    payload: tuple

    def to_json(self) -> dict:
        return {"role": self.sender, "kind": self.kind,
                "payload": list(self.payload)}


@dataclass
class Transcript:
    messages: list[Message] = field(default_factory=list)

    def log(self, sender: str, kind: str, payload) -> None:
        if kind not in ("quantum-handoff", "classical-bits"):
            raise ProtocolViolation(f"unknown message kind {kind!r}")
        self.messages.append(Message(sender, kind, tuple(payload)))

    def classical_slots(self) -> list[tuple[int, str]]:
        return [(i, m.sender) for i, m in enumerate(self.messages)
                if m.kind == "classical-bits"]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(m.to_json()) for m in self.messages) + "\n"


class _PauliSession:
    """Pauli keys on a state-vector [data | magic] register; T through
    `inject_t_gate`.  Draws the data key, then the magic-wire keys."""

    def __init__(self, plaintext: str, circuit: Circuit,
                 rng: np.random.Generator, m: int):
        self.n_data = circuit.n_qubits
        if len(plaintext) != self.n_data:
            raise ProtocolViolation("plaintext length must match the register")
        key = PauliKey.random(self.n_data, rng)
        self.state, self.tracker, self.magic = prepare_magic_register(
            StateVector.product(plaintext), key, circuit.t_count(), rng)

    def qubits(self) -> int:
        return self.state.n_qubits

    def step(self, gate, rng: np.random.Generator):
        if gate.name == "T":
            self.state, msgs = inject_t_gate(self.state, gate.qubits[0],
                                             self.magic, self.tracker, rng)
            return msgs
        self.state = self.state.apply_gate(gate.name, gate.qubits)
        self.tracker.absorb(gate.name, gate.qubits)
        return ()

    def decrypt(self):
        state = self.tracker.decrypt(self.state)
        return state.discard_qubits(list(range(self.n_data, state.n_qubits)))


class _PermSession:
    """Permutation key on one spread data row; Cliffords transversal, T
    through `t_gate_deterministic`.  Draws the key, then the client's
    pair orders."""

    def __init__(self, plaintext: str, circuit: Circuit,
                 rng: np.random.Generator, m: int):
        if circuit.n_qubits != 1:
            raise ProtocolViolation("permutation sessions hold one data row")
        self.key = PermKey.sample(m, rng)
        self.reg, self.client, self.budget = build_t_register(
            plaintext, m, circuit.t_count(), self.key, rng)

    def qubits(self) -> int:
        return sum(self.reg.alive) * self.reg.n_cols

    def step(self, gate, rng: np.random.Generator):
        if gate.name == "T":
            return t_gate_deterministic(self.reg, 0, self.budget, self.client,
                                        rng)
        if gate.name not in ("H", "S", "X", "Y", "Z"):
            raise ProtocolViolation(f"{gate.name} is not a single-row gate")
        self.reg.transversal_single(0, gate.name)
        return ()

    def decrypt(self):
        self.reg.decrypt(self.key)
        return self.reg.data_qubit_density(0)


_SESSIONS = {"pauli": _PauliSession, "perm": _PermSession}


def run_session(scheme: str, plaintext: str, circuit: Circuit,
                rng: np.random.Generator, m: int = 1):
    """Full encrypt -> hand off -> evaluate -> return -> decrypt flow.

    scheme: "pauli" or "perm"; m spreads each perm row over 2m columns
    and the Pauli scheme ignores it.  Returns (decrypted output, reference
    plain evaluation, Transcript), both states a `DensityMatrix`; the
    reference is the plaintext's state vector through the circuit.
    """
    if scheme not in _SESSIONS:
        raise ProtocolViolation(f"unknown scheme {scheme!r}")
    session = _SESSIONS[scheme](plaintext, circuit, rng, m)
    transcript = Transcript()
    transcript.log("client", "quantum-handoff", [session.qubits()])
    for g in circuit.gates:
        for msg in session.step(g, rng):
            transcript.log(msg["sender"], msg["kind"], msg["payload"])
    transcript.log("server", "quantum-handoff", [session.qubits()])
    output = session.decrypt()
    ref = StateVector.product(plaintext).apply_gates(
        (g.name, g.qubits) for g in circuit.gates).to_density()
    return output, ref, transcript


def canary_session(plaintext: str, circuit: Circuit,
                   rng: np.random.Generator):
    """Deliberately broken scheme: the key goes over the wire in clear
    alongside an encrypted measurement, so the plaintext is inferable."""
    transcript = Transcript()
    n = circuit.n_qubits
    key = PauliKey.random(n, rng)
    cipher = StateVector.product(plaintext).apply_pauli(key.pauli)
    transcript.log("client", "quantum-handoff", [n])
    state, rec = cipher.measure_pauli(PauliString.single(n, 0, "Z"), rng)
    # raw outcome + the key bits that decrypt it: plaintext in the clear
    transcript.log("server", "classical-bits",
                   [rec.outcome, *key.pauli.x.tolist(), *key.pauli.z.tolist()])
    transcript.log("server", "quantum-handoff", [n])
    return None, None, transcript


def load_session_config(path: str) -> dict:
    """Session config file: a JSON object with the scheme and circuit file
    (strings), the seed and sample count (ints), and optionally the
    plaintexts (a list of strings) and m (an int)."""
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise ProtocolViolation("session config must be a JSON object")
    missing = {"scheme", "circuit", "seed", "runs"} - set(blob)
    if missing:
        raise ProtocolViolation(f"session config missing {sorted(missing)}")
    blob.setdefault("plaintexts", ["0", "1"])
    blob.setdefault("m", 1)
    # exact types: a JSON true is a bool, which would pass as an int
    for name, kind in (("scheme", str), ("circuit", str), ("seed", int),
                       ("runs", int), ("m", int)):
        if type(blob[name]) is not kind:
            raise ProtocolViolation(f"session config {name!r} must be a {kind.__name__}")
    if type(blob["plaintexts"]) is not list or any(
            type(p) is not str for p in blob["plaintexts"]):
        raise ProtocolViolation("session config 'plaintexts' must be a list of strings")
    return blob


def audit_transcript(session_factory, plaintexts: list[str], n_runs: int,
                     base_seed: int = 0) -> dict:
    """Empirical per-slot leakage: total-variation distance between the
    classical-message distributions across plaintexts, taken from the
    integer counts as sum_k |a_k - b_k| / (2 n_runs), so it is at most 1.

    session_factory(plaintext, rng) must return a Transcript.  Requires
    >= 1000 runs per plaintext and at least two distinct plaintexts.
    """
    if n_runs < 1000:
        raise ProtocolViolation("insufficient samples: need >= 1000 runs")
    if len(plaintexts) < 2:
        raise ProtocolViolation("need at least two plaintexts to compare")
    if len(set(plaintexts)) < len(plaintexts):
        # a repeat's counts would replace the first's, hiding any leak
        raise ProtocolViolation(f"duplicate plaintexts in {plaintexts}")
    per_plain: dict[str, dict[int, Counter]] = {}
    for p_idx, plain in enumerate(plaintexts):
        slots: dict[int, Counter] = {}
        for i in range(n_runs):
            # disjoint seed streams per plaintext
            rng = np.random.default_rng(base_seed + 1_000_003 * p_idx + i)
            transcript = session_factory(plain, rng)
            for slot, msg in enumerate(transcript.messages):
                if msg.kind != "classical-bits":
                    continue
                slots.setdefault(slot, Counter())[msg.payload] += 1
        per_plain[plain] = slots
    slot_ids = sorted({s for d in per_plain.values() for s in d})
    report = {"runs_per_plaintext": n_runs, "plaintexts": plaintexts,
              "slots": {}, "max_tv": 0.0}
    for slot in slot_ids:
        worst = 0.0
        for pa, pb in combinations(plaintexts, 2):
            a = per_plain[pa].get(slot, Counter())
            b = per_plain[pb].get(slot, Counter())
            diff = sum(abs(a[k] - b[k]) for k in set(a) | set(b))
            worst = max(worst, diff / (2 * n_runs))
        report["slots"][slot] = worst
        report["max_tv"] = max(report["max_tv"], worst)
    return report
