"""Two-party (client/server) session runtime with transcript auditing.

The quantum channel is modeled as ownership transfer of a register handle;
classical messages are plain bits and are the only thing the audit looks
at.  The server never holds a key: session code is structured so key
material lives exclusively in client-side objects, and the audit includes
a deliberately broken canary scheme to prove the test has teeth.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .paulis import Circuit
from .paulikey import PauliKey, inject_t_gate, prepare_magic_register
from .permkey import PermKey, build_t_register, t_gate_deterministic
from .states import DensityMatrix


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


def run_session(scheme: str, plaintext: str, circuit: Circuit,
                rng: np.random.Generator, m: int = 1):
    """Full encrypt -> hand off -> evaluate -> return -> decrypt flow.

    scheme: "pauli" or "perm".  Returns (decrypted output, reference
    plain evaluation, Transcript).
    """
    if scheme == "pauli":
        return _run_pauli_session(plaintext, circuit, rng)
    if scheme == "perm":
        return _run_perm_session(plaintext, circuit, rng, m)
    raise ProtocolViolation(f"unknown scheme {scheme!r}")


def _run_pauli_session(plaintext: str, circuit: Circuit,
                       rng: np.random.Generator):
    n = circuit.n_qubits
    if len(plaintext) != n:
        raise ProtocolViolation("plaintext length must match the register")
    transcript = Transcript()
    n_t = circuit.t_count()

    # client: prepare, encrypt, hand off
    rho = DensityMatrix.product(plaintext)
    key = PauliKey.random(n, rng)
    cipher, tracker, magic = prepare_magic_register(rho, key, n_t, rng)
    transcript.log("client", "quantum-handoff", [cipher.n_qubits])

    # server: verbatim Cliffords; T markers through the injection gadget
    state = cipher
    for g in circuit.gates:
        if g.name == "T":
            state, msgs = inject_t_gate(state, g.qubits[0], magic, tracker, rng)
            for msg in msgs:
                transcript.log(msg["sender"], msg["kind"], msg["payload"])
        elif g.name == "M":
            raise ProtocolViolation("mid-circuit measurement sessions are "
                                    "driven through the QEC layer")
        else:
            state = state.apply_gate(g.name, g.qubits)
            tracker.absorb(g.name, g.qubits)

    # server returns the register; client decrypts
    transcript.log("server", "quantum-handoff", [state.n_qubits])
    output = tracker.decrypt(state)

    # plain-evaluation reference on the data wires
    ref = DensityMatrix.product(plaintext).apply_gates(
        (g.name, g.qubits) for g in circuit.gates)
    out_data = output.partial_trace(list(range(n)))
    return out_data, ref, transcript


def _run_perm_session(plaintext: str, circuit: Circuit,
                      rng: np.random.Generator, m: int):
    if circuit.n_qubits != 1:
        raise ProtocolViolation("permutation sessions hold one data row")
    transcript = Transcript()
    n_t = circuit.t_count()
    key = PermKey.sample(m, rng)
    reg, client, budget = build_t_register(plaintext, m, n_t, key, rng)
    transcript.log("client", "quantum-handoff",
                   [sum(reg.alive) * reg.n_cols])
    for g in circuit.gates:
        if g.name == "T":
            msgs = t_gate_deterministic(reg, 0, budget, client, rng)
            for msg in msgs:
                transcript.log(msg["sender"], msg["kind"], msg["payload"])
        elif g.name in ("H", "S", "X", "Y", "Z"):
            reg.transversal_single(0, g.name)
        else:
            raise ProtocolViolation(f"{g.name} is not a single-row gate")
    transcript.log("server", "quantum-handoff",
                   [sum(reg.alive) * reg.n_cols])
    reg.decrypt(key)
    ref = DensityMatrix.product(plaintext).apply_gates(
        (g.name, g.qubits) for g in circuit.gates)
    return reg.data_qubit_density(0), ref, transcript


def canary_session(plaintext: str, circuit: Circuit,
                   rng: np.random.Generator):
    """Deliberately broken scheme: the key goes over the wire in clear
    alongside an encrypted measurement, so the plaintext is inferable."""
    transcript = Transcript()
    n = circuit.n_qubits
    rho = DensityMatrix.product(plaintext)
    key = PauliKey.random(n, rng)
    cipher = rho.apply_pauli(key.pauli)
    transcript.log("client", "quantum-handoff", [n])
    from .paulis import PauliString
    state, rec = cipher.measure_pauli(PauliString.single(n, 0, "Z"), rng,
                                      label="leak")
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
    classical-message distributions across plaintexts.

    session_factory(plaintext, rng) must return a Transcript.  Requires
    >= 1000 runs per plaintext.
    """
    if n_runs < 1000:
        raise ProtocolViolation("insufficient samples: need >= 1000 runs")
    if len(plaintexts) < 2:
        raise ProtocolViolation("need at least two plaintexts to compare")
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
        for i in range(len(plaintexts)):
            for j in range(i + 1, len(plaintexts)):
                a = per_plain[plaintexts[i]].get(slot, Counter())
                b = per_plain[plaintexts[j]].get(slot, Counter())
                keys = set(a) | set(b)
                tv = 0.5 * sum(abs(a[k] / n_runs - b[k] / n_runs) for k in keys)
                worst = max(worst, tv)
        report["slots"][slot] = worst
        report["max_tv"] = max(report["max_tv"], worst)
    return report
