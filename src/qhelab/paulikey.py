"""Pauli-key encryption for Clifford circuits.

Encryption applies an independently random Pauli to every qubit (2n key
bits).  Cliffords commute through: the server evaluates the delegated
circuit verbatim while the client conjugates her key.  T gates ride in by
magic-state injection: the server runs the CNOT + measure + classically
controlled S gadget on ciphertext; whenever the key bits flip the
measured outcome, the resulting S-vs-S^dagger discrepancy is folded into a
pending Clifford correction that the client resolves at decryption.

The client ledger (`EvalTracker`) rests on Encr_k o C = C o Encr_lambda,
where lambda is a symplectic linear image of the key's (x | z) bits: the
key is one packed bit row that the tableau kernel updates in place per
absorbed gate.  The pending correction is conjugated only when read: a T
injection reads one key bit and pushes one row through the correction,
and decryption replays the correction's gate word.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .paulis import (Circuit, CliffordOp, PauliString, _apply_gate_rows,
                     _check_gate, _inverse_word, _run_word, random_pauli)
from .schemes import SchemeDescriptor, SchemeError
from .states import VECTOR_QUBIT_CAP, StateVector


@dataclass(frozen=True)
class PauliKey:
    """A +1-signed Pauli string; the global phase of a key channel is
    meaningless, so only positive representatives are allowed."""
    pauli: PauliString

    def __post_init__(self):
        if self.pauli.sign() != 1:
            raise SchemeError("Pauli keys carry no sign")

    @property
    def n_qubits(self) -> int:
        return self.pauli.n_qubits

    @classmethod
    def identity(cls, n: int) -> "PauliKey":
        return cls(PauliString.identity(n))

    @classmethod
    def from_label(cls, label: str) -> "PauliKey":
        return cls(PauliString.from_label(label).positive())

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "PauliKey":
        return cls(random_pauli(n, rng))

    def word(self) -> list[tuple[str, tuple[int, ...]]]:
        """The key channel as one single-qubit gate per non-identity letter."""
        return [(letter, (q,)) for q in range(self.n_qubits)
                if (letter := self.pauli.restricted_letter(q)) != "I"]

    def label(self) -> str:
        return self.pauli.label()[1:]

    def tensor(self, other: "PauliKey") -> "PauliKey":
        return PauliKey(self.pauli.tensor(other.pauli))


def encrypt(key: PauliKey, state):
    """Apply the key Pauli as a unitary channel."""
    if key.n_qubits != state.n_qubits:
        raise SchemeError("key/state size mismatch")
    return state.apply_pauli(key.pauli)


def transport_key(key: PauliKey, c: CliffordOp) -> tuple[PauliKey, int]:
    """Forward key transport: c . K_key = K_out . c as channels.

    Returns (out_key, sign); the sign is the global +-1 the conjugation
    produced, recorded for bookkeeping but never part of the key.
    """
    moved = c.conjugate(key.pauli)
    return PauliKey(moved.positive()), moved.sign()


def all_keys(n: int):
    for letters in itertools.product("IXYZ", repeat=n):
        yield PauliKey.from_label("".join(letters))


def _single_qubit_factors(n: int, letters: str) -> list[list[PauliKey]]:
    """One factor per qubit: the keys with one of `letters` on that qubit
    and I elsewhere, the identity first."""
    return [[PauliKey.from_label("I" * q + a + "I" * (n - q - 1))
             for a in letters] for q in range(n)]


def _word_on(n: int):
    """encrypt_word of a scheme keyed by n-qubit Pauli keys."""
    def word(key: PauliKey) -> list[tuple[str, tuple[int, ...]]]:
        if key.n_qubits != n:
            raise SchemeError("key/state size mismatch")
        return key.word()
    return word


def pauli_scheme(n: int) -> SchemeDescriptor:
    """The 4^n-key Pauli scheme on n qubits; phi is the identity."""
    return SchemeDescriptor(
        name=f"pauli{n}",
        n_qubits=n,
        key_count=4 ** n,
        iter_keys=lambda: all_keys(n),
        encrypt_word=_word_on(n),
        transport=lambda k, c: transport_key(k, c)[0],
        allows=lambda c: isinstance(c, CliffordOp) and c.n_qubits == n,
        key_from_pauli=lambda p: PauliKey(p.positive()),
        key_factors=lambda: _single_qubit_factors(n, "IXYZ"),
    )


def zkey_scheme(n: int) -> SchemeDescriptor:
    """Z-only (phase) keys; enough to hide |+/-> inputs of IQP circuits."""
    def keys():
        for bits in itertools.product((0, 1), repeat=n):
            z = np.array(bits, np.uint8)
            yield PauliKey(PauliString(np.zeros(n, np.uint8), z, 0))

    def from_pauli(p: PauliString) -> PauliKey:
        if p.x.any():
            raise SchemeError("computation leaves the Z-key space")
        return PauliKey(p.positive())

    def allows(c: CliffordOp) -> bool:
        # closure on the generators suffices: no Z_q image (row n + q) has X
        return c.n_qubits == n and not c.x[n:].any()

    return SchemeDescriptor(
        name=f"zkey{n}",
        n_qubits=n,
        key_count=2 ** n,
        iter_keys=keys,
        encrypt_word=_word_on(n),
        transport=lambda k, c: transport_key(k, c)[0],
        allows=allows,
        key_from_pauli=from_pauli,
        key_factors=lambda: _single_qubit_factors(n, "IZ"),
    )


# ---------------------------------------------------------------------------
# Client-side evaluation bookkeeping
# ---------------------------------------------------------------------------

class EvalTracker:
    """Client ledger: the register key as one packed (x, z, phase) bit row
    (the phase, the key's sign, is never part of the key) and the pending
    Clifford correction P produced by T injections.

    While P is not the identity, the gates absorbed since it was last read
    are kept as a word W; reading `pending` materialises W P W^-1, the
    tableau and gate word that conjugating P gate by gate gives.  `key_x`,
    `blocks` and `decrypt` read the row, P and W as they stand.
    """

    def __init__(self, key: PauliKey):
        self.n_qubits = key.n_qubits
        self._x = key.pauli.x[None, :].copy()
        self._z = key.pauli.z[None, :].copy()
        self._phase = np.zeros(1, np.uint8)
        self._set_pending(CliffordOp.identity(self.n_qubits))
        self.t_injected = 0

    @property
    def key(self) -> PauliKey:
        return PauliKey(PauliString(self._x[0], self._z[0]).positive())

    def key_x(self, q: int) -> int:
        return int(self._x[0, q])

    @property
    def pending(self) -> CliffordOp:
        if self._word:
            self._pending = self._pending.compose(CliffordOp.from_gates(
                self.n_qubits, _inverse_word(self._word))).then(self._word)
            self._word = []
        return self._pending

    def _set_pending(self, op: CliffordOp) -> None:
        self._pending, self._word = op, []
        self._deferring = not op.is_identity_channel()

    def absorb(self, name: str, qs: tuple[int, ...]) -> None:
        _check_gate(name, qs, self.n_qubits)
        _apply_gate_rows(self._x, self._z, self._phase, name, qs)
        if self._deferring:
            self._word.append((name, tuple(qs)))

    def blocks(self, q: int) -> bool:
        """Whether W P W^-1 moves Z_q: whether P moves r = W^-1 Z_q W."""
        if not self._deferring:
            return False
        x, z = np.zeros((2, 1, self.n_qubits), np.uint8)
        ph = np.zeros(1, np.uint8)
        z[0, q] = 1
        _run_word(x, z, ph, _inverse_word(self._word), self.n_qubits)
        r = PauliString(x[0], z[0], ph[0])
        return self._pending.conjugate(r) != r

    def correct_first(self, fix: CliffordOp) -> None:
        """Fold a correction acting before the pending one into it."""
        self._set_pending(self.pending.compose(fix))

    def decrypt(self, state):
        """Recover the plaintext: undo the key, then the pending word."""
        state = state.apply_pauli(PauliString(self._x[0], self._z[0]).positive())
        if self._deferring:
            state = state.apply_gates(_inverse_word(
                _inverse_word(self._word) + list(self._pending.gates) + self._word))
        return state


@dataclass
class MagicStateResource:
    """Encrypted |T> = T|+> ancillas living on dedicated register wires."""
    wires: list[int]
    used: int = 0

    @property
    def count(self) -> int:
        return len(self.wires)

    def remaining(self) -> int:
        return self.count - self.used


def prepare_magic_register(plaintext, data_key: PauliKey, n_t: int,
                           rng: np.random.Generator,
                           ) -> tuple[object, EvalTracker, MagicStateResource]:
    """Register [data | n_t magic wires] on the plaintext's backend,
    everything encrypted.

    Returns (ciphertext register, tracker holding the joint key, resource).
    """
    n_data = plaintext.n_qubits
    # the data key's x and z, then each wire's, as PauliKey.random(1, rng) draws
    bits = [data_key.pauli.x, data_key.pauli.z] + [
        rng.integers(0, 2, size=1, dtype=np.uint8) for _ in range(2 * n_t)]
    # one wire at a time: a joint T block would regroup the kron products
    # and move ciphertext entries in their last bits
    t_state = type(plaintext).product("T")
    full = plaintext
    for _ in range(n_t):
        full = full.tensor(t_state)
    joint = PauliKey(PauliString(np.concatenate(bits[0::2]),
                                 np.concatenate(bits[1::2])).positive())
    resource = MagicStateResource(wires=[n_data + i for i in range(n_t)])
    cipher = encrypt(joint, full)
    return cipher, EvalTracker(joint), resource


def homomorphic_eval(circuit: Circuit, state):
    """Server-side evaluation: apply the Clifford circuit verbatim."""
    for g in circuit.gates:
        if g.name == "T":
            raise SchemeError("non-Clifford gate without magic resource")
    return state.apply_gates((g.name, g.qubits) for g in circuit.gates)


def compactness_budget(n_data: int) -> int:
    return max(1, math.ceil(math.log2(max(n_data, 2))))


def inject_t_gate(state, target: int, magic: MagicStateResource,
                  tracker: EvalTracker, rng: np.random.Generator):
    """Teleport a T gate onto `target` by consuming one magic ancilla.

    Server side: CNOT(target -> ancilla), Z measurement of the ancilla,
    and S on the target when the raw outcome reads 1.  The client folds
    the outcome into her key ledger; if the key bits flipped the reading,
    the leftover S-power lands in the tracker's pending correction.

    Returns (state, transcript messages).
    """
    n = tracker.n_qubits
    if magic.remaining() < 1:
        raise SchemeError("magic resource exhausted")
    # a pending correction that moves Z off the target wire cannot commute
    # with the injected T; that path needs the general (exponential-cost)
    # decryption, which this scheme deliberately does not implement
    if tracker.blocks(target):
        raise SchemeError("pending correction blocks this injection point")
    anc = magic.wires[magic.used]
    magic.used += 1
    tracker.t_injected += 1
    if tracker.t_injected > compactness_budget(n - magic.count):
        warnings.warn("T-gate count exceeded the compactness budget "
                      f"(log2 of {n - magic.count} data qubits)",
                      RuntimeWarning, stacklevel=2)

    state = state.apply_gate("CNOT", (target, anc))
    tracker.absorb("CNOT", (target, anc))

    za = PauliString.single(n, anc, "Z")
    state, rec = state.measure_pauli(za, rng)
    o_raw = rec.outcome
    o_true = o_raw ^ tracker.key_x(anc)

    if o_raw:
        state = state.apply_gate("S", (target,))
        tracker.absorb("S", (target,))
    # plain gadget wanted S^o_true; server applied S^o_raw
    residue = (o_raw - o_true) % 4
    if residue:
        fix = CliffordOp.from_gates(n, [("S", (target,))] * residue)
        tracker.correct_first(fix)
    messages = [{"sender": "server", "kind": "classical-bits",
                 "payload": [o_raw]}]
    return state, messages


def encrypted_stabilizer_measurement(state, stabilizer: PauliString,
                                     ancilla_key: PauliKey,
                                     rng: np.random.Generator):
    """Measure a stabilizer on ciphertext via an encrypted |+> ancilla.

    The controlled-stabilizer decomposes into one controlled Pauli per
    nontrivial tensor factor (Clifford only); the ancilla is read out in
    the X basis.  The ancilla's Z key flips the raw reading, so the
    classical correction is just that key bit:  corrected = raw ^ z_a.

    Returns (state including the spent ancilla wire, raw, corrected).
    """
    if not stabilizer.is_hermitian() or stabilizer.sign() != 1:
        raise SchemeError("stabilizer must be a +1-signed Hermitian Pauli")
    n = state.n_qubits
    if stabilizer.n_qubits != n:
        raise SchemeError("stabilizer acts on the wrong register")
    anc = n
    full = state.tensor(encrypt(ancilla_key, type(state).product("+")))
    gates: list[tuple[str, tuple[int, ...]]] = []
    for q in range(n):
        letter = stabilizer.restricted_letter(q)
        if letter == "I":
            continue
        if letter == "X":
            gates.append(("CNOT", (anc, q)))
        elif letter == "Z":
            gates.append(("CZ", (anc, q)))
        else:  # Y: conjugate the target by S so the CNOT acts as CY
            gates += [("Z", (q,)), ("S", (q,)), ("CNOT", (anc, q)), ("S", (q,))]
    full = full.apply_gates(gates)
    xa = PauliString.single(n + 1, anc, "X")
    full, rec = full.measure_pauli(xa, rng)
    raw = rec.outcome
    corrected = raw ^ int(ancilla_key.pauli.z[0])
    return full, raw, corrected


# ---------------------------------------------------------------------------
# IQP circuits (diagonal-gate sampling, Z-only keys)
# ---------------------------------------------------------------------------

_IQP_GATES = {"CZ", "S", "Z", "T"}


def iqp_distribution(circuit: Circuit, x: tuple[int, ...],
                     n_samples: int = 0,
                     rng: np.random.Generator | None = None):
    """Output distribution of H^(x)n C H^(x)n on |x>, C diagonal.

    Returns (probs, counts): exact probabilities over 2^n outputs and,
    when n_samples > 0, empirical counts.
    """
    n = circuit.n_qubits
    if n > VECTOR_QUBIT_CAP:
        raise SchemeError(f"IQP evaluator capped at {VECTOR_QUBIT_CAP} qubits")
    for g in circuit.gates:
        if g.name not in _IQP_GATES:
            raise SchemeError(f"non-diagonal gate {g.name} in IQP circuit")
    if len(x) != n:
        raise SchemeError("input length mismatch")
    layer = [("H", (q,)) for q in range(n)]
    state = StateVector.product("".join(str(b & 1) for b in x)).apply_gates(
        layer + [(g.name, g.qubits) for g in circuit.gates] + layer)
    dim = 2 ** n
    probs = np.abs(state.vec) ** 2
    probs = probs / probs.sum()
    counts = np.zeros(dim, dtype=np.int64)
    if n_samples:
        if rng is None:
            raise SchemeError("sampling needs an rng")
        draws = rng.choice(dim, size=n_samples, p=probs)
        np.add.at(counts, draws, 1)
    return probs, counts


# ---------------------------------------------------------------------------
# Composition with a stabilizer code
# ---------------------------------------------------------------------------

def compose_with_stabilizer_code(code) -> SchemeDescriptor:
    """Pauli keys on the k data qubits, trivial keys on the n-k ancillas,
    followed by the code's Clifford encoder.

    The physical key is a logical-operator representative, so it has zero
    syndrome: the server runs the whole QEC procedure unaided.
    """
    n, k = code.n, code.k
    enc = code.encoder
    key_word = _word_on(k)

    def transport(key: PauliKey, comp: CliffordOp) -> PauliKey:
        mu = enc.conjugate(key.pauli.tensor(PauliString.identity(n - k)))
        moved = comp.conjugate(mu).positive()
        back = enc.inverse().conjugate(moved).positive()
        if back.x[k:].any() or back.z[k:].any():
            raise SchemeError("computation leaves the encoded key space")
        return PauliKey(PauliString(back.x[:k], back.z[:k]).positive())

    def allows(comp: CliffordOp) -> bool:
        if comp.n_qubits != n:
            return False
        try:
            for q in range(k):
                for letter in ("X", "Z"):
                    transport(PauliKey(PauliString.single(k, q, letter).positive()),
                              comp)
        except SchemeError:
            return False
        return True

    return SchemeDescriptor(
        name=f"pauli{k}*{code.name}",
        n_qubits=n,
        key_count=4 ** k,
        iter_keys=lambda: all_keys(k),
        encrypt_word=lambda key: key_word(key) + list(enc.gates),
        transport=transport,
        allows=allows,
    )
