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
absorbed gate, and the pending correction is conjugated only when read.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .paulis import (Circuit, CliffordOp, PauliString, _apply_gate_rows,
                     _check_gate, _inverse_word)
from .schemes import SchemeDescriptor, SchemeError
from .states import DensityMatrix


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
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
        z = rng.integers(0, 2, size=n, dtype=np.uint8)
        return cls(PauliString(x, z).positive())

    def word(self) -> list[tuple[str, tuple[int, ...]]]:
        """The key channel as one single-qubit gate per non-identity letter."""
        return [(letter, (q,)) for q in range(self.n_qubits)
                if (letter := self.pauli.restricted_letter(q)) != "I"]

    def as_op(self) -> CliffordOp:
        return CliffordOp.from_gates(self.n_qubits, self.word())

    def label(self) -> str:
        return self.pauli.label()[1:]

    def tensor(self, other: "PauliKey") -> "PauliKey":
        return PauliKey(self.pauli.tensor(other.pauli))


def encrypt(key: PauliKey, state):
    """Apply the key Pauli as a unitary channel."""
    if key.n_qubits != state.n_qubits:
        raise SchemeError("key/state size mismatch")
    return state.apply_pauli(key.pauli)


def decrypt(key: PauliKey, state):
    # Pauli channels are involutions
    return encrypt(key, state)


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
        sample_key=lambda rng: PauliKey.random(n, rng),
        encrypt_word=_word_on(n),
        transport=lambda k, c: transport_key(k, c)[0],
        lift=lambda c: c,
        allows=lambda c: isinstance(c, CliffordOp) and c.n_qubits == n,
        key_from_pauli=lambda p: PauliKey(p.positive()),
    )


def trivial_scheme(n: int) -> SchemeDescriptor:
    """Single-key scheme (identity encryption on n ancilla qubits)."""
    def from_pauli(p: PauliString) -> PauliKey:
        if p.weight() != 0:
            raise SchemeError("computation leaves the trivial key space")
        return PauliKey.identity(n)

    return SchemeDescriptor(
        name=f"trivial{n}",
        n_qubits=n,
        key_count=1,
        iter_keys=lambda: iter([PauliKey.identity(n)]),
        sample_key=lambda rng: PauliKey.identity(n),
        encrypt_word=_word_on(n),
        transport=lambda k, c: PauliKey.identity(n),
        lift=lambda c: c,
        allows=lambda c: c.is_identity_channel(),
        key_from_pauli=from_pauli,
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
        sample_key=lambda rng: PauliKey(PauliString(
            np.zeros(n, np.uint8), rng.integers(0, 2, n, dtype=np.uint8), 0)),
        encrypt_word=_word_on(n),
        transport=lambda k, c: transport_key(k, c)[0],
        lift=lambda c: c,
        allows=allows,
        key_from_pauli=from_pauli,
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
    tableau and gate word that conjugating P gate by gate gives.
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

    def correct_first(self, fix: CliffordOp) -> None:
        """Fold a correction acting before the pending one into it."""
        self._set_pending(self.pending.compose(fix))

    def decrypt(self, state):
        """Recover the plaintext: the key Pauli, then the pending
        correction's inverse when there is one."""
        state = state.apply_pauli(self.key.pauli)
        if self._deferring:
            state = state.apply_clifford(self.pending.inverse())
        return state


@dataclass
class MagicStateResource:
    """Encrypted |T> = T|+> ancillas living on dedicated register wires."""
    wires: list[int]
    keys: list[PauliKey]          # one single-qubit key per ancilla
    used: int = 0

    @property
    def count(self) -> int:
        return len(self.wires)

    def remaining(self) -> int:
        return self.count - self.used


def prepare_magic_register(plaintext: DensityMatrix, data_key: PauliKey,
                           n_t: int, rng: np.random.Generator,
                           ) -> tuple[DensityMatrix, EvalTracker, MagicStateResource]:
    """Dense register [data | n_t magic wires], everything encrypted.

    Returns (ciphertext register, tracker holding the joint key, resource).
    """
    n_data = plaintext.n_qubits
    anc_keys = [PauliKey.random(1, rng) for _ in range(n_t)]
    # one wire at a time: a joint T block would regroup the kron products
    # and move ciphertext entries in their last bits
    t_state = DensityMatrix.product("T")
    full = plaintext
    for _ in range(n_t):
        full = full.tensor(t_state)
    magic_key = PauliString([k.pauli.x[0] for k in anc_keys],
                            [k.pauli.z[0] for k in anc_keys])
    joint = data_key.tensor(PauliKey(magic_key.positive()))
    resource = MagicStateResource(
        wires=[n_data + i for i in range(n_t)], keys=anc_keys)
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
                  tracker: EvalTracker, rng: np.random.Generator,
                  force_raw: int | None = None):
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
    zt = PauliString.single(n, target, "Z")
    if tracker.pending.conjugate(zt) != zt:
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
    state, rec = state.measure_pauli(za, rng, label=f"t{tracker.t_injected}",
                                     force=force_raw)
    o_raw = rec.outcome
    o_true = o_raw ^ int(tracker.key.pauli.x[anc])

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
                                     rng: np.random.Generator,
                                     force: int | None = None):
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
    full, rec = full.measure_pauli(xa, rng, label="stab", force=force)
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
    if n > 12:
        raise SchemeError("IQP evaluator capped at 12 qubits")
    for g in circuit.gates:
        if g.name not in _IQP_GATES:
            raise SchemeError(f"non-diagonal gate {g.name} in IQP circuit")
    if len(x) != n:
        raise SchemeError("input length mismatch")
    dim = 2 ** n
    u = np.arange(dim)
    bits = ((u[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int64)
    diag = np.ones(dim, dtype=complex)
    for g in circuit.gates:
        if g.name == "CZ":
            a, b = g.qubits
            diag *= (-1.0) ** (bits[:, a] * bits[:, b])
        elif g.name == "S":
            diag *= (1j) ** bits[:, g.qubits[0]]
        elif g.name == "Z":
            diag *= (-1.0) ** bits[:, g.qubits[0]]
        elif g.name == "T":
            diag *= np.exp(1j * np.pi / 4 * bits[:, g.qubits[0]])
    xvec = np.array(x, np.int64)
    psi = ((-1.0) ** (bits @ xvec)) / np.sqrt(dim)
    psi = diag * psi
    # final Hadamard layer via the fast Walsh transform
    psi = psi.reshape((2,) * n)
    for axis in range(n):
        a = np.take(psi, 0, axis=axis)
        b = np.take(psi, 1, axis=axis)
        psi = np.stack([(a + b), (a - b)], axis=axis) / np.sqrt(2)
    probs = np.abs(psi.reshape(dim)) ** 2
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
        sample_key=lambda rng: PauliKey.random(k, rng),
        encrypt_word=lambda key: key_word(key) + list(enc.gates),
        transport=transport,
        lift=lambda c: c,
        allows=allows,
    )
