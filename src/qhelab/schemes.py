"""Abstract scheme algebra: scheme tuples, the security metric, decryption
derivation, scheme composition, and the encode/encrypt commutation check.

A scheme is the tuple (state space, keys, allowed computations, lift map,
encryption family).  Encryption here is always a Clifford channel, given
per key as one elementary gate word: `encrypt` replays the word on a
state and `decrypt` its inverse (so `Decr_k` is the adjoint of `Encr_k`),
and the tableau `encrypt_op` is built only where channels are compared.
Key transport is the executable form of the commutation f: moving an
encryption through a computation yields the same computation followed by
encryption under the transported key.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .paulis import Circuit, CliffordOp, PauliString, _inverse_word
from .states import BackendError, DensityMatrix, trace_distance


class SchemeError(ValueError):
    pass


class KeySpaceError(SchemeError):
    """Key space is not finitely enumerable (continuous-key schemes)."""


@dataclass(frozen=True)
class SchemeDescriptor:
    """Concrete QHE scheme: callables over an opaque key type.

    `key_from_pauli`, set by schemes whose keys are Pauli strings (a key k
    is then the channel of k.pauli), maps a +1-signed Pauli back to its
    key, raising SchemeError when it lies outside the key space."""
    name: str
    n_qubits: int
    key_count: int | None                      # None: not enumerable
    iter_keys: Callable[[], Iterator]
    sample_key: Callable[[np.random.Generator], object]
    encrypt_word: Callable[[object], list[tuple[str, tuple[int, ...]]]]
    transport: Callable[[object, CliffordOp], object]   # forward transport
    lift: Callable[[CliffordOp], CliffordOp]            # homomorphism phi
    allows: Callable[[CliffordOp], bool]
    key_from_pauli: Callable[[PauliString], object] | None = None

    def encrypt_op(self, key) -> CliffordOp:
        """Encr_key as a tableau, for comparing channels."""
        return CliffordOp.from_gates(self.n_qubits, self.encrypt_word(key))

    def _replay(self, word, state):
        if state.n_qubits != self.n_qubits:
            raise BackendError("qubit count mismatch")
        return state.apply_gates(word)

    def encrypt(self, key, state):
        return self._replay(self.encrypt_word(key), state)

    def decrypt(self, key, state):
        return self._replay(_inverse_word(self.encrypt_word(key)), state)

    def transport_back(self, key, comp: CliffordOp):
        """Reverse transport: the f with Encr_k . C = phi(C) . Encr_f."""
        return self.transport(key, comp.inverse())


@dataclass(frozen=True)
class SecurityReport:
    delta: float
    method: str                 # "exact-sweep" | "sampled"
    key_count: int
    witness_pair: tuple[int, int]

    def __post_init__(self):
        if not -1e-12 <= self.delta <= 1.0 + 1e-9:
            raise SchemeError("delta outside [0, 1]")

    def to_json(self) -> str:
        return json.dumps({"delta": self.delta, "method": self.method,
                           "key_count": self.key_count,
                           "witness_pair": list(self.witness_pair)})


@dataclass(frozen=True)
class Decryption:
    """Executable decryption channel with its circuit-size record."""
    channel: CliffordOp
    gate_count: int

    def __call__(self, state):
        return state.apply_clifford(self.channel)


def _as_clifford(comp) -> CliffordOp:
    if isinstance(comp, CliffordOp):
        return comp
    if isinstance(comp, Circuit):
        return CliffordOp.from_circuit(comp)
    raise SchemeError(f"not a computation: {comp!r}")


def _key_average(scheme: SchemeDescriptor, keys, rho: DensityMatrix,
                 expected: int) -> DensityMatrix:
    """Uniform mixture of rho's encryptions under `keys`, which must
    number `expected`."""
    total = np.zeros_like(rho.mat)
    count = 0
    for key in keys:
        total += scheme.encrypt(key, rho).mat
        count += 1
    if count != expected:
        raise SchemeError("key iterator disagrees with key_count")
    total /= count
    return DensityMatrix(total, validate=False)


def ciphertext_average(scheme: SchemeDescriptor, rho: DensityMatrix) -> DensityMatrix:
    """The state an eavesdropper without the key perceives: the uniform
    mixture of the encryptions under every key."""
    if scheme.key_count is None:
        raise KeySpaceError(f"{scheme.name} has no enumerable key space")
    return _key_average(scheme, scheme.iter_keys(), rho, scheme.key_count)


def security_delta(scheme: SchemeDescriptor, inputs,
                   rng: np.random.Generator | None = None,
                   exact_limit: int = 10 ** 6,
                   sample_count: int = 4096) -> SecurityReport:
    """Max pairwise trace distance between key-averaged ciphertexts."""
    inputs = list(inputs)
    if not inputs:
        raise SchemeError("empty input set")
    if scheme.key_count is None:
        raise KeySpaceError(f"{scheme.name} has no enumerable key space")
    if scheme.key_count <= exact_limit:
        method = "exact-sweep"
        averaged = [ciphertext_average(scheme, rho) for rho in inputs]
        swept = scheme.key_count
    else:
        if rng is None:
            raise SchemeError("sampled sweep needs an rng")
        method = "sampled"
        keys = [scheme.sample_key(rng) for _ in range(sample_count)]
        averaged = [_key_average(scheme, keys, rho, sample_count)
                    for rho in inputs]
        swept = sample_count
    best = 0.0
    pair = (0, 0)
    for i in range(len(averaged)):
        for j in range(i + 1, len(averaged)):
            d = trace_distance(averaged[i], averaged[j])
            if d > best:
                best, pair = d, (i, j)
    return SecurityReport(delta=best, method=method, key_count=swept,
                          witness_pair=pair)


def derive_decryption(scheme: SchemeDescriptor, key, comp) -> Decryption:
    """Decr_{k,C}: adjoint of the encryption under the transported key, so
    that Decr . phi(C) . Encr_k == C on every state."""
    comp = _as_clifford(comp)
    if not scheme.allows(comp):
        raise SchemeError(f"computation not in the allowed set of {scheme.name}")
    out_key = scheme.transport(key, comp)
    channel = scheme.encrypt_op(out_key).inverse()
    return Decryption(channel=channel, gate_count=len(channel.gates))


def compose_schemes(schemes) -> SchemeDescriptor:
    """Tensor composition: product keys, componentwise encryption.

    Computations that factor componentwise always transport componentwise
    (the glue computation of the general composition is taken to be the
    identity).  When every component's keys are Pauli strings (it sets
    `key_from_pauli`), arbitrary joint Cliffords are transported by
    conjugating the joint key, provided the image splits back into the
    component key spaces.
    """
    schemes = list(schemes)
    if not schemes:
        raise SchemeError("nothing to compose")
    if len(schemes) == 1:
        return schemes[0]
    n = sum(s.n_qubits for s in schemes)
    offsets = [0, *itertools.accumulate(s.n_qubits for s in schemes[:-1])]
    spans = [list(range(off, off + s.n_qubits))
             for off, s in zip(offsets, schemes)]
    counts = [s.key_count for s in schemes]
    key_count = None if any(c is None for c in counts) else int(np.prod(counts))

    def iter_keys():
        return itertools.product(*[s.iter_keys() for s in schemes])

    def sample_key(rng):
        return tuple(s.sample_key(rng) for s in schemes)

    def encrypt_word(keys):
        return [(name, tuple(q + off for q in qs))
                for s, k, off in zip(schemes, keys, offsets)
                for name, qs in s.encrypt_word(k)]

    pauli_keys = all(s.key_from_pauli is not None for s in schemes)

    def transport(keys, comp: CliffordOp):
        if not pauli_keys:
            raise SchemeError("composed transport needs Pauli keys")
        joint = keys[0].pauli
        for k in keys[1:]:
            joint = joint.tensor(k.pauli)
        moved = comp.conjugate(joint).positive()
        return tuple(
            s.key_from_pauli(PauliString(moved.x[span], moved.z[span]).positive())
            for s, span in zip(schemes, spans))

    def allows(comp: CliffordOp) -> bool:
        if comp.n_qubits != n or not pauli_keys:
            return False
        try:
            for probe in iter_key_space_generators():
                transport(probe, comp)
        except SchemeError:
            return False
        return True

    def iter_key_space_generators():
        """A generating set of the joint key space (X / Z singles per
        component where the component key space contains them)."""
        base = tuple(next(iter(s.iter_keys())) for s in schemes)
        yield base
        for idx, s in enumerate(schemes):
            for key in s.iter_keys():
                probe = list(base)
                probe[idx] = key
                yield tuple(probe)

    def lift(comp: CliffordOp) -> CliffordOp:
        # all shipped schemes delegate the computation verbatim
        return comp

    return SchemeDescriptor(
        name="*".join(s.name for s in schemes),
        n_qubits=n,
        key_count=key_count,
        iter_keys=iter_keys,
        sample_key=sample_key,
        encrypt_word=encrypt_word,
        transport=transport,
        lift=lift,
        allows=allows,
    )


def check_qec_commutation(scheme: SchemeDescriptor, enc: CliffordOp,
                          comp: CliffordOp | None, key,
                          lifted_comp: CliffordOp | None = None):
    """Encode-after-encrypt vs encrypt-after-encode (with transported key).

    Verifies Encr_k . Enc == Enc . Encr_lambda as channels (exact tableau
    equality) and, when a computation plus its code lift are supplied, the
    transported-key relation f(f(k, L(C)), Enc) = f(lambda, C).
    Returns (holds, lambda).
    """
    if not scheme.allows(enc):
        raise SchemeError("encoding circuit is not in the allowed set")
    lam = scheme.transport_back(key, enc)
    lhs = scheme.encrypt_op(key).compose(enc)       # Encr_k . Enc
    rhs = enc.compose(scheme.encrypt_op(lam))       # Enc . Encr_lambda
    holds = lhs == rhs
    if comp is not None and lifted_comp is not None:
        side1 = scheme.transport_back(scheme.transport_back(key, lifted_comp), enc)
        side2 = scheme.transport_back(lam, comp)
        holds = holds and (side1 == side2)
    return holds, lam
