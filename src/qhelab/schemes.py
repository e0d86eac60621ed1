"""Abstract scheme algebra: scheme tuples, the security metric, decryption
derivation, scheme composition, and the encode/encrypt commutation check.

A scheme is the tuple (state space, keys, allowed computations,
homomorphism phi, encryption family).  Every scheme here delegates the
computation verbatim, so phi is the identity and is not stored.
Encryption is always a Clifford channel, given per key as one elementary
gate word: `encrypt` replays the word on a state and `decrypt` its
inverse (so `Decr_k` is the adjoint of `Encr_k`), and the tableau
`encrypt_op` is built only where channels are compared.  Key transport
is the executable form of the commutation f: moving an encryption
through a computation yields the same computation followed by
encryption under the transported key.

Key averages are exact sums over every key ("exact-sweep") on a dense
state of at most 6 qubits, so no scheme here has over 4^6 keys.  A
scheme whose keys form a group may declare `key_factors`: lists of keys
such that every key is exactly one product of one key per list (the
first list's key applied first), each starting with the identity key;
otherwise all keys form one list.  Each descriptor builds its average
once as a plan, one twirl per list: a key's word up to its first H or T
is one gather of rho's matrix, and the rest, shared by the list's keys,
runs once on the list's sum.  A 6-column permutation sweep is 2 + 3 + 4
+ 5 + 6 gathers per input, and the 4^n Pauli keys 4n.  Permutation,
Pauli and Z-key words are monomial (no H or T), so on a diagonal input,
such as the computational-basis inputs of the sweeps, each gather moves
the 2^n diagonal entries, not the 4^n matrix.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .paulis import Circuit, CliffordOp, PauliString, _inverse_word
from .states import BackendError, DensityMatrix, _dense, _word_map, trace_distance


class SchemeError(ValueError):
    pass


class KeySpaceError(SchemeError):
    """Key space is not finitely enumerable (continuous-key schemes)."""


@dataclass(frozen=True)
class SchemeDescriptor:
    """Concrete QHE scheme: callables over an opaque key type.  phi is the
    identity, so `transport` moves keys through the computation itself.

    `key_from_pauli`, set by schemes whose keys are Pauli strings (a key k
    is then the channel of k.pauli), maps a +1-signed Pauli back to its
    key, raising SchemeError when it lies outside the key space.
    `key_factors`, set by schemes whose keys form a group, returns lists
    of keys, each starting with the identity key, such that every key is
    exactly one product of one key per list."""
    name: str
    n_qubits: int
    key_count: int | None                      # None: not enumerable
    iter_keys: Callable[[], Iterator]
    encrypt_word: Callable[[object], list[tuple[str, tuple[int, ...]]]]
    transport: Callable[[object, CliffordOp], object]   # forward transport
    allows: Callable[[CliffordOp], bool]
    key_from_pauli: Callable[[PauliString], object] | None = None
    key_factors: Callable[[], list[list]] | None = None

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
        """Reverse transport: the f with Encr_k . C = C . Encr_f."""
        return self.transport(key, comp.inverse())

    @functools.cached_property
    def _average_plan(self) -> list:
        """The key average, built on first use: per factor list, each key's
        flat gather index into rho's matrix, its row index into rho's
        diagonal (the flat index's diagonal entries, shifted), and its
        phase (None: all ones); and the list's tail, the word from its
        first H or T on, shared by every key of the list."""
        factors = (self.key_factors() if self.key_factors is not None
                   else [list(self.iter_keys())])
        if math.prod(map(len, factors)) != self.key_count:
            raise SchemeError("key factors disagree with key_count")
        n, plan = self.n_qubits, []
        for factor in factors:
            gathers, tail = [], []
            for key in factor:
                idx, d, rest = _word_map(n, self.encrypt_word(key))
                if gathers and rest != tail:
                    raise SchemeError(f"{self.name}: keys of one factor list "
                                      "differ from their first H or T on")
                tail = rest
                flat = (idx[:, None] << n | idx).ravel()
                gathers.append((flat, flat[::2 ** n + 1] >> n, None if d is None
                                else (d[:, None] * d.conj()).ravel()))
            plan.append((gathers, tail))
        return plan


@dataclass(frozen=True)
class SecurityReport:
    delta: float
    method: str                 # always "exact-sweep"
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


def ciphertext_average(scheme: SchemeDescriptor, rho) -> DensityMatrix:
    """The state an eavesdropper without the key perceives: the uniform
    mixture of the encryptions of rho's `to_density()` under every key.
    Each list of the plan sums its gathers of the previous list's sum and
    applies its tail; the one division comes last.  When rho's matrix is
    diagonal and no list has a tail, every key word is monomial and maps
    it to a diagonal matrix: the lists then gather its 2^n diagonal
    entries by row index, times the diagonal of each phase, in the same
    order, and only the result is built as a matrix."""
    if scheme.key_count is None:
        raise KeySpaceError(f"{scheme.name} has no enumerable key space")
    if rho.n_qubits != scheme.n_qubits:
        raise BackendError("qubit count mismatch")
    mat, plan = rho.to_density().mat, scheme._average_plan
    diagonal = (not any(tail for _, tail in plan)
                and np.count_nonzero(mat) == np.count_nonzero(mat.diagonal()))
    entries, step = (mat.diagonal(), len(mat) + 1) if diagonal else (mat.ravel(), 1)
    for gathers, tail in plan:
        acc = np.zeros_like(entries)
        for flat, row, phase in gathers:
            got = entries.take(row if diagonal else flat)
            acc += got if phase is None else got * phase[::step]
        entries = (_dense(acc.reshape(mat.shape)).apply_gates(tail).mat.ravel()
                   if tail else acc)
    out = entries / scheme.key_count
    return _dense(np.diag(out) if diagonal else out.reshape(mat.shape))


def security_delta(scheme: SchemeDescriptor, inputs) -> SecurityReport:
    """Max pairwise trace distance between key-averaged ciphertexts."""
    inputs = list(inputs)
    if not inputs:
        raise SchemeError("empty input set")
    if len(inputs) < 2:
        raise SchemeError("security delta compares at least two inputs")
    averaged = [ciphertext_average(scheme, rho) for rho in inputs]
    best, pair = 0.0, (0, 0)
    for i, j in itertools.combinations(range(len(averaged)), 2):
        d = trace_distance(averaged[i], averaged[j])
        if d > best:
            best, pair = d, (i, j)
    return SecurityReport(delta=best, method="exact-sweep",
                          key_count=scheme.key_count, witness_pair=pair)


def derive_decryption(scheme: SchemeDescriptor, key, comp) -> Decryption:
    """Decr_{k,C}: adjoint of the encryption under the transported key, so
    that Decr . C . Encr_k == C on every state."""
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

    def component_generators():
        """Per component, keys generating its key group, the identity key
        first: its factor keys where it declares them, else every key."""
        return [[k for factor in s.key_factors() for k in factor]
                if s.key_factors is not None else list(s.iter_keys())
                for s in schemes]

    def lifted(base, idx, key):
        probe = list(base)
        probe[idx] = key
        return tuple(probe)

    def iter_key_space_generators():
        """The identity key, then every component generator lifted with
        the other components at their identity keys.  These generate the
        joint key group, and transport is linear in the key, so a
        computation that keeps them in the key space keeps every key."""
        gens = component_generators()
        base = tuple(g[0] for g in gens)
        yield base
        for idx, g in enumerate(gens):
            for key in g:
                yield lifted(base, idx, key)

    def key_factors():
        per_scheme = [s.key_factors() for s in schemes]
        base = tuple(factors[0][0] for factors in per_scheme)
        return [[lifted(base, idx, key) for key in factor]
                for idx, factors in enumerate(per_scheme) for factor in factors]

    return SchemeDescriptor(
        name="*".join(s.name for s in schemes),
        n_qubits=n,
        key_count=key_count,
        iter_keys=iter_keys,
        encrypt_word=encrypt_word,
        transport=transport,
        allows=allows,
        key_factors=(key_factors if all(s.key_factors is not None
                                        for s in schemes) else None),
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
