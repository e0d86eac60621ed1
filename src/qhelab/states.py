"""Three interchangeable state backends behind one protocol.

`StabilizerState` is a packed stabilizer tableau: k x n x/z bit arrays
plus Z4 phases, updated through the batch gate engine of `paulis`.  A
state on n qubits may carry k < n generators, which encodes a mixed state
(uniform over the coset fixed by the group) -- that is exactly what
maximally mixed ancillas look like, so no purification bookkeeping is
needed.  Tracing out or measuring qubits reduces only the generators
with support on them: one GF(2) echelon of their restriction there finds
the products that cancel, each kept in its relation's last slot
(`_drop_support`); the rest is one column restriction.

`DensityMatrix` is the exact dense oracle, capped at n = 6 so exhaustive
key sweeps stay fast.  It never forms a 2^n x 2^n operator per gate, and
has two gate kernels:

- gather: S, X, Y, Z, CNOT, CZ and SWAP have one nonzero per row, so
  u rho u^dag gathers rho's rows and columns by a cached index vector and
  re-phases them (`_row_map`); a qubit permutation is the same gather by
  its basis index vector, so a permutation key encrypts without
  arithmetic.  A word's gates up to its first H or T compose into one
  such map (`_word_map`), which a key average takes as one flat index.
  `_gather` is the one kernel that moves a state's entries;
- contraction: H and T multiply their 4^k x 4^k superoperator
  u (x) conj(u) into their k row and k column axes (`_apply_on_bits`).

A Pauli acts as a signed permutation of rows and columns
(P rho = s[:, None] * rho[idx]), a gather too.  Z measurements are
diagonal, so they select blocks instead: a Z-type `measure_pauli` keeps
the rows and columns of the outcome's sign, and `measure_discard` draws
its bits from rho's diagonal and returns the block at those bits
(`_draw` is the one outcome rule).

`StateVector` holds a pure state as its 2^n amplitudes, capped at
n = 12, on the same kernels with one index instead of two: a `_row_map`
take times d, H and T as one matmul on the qubit's axis, a Pauli as
s * v[idx], and Z measurements as block selections drawn through `_draw`,
so a seeded generator gives the dense oracle's outcomes and stream.  It
holds no mixed state: `maximally_mixed` and mixed inputs raise, and its
partial traces (`discard_qubits`, `reduced_density`, `to_density`) are
dense.  Pauli-key sessions and the plain session reference run on it.
The backends are cross-checked against each other by `BackendPair`
(tests/test_state_protocol.py), a stateful machine that drives every
protocol method on each and compares them after each step.

All three implement one state protocol, so scheme code never asks which
backend it holds.  Their base `State` holds no state and writes once, in
terms of each backend's `apply_gate`, `_permute`, `discard_qubits` and
`to_density`, the rules they share: immutability, `apply_gates` (a gate
word, one `apply_gate` per gate), `apply_transversals` (a word of
transversal gates, each one gate on each column of equal-length, disjoint
qubit ranges, replayed as its gate word), `apply_clifford` (its gate word),
`permute_qubits` and `reduced_density` (a `DensityMatrix`: the other
qubits discarded, the rest relabelled to the order given).  The tableau
overrides `apply_gates`, `apply_gate` and `apply_transversals`: a word is
one row copy, one engine call per gate (on column slices for a transversal
word) and one tableau build.  Each backend has its own `apply_pauli`,
`measure_pauli`, `measure_discard` (Z on a list of qubits in order, then
trace them out), `discard_qubits`, `expectation`, `to_density` (a
tableau's is cached on its rows), `tensor` (a dense operand promotes a
stabilizer or vector one to dense, a vector operand a pure tableau to a
vector), and `product` / `maximally_mixed` constructors;
`trace_distance` takes two states.
`_controlled_discard` serves the register's correction rows: a
transversal CNOT or CZ from a separate Z-type control tableau, then the
control's partial trace, as one `_drop_support` on the target.
`StabilizerState(n, generators)`, `DensityMatrix(mat)`,
`StateVector(vec)` and `permute_qubits` check outside data (`_permute`
is the unchecked relabelling), and the two array constructors keep a
copy; `_tableau` (packed rows), `_dense` (an exactly built matrix) and
`_vector` (an exactly built vector) are the only internal constructors,
and take over their arrays without checks or copies.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gf2
from .paulis import (_GATE_ARITY, CLIFFORD_GATES, CliffordOp, PauliString,
                     _apply_gate_rows, _check_gate, _check_word, _row_product,
                     _signed_permutation, _symplectic_gram)

DENSE_QUBIT_CAP = 6
VECTOR_QUBIT_CAP = 12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_GATE_MATS: dict[str, np.ndarray] = {
    "H": _INV_SQRT2 * np.array([[1, 1], [1, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                     dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                     dtype=complex),
}

# what the contraction kernel multiplies into a gate's row and column axes.
# Only H and T contract: every other gate has one nonzero per row and is a
# row-map gather (`_row_map`)
_GATE_SUPEROPS = {name: np.kron(u, u.conj()) for name, u in _GATE_MATS.items()
                  if name in ("H", "T")}

_1Q_VECTORS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) * _INV_SQRT2,
    "-": np.array([1, -1], dtype=complex) * _INV_SQRT2,
    "i": np.array([1, 1j], dtype=complex) * _INV_SQRT2,
    "m": np.array([1, -1j], dtype=complex) * _INV_SQRT2,
    "T": np.array([1, np.exp(1j * np.pi / 4)], dtype=complex) * _INV_SQRT2,
}

# stabilizer generator (x bit, z bit, Z4 phase; Y = iXZ) for the
# stabilizer-representable plaintext characters
_1Q_GENERATORS = {"0": (0, 1, 0), "1": (0, 1, 2), "+": (1, 0, 0),
                  "-": (1, 0, 2), "i": (1, 1, 1), "m": (1, 1, 3)}


class BackendError(ValueError):
    pass


def _check_pauli(n: int, p: PauliString, use: str | None = None) -> None:
    """Every backend's operand check: qubit count first, then (for a
    measurement or an expectation) Hermiticity."""
    if p.n_qubits != n:
        raise BackendError("qubit count mismatch")
    if use is not None and not p.is_hermitian():
        raise BackendError(f"can only {use} Hermitian Paulis")


def _check_qubits(n: int, qs) -> list[int]:
    """Every backend's check on the qubits to measure or discard: distinct
    qubits in range(n), returned as a list."""
    qs = list(qs)
    if len(set(qs)) != len(qs) or qs and not 0 <= min(qs) <= max(qs) < n:
        raise BackendError(f"bad qubits {qs} on {n} qubits")
    return qs


def _check_slots(name: str, slots, n: int, names) -> tuple[range, ...]:
    """Every backend's check on a transversal gate: `name` in `names` and
    its arity of step-1 `range` slots, of equal length, inside range(n)
    and pairwise disjoint; O(1) per slot.  Returns the slots as a tuple."""
    if name not in names:
        raise BackendError(f"{name} is not one of {' '.join(names)}")
    slots = tuple(slots)
    if (len(slots) != _GATE_ARITY[name]
            or not all(isinstance(r, range) and r.step == 1 for r in slots)):
        raise BackendError(f"gate {name} takes {_GATE_ARITY[name]} step-1 "
                           f"qubit ranges, not {slots}")
    if len({len(r) for r in slots}) != 1:
        raise BackendError(f"unequal slot lengths {slots} for gate {name}")
    if not slots[0]:
        return slots
    if not all(0 <= r.start and r.stop <= n for r in slots):
        raise BackendError(f"slots {slots} leave the {n}-qubit register")
    if len(slots) == 2 and max(r.start for r in slots) < min(r.stop for r in slots):
        raise BackendError(f"overlapping slots {slots} for gate {name}")
    return slots


def _check_perm(perm, n: int) -> np.ndarray:
    """Every backend's check that perm (a list or an integer array) is a
    bijection on range(n); returns its inverse."""
    perm = np.asarray(perm)
    inv = np.argsort(perm) if perm.shape == (n,) else None
    if inv is None or not np.array_equal(perm[inv], np.arange(n)):
        raise BackendError("perm must be a bijection on the register")
    return inv


def _check_dense_cap(n: int) -> None:
    if n > DENSE_QUBIT_CAP:
        raise BackendError(f"dense oracle capped at {DENSE_QUBIT_CAP} qubits")


def _check_dense_shape(shape: tuple) -> None:
    """A dense state from outside is 2^n x 2^n, with n within the cap."""
    n = shape[0].bit_length() - 1 if len(shape) == 2 else -1
    if shape != (2 ** n, 2 ** n):
        raise BackendError("density matrix must be square power-of-two")
    _check_dense_cap(n)


class ZeroProbabilityError(BackendError):
    """A forced measurement outcome had probability zero."""


def _check_force(force) -> int | None:
    """Every backend's check on a forced measurement outcome: None, or an
    integer 0 or 1, returned as an int."""
    if force is None:
        return None
    if not isinstance(force, (int, np.integer)) or force not in (0, 1):
        raise BackendError(f"forced outcome must be 0 or 1, not {force!r}")
    return int(force)


def _draw(p0: float, rng: np.random.Generator,
          force: int | None = None) -> tuple[int, float]:
    """A dense outcome and its probability: 0 with probability p0 (clipped
    to [0, 1]), from one ``rng.random()`` unless forced.  An outcome of
    probability below 1e-12 raises `ZeroProbabilityError`."""
    p0 = min(max(p0, 0.0), 1.0)
    if force is None:
        force = 0 if rng.random() < p0 else 1
    prob = p0 if force == 0 else 1.0 - p0
    if prob < 1e-12:
        raise ZeroProbabilityError(f"outcome {force} has probability ~0")
    return force, prob


@dataclass(frozen=True)
class MeasurementRecord:
    outcome: int
    probability: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise BackendError("probability outside [0, 1]")


def _apply_on_bits(mat: np.ndarray, op: np.ndarray, bits) -> np.ndarray:
    """Multiply `op` into the listed bits of a 2^n x 2^n matrix's flat index
    (bit 0 most significant: row bit q is bit q, column bit q is n + q).

    Runs of untouched bits are merged into one axis each, the listed bits
    are transposed to the front in the order given, `op` multiplies them
    as one 2^len(bits) axis, and the transpose is undone."""
    nbits = 2 * (mat.shape[0].bit_length() - 1)
    shape, axis_of = [], {}
    prev = -1
    for b in sorted(bits):
        if b - prev > 1:
            shape.append(1 << (b - prev - 1))
        axis_of[b] = len(shape)
        shape.append(2)
        prev = b
    if nbits - prev > 1:
        shape.append(1 << (nbits - prev - 1))
    front = [axis_of[b] for b in bits]
    order = front + [a for a in range(len(shape)) if a not in front]
    t = mat.reshape(shape).transpose(order)
    # op @ t as (t^T op^T)^T: BLAS reads both transposes as flags, and the
    # product's layout reshapes back to t's shape without a copy
    t = (t.reshape(len(op), -1).T @ op.T).T.reshape(t.shape)
    undo = sorted(range(len(order)), key=order.__getitem__)
    return t.transpose(undo).reshape(mat.shape)


def _gather(mat: np.ndarray, idx: np.ndarray, d: np.ndarray | None) -> np.ndarray:
    """mat's rows and columns gathered by idx, times d[:, None] * d.conj()
    unless d is None: the dense oracle's one kernel that moves entries."""
    out = mat.take(idx, 0).take(idx, 1)
    if d is not None:
        out *= d[:, None] * d.conj()
    return out


@functools.lru_cache(maxsize=1024)
def _row_map(n: int, name: str, qs: tuple[int, ...]):
    """A gate with one nonzero per row on n qubits as read-only (idx, d):
    row r of its 2^n x 2^n unitary holds d[r] at column idx[r], so
    u rho u^dag = d[:, None] * d.conj() * rho[idx][:, idx] and
    u v = d * v[idx].  d is None when every entry is 1.  Read off the
    gate's 2^k x 2^k matrix at the bits of r on qs (qs[0] the most
    significant), once per (n, name, qs), as two 2^n-entry vectors."""
    g = _GATE_MATS[name]
    r = np.arange(2 ** n)
    shifts = [n - 1 - q for q in qs]
    a = np.zeros_like(r)
    for s in shifts:
        a = (a << 1) | ((r >> s) & 1)
    b = np.argmax(g != 0, axis=1)[a]
    idx = r & ~sum(1 << s for s in shifts)
    for i, s in enumerate(shifts):
        idx |= ((b >> (len(qs) - 1 - i)) & 1) << s
    # + 0.0 turns the -0.0 real part of the literal -1j in Y into +0.0
    d = g[a, b] + 0.0
    idx.setflags(write=False)
    if (d == 1).all():
        return idx, None
    d.setflags(write=False)
    return idx, d


def _word_map(n: int, word):
    """A word's gates before its first H or T as one (idx, d), the form
    `_row_map` gives one gate, and the rest of the word: each gate is
    checked, then its (i_g, d_g) composed in after the gates before it,
    idx <- idx[i_g] and d <- d_g * d[i_g] (d None while all ones)."""
    word, idx, d = list(word), np.arange(2 ** n), None
    for i, (name, qs) in enumerate(word):
        _check_gate(name, qs, n, _GATE_MATS, BackendError)
        if name in _GATE_SUPEROPS:
            return idx, d, word[i:]
        i_g, d_g = _row_map(n, name, tuple(qs))
        idx = idx[i_g]
        d = d_g if d is None else d[i_g] if d_g is None else d_g * d[i_g]
    return idx, d, []


@functools.lru_cache(maxsize=None)
def _basis(n: int) -> np.ndarray:
    """range(2^n) as a read-only (2,)*n tensor, one axis per qubit: with
    its axes permuted and flattened it is a qubit relabelling's row map."""
    basis = np.arange(2 ** n).reshape((2,) * n)
    basis.setflags(write=False)
    return basis


def statevector(spec: str) -> np.ndarray:
    """Product state vector from a character spec, e.g. '0+1' or 'T'."""
    v = np.array([1.0 + 0j])
    for ch in spec:
        if ch not in _1Q_VECTORS:
            raise BackendError(f"unknown state character {ch!r}")
        # np.kron's entries, each the one product of its two factors
        v = np.multiply.outer(v, _1Q_VECTORS[ch]).reshape(-1)
    return v


class State:
    """The protocol rules the three backends share; it holds no state.

    A backend supplies `apply_gate`, `_permute` (a relabelling by a checked
    inverse), `discard_qubits` and `to_density`; everything here is written
    in terms of those, never in terms of which backend it is."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def apply_gates(self, gates):
        """Apply an elementary gate word (application order), one
        `apply_gate` per gate."""
        out = self
        for name, qs in gates:
            out = out.apply_gate(name, qs)
        return out

    def apply_transversals(self, word):
        """A word of transversal gates, each (name, slots): one gate on each
        column of its step-1 qubit ranges (gate j acts on slots[0][j],
        slots[1][j], ...).  Every slot is checked first, then the word is
        replayed as the gate word it stands for."""
        word = [(name, _check_slots(name, slots, self.n_qubits, _GATE_MATS))
                for name, slots in word]
        return self.apply_gates((name, qs) for name, slots in word
                                for qs in zip(*slots))

    def apply_clifford(self, c: CliffordOp):
        if c.n_qubits != self.n_qubits:
            raise BackendError("qubit count mismatch")
        return self.apply_gates(c.gates)

    def permute_qubits(self, perm):
        """Relabel qubits: new qubit perm[q] carries old qubit q."""
        return self._permute(_check_perm(perm, self.n_qubits))

    def reduced_density(self, qubits: list[int]) -> "DensityMatrix":
        """Reduced state on `qubits`, in the order given, as a
        `DensityMatrix`: the other qubits discarded, then the kept ones,
        left in ascending order, relabelled to the order given."""
        qubits = _check_qubits(self.n_qubits, qubits)
        kept = self.discard_qubits([q for q in range(self.n_qubits)
                                    if q not in qubits])
        return kept.to_density().permute_qubits(
            [qubits.index(q) for q in sorted(qubits)])


class StabilizerState(State):
    """Possibly-mixed stabilizer state: k <= n independent commuting
    signed generators; k < n leaves 2^(n-k)-fold residual mixedness.

    Generator i is row i of the read-only packed arrays: the k x n bit
    matrices `x`, `z` and the Z4 vector `phase`, read as
    i^phase X^x Z^z exactly as in `PauliString`.  Every update copies the
    rows and works on them in place.
    """

    __slots__ = ("n_qubits", "x", "z", "phase")
    BACKEND = "stabilizer"

    def __init__(self, n_qubits: int, generators=()):
        gens = tuple(generators)
        if len(gens) > n_qubits:
            raise BackendError("more generators than qubits")
        if any(g.n_qubits != n_qubits for g in gens):
            raise BackendError("generator size mismatch")
        k = len(gens)
        self._set(n_qubits,
                  np.array([g.x for g in gens], np.uint8).reshape(k, n_qubits),
                  np.array([g.z for g in gens], np.uint8).reshape(k, n_qubits),
                  np.array([g.phase for g in gens], np.uint8))
        self._validate()

    def _set(self, *values) -> "StabilizerState":
        for name, val in zip(self.__slots__, values):
            object.__setattr__(self, name, val)
        for arr in values[1:]:
            arr.setflags(write=False)
        return self

    def _rows(self):
        """Writable copies of (x, z, phase)."""
        return self.x.copy(), self.z.copy(), self.phase.copy()

    @property
    def generators(self) -> tuple[PauliString, ...]:
        return tuple(PauliString(self.x[i], self.z[i], self.phase[i])
                     for i in range(len(self.phase)))

    def _validate(self) -> None:
        if np.any((self.phase + (self.x & self.z).sum(axis=1)) & 1):
            raise BackendError("generator must be Hermitian")
        if _symplectic_gram(self.x, self.z).any():
            raise BackendError("generators must commute")
        if len(self.x) and gf2.rank(np.hstack([self.x, self.z])) != len(self.x):
            raise BackendError("generators must be independent")

    def _anticommuting(self, p: PauliString) -> np.ndarray:
        """Boolean mask of the generators that anticommute with p."""
        return (((self.x & p.z) ^ (self.z & p.x)).sum(axis=1) & 1).astype(bool)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "StabilizerState":
        return cls.product("0" * n)

    @classmethod
    def maximally_mixed(cls, n: int) -> "StabilizerState":
        return cls.product("*" * n)

    @classmethod
    def product(cls, spec: str) -> "StabilizerState":
        """Product state from characters in '01+-im'; '*' marks a
        maximally mixed qubit."""
        qs = [q for q, ch in enumerate(spec) if ch != "*"]
        x = np.zeros((len(qs), len(spec)), np.uint8)
        z = np.zeros_like(x)
        phase = np.zeros(len(qs), np.uint8)
        for i, q in enumerate(qs):
            if spec[q] not in _1Q_GENERATORS:
                raise BackendError(f"not a stabilizer state character: {spec[q]!r}")
            x[i, q], z[i, q], phase[i] = _1Q_GENERATORS[spec[q]]
        return _tableau(len(spec), x, z, phase)

    def tensor(self, other):
        """self (x) other; a dense operand promotes the result to dense,
        a state vector to a state vector (this tableau must be pure)."""
        if other.BACKEND == DensityMatrix.BACKEND:
            return self.to_density().tensor(other)
        if other.BACKEND == StateVector.BACKEND:
            return _vector(_vector_of(self)).tensor(other)
        return _tableau(
            self.n_qubits + other.n_qubits, _block_diag(self.x, other.x),
            _block_diag(self.z, other.z),
            np.concatenate([self.phase, other.phase]))

    # -- group queries ----------------------------------------------------

    def _contains(self, p: PauliString) -> tuple[bool, int]:
        """Is +/-p in the stabilizer group?  Returns (found, sign).

        Costs one ``gf2.solve`` on the 2n x k generator matrix: O(nk)
        numpy work to pack it, then O(k^2) XORs of (2n + k)-bit ints, and
        an O(kn) phase product over the generators that make up p.  A
        deterministic `measure_pauli` pays this once per call;
        `measure_discard` settles a whole row of Z outcomes with two
        echelons over the generators instead, the first only over those
        with x on the row."""
        pos = p.positive()
        if not len(self.phase):
            return (pos.weight() == 0, 1)
        mat = np.hstack([self.x, self.z]).T
        sol = gf2.solve(mat, pos.symplectic())
        if sol is None:
            return (False, 0)
        phase = _row_product(self.x, self.z, self.phase, np.flatnonzero(sol))[2]
        if phase == pos.phase:
            return (True, 1)
        if phase == (pos.phase + 2) & 3:
            return (True, -1)
        raise BackendError("inconsistent stabilizer group phase")

    def expectation(self, p: PauliString) -> int:
        """<p> for a Hermitian Pauli: exactly one of -1, 0, +1."""
        _check_pauli(self.n_qubits, p, "take the expectation of")
        if self._anticommuting(p).any():
            return 0
        found, s = self._contains(p)
        return s * p.sign() if found else 0

    # -- dynamics ---------------------------------------------------------

    def apply_gates(self, gates) -> "StabilizerState":
        """Conjugate every generator by an elementary Clifford gate word
        (application order), one call of the gate engine per gate."""
        word = [(name, tuple(qs)) for name, qs in gates]
        _check_word(word, self.n_qubits, CLIFFORD_GATES, BackendError)
        x, z, phase = self._rows()
        for name, qs in word:
            _apply_gate_rows(x, z, phase, name, qs)
        return _tableau(self.n_qubits, x, z, phase)

    def apply_transversals(self, word) -> "StabilizerState":
        """A word of transversal gates, each (name, slots): one gate on each
        column of its step-1 qubit ranges (gate j acts on slots[0][j],
        slots[1][j], ...).  Every gate is checked first; then one row copy,
        one engine call per gate whose slots are basic slices, so numpy
        works on views, and one tableau build."""
        word = [(name, _check_slots(name, slots, self.n_qubits, CLIFFORD_GATES))
                for name, slots in word]
        x, z, phase = self._rows()
        for name, slots in word:
            _apply_gate_rows(x, z, phase, name,
                             tuple(slice(r.start, r.stop) for r in slots))
        return _tableau(self.n_qubits, x, z, phase)

    def apply_gate(self, name: str, qs: tuple[int, ...]) -> "StabilizerState":
        return self.apply_gates([(name, qs)])

    def apply_pauli(self, p: PauliString) -> "StabilizerState":
        # p g p^dag = +/- g depending on commutation
        _check_pauli(self.n_qubits, p)
        phase = (self.phase + 2 * self._anticommuting(p)) & 3
        return _tableau(self.n_qubits, self.x, self.z, phase.astype(np.uint8))

    def measure_pauli(self, k: PauliString, rng: np.random.Generator,
                      force: int | None = None,
                      ) -> tuple["StabilizerState", MeasurementRecord]:
        _check_pauli(self.n_qubits, k, "measure")
        force = _check_force(force)
        pos = k.positive()
        flip = 0 if k.sign() == 1 else 1
        anti = np.flatnonzero(self._anticommuting(pos))
        if not len(anti):
            found, sign = self._contains(pos)
            if found:
                outcome = (0 if sign == 1 else 1) ^ flip
                if force is not None and force != outcome:
                    raise ZeroProbabilityError(
                        f"forced outcome {force} has probability 0")
                return self, MeasurementRecord(outcome, 1.0)
        # outcome uniform: an anticommuting generator (the pivot) gives way
        # to +/-k, or k lies in the mixed directions and the state purifies
        # by one generator
        o_pos = int(rng.integers(0, 2)) if force is None else (force ^ flip)
        x, z, phase = self._rows()
        if len(anti):
            pivot = anti[0]
            _multiply_rows(x, z, phase, anti[1:], pivot)
        else:
            pivot = len(phase)
            x, z = np.vstack([x, pos.x]), np.vstack([z, pos.z])
            phase = np.append(phase, np.uint8(0))
        x[pivot], z[pivot] = pos.x, pos.z
        phase[pivot] = (pos.phase + 2 * o_pos) & 3
        rec = MeasurementRecord(o_pos ^ flip, 0.5)
        return _tableau(self.n_qubits, x, z, phase), rec

    def _permute(self, inv: np.ndarray) -> "StabilizerState":
        """`permute_qubits` by a checked inverse: new q is old inv[q]."""
        return _tableau(self.n_qubits, self.x[:, inv], self.z[:, inv], self.phase)

    def discard_qubits(self, qs: list[int]) -> "StabilizerState":
        """Trace out the given qubits (exact stabilizer partial trace).

        Only the generators with support on qs are reduced, by one GF(2)
        echelon of their x|z restriction to qs (`_drop_support`); the rest
        is one column restriction."""
        cols = _columns(_check_qubits(self.n_qubits, qs))
        x, z, phase = self._rows()
        alive = _drop_support(x, z, phase, np.concatenate((x[:, cols], z[:, cols]), 1))
        return self._restrict(x, z, phase, alive, cols)

    def measure_discard(self, qs: list[int], rng: np.random.Generator,
                        ) -> tuple["StabilizerState", list[int]]:
        """Measure Z on each listed qubit in the order given, then trace
        them out; returns (state, outcome bits).

        Same bits, ``rng.integers(0, 2)`` draws and group as
        `measure_pauli` on each Z_q in turn, then `discard_qubits(qs)`.
        `_drop_support` on the x restriction leaves the part of the group
        that commutes with every Z_q; an echelon of its rows' kept parts,
        those with z on qs last, finds the group's +/-Z^v on qs alone.  In
        echelon form by last position they fix those outcomes, all others
        are uniform; the rows with z on qs that stay take sign (-1)^(v.b).
        """
        qs = _check_qubits(self.n_qubits, qs)
        cols = _columns(qs)
        x, z, phase = self._rows()
        alive = _drop_support(x, z, phase, x[:, cols])
        zrows = alive & z[:, cols].any(1)
        # the group's +/-Z^v on qs, as (v, sign) bit masks over positions
        # in qs, in echelon form keyed by each v's last position
        fixed: dict[int, tuple[int, int]] = {}
        if zrows.any():
            rows = np.concatenate([(alive & ~zrows).nonzero()[0],
                                   zrows.nonzero()[0]])
            parts = np.concatenate([_without(a[rows], cols) for a in (x, z)], 1)
            for rel in gf2.relations(parts):
                sel = rows[rel]
                _, vz, ph = _row_product(x, z, phase, sel)
                v = sum(1 << int(j) for j in np.flatnonzero(vz[cols]))
                sign = ph >> 1
                while v and (v.bit_length() - 1) in fixed:
                    fv, fs = fixed[v.bit_length() - 1]
                    v, sign = v ^ fv, sign ^ fs
                if v:
                    fixed[v.bit_length() - 1] = (v, sign)
                # the relation's last row depends on the rows before it
                alive[sel[-1]] = zrows[sel[-1]] = False
        bits: list[int] = []
        done = 0
        for j in range(len(qs)):
            if j in fixed:
                v, sign = fixed[j]
                bit = sign ^ ((v & done).bit_count() & 1)
            else:
                bit = int(rng.integers(0, 2))
            bits.append(bit)
            done |= bit << j
        for p in zrows.nonzero()[0]:
            phase[p] = (phase[p] + 2 * int(z[p, cols] @ bits)) & 3
            z[p, cols] = 0
        return self._restrict(x, z, phase, alive, cols), bits

    def _restrict(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray,
                  alive: np.ndarray, cols) -> "StabilizerState":
        """The alive rows, which must act trivially on the qubits `cols`,
        restricted to the other qubits."""
        x, z = x[alive], z[alive]
        if x[:, cols].any() or z[:, cols].any():
            raise BackendError("discard reduction left support behind")
        x = _without(x, cols)
        return _tableau(x.shape[1], x, _without(z, cols), phase[alive])

    # -- extraction -------------------------------------------------------

    def to_density(self) -> "DensityMatrix":
        """Cached on the packed rows: sessions promote a few tableaus often."""
        _check_dense_cap(self.n_qubits)
        return _density_of(self.n_qubits, self.x.tobytes(), self.z.tobytes(),
                           self.phase.tobytes())

    def to_json(self) -> dict:
        return {"backend": self.BACKEND, "n_qubits": self.n_qubits,
                "generators": [g.label() for g in self.generators]}

    def __repr__(self):
        return f"StabilizerState(n={self.n_qubits}, gens={[g.label() for g in self.generators]})"


def _tableau(n_qubits: int, x: np.ndarray, z: np.ndarray,
             phase: np.ndarray) -> StabilizerState:
    """State from packed rows, taken over without checks or copies."""
    return object.__new__(StabilizerState)._set(n_qubits, x, z, phase)


@functools.lru_cache(maxsize=64)
def _density_of(n: int, x: bytes, z: bytes, phase: bytes) -> "DensityMatrix":
    """From the identity, (I + g) rho / 2 per generator g of packed rows."""
    rho = np.eye(2 ** n, dtype=complex)
    k = len(phase)
    for row in zip(*(np.frombuffer(b, np.uint8).reshape(k, n) for b in (x, z)), phase):
        idx, s = _signed_permutation(*row)
        rho = (rho + s[:, None] * rho[idx]) / 2.0
    return _dense(rho / 2 ** (n - k))


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), np.uint8)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _columns(qs: list[int]):
    """Distinct qubits as a column index: a basic slice when they run up
    in steps of one (every register row), else the list itself."""
    start = qs[0] if qs else 0
    return slice(start, start + len(qs)) if qs == list(range(start, start + len(qs))) else qs


def _without(a: np.ndarray, cols) -> np.ndarray:
    """A copy of a's columns other than `cols` (as `_columns` gives them)."""
    if isinstance(cols, slice):
        return np.concatenate((a[:, :cols.start], a[:, cols.stop:]), 1)
    return np.delete(a, cols, 1)


def _drop_support(x: np.ndarray, z: np.ndarray, phase: np.ndarray,
                  parts: np.ndarray) -> np.ndarray:
    """Keep, of the rows with support in `parts` (a row per generator),
    only the products whose parts cancel, in place: each relation's
    product takes its last row's slot, which no other relation reads (the
    others use independent rows).  Returns the mask of the rows kept."""
    rows = parts.any(1).nonzero()[0]
    alive = np.ones(len(phase), bool)
    alive[rows] = False
    for rel in gf2.relations(parts[rows]):
        last = rows[rel[-1]]
        x[last], z[last], phase[last] = _row_product(x, z, phase, rows[rel])
        alive[last] = True
    return alive


def _controlled_discard(target, control, name: str, cols: range):
    """`target` after the transversal `name` (CNOT or CZ) from the qubits
    of the separate state `control` onto `cols`, with `control` traced
    out; None unless both are tableaus and `control` has only Z
    generators.  Unchecked: the register calls it on a row's columns.

    Such a control is uniform over the basis strings b0 + ker(C) (C its
    generators' z rows), and a CNOT (CZ) from basis string b is X^b (Z^b)
    on cols, so the gate and the discard are the mixture of those Paulis:
    conjugation by X^b0 (Z^b0) flips signs, and one `_drop_support` keeps
    the products of target rows that commute with X^k (Z^k) for every k
    in a basis of ker(C)."""
    if (target.BACKEND != StabilizerState.BACKEND
            or control.BACKEND != StabilizerState.BACKEND or control.x.any()):
        return None
    coset = _z_coset(control.n_qubits, control.z.tobytes(), control.phase.tobytes())
    # a row's overlap with each column of `coset`, over its z (x) bits on
    # cols; a uint8 product wraps at 256, which keeps its parity
    bits = target.z if name == "CNOT" else target.x
    odd = (bits[:, cols.start:cols.stop] @ coset) & 1
    # the sign flip first, as a new phase vector (conjugation commutes with
    # the row products; adding 2 mod 4 flips a phase's bit 1)
    phase = target.phase ^ (odd[:, -1] << 1)
    if not odd[:, :-1].any():
        # every row commutes with the mixture: only the signs move
        return _tableau(target.n_qubits, target.x, target.z, phase)
    x, z = target.x.copy(), target.z.copy()
    alive = _drop_support(x, z, phase, odd[:, :-1])
    return _tableau(target.n_qubits, x[alive], z[alive], phase[alive])


@functools.lru_cache(maxsize=64)
def _z_coset(n: int, z: bytes, phase: bytes) -> np.ndarray:
    """The basis strings b of a state with Z generators only (packed z
    rows C and phases on n qubits), C b = s for the generators' sign bits
    s, as one read-only n-row matrix: a basis of ker(C) as its columns,
    then the pivot-only solution b0."""
    c = np.frombuffer(z, np.uint8).reshape(-1, n)
    rels = gf2.relations(c.T)
    coset = np.zeros((n, len(rels) + 1), np.uint8)
    for j, rel in enumerate(rels):
        coset[rel, j] = 1
    coset[:, -1] = gf2.solve(c, np.frombuffer(phase, np.uint8) >> 1)
    coset.setflags(write=False)
    return coset


def _multiply_rows(x: np.ndarray, z: np.ndarray, phase: np.ndarray,
                   rows: np.ndarray, pivot: int) -> None:
    """Replace each listed row g by g * (row pivot), in place."""
    if not len(rows):
        return
    cross = (z[rows] & x[pivot]).sum(axis=1) & 1
    phase[rows] = (phase[rows] + phase[pivot] + 2 * cross) & 3
    x[rows] ^= x[pivot]
    z[rows] ^= z[pivot]


class DensityMatrix(State):
    """Exact dense density operator, n <= 6 enforced."""

    __slots__ = ("n_qubits", "mat")
    BACKEND = "dense"

    def __init__(self, mat: np.ndarray):
        mat = np.array(mat, dtype=complex)      # the caller's array stays writable
        _check_dense_shape(mat.shape)
        self._set(mat)
        if abs(np.trace(mat) - 1.0) > 1e-12:
            raise BackendError("trace != 1")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise BackendError("not Hermitian")
        if np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)) < -1e-10:
            raise BackendError("not positive semidefinite")

    def _set(self, mat: np.ndarray) -> "DensityMatrix":
        object.__setattr__(self, "n_qubits", len(mat).bit_length() - 1)
        object.__setattr__(self, "mat", mat)
        mat.setflags(write=False)
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_statevector(cls, v: np.ndarray) -> "DensityMatrix":
        v = np.asarray(v, dtype=complex)
        _check_dense_shape((v.size, v.size))
        v = v / np.linalg.norm(v)
        return _dense(np.outer(v, v.conj()))

    @classmethod
    def product(cls, spec: str) -> "DensityMatrix":
        return cls.from_statevector(statevector(spec))

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        _check_dense_cap(n)
        return _dense(np.eye(2 ** n, dtype=complex) / 2 ** n)

    @classmethod
    def random_pure(cls, n: int, rng: np.random.Generator) -> "DensityMatrix":
        v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        return cls.from_statevector(v)

    # -- dynamics ---------------------------------------------------------

    def apply_gate(self, name: str, qs: tuple[int, ...]) -> "DensityMatrix":
        """u rho u^dag: H and T through the gate's superoperator on its row
        and column axes, any other gate (SWAP included) as a gather of rows
        and columns by its cached row map."""
        n = self.n_qubits
        _check_gate(name, qs, n, _GATE_MATS, BackendError)
        if name in _GATE_SUPEROPS:
            bits = list(qs) + [n + q for q in qs]
            return _dense(_apply_on_bits(self.mat, _GATE_SUPEROPS[name], bits))
        return _dense(_gather(self.mat, *_row_map(n, name, tuple(qs))))

    def apply_pauli(self, p: PauliString) -> "DensityMatrix":
        _check_pauli(self.n_qubits, p)
        return _dense(_gather(self.mat, *_signed_permutation(p.x, p.z, p.phase)))

    def measure_pauli(self, k: PauliString, rng: np.random.Generator,
                      force: int | None = None,
                      ) -> tuple["DensityMatrix", MeasurementRecord]:
        """A Z-type k (no X bits) is the diagonal of signs s, so p0 needs
        only s * diag(rho) and the post-state keeps the rows and columns
        where s is the outcome's sign; any other k is a signed
        permutation, and the post-state (I +/- K)/2 rho (I +/- K)/2."""
        _check_pauli(self.n_qubits, k, "measure")
        force = _check_force(force)
        idx, s = _signed_permutation(k.x, k.z, k.phase)
        rho = self.mat
        diagonal = not k.x.any()
        if diagonal:
            k_diag = s * np.diagonal(rho)
        else:
            k_rho = s[:, None] * rho[idx]
            k_diag = np.diagonal(k_rho)
        p0 = float(np.real(np.trace(rho) + k_diag.sum())) / 2
        outcome, prob = _draw(p0, rng, force)
        sign = 1 if outcome == 0 else -1
        if diagonal:
            keep = s == sign
            post = np.divide(rho, prob, out=np.zeros_like(rho),
                             where=keep[:, None] & keep)
        else:
            # K rho K = s[:, None] * (rho K)[idx]
            rho_k = rho[:, idx] * s.conj()
            post = (rho + sign * (k_rho + rho_k)
                    + s[:, None] * rho_k[idx]) / (4 * prob)
        return _dense(post), MeasurementRecord(outcome, prob)

    def _permute(self, inv: np.ndarray) -> "DensityMatrix":
        """`permute_qubits` by a checked inverse: new q is old inv[q], so
        new row b is the old row whose bit inv[q] is bit q of b."""
        return _dense(_gather(self.mat, _basis(self.n_qubits).transpose(inv).ravel(), None))

    # -- extraction -------------------------------------------------------

    def discard_qubits(self, qs: list[int]) -> "DensityMatrix":
        """Trace out the given qubits, one axis pair at a time."""
        qs = _check_qubits(self.n_qubits, qs)
        n = self.n_qubits
        t = self.mat.reshape((2,) * (2 * n))
        for q in sorted(qs, reverse=True):
            t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
        dim = 2 ** (n - len(qs))
        return _dense(t.reshape(dim, dim))

    def measure_discard(self, qs: list[int], rng: np.random.Generator,
                        ) -> tuple["DensityMatrix", list[int]]:
        """Measure Z on each listed qubit in the order given, then trace
        them out; returns (state, outcome bits).

        Z outcomes are read off rho's diagonal alone (`_draw_bits`).  The
        result is rho's block at the drawn bits on rows and columns alike,
        over its trace: the same bits, draws and state as one
        `measure_pauli` per qubit, then `discard_qubits(qs)`."""
        qs = _check_qubits(self.n_qubits, qs)
        n = self.n_qubits
        diag = np.diagonal(self.mat).real.reshape((2,) * n)
        bits, sel = _draw_bits(diag, qs, rng)
        block = self.mat.reshape((2,) * (2 * n))[sel + sel]
        dim = 2 ** (n - len(qs))
        return _dense((block / diag[sel].sum()).reshape(dim, dim)), bits

    def to_density(self) -> "DensityMatrix":
        return self

    def tensor(self, other) -> "DensityMatrix":
        """self (x) other; a stabilizer operand is promoted to dense."""
        _check_dense_cap(self.n_qubits + other.n_qubits)
        a, b = self.mat, other.to_density().mat
        # np.kron's entries, each the one product a[i, j] * b[k, l]
        out = a[:, None, :, None] * b[None, :, None, :]
        return _dense(out.reshape(len(a) * len(b), -1))

    def expectation(self, p: PauliString) -> float:
        _check_pauli(self.n_qubits, p, "take the expectation of")
        idx, s = _signed_permutation(p.x, p.z, p.phase)
        return float(np.real(s @ self.mat[idx, np.arange(len(idx))]))

    def to_json(self) -> dict:
        """The matrix as one [real, imag] pair of floats per entry."""
        flat = np.stack([self.mat.real, self.mat.imag], -1).reshape(-1, 2).tolist()
        return {"backend": self.BACKEND, "n_qubits": self.n_qubits, "matrix": flat}

    def __repr__(self):
        return f"DensityMatrix(n={self.n_qubits})"


def _dense(mat: np.ndarray) -> DensityMatrix:
    """State from an exactly built complex 2^n x 2^n matrix, taken over
    without checks or copies."""
    return object.__new__(DensityMatrix)._set(mat)


def _draw_bits(weight: np.ndarray, qs: list[int], rng: np.random.Generator,
               ) -> tuple[list[int], tuple]:
    """Z outcomes on qs, in order, from a (2,)*n tensor of basis weights
    (rho's diagonal, or |v|^2): each qubit's p0 is the mass of its 0
    outcome among the entries that agree with the bits drawn so far, with
    one ``rng.random()`` per qubit as in `measure_pauli`.  Returns the bits
    and the drawn block's index, the bits as size-1 slices so each qubit
    keeps its axis."""
    sel = [slice(None)] * weight.ndim
    bits: list[int] = []
    for q in qs:
        mass = weight[tuple(sel)]
        bit, _ = _draw(float(mass.take(0, q).sum() / mass.sum()), rng)
        bits.append(bit)
        sel[q] = slice(bit, bit + 1)
    return bits, tuple(sel)


class StateVector(State):
    """Exact pure state as its 2^n amplitudes, n <= 12 enforced.

    It runs the dense oracle's kernels on one index instead of two: a gate
    with one nonzero per row is one take by its `_row_map` index, times d;
    H and T are one matmul on the qubit's axis; a Pauli is s * v[idx]
    (`_signed_permutation`).  Z measurements select a block, and outcomes
    come from `_draw` with the dense rule's probabilities, so a seeded
    generator gives the same outcomes and leaves the same stream.  Mixed
    states have no vector: `maximally_mixed` and a mixed input raise
    `BackendError`, and the reduced state of a pure one (`discard_qubits`,
    `reduced_density`, `to_density`) is a `DensityMatrix`."""

    __slots__ = ("n_qubits", "vec")
    BACKEND = "statevector"

    def __init__(self, vec: np.ndarray):
        vec = np.array(vec, dtype=complex)      # the caller's array stays writable
        n = vec.size.bit_length() - 1
        if vec.shape != (2 ** n,):
            raise BackendError("state vector must have 2^n entries")
        _check_vector_cap(n)
        if abs(np.vdot(vec, vec).real - 1.0) > 1e-12:
            raise BackendError("state vector must have norm 1")
        self._set(vec)

    def _set(self, vec: np.ndarray) -> "StateVector":
        object.__setattr__(self, "n_qubits", len(vec).bit_length() - 1)
        object.__setattr__(self, "vec", vec)
        vec.setflags(write=False)
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def product(cls, spec: str) -> "StateVector":
        """Product state from characters in '01+-imT'; '*' (mixed) raises."""
        _check_vector_cap(len(spec))
        if "*" in spec:
            raise BackendError("a state vector holds pure states only")
        return _vector(statevector(spec))

    @classmethod
    def maximally_mixed(cls, n: int) -> "StateVector":
        raise BackendError("a state vector holds pure states only")

    # -- dynamics ---------------------------------------------------------

    def apply_gate(self, name: str, qs: tuple[int, ...]) -> "StateVector":
        """u v: H and T as one matmul on the qubit's axis, any other gate
        as a take by its cached row map, times d."""
        n = self.n_qubits
        _check_gate(name, qs, n, _GATE_MATS, BackendError)
        if name in _GATE_SUPEROPS:
            q = qs[0]
            t = _GATE_MATS[name] @ self.vec.reshape(2 ** q, 2, 2 ** (n - q - 1))
            return _vector(t.reshape(-1))
        idx, d = _row_map(n, name, tuple(qs))
        out = self.vec.take(idx)
        if d is not None:
            out *= d
        return _vector(out)

    def apply_pauli(self, p: PauliString) -> "StateVector":
        _check_pauli(self.n_qubits, p)
        idx, s = _signed_permutation(p.x, p.z, p.phase)
        return _vector(s * self.vec[idx])

    def measure_pauli(self, k: PauliString, rng: np.random.Generator,
                      force: int | None = None,
                      ) -> tuple["StateVector", MeasurementRecord]:
        """p0 = (|v|^2 + <v|K|v>) / 2, as the dense rule reads it off rho.
        A Z-type k keeps the entries where its sign s is the outcome's
        sign; any other k projects, (v +/- K v) / 2."""
        _check_pauli(self.n_qubits, k, "measure")
        force = _check_force(force)
        idx, s = _signed_permutation(k.x, k.z, k.phase)
        v = self.vec
        weight = (v.conj() * v).real
        diagonal = not k.x.any()
        if diagonal:
            k_mean = (s * weight).sum()
        else:
            k_v = s * v[idx]
            k_mean = np.vdot(v, k_v)
        p0 = float(np.real(weight.sum() + k_mean)) / 2
        outcome, prob = _draw(p0, rng, force)
        sign = 1 if outcome == 0 else -1
        if diagonal:
            post = np.divide(v, np.sqrt(prob), out=np.zeros_like(v),
                             where=s == sign)
        else:
            post = (v + sign * k_v) / (2 * np.sqrt(prob))
        return _vector(post), MeasurementRecord(outcome, prob)

    def _permute(self, inv: np.ndarray) -> "StateVector":
        """`permute_qubits` by a checked inverse: new q is old inv[q]."""
        n = self.n_qubits
        return _vector(self.vec.reshape((2,) * n).transpose(inv).reshape(-1))

    def measure_discard(self, qs: list[int], rng: np.random.Generator,
                        ) -> tuple["StateVector", list[int]]:
        """Measure Z on each listed qubit in the order given, then trace
        them out; returns (state, outcome bits).  The dense rule on |v|^2
        (`_draw_bits`), and the state is v's block at the drawn bits,
        normalised."""
        qs = _check_qubits(self.n_qubits, qs)
        n = self.n_qubits
        weight = (self.vec.conj() * self.vec).real.reshape((2,) * n)
        bits, sel = _draw_bits(weight, qs, rng)
        block = self.vec.reshape((2,) * n)[sel]
        norm = np.sqrt(weight[sel].sum())
        return _vector((block / norm).reshape(-1)), bits

    # -- extraction -------------------------------------------------------

    def discard_qubits(self, qs: list[int]) -> "DensityMatrix":
        """Trace out the given qubits: a `DensityMatrix`, mixed in general,
        t t^dag for v as a matrix whose rows are the kept qubits."""
        qs = sorted(_check_qubits(self.n_qubits, qs))
        n = self.n_qubits
        kept = [q for q in range(n) if q not in qs]
        _check_dense_cap(len(kept))
        t = self.vec.reshape((2,) * n).transpose(kept + qs).reshape(2 ** len(kept), -1)
        return _dense(t @ t.conj().T)

    def to_density(self) -> "DensityMatrix":
        _check_dense_cap(self.n_qubits)
        return _dense(np.outer(self.vec, self.vec.conj()))

    def tensor(self, other):
        """self (x) other: a state vector with a vector or a pure tableau,
        a `DensityMatrix` with a dense operand."""
        if other.BACKEND == DensityMatrix.BACKEND:
            return self.to_density().tensor(other)
        _check_vector_cap(self.n_qubits + other.n_qubits)
        # np.kron's entries, each the one product of its two factors
        return _vector(np.multiply.outer(self.vec, _vector_of(other)).reshape(-1))

    def expectation(self, p: PauliString) -> float:
        _check_pauli(self.n_qubits, p, "take the expectation of")
        idx, s = _signed_permutation(p.x, p.z, p.phase)
        return float(np.real(np.vdot(self.vec, s * self.vec[idx])))

    def to_json(self) -> dict:
        """The amplitudes as one [real, imag] pair of floats each."""
        pairs = np.stack([self.vec.real, self.vec.imag], -1).tolist()
        return {"backend": self.BACKEND, "n_qubits": self.n_qubits,
                "vector": pairs}

    def __repr__(self):
        return f"StateVector(n={self.n_qubits})"


def _vector(vec: np.ndarray) -> StateVector:
    """State from an exactly built complex 2^n vector, taken over without
    checks or copies."""
    return object.__new__(StateVector)._set(vec)


def _check_vector_cap(n: int) -> None:
    if n > VECTOR_QUBIT_CAP:
        raise BackendError(f"state vector capped at {VECTOR_QUBIT_CAP} qubits")


def _vector_of(state) -> np.ndarray:
    """The amplitudes of a state vector, or of a pure tableau: a basis
    string b of its support (every qubit measured, `measure_discard`),
    then (I + g) / 2 on |b> for each generator g, normalised.  A mixed
    state raises."""
    if state.BACKEND == StateVector.BACKEND:
        return state.vec
    n = state.n_qubits
    if state.BACKEND != StabilizerState.BACKEND or len(state.phase) < n:
        raise BackendError("a state vector holds pure states only")
    _check_vector_cap(n)
    _, bits = state.measure_discard(range(n), np.random.default_rng(0))
    v = np.zeros(2 ** n, dtype=complex)
    v[sum(bit << (n - 1 - q) for q, bit in enumerate(bits))] = 1.0
    for row in zip(state.x, state.z, state.phase):
        idx, s = _signed_permutation(*row)
        v = (v + s * v[idx]) / 2.0
    return v / np.linalg.norm(v)


def trace_distance(a, b) -> float:
    """(1/2)||a - b||_1 between two states of any backend, via the
    eigenvalues of the Hermitian difference of their dense forms."""
    if a.n_qubits != b.n_qubits:
        raise BackendError("dimension mismatch")
    diff = a.to_density().mat - b.to_density().mat
    eig = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.sum(np.abs(eig)))
