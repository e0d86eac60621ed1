"""Two interchangeable state backends behind one protocol.

`StabilizerState` is a packed stabilizer tableau: k x n x/z bit arrays
plus Z4 phases, updated through the batch gate engine of `paulis`.  A
state on n qubits may carry k < n generators, which encodes a mixed state
(uniform over the coset fixed by the group) -- that is exactly what
maximally mixed ancillas look like, so no purification bookkeeping is
needed.

`DensityMatrix` is the exact dense oracle, capped at n = 6 so exhaustive
key sweeps stay fast.  It never forms a 2^n x 2^n operator.  A SWAP is a
qubit relabelling: each run of consecutive SWAPs in a gate word becomes
one transpose of rho's (2,)*2n tensor (`_relabel`, shared with
`permute_qubits`), so a permutation key encrypts without arithmetic.
Any other k-qubit gate multiplies its 4^k x 4^k superoperator
u (x) conj(u) into its k row and k column axes (`_apply_on_bits`), and a
Pauli acts as a signed permutation of rows and columns
(P rho = s[:, None] * rho[idx]).
The two backends are cross-checked against each other in the test suite.

Both implement the same state protocol, so scheme code never asks which
backend it holds: `apply_gates` (the gate entry point; `apply_gate` and
`apply_clifford` replay through it), `apply_transversal` (one gate on
each column of equal-length, disjoint qubit ranges), `apply_pauli`,
`measure_pauli`, `measure_discard` (Z on a list of qubits in order, then
trace them out), `permute_qubits`, `discard_qubits`, `reduced_density`,
`expectation`, `to_density`, `tensor` (a dense operand promotes a
stabilizer one), and the `product` / `maximally_mixed` constructors.  On
the tableau `apply_transversal` is one engine call on column slices, a
run of one gate on disjoint qubits inside a general word is folded into
one call too, and `measure_discard` is one elimination over the row; the
dense oracle replays a transversal gate gate by gate and measures qubit
by qubit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .paulis import (_GATE_ARITY, CLIFFORD_GATES, Circuit, CliffordOp,
                     PauliString, _apply_gate_rows, _check_gate, _check_word,
                     _row_product, _signed_permutation, _symplectic_gram)

DENSE_QUBIT_CAP = 6

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

# what the dense kernel multiplies into a gate's row and column axes; a
# SWAP has none, it relabels its qubits
_GATE_SUPEROPS = {name: np.kron(u, u.conj()) for name, u in _GATE_MATS.items()
                  if name != "SWAP"}

_1Q_VECTORS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) * _INV_SQRT2,
    "-": np.array([1, -1], dtype=complex) * _INV_SQRT2,
    "i": np.array([1, 1j], dtype=complex) * _INV_SQRT2,
    "m": np.array([1, -1j], dtype=complex) * _INV_SQRT2,
    "T": np.array([1, np.exp(1j * np.pi / 4)], dtype=complex) * _INV_SQRT2,
}

# stabilizer generator for the stabilizer-representable plaintext characters
_1Q_GENERATORS = {"0": "+Z", "1": "-Z", "+": "+X", "-": "-X", "i": "+Y", "m": "-Y"}


class BackendError(ValueError):
    pass


def _check_pauli(n: int, p: PauliString, use: str | None = None) -> None:
    """Both backends' operand check: qubit count first, then (for a
    measurement or an expectation) Hermiticity."""
    if p.n_qubits != n:
        raise BackendError("qubit count mismatch")
    if use is not None and not p.is_hermitian():
        raise BackendError(f"can only {use} Hermitian Paulis")


def _check_qubits(n: int, qs) -> list[int]:
    """Both backends' check on the qubits to measure or discard: distinct
    qubits in range(n), returned as a list."""
    qs = list(qs)
    if len(set(qs)) != len(qs) or qs and not 0 <= min(qs) <= max(qs) < n:
        raise BackendError(f"bad qubits {qs} on {n} qubits")
    return qs


def _check_slots(name: str, slots, n: int, names) -> tuple[range, ...]:
    """Both backends' check on a transversal gate: `name` in `names` and
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
    """Both backends' check that perm (a list or an integer array) is a
    bijection on range(n); returns its inverse."""
    perm = np.asarray(perm)
    inv = np.argsort(perm) if perm.shape == (n,) else None
    if inv is None or not np.array_equal(perm[inv], np.arange(n)):
        raise BackendError("perm must be a bijection on the register")
    return inv


def _check_dense_cap(n: int) -> None:
    if n > DENSE_QUBIT_CAP:
        raise BackendError(f"dense oracle capped at {DENSE_QUBIT_CAP} qubits")


class ZeroProbabilityError(BackendError):
    """A forced measurement outcome had probability zero."""


@dataclass(frozen=True)
class MeasurementRecord:
    label: str
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


def statevector(spec: str) -> np.ndarray:
    """Product state vector from a character spec, e.g. '0+1' or 'T'."""
    v = np.array([1.0 + 0j])
    for ch in spec:
        if ch not in _1Q_VECTORS:
            raise BackendError(f"unknown state character {ch!r}")
        v = np.kron(v, _1Q_VECTORS[ch])
    return v


class StabilizerState:
    """Possibly-mixed stabilizer state: k <= n independent commuting
    signed generators; k < n leaves 2^(n-k)-fold residual mixedness.

    Generator i is row i of the read-only packed arrays: the k x n bit
    matrices `x`, `z` and the Z4 vector `phase`, read as
    i^phase X^x Z^z exactly as in `PauliString`.  Every update copies the
    rows and works on them in place.
    """

    __slots__ = ("n_qubits", "x", "z", "phase")
    BACKEND = "stabilizer"

    def __init__(self, n_qubits: int, generators=(), validate: bool = True):
        gens = tuple(generators)
        if validate:
            if len(gens) > n_qubits:
                raise BackendError("more generators than qubits")
            if any(g.n_qubits != n_qubits for g in gens):
                raise BackendError("generator size mismatch")
        k = len(gens)
        self._set(n_qubits,
                  np.array([g.x for g in gens], np.uint8).reshape(k, n_qubits),
                  np.array([g.z for g in gens], np.uint8).reshape(k, n_qubits),
                  np.array([g.phase for g in gens], np.uint8))
        if validate:
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

    def __setattr__(self, *_):
        raise AttributeError("StabilizerState is immutable")

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
        return cls(n, [], validate=False)

    @classmethod
    def product(cls, spec: str) -> "StabilizerState":
        """Product state from characters in '01+-im'; '*' marks a
        maximally mixed qubit."""
        n = len(spec)
        gens = []
        for q, ch in enumerate(spec):
            if ch == "*":
                continue
            if ch not in _1Q_GENERATORS:
                raise BackendError(f"not a stabilizer state character: {ch!r}")
            sign, letter = _1Q_GENERATORS[ch]
            gens.append(PauliString.single(n, q, letter,
                                           phase=0 if sign == "+" else 2))
        return cls(n, gens, validate=False)

    def tensor(self, other) -> "StabilizerState":
        """self (x) other; a dense operand promotes the result to dense."""
        if other.BACKEND == DensityMatrix.BACKEND:
            return self.to_density().tensor(other)
        return _tableau(
            self.n_qubits + other.n_qubits, _block_diag(self.x, other.x),
            _block_diag(self.z, other.z),
            np.concatenate([self.phase, other.phase]))

    # -- group queries ----------------------------------------------------

    def contains(self, p: PauliString) -> tuple[bool, int]:
        """Is +/-p in the stabilizer group?  Returns (found, sign).

        Costs one ``gf2.solve`` on the 2n x k generator matrix: O(nk)
        numpy work to pack it, then O(k^2) XORs of (2n + k)-bit ints, and
        an O(kn) phase product over the generators that make up p.  A
        deterministic `measure_pauli` pays this once per call;
        `measure_discard` settles a whole list of Z outcomes with one
        reduction of the same size instead."""
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
        found, s = self.contains(p)
        return s * p.sign() if found else 0

    # -- dynamics ---------------------------------------------------------

    def apply_gates(self, gates) -> "StabilizerState":
        """Conjugate every generator by an elementary Clifford gate word
        (application order).

        Each maximal run of one gate on pairwise-disjoint qubits (a
        transversal gate) is one column-sliced call of the gate engine."""
        word = [(name, tuple(qs)) for name, qs in gates]
        _check_word(word, self.n_qubits, CLIFFORD_GATES, BackendError)
        x, z, phase = self._rows()
        for name, slots in _gate_runs(word):
            _apply_gate_rows(x, z, phase, name, slots)
        return _tableau(self.n_qubits, x, z, phase)

    def apply_transversal(self, name: str, slots) -> "StabilizerState":
        """One gate on each column of its step-1 qubit ranges (gate j acts
        on slots[0][j], slots[1][j], ...): one engine call whose slots are
        basic slices, so numpy works on views."""
        slots = _check_slots(name, slots, self.n_qubits, CLIFFORD_GATES)
        x, z, phase = self._rows()
        _apply_gate_rows(x, z, phase, name,
                         tuple(slice(r.start, r.stop) for r in slots))
        return _tableau(self.n_qubits, x, z, phase)

    def apply_gate(self, name: str, qs: tuple[int, ...]) -> "StabilizerState":
        return self.apply_gates([(name, qs)])

    def apply_clifford(self, c: CliffordOp) -> "StabilizerState":
        if c.n_qubits != self.n_qubits:
            raise BackendError("qubit count mismatch")
        return self.apply_gates(c.gates)

    def apply_pauli(self, p: PauliString) -> "StabilizerState":
        # p g p^dag = +/- g depending on commutation
        _check_pauli(self.n_qubits, p)
        phase = (self.phase + 2 * self._anticommuting(p)) & 3
        return _tableau(self.n_qubits, self.x, self.z, phase.astype(np.uint8))

    def measure_pauli(self, k: PauliString, rng: np.random.Generator,
                      label: str = "m", force: int | None = None,
                      ) -> tuple["StabilizerState", MeasurementRecord]:
        _check_pauli(self.n_qubits, k, "measure")
        pos = k.positive()
        flip = 0 if k.sign() == 1 else 1
        anti = np.flatnonzero(self._anticommuting(pos))
        if not len(anti):
            found, sign = self.contains(pos)
            if found:
                outcome = (0 if sign == 1 else 1) ^ flip
                if force is not None and force != outcome:
                    raise ZeroProbabilityError(
                        f"forced outcome {force} has probability 0")
                return self, MeasurementRecord(label, outcome, 1.0)
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
        rec = MeasurementRecord(label, o_pos ^ flip, 0.5)
        return _tableau(self.n_qubits, x, z, phase), rec

    def permute_qubits(self, perm) -> "StabilizerState":
        """Relabel qubits: new qubit perm[q] carries old qubit q."""
        inv = _check_perm(perm, self.n_qubits)
        return _tableau(self.n_qubits, self.x[:, inv], self.z[:, inv], self.phase)

    def discard_qubits(self, qs: list[int]) -> "StabilizerState":
        """Trace out the given qubits (exact stabilizer partial trace).

        Generators are Gaussian-eliminated over the discarded x columns,
        then over their z columns; pivots (the part of the group with
        support there) are dropped and the remainder is restricted to the
        kept qubits.
        """
        qs = _check_qubits(self.n_qubits, qs)
        x, z, phase = self._rows()
        alive = np.ones(len(phase), bool)
        for bits in (x, z):
            _eliminate(x, z, phase, bits, qs, alive)
        return self._restrict(x, z, phase, alive, qs)

    def measure_discard(self, qs: list[int], rng: np.random.Generator,
                        ) -> tuple["StabilizerState", list[int]]:
        """Measure Z on each listed qubit in the order given, then trace
        them out; returns (state, outcome bits).

        Same bits, ``rng.integers(0, 2)`` draws and group as
        `measure_pauli` on each Z_q in turn, then `discard_qubits(qs)`.
        After eliminating the x, then the z columns over qs, a GF(2)
        reduction of the z-pivot rows' kept parts against the other rows
        finds the group's elements +/-Z^v on qs alone; in echelon form by
        last position they fix those outcomes, all others are uniform.
        Z-pivot rows stay with sign (-1)^(v.b), dependent ones are dropped.
        """
        qs = _check_qubits(self.n_qubits, qs)
        x, z, phase = self._rows()
        alive = np.ones(len(phase), bool)
        _eliminate(x, z, phase, x, qs, alive)
        zpiv = [p for p in _eliminate(x, z, phase, z, qs, alive) if p >= 0]
        # the group's +/-Z^v on qs, as (v, sign) bit masks over positions
        # in qs, in echelon form keyed by each v's last position
        fixed: dict[int, tuple[int, int]] = {}
        if zpiv:
            rows = np.concatenate([np.flatnonzero(alive), zpiv])
            alive[zpiv] = True
            keep = np.ones(self.n_qubits, bool)
            keep[qs] = False
            kept = np.hstack([x[rows][:, keep], z[rows][:, keep]])
            for rel in gf2.relations(kept):
                sel = rows[np.flatnonzero(rel)]
                _, vz, ph = _row_product(x, z, phase, sel)
                v = sum(1 << int(j) for j in np.flatnonzero(vz[qs]))
                sign = ph >> 1
                while v and (v.bit_length() - 1) in fixed:
                    fv, fs = fixed[v.bit_length() - 1]
                    v, sign = v ^ fv, sign ^ fs
                if v:
                    fixed[v.bit_length() - 1] = (v, sign)
                # the relation's last row depends on the rows before it
                alive[sel[-1]] = False
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
        for p in zpiv:
            phase[p] = (phase[p] + 2 * int(z[p, qs] @ bits)) & 3
            z[p, qs] = 0
        return self._restrict(x, z, phase, alive, qs), bits

    def _restrict(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray,
                  alive: np.ndarray, qs: list[int]) -> "StabilizerState":
        """The alive rows, which must act trivially on qs, restricted to
        the other qubits."""
        x, z, phase = x[alive], z[alive], phase[alive]
        if x[:, qs].any() or z[:, qs].any():
            raise BackendError("discard elimination left support behind")
        keep = np.ones(self.n_qubits, bool)
        keep[qs] = False
        return _tableau(self.n_qubits - len(qs), x[:, keep], z[:, keep], phase)

    # -- extraction -------------------------------------------------------

    def reduced_density(self, qubits: list[int]) -> np.ndarray:
        """Exact reduced density matrix on `qubits`, in the order given."""
        order = sorted(qubits)
        kept = self.discard_qubits([q for q in range(self.n_qubits) if q not in qubits])
        return kept.to_density().reduced_density([order.index(q) for q in qubits])

    def to_density(self) -> "DensityMatrix":
        _check_dense_cap(self.n_qubits)
        rho = np.eye(2 ** self.n_qubits, dtype=complex)
        for row in zip(self.x, self.z, self.phase):
            idx, s = _signed_permutation(*row)
            rho = (rho + s[:, None] * rho[idx]) / 2.0      # (I + g) rho / 2
        return DensityMatrix(rho / 2 ** (self.n_qubits - len(self.phase)))

    def to_json(self) -> dict:
        return {"backend": self.BACKEND, "n_qubits": self.n_qubits,
                "generators": [g.label() for g in self.generators]}

    @classmethod
    def from_json(cls, blob: dict) -> "StabilizerState":
        gens = [PauliString.from_label(s) for s in blob["generators"]]
        return cls(blob["n_qubits"], gens)

    def __repr__(self):
        return f"StabilizerState(n={self.n_qubits}, gens={[g.label() for g in self.generators]})"


def _tableau(n_qubits: int, x: np.ndarray, z: np.ndarray,
             phase: np.ndarray) -> StabilizerState:
    """State from packed rows, taken over without checks or copies."""
    return object.__new__(StabilizerState)._set(n_qubits, x, z, phase)


def _gate_runs(word) -> list[tuple[str, tuple]]:
    """(name, slots) per maximal run of one gate on pairwise-disjoint
    qubits: a lone gate keeps its qubit tuple, a longer run gives one
    index array per gate slot."""
    runs = []
    for name, qs in word:
        if runs and runs[-1][0] == name and runs[-1][2].isdisjoint(qs):
            runs[-1][1].append(qs)
            runs[-1][2].update(qs)
        else:
            runs.append((name, [qs], set(qs)))
    return [(name, run[0] if len(run) == 1 else tuple(map(np.array, zip(*run))))
            for name, run, _ in runs]


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), np.uint8)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _eliminate(x: np.ndarray, z: np.ndarray, phase: np.ndarray,
               bits: np.ndarray, cols: list[int], alive: np.ndarray,
               ) -> list[int]:
    """Gaussian elimination of `bits` (x or z) over `cols` in the order
    given, among the rows marked in `alive`, in place: the first alive row
    with a 1 in a column is its pivot, every other alive row with a 1 is
    multiplied by it, and the pivot leaves `alive`.  Returns each column's
    pivot row, or -1."""
    pivots = []
    for q in cols:
        hits = (bits[:, q] & alive).nonzero()[0]
        if len(hits):
            _multiply_rows(x, z, phase, hits[1:], hits[0])
            alive[hits[0]] = False
            pivots.append(int(hits[0]))
        else:
            pivots.append(-1)
    return pivots


def _multiply_rows(x: np.ndarray, z: np.ndarray, phase: np.ndarray,
                   rows: np.ndarray, pivot: int) -> None:
    """Replace each listed row g by g * (row pivot), in place."""
    if not len(rows):
        return
    cross = (z[rows] & x[pivot]).sum(axis=1) & 1
    phase[rows] = (phase[rows] + phase[pivot] + 2 * cross) & 3
    x[rows] ^= x[pivot]
    z[rows] ^= z[pivot]


class DensityMatrix:
    """Exact dense density operator, n <= 6 enforced."""

    __slots__ = ("n_qubits", "mat")
    BACKEND = "dense"

    def __init__(self, mat: np.ndarray, validate: bool = True):
        mat = np.asarray(mat, dtype=complex)
        dim = mat.shape[0]
        n = int(round(np.log2(dim)))
        if mat.shape != (dim, dim) or 2 ** n != dim:
            raise BackendError("density matrix must be square power-of-two")
        _check_dense_cap(n)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "mat", mat)
        self.mat.setflags(write=False)
        if validate:
            if abs(np.trace(mat) - 1.0) > 1e-12:
                raise BackendError("trace != 1")
            if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
                raise BackendError("not Hermitian")
            if np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)) < -1e-10:
                raise BackendError("not positive semidefinite")

    def __setattr__(self, *_):
        raise AttributeError("DensityMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_statevector(cls, v: np.ndarray) -> "DensityMatrix":
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), validate=False)

    @classmethod
    def product(cls, spec: str) -> "DensityMatrix":
        return cls.from_statevector(statevector(spec))

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        _check_dense_cap(n)
        return cls(np.eye(2 ** n, dtype=complex) / 2 ** n, validate=False)

    @classmethod
    def random_pure(cls, n: int, rng: np.random.Generator) -> "DensityMatrix":
        v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        return cls.from_statevector(v)

    # -- dynamics ---------------------------------------------------------

    def apply_gates(self, gates) -> "DensityMatrix":
        """Apply an elementary gate word (application order), T included.

        Each maximal run of SWAPs is folded into one relabelling, applied
        before the next other gate: new qubit q carries qubit src[q] of
        `out`."""
        n = self.n_qubits
        out, src = self, None
        for name, qs in gates:
            if name == "SWAP":
                _check_gate(name, qs, n, _GATE_MATS, BackendError)
                src = src or list(range(n))
                a, b = qs
                src[a], src[b] = src[b], src[a]
                continue
            if src:
                out, src = out._relabel(src), None
            out = out.apply_gate(name, qs)
        return out._relabel(src) if src else out

    def apply_transversal(self, name: str, slots) -> "DensityMatrix":
        """One gate on each column of its step-1 qubit ranges, replayed as
        the gate word it stands for (the gate path checks each gate)."""
        slots = _check_slots(name, slots, self.n_qubits, _GATE_MATS)
        return self.apply_gates((name, qs) for qs in zip(*slots))

    def apply_gate(self, name: str, qs: tuple[int, ...]) -> "DensityMatrix":
        """u rho u^dag through the gate's superoperator on its row and
        column axes; a SWAP relabels its qubits instead."""
        if name == "SWAP":
            return self.apply_gates([(name, qs)])
        n = self.n_qubits
        _check_gate(name, qs, n, _GATE_MATS, BackendError)
        bits = list(qs) + [n + q for q in qs]
        return DensityMatrix(_apply_on_bits(self.mat, _GATE_SUPEROPS[name], bits),
                             validate=False)

    def apply_clifford(self, c: CliffordOp) -> "DensityMatrix":
        if c.n_qubits != self.n_qubits:
            raise BackendError("qubit count mismatch")
        return self.apply_gates(c.gates)

    def apply_pauli(self, p: PauliString) -> "DensityMatrix":
        _check_pauli(self.n_qubits, p)
        idx, s = _signed_permutation(p.x, p.z, p.phase)
        return DensityMatrix(np.outer(s, s.conj()) * self.mat[np.ix_(idx, idx)],
                             validate=False)

    def measure_pauli(self, k: PauliString, rng: np.random.Generator,
                      label: str = "m", force: int | None = None,
                      ) -> tuple["DensityMatrix", MeasurementRecord]:
        _check_pauli(self.n_qubits, k, "measure")
        idx, s = _signed_permutation(k.x, k.z, k.phase)
        rho = self.mat
        k_rho = s[:, None] * rho[idx]
        rho_k = rho[:, idx] * s.conj()
        p0 = float(np.real(np.trace(rho) + np.trace(k_rho))) / 2
        p0 = min(max(p0, 0.0), 1.0)
        if force is not None:
            outcome = force
        else:
            outcome = 0 if rng.random() < p0 else 1
        prob = p0 if outcome == 0 else 1.0 - p0
        if prob < 1e-12:
            raise ZeroProbabilityError(f"outcome {outcome} has probability ~0")
        # (I +/- K)/2 rho (I +/- K)/2, with K rho K = s[:, None] * (rho K)[idx]
        sign = 1 if outcome == 0 else -1
        post = (rho + sign * (k_rho + rho_k) + s[:, None] * rho_k[idx]) / (4 * prob)
        return (DensityMatrix(post, validate=False),
                MeasurementRecord(label, outcome, prob))

    def permute_qubits(self, perm) -> "DensityMatrix":
        """Relabel qubits: new qubit perm[q] carries old qubit q."""
        return self._relabel(_check_perm(perm, self.n_qubits))

    def _relabel(self, src) -> "DensityMatrix":
        """New qubit q carries old qubit src[q], on rows and columns alike."""
        n = self.n_qubits
        t = self.mat.reshape((2,) * (2 * n))
        t = t.transpose([*src, *(n + a for a in src)])
        return DensityMatrix(t.reshape(2 ** n, 2 ** n), validate=False)

    # -- extraction -------------------------------------------------------

    def partial_trace(self, keep: list[int]) -> "DensityMatrix":
        n = self.n_qubits
        if sorted(keep) != list(keep):
            raise BackendError("partial_trace keeps qubits in register order")
        drop = [q for q in range(n) if q not in keep]
        t = self.mat.reshape((2,) * (2 * n))
        for q in sorted(drop, reverse=True):
            t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
        return DensityMatrix(t.reshape(2 ** len(keep), 2 ** len(keep)),
                             validate=False)

    def discard_qubits(self, qs: list[int]) -> "DensityMatrix":
        qs = _check_qubits(self.n_qubits, qs)
        return self.partial_trace([q for q in range(self.n_qubits) if q not in qs])

    def measure_discard(self, qs: list[int], rng: np.random.Generator,
                        ) -> tuple["DensityMatrix", list[int]]:
        """Measure Z on each listed qubit in the order given, then trace
        them out; returns (state, outcome bits).  The reference for the
        tableau's fused kernel: one `measure_pauli` per qubit."""
        qs = _check_qubits(self.n_qubits, qs)
        state, bits = self, []
        for q in qs:
            zq = PauliString.single(self.n_qubits, q, "Z")
            state, rec = state.measure_pauli(zq, rng)
            bits.append(rec.outcome)
        return state.discard_qubits(qs), bits

    def reduced_density(self, qubits: list[int]) -> np.ndarray:
        """Reduced density matrix on `qubits`, in the order given."""
        order = sorted(qubits)
        reduced = self.partial_trace(order)
        return reduced.permute_qubits([list(qubits).index(q) for q in order]).mat

    def to_density(self) -> "DensityMatrix":
        return self

    def tensor(self, other) -> "DensityMatrix":
        """self (x) other; a stabilizer operand is promoted to dense."""
        _check_dense_cap(self.n_qubits + other.n_qubits)
        return DensityMatrix(np.kron(self.mat, other.to_density().mat),
                             validate=False)

    def expectation(self, p: PauliString) -> float:
        _check_pauli(self.n_qubits, p, "take the expectation of")
        idx, s = _signed_permutation(p.x, p.z, p.phase)
        return float(np.real(s @ self.mat[idx, np.arange(len(idx))]))

    def to_json(self) -> dict:
        flat = [[float(v.real), float(v.imag)] for v in self.mat.reshape(-1)]
        return {"backend": self.BACKEND, "n_qubits": self.n_qubits, "matrix": flat}

    @classmethod
    def from_json(cls, blob: dict) -> "DensityMatrix":
        dim = 2 ** blob["n_qubits"]
        vals = np.array([complex(re, im) for re, im in blob["matrix"]])
        return cls(vals.reshape(dim, dim))

    def __repr__(self):
        return f"DensityMatrix(n={self.n_qubits})"


def trace_distance(a, b) -> float:
    """(1/2)||a - b||_1 via eigenvalues of the Hermitian difference."""
    amat = a.mat if isinstance(a, DensityMatrix) else np.asarray(a)
    bmat = b.mat if isinstance(b, DensityMatrix) else np.asarray(b)
    if amat.shape != bmat.shape:
        raise BackendError("dimension mismatch")
    diff = amat - bmat
    eig = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.sum(np.abs(eig)))


def to_density(state) -> DensityMatrix:
    return state.to_density()


def evaluate_circuit(state, circuit: Circuit, rng: np.random.Generator,
                     forced: dict[str, int] | None = None,
                     allow_t: bool = False):
    """Run a circuit on any backend.

    Returns (state, records dict).  T markers need allow_t=True and a
    backend that can hold them (plain-evaluation references on the dense
    oracle); encrypted T handling lives in the scheme modules.
    """
    forced = forced or {}
    records: dict[str, MeasurementRecord] = {}
    for g in circuit.gates:
        if g.name == "M":
            zq = PauliString.single(circuit.n_qubits, g.qubits[0], "Z")
            state, rec = state.measure_pauli(
                zq, rng, label=g.bit, force=forced.get(g.bit))
            records[g.bit] = rec
        elif g.name == "CPAULI":
            if g.bit not in records:
                raise BackendError(f"CPAULI references unmeasured bit {g.bit!r}")
            if records[g.bit].outcome:
                p = PauliString.single(circuit.n_qubits, g.qubits[0], g.pauli)
                state = state.apply_pauli(p)
        elif g.name == "T" and not allow_t:
            raise BackendError("T gate requires the dense reference path")
        else:
            state = state.apply_gate(g.name, g.qubits)
    return state, records
