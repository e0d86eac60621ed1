"""Exact algebra of Pauli strings and Clifford operations.

Everything here is symbolic and exact: an n-qubit Pauli is stored in the
binary symplectic picture as a pair of bit vectors (x, z) together with a
power of i, so that the operator reads

    i^phase * (X^x1 Z^z1) (x) ... (x) (X^xn Z^zn).

Phases live in Z4 and are never floated.  A Clifford is one packed 2n x n
tableau (rows: the conjugation images of X_i, then of Z_i) next to the
checked elementary-gate word it was built from; conjugation and
composition are ordered products of its rows, and `PauliString` appears
only at the API edge.  The gate set is fixed to
{H, S, CNOT, CZ, SWAP, X, Y, Z}; every Clifford handed out by this module
decomposes into it.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

PAULI_LETTERS = "IXYZ"  # sigma_0 .. sigma_3

# (x, z) bits of each single-qubit letter in the symplectic encoding.
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PHASE_PREFIX = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
_PREFIX_OF_PHASE = {0: "+", 1: "+i", 2: "-", 3: "-i"}

CLIFFORD_GATES = ("H", "S", "CNOT", "CZ", "SWAP", "X", "Y", "Z")
_GATE_ARITY = {
    "H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1,
    "CNOT": 2, "CZ": 2, "SWAP": 2,
    "T": 1,
}


class PauliAlgebraError(ValueError):
    """Raised on malformed operands (length mismatches, bad labels)."""


def _as_bits(v, n: int) -> np.ndarray:
    arr = np.asarray(v, dtype=np.uint8) & 1
    if arr.shape != (n,):
        raise PauliAlgebraError(f"bit vector of length {arr.shape} != {n}")
    return arr


class PauliString:
    """Signed n-qubit Pauli operator; immutable value type."""

    __slots__ = ("n_qubits", "x", "z", "phase")

    def __init__(self, x, z, phase: int = 0):
        x = np.asarray(x, dtype=np.uint8) & 1
        n = x.shape[0]
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", _as_bits(z, n))
        object.__setattr__(self, "phase", int(phase) & 3)
        self.x.setflags(write=False)
        self.z.setflags(write=False)

    def __setattr__(self, *_):
        raise AttributeError("PauliString is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(np.zeros(n, np.uint8), np.zeros(n, np.uint8), 0)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, phase: int = 0) -> "PauliString":
        x = np.zeros(n, np.uint8)
        z = np.zeros(n, np.uint8)
        bx, bz = _LETTER_BITS[letter]
        x[qubit], z[qubit] = bx, bz
        # canonical Y carries an explicit i (Y = i X Z)
        return cls(x, z, phase + (bx & bz))

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse '+XIZ', '-iYY', 'ZZ' (sign defaults to +)."""
        m = re.match(r"^(\+i|-i|\+|-|i)?([IXYZ]+)$", label.strip())
        if not m:
            raise PauliAlgebraError(f"bad Pauli label {label!r}")
        sign, letters = m.groups()
        phase = _PHASE_PREFIX[sign] if sign else 0
        bits = [_LETTER_BITS[c] for c in letters]
        x = np.array([b[0] for b in bits], np.uint8)
        z = np.array([b[1] for b in bits], np.uint8)
        n_y = int(np.sum(x & z))
        return cls(x, z, phase + n_y)

    # -- presentation ---------------------------------------------------

    def label(self) -> str:
        letters = "".join("IXZY"[xi + 2 * zi] for xi, zi in zip(self.x, self.z))
        n_y = int(np.sum(self.x & self.z))
        return _PREFIX_OF_PHASE[(self.phase - n_y) % 4] + letters

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n_qubits != other.n_qubits:
            raise PauliAlgebraError("PauliString length mismatch")
        phase = self.phase + other.phase + 2 * int(np.sum(self.z & other.x))
        return PauliString(self.x ^ other.x, self.z ^ other.z, phase)

    def adjoint(self) -> "PauliString":
        n_xz = int(np.sum(self.x & self.z))
        return PauliString(self.x, self.z, -self.phase + 2 * n_xz)

    def commutes(self, other: "PauliString") -> bool:
        if self.n_qubits != other.n_qubits:
            raise PauliAlgebraError("PauliString length mismatch")
        return int(np.sum((self.x & other.z) ^ (self.z & other.x))) % 2 == 0

    def weight(self) -> int:
        return int(np.sum(self.x | self.z))

    def is_hermitian(self) -> bool:
        n_y = int(np.sum(self.x & self.z))
        return (self.phase - n_y) % 2 == 0

    def sign(self) -> int:
        """+1 or -1 for a Hermitian string."""
        n_y = int(np.sum(self.x & self.z))
        rel = (self.phase - n_y) % 4
        if rel == 0:
            return 1
        if rel == 2:
            return -1
        raise PauliAlgebraError("sign undefined for non-Hermitian phase")

    def positive(self) -> "PauliString":
        """The +1-signed Hermitian representative (phase folded out)."""
        n_y = int(np.sum(self.x & self.z))
        return PauliString(self.x, self.z, n_y)

    def symplectic(self) -> np.ndarray:
        """Length-2n bit vector (x | z)."""
        return np.concatenate([self.x, self.z])

    def tensor(self, other: "PauliString") -> "PauliString":
        return PauliString(np.concatenate([self.x, other.x]),
                           np.concatenate([self.z, other.z]),
                           self.phase + other.phase)

    def restricted_letter(self, qubit: int) -> str:
        xi, zi = int(self.x[qubit]), int(self.z[qubit])
        return "IXZY"[xi + 2 * zi]

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix of i^phase X^x Z^z, qubit 0 the most
        significant bit.  For small n oracles."""
        idx, s = _signed_permutation(self.x, self.z, self.phase)
        out = np.zeros((len(idx), len(idx)), dtype=complex)
        out[np.arange(len(idx)), idx] = s
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliString)
                and self.n_qubits == other.n_qubits
                and self.phase == other.phase
                and bool(np.array_equal(self.x, other.x))
                and bool(np.array_equal(self.z, other.z)))

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.phase, self.x.tobytes(), self.z.tobytes()))


def _signed_permutation(x: np.ndarray, z: np.ndarray,
                        phase: int) -> tuple[np.ndarray, np.ndarray]:
    """i^phase X^x Z^z (qubit 0 the most significant bit) as a signed
    permutation: row r holds s[r] = i^phase (-1)^popcount(z & idx[r]) at
    column idx[r] = r ^ x, so P rho = s[:, None] * rho[idx].

    The read-only pair comes from a bounded LRU cache: a dense session
    measures the same few Paulis over and over, while random keys would
    fill an unbounded one with up to 4^n entries."""
    x, z = np.asarray(x, np.uint8), np.asarray(z, np.uint8)
    return _signed_permutation_of(len(x), x.tobytes(), z.tobytes(), int(phase))


@functools.lru_cache(maxsize=128)
def _signed_permutation_of(n: int, x: bytes, z: bytes,
                           phase: int) -> tuple[np.ndarray, np.ndarray]:
    weights = 1 << np.arange(n - 1, -1, -1)
    x_mask, z_mask = (int(np.frombuffer(b, np.uint8) @ weights) for b in (x, z))
    idx = np.arange(1 << n) ^ x_mask
    signs = np.where(np.bitwise_count(idx & z_mask) & 1, -1, 1)
    s = (1j ** phase) * signs
    idx.setflags(write=False)
    s.setflags(write=False)
    return idx, s


# ---------------------------------------------------------------------------
# Batch tableau engine: rows of (x, z, phase) updated in place per gate.
# ---------------------------------------------------------------------------

def _apply_gate_rows(x: np.ndarray, z: np.ndarray, ph: np.ndarray,
                     name: str, qs: tuple) -> None:
    """Conjugate every row Pauli by the elementary gate, in place.

    Each slot of `qs` is a qubit, or a slice that applies the gate to
    several pairwise-disjoint qubits (slot i of the gate on qs[i][j] for
    every j) as one column-sliced update; phase terms are then summed over
    the slice."""
    if name == "H":
        q = qs[0]
        ph += 2 * _per_row(x[:, q] & z[:, q])
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif name == "S":
        q = qs[0]
        ph += _per_row(x[:, q])
        z[:, q] ^= x[:, q]
    elif name == "X":
        ph += 2 * _per_row(z[:, qs[0]])
    elif name == "Y":
        q = qs[0]
        ph += 2 * _per_row(x[:, q] ^ z[:, q])
    elif name == "Z":
        ph += 2 * _per_row(x[:, qs[0]])
    elif name == "CNOT":
        c, t = qs
        z[:, c] ^= z[:, t]
        x[:, t] ^= x[:, c]
    elif name == "CZ":
        a, b = qs
        ph += 2 * _per_row(x[:, a] & x[:, b])
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    elif name == "SWAP":
        a, b = qs
        x[:, a], x[:, b] = x[:, b].copy(), x[:, a].copy()
        z[:, a], z[:, b] = z[:, b].copy(), z[:, a].copy()
    else:
        raise PauliAlgebraError(f"not a Clifford gate: {name}")
    ph &= 3


def _per_row(cols: np.ndarray) -> np.ndarray:
    """A phase term per row: a column as it is, a column slice summed."""
    return cols if cols.ndim == 1 else cols.sum(axis=1, dtype=cols.dtype)


def _check_gate(name: str, qs: tuple[int, ...], n: int,
                names=CLIFFORD_GATES, error=PauliAlgebraError) -> None:
    """Raise `error` unless name is in `names` and qs holds its arity of
    distinct qubits in range(n)."""
    if name not in names:
        raise error(f"{name} is not one of {' '.join(names)}")
    if (len(qs) != _GATE_ARITY[name] or len(set(qs)) != len(qs)
            or not 0 <= min(qs) <= max(qs) < n):
        raise error(f"bad qubits {qs} for gate {name} on {n} qubits")


def _check_word(word, n: int, names=CLIFFORD_GATES,
                error=PauliAlgebraError) -> None:
    """`_check_gate` on every gate of a word of (name, qubit tuple) pairs,
    in one pass of builtins (every arity is 1 or 2); a word that fails it
    is checked gate by gate, which raises at its first bad gate."""
    flat = [q for _, qs in word for q in qs]
    if (all(name in names and len(qs) == _GATE_ARITY[name]
            and (len(qs) == 1 or qs[0] != qs[1]) for name, qs in word)
            and (not flat or 0 <= min(flat) and max(flat) < n)):
        return
    for name, qs in word:
        _check_gate(name, qs, n, names, error)


def _run_word(x: np.ndarray, z: np.ndarray, ph: np.ndarray, gates,
              n: int) -> list[tuple[str, tuple[int, ...]]]:
    """Check the word and conjugate the rows by each gate, in place;
    returns the word as (name, qubit tuple) pairs."""
    word = [(g[0], tuple(g[1])) for g in gates]
    _check_word(word, n)
    for name, qs in word:
        _apply_gate_rows(x, z, ph, name, qs)
    return word


def _row_product(x: np.ndarray, z: np.ndarray, phase: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(x, z, phase) of the ordered product of the selected packed rows.

    O(len(rows) * n): each factor's cross term reads the z part of the
    running product before the factor joins it."""
    xs, zs = x[rows], z[rows]
    before = np.bitwise_xor.accumulate(zs, axis=0) ^ zs
    ph = int(phase[rows].sum()) + 2 * int((before & xs).sum())
    return np.bitwise_xor.reduce(xs), np.bitwise_xor.reduce(zs), ph & 3


def _symplectic_gram(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Entry (i, j) is 1 where packed rows i and j anticommute."""
    x, z = x.astype(np.int64), z.astype(np.int64)
    return (x @ z.T + z @ x.T) & 1


def _invert_gate(name: str, qs: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    if name == "S":
        # S^dagger = S . Z  (diagonal, order free); emitted in application order
        return [("Z", qs), ("S", qs)]
    return [(name, qs)]


def _inverse_word(gates) -> list[tuple[str, tuple[int, ...]]]:
    """The inverse of a gate word, in application order: the word
    reversed, each gate inverted."""
    return [g for name, qs in reversed(gates) for g in _invert_gate(name, qs)]


class Gate(NamedTuple):
    """One circuit element: a Clifford gate or a T marker."""
    name: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed register."""
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            _check_gate(g.name, g.qubits, self.n_qubits, _GATE_ARITY)

    def is_clifford(self) -> bool:
        return all(g.name in CLIFFORD_GATES for g in self.gates)

    def t_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "T")


def parse_circuit(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the one-gate-per-line format; '#' starts a comment."""
    gates: list[Gate] = []
    maxq = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        name = toks[0].upper()
        try:
            if name not in _GATE_ARITY:
                raise PauliAlgebraError(f"unknown gate {name!r}")
            qs = tuple(int(t) for t in toks[1:])
            if len(qs) != _GATE_ARITY[name]:
                raise PauliAlgebraError(
                    f"{name} takes {_GATE_ARITY[name]} qubit(s), not {len(qs)}")
        except (ValueError, PauliAlgebraError) as exc:
            raise PauliAlgebraError(f"line {lineno}: {exc}") from None
        gates.append(Gate(name, qs))
        maxq = max(maxq, *gates[-1].qubits)
    n = n_qubits if n_qubits is not None else maxq + 1
    return Circuit(n, tuple(gates))


# ---------------------------------------------------------------------------
# CliffordOp
# ---------------------------------------------------------------------------

class CliffordOp:
    """n-qubit Clifford unitary as a packed tableau plus gate word.

    Rows i and n + i of the read-only 2n x n bit matrices `x`, `z` and Z4
    vector `phase` are U X_i U^dag and U Z_i U^dag, read as in
    `StabilizerState`.  The tableau determines the channel exactly (equal
    tableaux differ only by a global phase); `from_gates` builds it from
    a checked gate word and `compose` from row products.
    """

    __slots__ = ("n_qubits", "x", "z", "phase", "gates")

    def __init__(self, n_qubits: int, x: np.ndarray, z: np.ndarray,
                 phase: np.ndarray, gates):
        for name, val in zip(self.__slots__, (n_qubits, x, z, phase, tuple(gates))):
            object.__setattr__(self, name, val)
        for arr in (x, z, phase):
            arr.setflags(write=False)

    def __setattr__(self, *_):
        raise AttributeError("CliffordOp is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CliffordOp":
        return cls.from_gates(n, [])

    @classmethod
    def from_gates(cls, n: int, gates: Iterable[tuple[str, tuple[int, ...]] | Gate]) -> "CliffordOp":
        x = np.eye(2 * n, n, dtype=np.uint8)
        z = np.eye(2 * n, n, -n, dtype=np.uint8)
        ph = np.zeros(2 * n, np.uint8)
        return cls(n, x, z, ph, _run_word(x, z, ph, gates, n))

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CliffordOp":
        if not circuit.is_clifford():
            raise PauliAlgebraError("circuit contains non-Clifford elements")
        return cls.from_gates(circuit.n_qubits, circuit.gates)

    @classmethod
    def from_images(cls, x_images: list[PauliString], z_images: list[PauliString]) -> "CliffordOp":
        """Synthesize a gate word realizing the given target tableau."""
        n = x_images[0].n_qubits
        if len(x_images) != n or len(z_images) != n:
            raise PauliAlgebraError("tableau needs n X-images and n Z-images")
        rows = [*x_images, *z_images]
        want = [np.array([getattr(r, a) for r in rows], np.uint8)
                for a in ("x", "z", "phase")]
        op = cls.from_gates(n, synthesize_tableau(*want))
        if not all(map(np.array_equal, (op.x, op.z, op.phase), want)):
            raise PauliAlgebraError("tableau synthesis failed to reproduce images")
        return op

    # -- PauliString views ------------------------------------------------

    def row(self, i: int) -> PauliString:
        """Tableau row i: U X_i U^dag for i < n, U Z_{i-n} U^dag after."""
        return PauliString(self.x[i], self.z[i], self.phase[i])

    @property
    def x_images(self) -> tuple[PauliString, ...]:
        return tuple(self.row(i) for i in range(self.n_qubits))

    @property
    def z_images(self) -> tuple[PauliString, ...]:
        return tuple(self.row(i) for i in range(self.n_qubits, 2 * self.n_qubits))

    # -- core operations --------------------------------------------------

    def conjugate(self, p: PauliString) -> PauliString:
        """Return U p U^dag with exact phase: the rows p selects, multiplied."""
        if p.n_qubits != self.n_qubits:
            raise PauliAlgebraError("qubit count mismatch")
        x, z, ph = _row_product(self.x, self.z, self.phase,
                                np.flatnonzero(p.symplectic()))
        return PauliString(x, z, ph + p.phase)

    def compose(self, first: "CliffordOp") -> "CliffordOp":
        """self o first (first applied first): first's rows conjugated.

        All 2n row products at once: with S = [first.x | first.z] selecting
        self's rows, x = S X and z = S Z mod 2, and the phase adds S phase
        and twice each ordered cross term z_i . x_j (i < j both selected),
        diag(S triu(Z X^T, 1) S^T)."""
        n = self.n_qubits
        if first.n_qubits != n:
            raise PauliAlgebraError("qubit count mismatch")
        s = np.hstack([first.x, first.z]).astype(np.int64)
        x, z = self.x.astype(np.int64), self.z.astype(np.int64)
        cross = np.triu(z @ x.T, 1)
        ph = first.phase + s @ self.phase + 2 * ((s @ cross) * s).sum(axis=1)
        return CliffordOp(n, (s @ x & 1).astype(np.uint8),
                          (s @ z & 1).astype(np.uint8),
                          (ph & 3).astype(np.uint8), first.gates + self.gates)

    def then(self, gates: Iterable[tuple[str, tuple[int, ...]] | Gate]) -> "CliffordOp":
        """The checked gate word applied after self; the same Clifford as
        from_gates(n, gates).compose(self), with the word run over copies
        of self's rows instead of a second tableau."""
        x, z, ph = self.x.copy(), self.z.copy(), self.phase.copy()
        word = _run_word(x, z, ph, gates, self.n_qubits)
        return CliffordOp(self.n_qubits, x, z, ph, self.gates + tuple(word))

    def inverse(self) -> "CliffordOp":
        return CliffordOp.from_gates(self.n_qubits, _inverse_word(self.gates))

    def tensor(self, other: "CliffordOp") -> "CliffordOp":
        n = self.n_qubits + other.n_qubits
        gates = [(name, qs) for name, qs in self.gates]
        gates += [(name, tuple(q + self.n_qubits for q in qs)) for name, qs in other.gates]
        return CliffordOp.from_gates(n, gates)

    def to_matrix(self) -> np.ndarray:
        """Dense unitary: each gate multiplied into the row axes of the
        identity by the dense oracle's gate kernel."""
        from .states import _GATE_MATS, _apply_on_bits
        u = np.eye(2 ** self.n_qubits, dtype=complex)
        for name, qs in self.gates:
            u = _apply_on_bits(u, _GATE_MATS[name], qs)
        return u

    def is_identity_channel(self) -> bool:
        return (not self.phase.any() and np.array_equal(
            np.hstack([self.x, self.z]), np.eye(2 * self.n_qubits, dtype=np.uint8)))

    def __eq__(self, other) -> bool:
        """Channel equality: identical tableaux (global phase ignored)."""
        return (isinstance(other, CliffordOp)
                and self.n_qubits == other.n_qubits
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z)
                and np.array_equal(self.phase, other.phase))

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.x.tobytes(), self.z.tobytes(),
                     self.phase.tobytes()))

    def __repr__(self) -> str:
        return f"CliffordOp(n={self.n_qubits}, gates={len(self.gates)})"


# ---------------------------------------------------------------------------
# Tableau synthesis and uniform random sampling
# ---------------------------------------------------------------------------

def _reduce_pair(x: np.ndarray, z: np.ndarray, ph: np.ndarray, k: int,
                 p_row: int, q_row: int) -> list[tuple[str, tuple[int, ...]]]:
    """Emit gates conjugating row p to +X_k and row q to +Z_k.

    Rows p/q must anticommute and act trivially below qubit k.  Gates are
    applied in place to the whole batch as they are emitted.
    """
    n = x.shape[1]
    gates: list[tuple[str, tuple[int, ...]]] = []

    def emit(name: str, *qs: int) -> None:
        gates.append((name, qs))
        _apply_gate_rows(x, z, ph, name, qs)

    # row p -> X-type on a single qubit
    for j in range(k, n):
        if x[p_row, j] and z[p_row, j]:
            emit("S", j)
    for j in range(k, n):
        if z[p_row, j]:
            emit("H", j)
    support = [j for j in range(k, n) if x[p_row, j]]
    if not support:
        raise PauliAlgebraError("cannot reduce identity row")
    if k not in support:
        emit("SWAP", k, support[0])
        support[0] = k
    for j in support:
        if j != k:
            emit("CNOT", k, j)
    # row q -> Z_k without disturbing X_k
    emit("H", k)
    if x[q_row, k] and z[q_row, k]:
        emit("S", k)
    for j in range(k + 1, n):
        if x[q_row, j] and z[q_row, j]:
            emit("S", j)
    for j in range(k + 1, n):
        if z[q_row, j]:
            emit("H", j)
    for j in range(k + 1, n):
        if x[q_row, j]:
            emit("CNOT", k, j)
    emit("H", k)
    # fix signs
    if ph[p_row] & 2:
        emit("Z", k)
    if ph[q_row] & 2:
        emit("X", k)
    return gates


def synthesize_tableau(x: np.ndarray, z: np.ndarray,
                       phase: np.ndarray) -> list[tuple[str, tuple[int, ...]]]:
    """Gate word (application order) whose Clifford has the packed 2n x n
    tableau (x, z, phase), rows laid out as in `CliffordOp`."""
    n = x.shape[1]
    if x.shape != (2 * n, n):
        raise PauliAlgebraError("tableau needs n X-images and n Z-images")
    if np.any((phase + (x & z).sum(axis=1)) & 1):
        raise PauliAlgebraError("tableau images must be Hermitian Paulis")
    omega = np.eye(2 * n, dtype=np.int64)[np.r_[n:2 * n, 0:n]]
    if not np.array_equal(_symplectic_gram(x, z), omega):
        raise PauliAlgebraError("images break commutation relations")
    x, z, ph = x.astype(np.uint8), z.astype(np.uint8), phase.astype(np.int64)
    reduction: list[tuple[str, tuple[int, ...]]] = []
    for k in range(n):
        reduction.extend(_reduce_pair(x, z, ph, k, k, n + k))
    return _inverse_word(reduction)


def random_clifford(n: int, rng: np.random.Generator) -> CliffordOp:
    """Uniformly random n-qubit Clifford (up to global phase).

    Samples, for k = 0..n-1, a uniform anticommuting signed pair on the
    remaining qubits and reduces it to (X_k, Z_k); the inverted reduction
    words compose to a uniform group element (transitive-action argument).
    """
    if n < 1:
        raise PauliAlgebraError("n must be >= 1")
    reduction: list[tuple[str, tuple[int, ...]]] = []
    for k in range(n):
        m = n - k
        while True:
            v1 = rng.integers(0, 2, size=2 * m, dtype=np.uint8)
            if v1.any():
                break
        while True:
            v2 = rng.integers(0, 2, size=2 * m, dtype=np.uint8)
            sp = int(np.sum((v1[:m] & v2[m:]) ^ (v1[m:] & v2[:m]))) % 2
            if sp == 1:
                break
        x = np.zeros((2, n), np.uint8)
        z = np.zeros((2, n), np.uint8)
        x[0, k:], z[0, k:] = v1[:m], v1[m:]
        x[1, k:], z[1, k:] = v2[:m], v2[m:]
        ph = np.zeros(2, np.int64)
        for r in range(2):
            ph[r] = int(np.sum(x[r] & z[r])) + 2 * int(rng.integers(0, 2))
        ph &= 3
        reduction.extend(_reduce_pair(x, z, ph, k, 0, 1))
    return CliffordOp.from_gates(n, _inverse_word(reduction))


def random_pauli(n: int, rng: np.random.Generator) -> PauliString:
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    z = rng.integers(0, 2, size=n, dtype=np.uint8)
    return PauliString(x, z).positive()
