"""Permutation-key encryption over spread registers.

A data qubit (1/2) sum_j a_j s_j is spread across m columns into
(1/2^m) sum_j a_j s_j^(x)m using 2m-2 CNOTs and m-1 maximally mixed
ancillas, padded with m more mixed columns, and encrypted by secretly
permuting the 2m columns.  The CNOTs map X to X^m and Z to Z^m and never
change a packed phase, so on a tableau spreading is one broadcast of each
generator's bits into the first m columns of its row.  Identical gates
applied to every column act as logical gates on the hidden data, so the
server evaluates transversally without knowing which columns matter.

Registers are stored as a list of tensor factors over whole rows; factors
hold either a stabilizer tableau (anything Clifford) or a small dense
block (rows touched by magic states).  A logical gate word merges the
rows it touches once and reaches their factor's state in one call, so a
syndrome round is one pass.  Transversal measurement of a row collapses
it to a product, after which the row is traced out and the factor
shrinks.  A discarded row leaves its factor's state at the factor's next
read, in one partial trace with every row discarded since the last.  The
T gadget's single-use rows never merge into a dense factor: a teleport
(`teleport_row`) draws its row's bits from the joint diagonal, and a
conditional logical consumes its |0>/|1> row as one Pauli mixture on
the target row.  Only a teleport between two tableaus merges.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .paulis import CliffordOp, PauliString, _signed_permutation
from .schemes import SchemeDescriptor, SchemeError
from .states import (DENSE_QUBIT_CAP, DensityMatrix, StabilizerState,
                     _controlled_discard, _dense, _tableau, _teleport_discard)


class RegisterError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermKey:
    """Secret permutation of the 2m columns; perm[c] is where column c goes."""
    m: int
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(2 * self.m)):
            raise SchemeError("perm must be a bijection on 0..2m-1")

    @classmethod
    def identity(cls, m: int) -> "PermKey":
        return cls(m, tuple(range(2 * m)))

    @classmethod
    def sample(cls, m: int, rng: np.random.Generator) -> "PermKey":
        # Fisher-Yates, explicitly seeded through rng
        arr = list(range(2 * m))
        for i in range(2 * m - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            arr[i], arr[j] = arr[j], arr[i]
        return cls(m, tuple(arr))

    def inverse(self) -> "PermKey":
        # the columns sorted by where they go
        return PermKey(self.m, tuple(sorted(range(2 * self.m), key=self.perm.__getitem__)))

    def cycles(self) -> list[list[int]]:
        seen = set()
        out = []
        for start in range(2 * self.m):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.perm[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.perm[nxt]
            out.append(cyc)
        return out

    def cycle_notation(self) -> str:
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())

    def column_swaps(self) -> list[tuple[int, int]]:
        """Transpositions realizing the permutation (len(cycle)-1 each)."""
        swaps = []
        for cyc in self.cycles():
            a0 = cyc[0]
            for other in cyc[1:]:
                swaps.append((a0, other))
        return swaps

    def word(self) -> list[tuple[str, tuple[int, ...]]]:
        """The column swaps on one register row, as one SWAP word."""
        return [("SWAP", swap) for swap in self.column_swaps()]

    def data_columns(self) -> list[int]:
        """Where the m data-bearing columns sit after encryption."""
        return sorted(self.perm[c] for c in range(self.m))


def security_bound_log2(r: int, m: int) -> float:
    """log2 of sqrt(2^r / C(2m, m)); safe for astronomically small values."""
    if r < 0 or m < 1:
        raise SchemeError("need r >= 0 and m >= 1")
    log2_binom = (math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1)) / math.log(2.0)
    return 0.5 * (r - log2_binom)


def security_bound(r: int, m: int) -> float:
    """sqrt(2^r / C(2m, m)), evaluated in log space.  Values above 1 are
    vacuous as trace-distance bounds but reported as the formula gives them."""
    lg = security_bound_log2(r, m)
    if lg > 1000.0:
        return math.inf
    return math.exp(lg * math.log(2.0))


def decryption_complexity(key: PermKey, data_rows: int, ancilla_rows: int) -> int:
    """Exact swap count of decryption: rows x (cycle swaps of the inverse)."""
    swaps = sum(len(c) - 1 for c in key.inverse().cycles())
    return (data_rows + ancilla_rows) * swaps


# ---------------------------------------------------------------------------
# Spreading
# ---------------------------------------------------------------------------

def spread_gate_list(m: int) -> list[tuple[str, tuple[int, int]]]:
    """The 2m-2 CNOTs taking s_j on qubit 0 (plus m-1 mixed) to s_j^(x)m.

    Fan out X from the data qubit, then fan Z back in; needs odd m (for
    even m no Clifford can map X -> X^(x)m and Z -> Z^(x)m since the
    images would have to commute).
    """
    if m % 2 == 0:
        raise RegisterError("spreading circuit requires odd m")
    gates = [("CNOT", (0, j)) for j in range(1, m)]
    gates += [("CNOT", (j, 0)) for j in range(1, m)]
    return gates


def spread_qubit(state, m: int):
    """Standalone spreading map on a 1-qubit state (any backend)."""
    if m == 1:
        return state
    mixed = type(state).maximally_mixed(m - 1)
    return state.tensor(mixed).apply_gates(spread_gate_list(m))


def _spread_rows(state: StabilizerState, m: int) -> StabilizerState:
    """Spread every qubit of a stabilizer state into a row of 2m columns,
    as `spread_qubit` plus m mixed columns on each: each generator's bits
    are copied into the first m columns of their row, phase unchanged,
    since the spreading CNOTs map X to X^m and Z to Z^m and never change
    a packed phase."""
    k, n = state.x.shape
    x, z = np.zeros((2, k, n, 2 * m), np.uint8)
    x[:, :, :m], z[:, :, :m] = state.x[:, :, None], state.z[:, :, None]
    return _tableau(2 * m * n, x.reshape(k, 2 * m * n), z.reshape(k, 2 * m * n),
                    state.phase)


# the plaintext character of each stabilizer row role
_ROW_CHAR = {"zero": "0", "one": "1", "plus": "+", "minus": "-",
             "plusi": "i", "minusi": "m"}


@functools.lru_cache(maxsize=None)
def _spread_row_stabilizer(role: str, m: int) -> StabilizerState:
    """Direct construction of a spread basis/axis row on 2m qubits."""
    ch = _ROW_CHAR[role]
    if ch not in "01" and m % 2 == 0:
        raise RegisterError("X/Y-axis rows need odd m")
    return _spread_rows(StabilizerState.product(ch), m)


@functools.lru_cache(maxsize=None)
def _spread_magic_dense(m: int) -> DensityMatrix:
    """Spread |T> row: (1/2^m)(I + (X' + Y')/sqrt2) plus mixed columns,
    where X' = X^m and Y' = iX^mZ^m are the spread X and Y."""
    if m % 2 == 0:
        raise RegisterError("magic rows need odd m")
    if 2 * m > DENSE_QUBIT_CAP:
        raise RegisterError("magic rows exceed the dense cap at this m")
    dim = 2 ** (2 * m)
    # the spread X and Y are the generators of the spread + and i rows;
    # they move the same bits, so both sit at (r, idx[r])
    (idx, sx), (_, sy) = (
        _signed_permutation(row.x[0], row.z[0], row.phase[0])
        for row in (_spread_row_stabilizer(r, m) for r in ("plus", "plusi")))
    rho = np.eye(dim, dtype=complex)
    rho[np.arange(dim), idx] += (sx + sy) / np.sqrt(2.0)
    return _dense(rho / dim)


# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------

class _Factor:
    """Live rows and their joint state.  The held state keeps the columns
    of rows discarded since its last read; reading `state` traces them all
    out in one `discard_qubits`, so every reader sees the live rows alone."""

    def __init__(self, rows: list[int], state):
        self.rows = rows
        self.state = state  # StabilizerState | DensityMatrix

    @property
    def state(self):
        if len(self._held) > len(self.rows):
            n_cols = self._state.n_qubits // len(self._held)
            self.state = self._state.discard_qubits(
                [i * n_cols + c for i, row in enumerate(self._held)
                 if row not in self.rows for c in range(n_cols)])
        return self._state

    @state.setter
    def state(self, state) -> None:
        self._state, self._held = state, list(self.rows)

    def loc(self, row: int, col: int, n_cols: int) -> int:
        return self.rows.index(row) * n_cols + col

    def columns(self, row: int, n_cols: int) -> range:
        """The qubits that hold the row's columns."""
        base = self.loc(row, 0, n_cols)
        return range(base, base + n_cols)


class SpreadRegister:
    """Rows x 2m qubit register held as independent row-group factors."""

    def __init__(self, m: int):
        if m < 1:
            raise RegisterError("m must be >= 1")
        self.m = m
        self.n_cols = 2 * m
        self.roles: list[str] = []
        self.alive: list[bool] = []
        self.factors: list[_Factor] = []
        self._owner: dict[int, _Factor] = {}   # live row -> its factor

    # -- construction -----------------------------------------------------

    def _add_factor(self, roles: list[str], state) -> _Factor:
        """A new factor holding one new row per role, in order."""
        f = _Factor(list(range(len(self.roles), len(self.roles) + len(roles))),
                    state)
        self.roles += roles
        self.alive += [True] * len(roles)
        self.factors.append(f)
        for row in f.rows:
            self._owner[row] = f
        return f

    def _add_factor_row(self, role: str, state) -> int:
        return self._add_factor([role], state).rows[0]

    def add_data_row(self, plaintext) -> int:
        """Spread a 1-qubit plaintext (state object or one character)."""
        m = self.m
        if isinstance(plaintext, str):
            if len(plaintext) != 1:
                raise RegisterError(f"a data row takes one character, not {plaintext!r}")
            role = {ch: role for role, ch in _ROW_CHAR.items()}.get(plaintext)
            if role and (m % 2 == 1 or plaintext in "01"):
                return self._add_factor_row(
                    "data", _spread_row_stabilizer(role, m))
            plaintext = DensityMatrix.product(plaintext)
        elif plaintext.n_qubits != 1:
            raise RegisterError(f"a data row spreads one qubit, not "
                                f"{plaintext.n_qubits}")
        spread = spread_qubit(plaintext, m)
        full = spread.tensor(type(spread).maximally_mixed(m))
        return self._add_factor_row("data", full)

    def add_ancilla_row(self, role: str) -> int:
        if role == "magic":
            return self._add_factor_row("magic", _spread_magic_dense(self.m))
        return self._add_factor_row(role, _spread_row_stabilizer(role, self.m))

    # -- factor plumbing ----------------------------------------------------

    def _factor_of(self, row: int) -> _Factor:
        if not self.alive[row]:
            raise RegisterError(f"row {row} was already consumed")
        f = self._owner.get(row)
        if f is None:
            raise RegisterError(f"row {row} not found")
        return f

    def _merge(self, rows: list[int]) -> _Factor:
        owners = {self._factor_of(r) for r in rows}
        if len(owners) == 1:
            return owners.pop()
        touched = sorted(owners, key=lambda f: f.rows[0])
        # a dense factor makes the merge dense; past the oracle cap the
        # tensor product raises before any matrix is built.  The rows stay
        # in concatenation order: `_Factor.loc` finds a row in any order
        state = touched[0].state
        for f in touched[1:]:
            state = state.tensor(f.state)
        merged = _Factor([r for f in touched for r in f.rows], state)
        self.factors = [f for f in self.factors if f not in owners]
        self.factors.append(merged)
        self._owner.update(dict.fromkeys(merged.rows, merged))
        return merged

    # -- register operations ------------------------------------------------

    def permute_columns(self, key: PermKey) -> None:
        """Every factor's columns permuted, once per distinct state: fresh
        rows of one role share one state object, and share its image."""
        if key.m != self.m:
            raise SchemeError("column count mismatch")
        # one inverse per factor size; a key is a bijection, so no checks
        inv = np.asarray(key.inverse().perm)
        invs: dict[int, np.ndarray] = {}
        # id -> (state, image): holding the state keeps its id its own
        done: dict[int, tuple] = {}
        for f in self.factors:
            k, state = len(f.rows), f.state
            if k not in invs:
                invs[k] = (np.arange(k)[:, None] * self.n_cols + inv).ravel()
            if id(state) not in done:
                done[id(state)] = state, state._permute(invs[k])
            f.state = done[id(state)][1]

    def encrypt(self, key: PermKey) -> None:
        self.permute_columns(key)

    def decrypt(self, key: PermKey) -> None:
        self.permute_columns(key.inverse())

    def _require_transversal(self, name: str) -> None:
        """Raise unless transversal `name` is the logical `name` at this m."""
        if name == "S" and self.m % 4 != 1:
            raise RegisterError("transversal S needs m = 1 (mod 4)")
        if name == "H" and self.m % 2 != 1:
            raise RegisterError("transversal H needs odd m")

    def apply_logical(self, gates) -> None:
        """A logical gate word over register rows, each gate (name, rows),
        applied transversally: the 1-row gates' transversality checks run
        first, the touched rows' factors merge once, and the merged
        factor's state takes the whole word in one `apply_transversals`
        on the rows' column ranges."""
        word = [(name, tuple(rows)) for name, rows in gates]
        if not word:
            return
        for name, rows in word:
            if len(rows) == 1:
                self._require_transversal(name)
        f = self._merge([row for _, rows in word for row in rows])
        f.state = f.state.apply_transversals(
            [(name, [f.columns(row, self.n_cols) for row in rows])
             for name, rows in word])

    def transversal_single(self, row: int, name: str) -> None:
        """The same 1-qubit gate on every column of a row."""
        self.apply_logical([(name, (row,))])

    def transversal_pair(self, name: str, row_c: int, row_t: int) -> None:
        """Columnwise two-row gate (logical CNOT/CZ/SWAP between rows)."""
        self.apply_logical([(name, (row_c, row_t))])

    def apply_correction(self, name: str, control_row: int, row: int) -> None:
        """Transversal `name` (CNOT or CZ) from a |0>/|1> correction row
        onto `row`; the correction row is consumed.

        When the control is a lone row on a tableau with Z generators only
        and `row`'s factor is a tableau or dense, the gate and the
        control's discard are one mixture of X^b (Z^b) on `row`'s columns
        (`states._controlled_discard`), and the rows never merge.  Any
        other case is the transversal gate, then `discard_row`.  A CZ,
        like transversal H, needs odd m; every check runs before anything
        changes."""
        fc, ft = self._factor_of(control_row), self._factor_of(row)
        if self.roles[control_row] not in ("zero", "one"):
            raise RegisterError(f"row {control_row} is not a |0>/|1> correction row")
        if name == "CZ":
            self._require_transversal("H")
        state = None
        if fc is not ft and len(fc.rows) == 1:
            state = _controlled_discard(ft.state, fc.state, name,
                                        ft.columns(row, self.n_cols))
        if state is None:
            self.transversal_pair(name, control_row, row)
            self.discard_row(control_row)
            return
        self._remove_row(fc, control_row)
        ft.state = state

    def teleport_row(self, data_row: int, row: int,
                     rng: np.random.Generator) -> list[int]:
        """Transversal CNOT from `data_row` into `row`, then `measure_row`
        on `row`; returns its bits.  A lone `row` never merges when either
        side is dense (`states._teleport_discard`)."""
        fd, fr = self._factor_of(data_row), self._factor_of(row)
        if (fd is fr or len(fr.rows) > 1 or DensityMatrix.BACKEND
                not in (fd.state.BACKEND, fr.state.BACKEND)):
            self.transversal_pair("CNOT", data_row, row)
            return self.measure_row(row, rng)
        fd.state, bits = _teleport_discard(
            fd.state, fr.state, fd.columns(data_row, self.n_cols), rng)
        self._remove_row(fr, row)
        return bits

    def measure_row(self, row: int, rng: np.random.Generator) -> list[int]:
        """Transversally measure a row; the row is consumed (traced out).

        One `measure_discard` on the row's columns (a teleport's lone
        fresh row leaves through `teleport_row`): on a tableau factor, two
        GF(2) echelons, of the generators with x on the row and of the
        kept parts of the rest."""
        f = self._factor_of(row)
        state, bits = f.state.measure_discard(f.columns(row, self.n_cols), rng)
        self._remove_row(f, row)
        f.state = state
        return bits

    def discard_row(self, row: int) -> None:
        """Retire a row now; its columns leave the factor's state at the
        factor's next read, with every other row discarded before it."""
        self._remove_row(self._factor_of(row), row)

    def _remove_row(self, f: _Factor, row: int) -> None:
        """Retire a row: it leaves the register's bookkeeping at once."""
        f.rows.remove(row)
        self.alive[row] = False
        del self._owner[row]
        if not f.rows:
            self.factors.remove(f)

    def consumed_ancilla_rows(self) -> int:
        """Encrypted ancilla rows spent so far; this is the r that enters
        the security bound Delta(r, m)."""
        return sum(1 for role, alive in zip(self.roles, self.alive)
                   if role != "data" and not alive)

    def to_json(self) -> dict:
        """Debug snapshot for test goldens."""
        return {"m": self.m,
                "roles": list(self.roles),
                "alive": list(self.alive),
                "factors": [{"rows": list(f.rows),
                             "state": f.state.to_json()}
                            for f in self.factors]}

    # -- extraction ----------------------------------------------------------

    def row_state(self, row: int):
        """The reduced state of one full row (other rows traced out)."""
        f = self._factor_of(row)
        if len(f.rows) == 1:
            return f.state
        keep = f.columns(row, self.n_cols)
        return f.state.discard_qubits(
            [q for q in range(len(f.rows) * self.n_cols) if q not in keep])

    def data_qubit_density(self, row: int) -> DensityMatrix:
        """Unspread a decrypted row and return the 2x2 data-qubit state."""
        st = self.row_state(row)
        if self.m > 1:
            # CNOTs are involutions: the reversed word undoes the spread
            st = st.apply_gates(reversed(spread_gate_list(self.m)))
        return st.reduced_density([0])


# ---------------------------------------------------------------------------
# Scheme descriptor (register-level, enumerable keys)
# ---------------------------------------------------------------------------

def _all_perms(m: int):
    import itertools
    for p in itertools.permutations(range(2 * m)):
        yield PermKey(m, p)


def _transposition_chain(m: int) -> list[list[PermKey]]:
    """Factor k (k = 1 .. 2m-1) holds the identity and every (j k) with
    j < k: each permutation is exactly one product t_{2m-1} ... t_1."""
    factors = []
    for k in range(1, 2 * m):
        factor = [PermKey.identity(m)]
        for j in range(k):
            perm = list(range(2 * m))
            perm[j], perm[k] = k, j
            factor.append(PermKey(m, tuple(perm)))
        factors.append(factor)
    return factors


def perm_scheme(m: int) -> SchemeDescriptor:
    """Permutation-key scheme descriptor on one row of 2m columns.

    Key enumeration is (2m)!, so exact sweeps stop at m = 3 (720 keys
    on the 6-qubit dense oracle); the key average runs as a chain of
    transposition factors of sizes 2, 3, ..., 2m.
    Transport is the identity: transversal computations commute with
    column permutations, which is why decryption never depends on the
    delegated circuit.
    """
    n = 2 * m
    count = math.factorial(n)

    def allows(comp: CliffordOp) -> bool:
        if comp.n_qubits != n:
            return False
        for c in range(2 * m - 1):
            swap = PermKey(m, tuple(
                [*range(c), c + 1, c, *range(c + 2, 2 * m)]))
            op = CliffordOp.from_gates(n, swap.word())
            if comp.compose(op) != op.compose(comp):
                return False
        return True

    def encrypt_word(key: PermKey) -> list[tuple[str, tuple[int, ...]]]:
        if key.m != m:
            raise SchemeError("key/register size mismatch")
        return key.word()

    return SchemeDescriptor(
        name=f"perm-m{m}",
        n_qubits=n,
        key_count=count,
        iter_keys=lambda: _all_perms(m),
        encrypt_word=encrypt_word,
        transport=lambda k, c: k,
        allows=allows,
        key_factors=lambda: _transposition_chain(m),
    )


def spread_basis_input(m: int, bit: int) -> DensityMatrix:
    """Dense spread register state for a computational-basis data qubit
    (valid at any m, used by the exact security sweeps)."""
    if 2 * m > DENSE_QUBIT_CAP:
        raise RegisterError("dense cap exceeded")
    reg = SpreadRegister(m)
    reg.add_data_row("1" if bit else "0")
    return reg.factors[0].state.to_density()


# ---------------------------------------------------------------------------
# T gates
# ---------------------------------------------------------------------------

@dataclass
class PermClient:
    """Client-side oracle: holds the permutation key and the secret
    row-role assignments; answers only with row labels."""
    key: PermKey
    rng: np.random.Generator
    assignments: dict = field(default_factory=dict)

    def parity(self, bits: list[int]) -> int:
        cols = self.key.data_columns()
        return int(np.bitwise_xor.reduce([bits[c] for c in cols]))

    def pair_order(self, role_a: str, role_b: str) -> tuple[str, str]:
        """Secretly randomized physical preparation order for a role pair."""
        if self.rng.random() < 0.5:
            return (role_a, role_b)
        return (role_b, role_a)

    def record_pair(self, tag: str, roles: tuple[str, str],
                    rows: tuple[int, int]) -> None:
        self.assignments[tag] = dict(zip(roles, rows))

    def row_for(self, tag: str, role: str) -> int:
        return self.assignments[tag][role]


@dataclass
class TGateBudget:
    """Per-T ancilla bundles: a magic row, an identity/S teleport pair, and
    a |0>/|1> correction pair, with secretly randomized slot assignment."""
    bundles: list[dict]
    used: int = 0

    def take(self) -> dict:
        if self.used >= len(self.bundles):
            raise SchemeError("T-gate budget exhausted")
        bundle = self.bundles[self.used]
        self.used += 1
        return bundle


def build_t_register(plaintext: str, m: int, n_t: int, key: PermKey,
                     rng: np.random.Generator,
                     ) -> tuple[SpreadRegister, PermClient, TGateBudget]:
    """Register with one data row plus n_t deterministic-T bundles,
    spread and encrypted under `key`."""
    reg = SpreadRegister(m)
    client = PermClient(key=key, rng=rng)
    reg.add_data_row(plaintext)
    bundles = []
    for t in range(n_t):
        magic = reg.add_ancilla_row("magic")
        roles_a = client.pair_order("plus", "plusi")
        slots_a = (reg.add_ancilla_row(roles_a[0]), reg.add_ancilla_row(roles_a[1]))
        client.record_pair(f"t{t}a", roles_a, slots_a)
        roles_b = client.pair_order("zero", "one")
        slots_b = (reg.add_ancilla_row(roles_b[0]), reg.add_ancilla_row(roles_b[1]))
        client.record_pair(f"t{t}b", roles_b, slots_b)
        bundles.append({"tag": f"t{t}", "magic": magic,
                        "slots_a": slots_a, "slots_b": slots_b})
    reg.encrypt(key)
    return reg, client, TGateBudget(bundles=bundles)


def _teleport(reg: SpreadRegister, data_row: int, row: int,
              client: PermClient, rng: np.random.Generator):
    """Transversal CNOT from the data row into `row`, then read `row` out.

    Returns the server's message carrying the 2m bits, and the logical
    outcome that only the client can read from them."""
    bits = reg.teleport_row(data_row, row, rng)
    message = {"sender": "server", "kind": "classical-bits", "payload": bits}
    return message, client.parity(bits)


def t_gate_probabilistic(reg: SpreadRegister, data_row: int, magic_row: int,
                         client: PermClient, rng: np.random.Generator):
    """Gate teleportation without the correction round: succeeds (plain T)
    with probability 1/2, else leaves the Clifford-correctable T^dagger.

    Returns (success, measured bits, messages).
    """
    if reg.roles[magic_row] != "magic":
        raise SchemeError("missing magic row")
    message, outcome = _teleport(reg, data_row, magic_row, client, rng)
    return outcome == 0, message["payload"], [message]


def t_gate_deterministic(reg: SpreadRegister, data_row: int,
                         budget: TGateBudget, client: PermClient,
                         rng: np.random.Generator):
    """Deterministic T via classical interaction.

    1. teleport through the magic row; the 2m outcome bits go to the
       client, who alone can read the logical outcome o1.
    2. client names one row of the identity/S pair; consuming it applies
       S^(+-1) exactly when o1 = 1, leaving a Pauli (Z^c) byproduct.
    3. client names one row of the |0>/|1> pair; a conditional Z from it
       (`apply_conditional_logical`, which consumes the row) applies the
       Z^c correction.

    Row labels are uniform and carry no information about data or key.
    Returns the transcript messages.
    """
    bundle = budget.take()
    tag = bundle["tag"]

    sent1, o1 = _teleport(reg, data_row, bundle["magic"], client, rng)
    row_a = client.row_for(f"{tag}a", "plusi" if o1 else "plus")
    sent2, o2 = _teleport(reg, data_row, row_a, client, rng)
    row_b = client.row_for(f"{tag}b", "one" if o1 & o2 else "zero")
    apply_conditional_logical(reg, "Z", data_row, row_b)
    # burn the rest of the pair rows
    for row in (*bundle["slots_a"], *bundle["slots_b"]):
        if reg.alive[row]:
            reg.discard_row(row)
    return [sent1,
            {"sender": "client", "kind": "classical-bits",
             "payload": [bundle["slots_a"].index(row_a)]},
            sent2,
            {"sender": "client", "kind": "classical-bits",
             "payload": [bundle["slots_b"].index(row_b)]}]


# ---------------------------------------------------------------------------
# Concatenation with an inner stabilizer code
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcatenatedSpreadCode:
    """Inner stabilizer code down the rows, spreading across the columns."""
    inner: object          # qec.StabilizerCode
    m: int
    _encoded: dict = field(default_factory=dict, compare=False, repr=False)

    def encode(self, plaintext: str) -> SpreadRegister:
        """One data qubit -> n rows x 2m columns; each character encoded once."""
        from .qec import encode as qec_encode
        if self.m % 2 == 0:
            raise RegisterError("spreading circuit requires odd m")
        spread = self._encoded.get(plaintext)
        if spread is None:
            inner_state = qec_encode(self.inner, StabilizerState.product(plaintext))
            spread = self._encoded[plaintext] = _spread_rows(inner_state, self.m)
        reg = SpreadRegister(self.m)
        reg._add_factor(["data"] * self.inner.n, spread)
        return reg


def build_concatenated_code(inner, m: int) -> ConcatenatedSpreadCode:
    if not inner.encoder.gates and inner.n > 1:
        raise SchemeError("inner encoder must be Clifford")
    return ConcatenatedSpreadCode(inner=inner, m=m)


def encrypted_syndrome_protocol(reg: SpreadRegister, stabilizer: PauliString,
                                rows: list[int], ancilla_row: int,
                                client: PermClient,
                                rng: np.random.Generator):
    """Measure an inner-code stabilizer on the encrypted register.

    The ancilla row must be a fresh encrypted |+> row.  One logical word
    couples it to the stabilizer's support rows (a transversal CNOT or CZ
    from it to each) and ends in transversal H on it, so the rows merge
    once and the factor takes the round in one state call; the row is
    then read out transversally, and only the client can turn the 2m bits
    into the syndrome parity.

    Returns (corrected parity, messages).
    """
    if not reg.alive[ancilla_row] or reg.roles[ancilla_row] != "plus":
        raise SchemeError("no fresh encrypted ancilla rows remain")
    letters = [(stabilizer.restricted_letter(i), row) for i, row in enumerate(rows)]
    word = [(_controlled_gate(letter), (ancilla_row, row))
            for letter, row in letters if letter != "I"]
    reg.apply_logical(word + [("H", (ancilla_row,))])
    bits = reg.measure_row(ancilla_row, rng)
    messages = [{"sender": "server", "kind": "classical-bits", "payload": bits}]
    parity = client.parity(bits)
    return parity, messages


def _controlled_gate(letter: str) -> str:
    """The transversal gate of a controlled logical X or Z."""
    if letter not in ("X", "Z"):
        raise SchemeError("only X/Z controlled logical Paulis are supported")
    return "CNOT" if letter == "X" else "CZ"


def apply_conditional_logical(reg: SpreadRegister, letter: str, row: int,
                              control_row: int) -> None:
    """Controlled logical Pauli on `row` from an encrypted |0>/|1>
    correction row.

    Correction rows are single-use and never merge: the call consumes the
    row (it is retired and counted in `consumed_ancilla_rows`), and a
    tableau or dense `row` takes the gate and the row's discard as one
    Pauli mixture (`SpreadRegister.apply_correction`).  A conditional Z, like
    transversal H, needs odd m; that check runs before anything changes."""
    reg.apply_correction(_controlled_gate(letter), control_row, row)
