"""Permutation-key encryption over spread registers.

A data qubit (1/2) sum_j a_j s_j is spread across m columns into
(1/2^m) sum_j a_j s_j^(x)m using 2m-2 CNOTs and m-1 maximally mixed
ancillas, padded with m more mixed columns, and encrypted by secretly
permuting the 2m columns.  Identical gates applied to every column act as
logical gates on the hidden data, so the server evaluates transversally
without knowing which columns matter.

Registers are stored as a list of tensor factors over whole rows; factors
hold either a stabilizer tableau (anything Clifford) or a small dense
block (rows touched by magic states).  Transversal measurement of a row
collapses it to a product, after which the row is traced out and the
factor shrinks, so dense blocks never exceed the oracle cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .paulis import CliffordOp, PauliString, _signed_permutation
from .schemes import SchemeDescriptor, SchemeError
from .states import DENSE_QUBIT_CAP, DensityMatrix, StabilizerState, _tableau


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
        inv = [0] * (2 * self.m)
        for c, dest in enumerate(self.perm):
            inv[dest] = c
        return PermKey(self.m, tuple(inv))

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

    @classmethod
    def from_cycle_notation(cls, m: int, text: str) -> "PermKey":
        perm = list(range(2 * m))
        for part in text.replace(")", ")|").split("|"):
            part = part.strip().strip("()")
            if not part:
                continue
            cyc = [int(t) for t in part.split()]
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a] = b
        return cls(m, tuple(perm))

    def column_swaps(self) -> list[tuple[int, int]]:
        """Transpositions realizing the permutation (len(cycle)-1 each)."""
        swaps = []
        for cyc in self.cycles():
            a0 = cyc[0]
            for other in cyc[1:]:
                swaps.append((a0, other))
        return swaps

    def word(self, rows: int = 1) -> list[tuple[str, tuple[int, ...]]]:
        """The column swaps applied to each of `rows` register rows, as
        one SWAP word."""
        n_cols = 2 * self.m
        return [("SWAP", (r * n_cols + a, r * n_cols + b))
                for r in range(rows) for a, b in self.column_swaps()]

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


_ROW_GENERATOR = {"zero": ("Z", 0), "one": ("Z", 2),
                  "plus": ("X", 0), "minus": ("X", 2),
                  "plusi": ("Y", 0), "minusi": ("Y", 2)}


def _column_power(letter: str, m: int) -> tuple[np.ndarray, np.ndarray, int]:
    """x bits, z bits and canonical phase (one i per Y) of letter^(x)m on
    the first m of 2m columns."""
    x = np.zeros(2 * m, np.uint8)
    z = np.zeros(2 * m, np.uint8)
    x[:m], z[:m] = letter in "XY", letter in "YZ"
    return x, z, m if letter == "Y" else 0


def _spread_row_stabilizer(role: str, m: int) -> StabilizerState:
    """Direct construction of a spread basis/axis row on 2m qubits."""
    letter, sign = _ROW_GENERATOR[role]
    if letter in ("X", "Y") and m % 2 == 0:
        raise RegisterError("X/Y-axis rows need odd m")
    if letter == "Y" and m % 4 != 1:
        # s_2^(x)m picks up a sign unless m = 1 mod 4
        sign ^= 2
    x, z, phase = _column_power(letter, m)
    return _tableau(2 * m, x[None], z[None],
                    np.array([(phase + sign) & 3], np.uint8))


def _spread_magic_dense(m: int) -> DensityMatrix:
    """Spread |T> row: (1/2^m)(I + (X^m + Y^m)/sqrt2) plus mixed columns."""
    if m % 2 == 0:
        raise RegisterError("magic rows need odd m")
    if 2 * m > DENSE_QUBIT_CAP:
        raise RegisterError("magic rows exceed the dense cap at this m")
    sy = 1.0 if m % 4 == 1 else -1.0
    dim = 2 ** (2 * m)
    # X^m and Y^m move the same bits, so both sit at (r, idx[r])
    idx, sx = _signed_permutation(*_column_power("X", m))
    _, s_y = _signed_permutation(*_column_power("Y", m))
    rho = np.eye(dim, dtype=complex)
    rho[np.arange(dim), idx] += (sx + sy * s_y) / np.sqrt(2.0)
    return DensityMatrix(rho / dim, validate=False)


# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _Factor:
    rows: list[int]
    state: object  # StabilizerState | DensityMatrix

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
        """Spread a 1-qubit plaintext (state object or character spec)."""
        m = self.m
        if isinstance(plaintext, str):
            direct = {"0": "zero", "1": "one", "+": "plus", "-": "minus",
                      "i": "plusi", "m": "minusi"}
            if plaintext in direct and (m % 2 == 1 or plaintext in "01"):
                return self._add_factor_row(
                    "data", _spread_row_stabilizer(direct[plaintext], m))
            plaintext = DensityMatrix.product(plaintext)
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
        order = [r for f in touched for r in f.rows]
        # a dense factor makes the merge dense; past the oracle cap the
        # tensor product raises before any matrix is built
        state = touched[0].state
        for f in touched[1:]:
            state = state.tensor(f.state)
        all_rows = sorted(order)
        if order != all_rows:
            # reorder qubits so factor rows are sorted: the block of the row
            # at position i of the concatenation moves to that row's rank
            rank = np.argsort(np.argsort(order))
            perm = rank[:, None] * self.n_cols + np.arange(self.n_cols)
            state = state.permute_qubits(perm.ravel())
        merged = _Factor(all_rows, state)
        self.factors = [f for f in self.factors if f not in owners]
        self.factors.append(merged)
        self._owner.update(dict.fromkeys(all_rows, merged))
        return merged

    # -- register operations ------------------------------------------------

    def permute_columns(self, key: PermKey) -> None:
        if key.m != self.m:
            raise SchemeError("column count mismatch")
        # one qubit permutation per factor size: key.perm within each row
        perms: dict[int, np.ndarray] = {}
        for f in self.factors:
            k = len(f.rows)
            if k not in perms:
                perms[k] = (np.arange(k)[:, None] * self.n_cols
                            + np.asarray(key.perm)).ravel()
            f.state = f.state.permute_qubits(perms[k])

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

    def transversal_single(self, row: int, name: str) -> None:
        """The same 1-qubit gate on every column of a row: one
        `apply_transversal` on the row's column range."""
        self._require_transversal(name)
        f = self._factor_of(row)
        f.state = f.state.apply_transversal(name, [f.columns(row, self.n_cols)])

    def transversal_pair(self, name: str, row_c: int, row_t: int) -> None:
        """Columnwise two-row gate (logical CNOT/CZ/SWAP between rows): one
        `apply_transversal` on the two rows' column ranges of the merged
        factor."""
        f = self._merge([row_c, row_t])
        f.state = f.state.apply_transversal(
            name, [f.columns(row_c, self.n_cols), f.columns(row_t, self.n_cols)])

    def controlled_z(self, control_row: int, row: int) -> None:
        """Logical CZ as one transversal CZ.  Per column it is the unitary
        of H; CNOT; H on `row`, and like transversal H it needs odd m."""
        self._require_transversal("H")
        self.transversal_pair("CZ", control_row, row)

    def apply_logical(self, op: CliffordOp, rows: list[int]) -> None:
        """A logical Clifford over the given rows, applied transversally."""
        for name, qs in op.gates:
            if len(qs) == 1:
                self.transversal_single(rows[qs[0]], name)
            else:
                self.transversal_pair(name, rows[qs[0]], rows[qs[1]])

    def measure_row(self, row: int, rng: np.random.Generator,
                    basis: str = "Z") -> list[int]:
        """Transversally measure a row; the row is consumed (traced out).

        One `measure_discard` on the row's columns: on a tableau factor,
        two column eliminations over the row plus at most one GF(2)
        reduction the size of one `contains`."""
        if basis == "X":
            self.transversal_single(row, "H")
        f = self._factor_of(row)
        f.state, bits = f.state.measure_discard(f.columns(row, self.n_cols), rng)
        self._remove_row(f, row)
        return bits

    def discard_row(self, row: int) -> None:
        f = self._factor_of(row)
        if len(f.rows) > 1:
            f.state = f.state.discard_qubits(f.columns(row, self.n_cols))
        self._remove_row(f, row)

    def _remove_row(self, f: _Factor, row: int) -> None:
        """Retire a row whose qubits have left its factor's state."""
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

    def data_qubit_density(self, row: int) -> np.ndarray:
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


def perm_scheme(m: int, rows: int = 1) -> SchemeDescriptor:
    """Permutation-key scheme descriptor on a rows x 2m register.

    Key enumeration is (2m)!, so exact sweeps stop at m = 3 (720 keys
    on the 6-qubit dense oracle).
    Transport is the identity: transversal computations commute with
    column permutations, which is why decryption never depends on the
    delegated circuit.
    """
    n = rows * 2 * m
    count = math.factorial(2 * m)

    def allows(comp: CliffordOp) -> bool:
        if comp.n_qubits != n:
            return False
        for c in range(2 * m - 1):
            swap = PermKey(m, tuple(
                [*range(c), c + 1, c, *range(c + 2, 2 * m)]))
            op = CliffordOp.from_gates(n, swap.word(rows))
            if comp.compose(op) != op.compose(comp):
                return False
        return True

    def encrypt_word(key: PermKey) -> list[tuple[str, tuple[int, ...]]]:
        if key.m != m:
            raise SchemeError("key/register size mismatch")
        return key.word(rows)

    return SchemeDescriptor(
        name=f"perm-m{m}",
        n_qubits=n,
        key_count=count,
        iter_keys=lambda: _all_perms(m),
        sample_key=lambda rng: PermKey.sample(m, rng),
        encrypt_word=encrypt_word,
        transport=lambda k, c: k,
        lift=lambda c: c,
        allows=allows,
    )


def spread_basis_input(m: int, bit: int, rows: int = 1) -> DensityMatrix:
    """Dense spread register state for a computational-basis data qubit
    (valid at any m, used by the exact security sweeps)."""
    if rows != 1:
        raise RegisterError("dense sweep inputs are single-row")
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
    rows_consumed: int = 0

    def take(self) -> dict:
        if self.used >= len(self.bundles):
            raise SchemeError("T-gate budget exhausted")
        bundle = self.bundles[self.used]
        self.used += 1
        self.rows_consumed += 5
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


def t_gate_probabilistic(reg: SpreadRegister, data_row: int, magic_row: int,
                         client: PermClient, rng: np.random.Generator):
    """Gate teleportation without the correction round: succeeds (plain T)
    with probability 1/2, else leaves the Clifford-correctable T^dagger.

    Returns (success, measured bits, messages).
    """
    if reg.roles[magic_row] != "magic":
        raise SchemeError("missing magic row")
    reg.transversal_pair("CNOT", data_row, magic_row)
    bits = reg.measure_row(magic_row, rng)
    outcome = client.parity(bits)
    messages = [{"sender": "server", "kind": "classical-bits", "payload": bits}]
    return outcome == 0, bits, messages


def t_gate_deterministic(reg: SpreadRegister, data_row: int,
                         budget: TGateBudget, client: PermClient,
                         rng: np.random.Generator):
    """Deterministic T via classical interaction.

    1. teleport through the magic row; the 2m outcome bits go to the
       client, who alone can read the logical outcome o1.
    2. client names one row of the identity/S pair; consuming it applies
       S^(+-1) exactly when o1 = 1, leaving a Pauli (Z^c) byproduct.
    3. client names one row of the |0>/|1> pair; a transversal CZ from
       it applies the Z^c correction.

    Row labels are uniform and carry no information about data or key.
    Returns the transcript messages.
    """
    bundle = budget.take()
    tag = bundle["tag"]
    messages = []

    reg.transversal_pair("CNOT", data_row, bundle["magic"])
    bits1 = reg.measure_row(bundle["magic"], rng)
    messages.append({"sender": "server", "kind": "classical-bits",
                     "payload": bits1})
    o1 = client.parity(bits1)

    row_a = client.row_for(f"{tag}a", "plusi" if o1 else "plus")
    messages.append({"sender": "client", "kind": "classical-bits",
                     "payload": [bundle["slots_a"].index(row_a)]})
    reg.transversal_pair("CNOT", data_row, row_a)
    bits2 = reg.measure_row(row_a, rng)
    messages.append({"sender": "server", "kind": "classical-bits",
                     "payload": bits2})
    o2 = client.parity(bits2)
    c = o1 & o2

    row_b = client.row_for(f"{tag}b", "one" if c else "zero")
    messages.append({"sender": "client", "kind": "classical-bits",
                     "payload": [bundle["slots_b"].index(row_b)]})
    reg.controlled_z(row_b, data_row)
    # burn the consumed pair rows
    for row in (*bundle["slots_a"], *bundle["slots_b"]):
        if reg.alive[row]:
            reg.discard_row(row)
    return messages


# ---------------------------------------------------------------------------
# Concatenation with an inner stabilizer code
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcatenatedSpreadCode:
    """Inner stabilizer code down the rows, spreading across the columns."""
    inner: object          # qec.StabilizerCode
    m: int

    def logical_x_columns(self) -> list[str]:
        return [self.inner.logical_x[0].restricted_letter(i)
                for i in range(self.inner.n)]

    def logical_z_columns(self) -> list[str]:
        return [self.inner.logical_z[0].restricted_letter(i)
                for i in range(self.inner.n)]

    def encode(self, plaintext: str) -> SpreadRegister:
        """One data qubit -> n rows x 2m columns."""
        from .qec import encode as qec_encode
        inner_state = qec_encode(self.inner, StabilizerState.product(plaintext))
        reg = SpreadRegister(self.m)
        n, m = self.inner.n, self.m
        # build the joint stabilizer state over n rows directly
        mixed_per_row = 2 * m - 1
        full = inner_state.tensor(
            StabilizerState.maximally_mixed(n * mixed_per_row))
        perm = [0] * (2 * m * n)
        for r in range(n):
            perm[r] = r * 2 * m          # data qubit to column 0
            for j in range(mixed_per_row):
                perm[n + r * mixed_per_row + j] = r * 2 * m + 1 + j
        # each spread gate on every row at once, one transversal gate
        full = full.permute_qubits(perm).apply_gates(
            (name, tuple(r * 2 * m + q for q in qs))
            for name, qs in spread_gate_list(m) for r in range(n))
        reg._add_factor(["data"] * n, full)
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

    The ancilla row must be a fresh encrypted |+> row; controlled logical
    Paulis couple it to the stabilizer's support rows, it is read out
    transversally in the X basis, and only the client can turn the 2m
    bits into the syndrome parity.

    Returns (corrected parity, messages).
    """
    if not reg.alive[ancilla_row] or reg.roles[ancilla_row] != "plus":
        raise SchemeError("no fresh encrypted ancilla rows remain")
    for i, row in enumerate(rows):
        letter = stabilizer.restricted_letter(i)
        if letter == "I":
            continue
        if letter == "X":
            reg.transversal_pair("CNOT", ancilla_row, row)
        elif letter == "Z":
            reg.controlled_z(ancilla_row, row)
        else:
            raise SchemeError("Y-type inner stabilizers are not supported")
    bits = reg.measure_row(ancilla_row, rng, basis="X")
    messages = [{"sender": "server", "kind": "classical-bits", "payload": bits}]
    parity = client.parity(bits)
    return parity, messages


def apply_conditional_logical(reg: SpreadRegister, letter: str, row: int,
                              control_row: int) -> None:
    """Controlled logical Pauli on `row` from an encrypted |0>/|1> row."""
    if letter == "X":
        reg.transversal_pair("CNOT", control_row, row)
    elif letter == "Z":
        reg.controlled_z(control_row, row)
    else:
        raise SchemeError("only X/Z conditional corrections are supported")
