"""Reference computations for the test modules, one copy of each.

Each helper is the plain, slow form of something a state backend or the
register does fast, and the tests hold the fast path to it.  The byte
references (`per_gate`, `contraction`) keep the exact computation the
kernels were first pinned against, so `tobytes()` comparisons against
them stay exact.  It also holds the test inputs that no library code
draws (`signed_pauli`, `random_clifford_circuit`), the one-key
`trivial_scheme`, and `key_average`, the key-by-key replay that
`ciphertext_average` is held to.  This module holds no tests."""
import collections
import math

import numpy as np

from qhelab import permkey, qec
from qhelab.paulikey import PauliKey, _word_on
from qhelab.paulis import Circuit, Gate, PauliString, random_clifford, random_pauli
from qhelab.schemes import SchemeDescriptor, SchemeError
from qhelab.states import (_GATE_MATS, DensityMatrix, StabilizerState,
                           _apply_on_bits, _dense)


def random_state(backend, n, rng):
    """A random stabilizer state on n qubits, mixed on about a quarter of
    them, as `backend`."""
    spec = "".join(rng.choice(list("01+-im**"), n))
    stab = StabilizerState.product(spec).apply_clifford(random_clifford(n, rng))
    return stab if backend is StabilizerState else stab.to_density()


def full_rank_density(n, rng) -> np.ndarray:
    """A random full-rank mixed state's matrix, so no entry is zero by
    structure."""
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_dense(n, rng) -> DensityMatrix:
    """A random pure or full-rank mixed state on n qubits, with no dyadic
    structure, so every kernel rounds."""
    if rng.integers(2):
        return DensityMatrix.random_pure(n, rng)
    return DensityMatrix(full_rank_density(n, rng))


def same_group(a: StabilizerState, b: StabilizerState) -> bool:
    """The same stabilizer group, whatever the generators."""
    return (a.n_qubits == b.n_qubits and len(a.phase) == len(b.phase)
            and all(b.expectation(g) == 1 for g in a.generators)
            and all(a.expectation(g) == 1 for g in b.generators))


def same_rows(a: StabilizerState, b: StabilizerState) -> bool:
    """The same packed rows, dtype included."""
    return all(np.array_equal(u, v) and u.dtype == v.dtype
               for u, v in ((a.x, b.x), (a.z, b.z), (a.phase, b.phase)))


def per_gate(state, word):
    """The word applied one `apply_gate` at a time: on the dense oracle,
    one gather or contraction per gate."""
    for name, qs in word:
        state = state.apply_gate(name, qs)
    return state


def contraction(rho: DensityMatrix, word) -> np.ndarray:
    """rho's matrix after the word, one gate at a time through the gate's
    4^k x 4^k superoperator u (x) conj(u), whichever the gate."""
    n = rho.n_qubits
    mat = rho.mat
    for name, qs in word:
        u = _GATE_MATS[name]
        mat = _apply_on_bits(mat, np.kron(u, u.conj()),
                             list(qs) + [n + q for q in qs])
    return mat


def projected(rho: np.ndarray, k: PauliString, outcome: int):
    """(post-state matrix, probability) of `outcome` of k on the matrix rho,
    through the projector (I +/- K)/2 built from `PauliString.to_matrix`;
    the post-state is None below probability 1e-12."""
    proj = (np.eye(len(rho)) + (-1) ** outcome * k.to_matrix()) / 2
    prob = float(np.real(np.trace(proj @ rho)))
    return (proj @ rho @ proj / prob if prob >= 1e-12 else None), prob


def sequential(state, qs, rng, discard=None):
    """Measure-then-discard: one Z measurement per qubit, then one discard
    (the state's own `discard_qubits` unless `discard` is given)."""
    bits = []
    for q in qs:
        zq = PauliString.single(state.n_qubits, q, "Z")
        state, rec = state.measure_pauli(zq, rng)
        bits.append(rec.outcome)
    return (discard or type(state).discard_qubits)(state, qs), bits


class ScriptedRng:
    """Stands in for a generator's `random()`, which returns the scripted
    draws in turn: 0.25 draws outcome 0 and 0.75 outcome 1 wherever the
    outcome's probability is 1/2 or 1."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


class Calls:
    """Counts and logs the calls of callables patched through pytest's
    monkeypatch, by key.

    `count(owner, name, key)` patches owner.name.  Each call counts one for
    the key in `counts` and in every scope open around it, and logs
    `note(*args)` at the call (None without a note) to `log[key]`.  With
    `scope=True` the call opens a scope while it runs, appended to `scopes`
    as (key, note, counts).  `take(key)` reads and resets a key's count in
    `counts`."""

    def __init__(self, monkeypatch):
        self.mp = monkeypatch
        self.counts = collections.Counter()
        self.log = collections.defaultdict(list)
        self.scopes = []
        self._open = []

    def count(self, owner, name: str, key: str | None = None, note=None,
              scope: bool = False) -> None:
        key = key or name
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            for counts in [self.counts, *self._open]:
                counts[key] += 1
            self.log[key].append(note(*args) if note else None)
            if not scope:
                return inner(*args, **kwargs)
            self.scopes.append((key, self.log[key][-1], collections.Counter()))
            self._open.append(self.scopes[-1][2])
            try:
                return inner(*args, **kwargs)
            finally:
                self._open.pop()
        self.mp.setattr(owner, name, counted)

    def inside(self, *keys: str) -> collections.Counter:
        """The counts made inside the scopes of the given keys."""
        return sum((c for key, _, c in self.scopes if key in keys),
                   collections.Counter())

    def take(self, key: str) -> int:
        calls, self.counts[key] = self.counts[key], 0
        return calls


def qec_cycle(seed: int, i: int):
    """One encrypted Steane x spread (m = 5) QEC cycle: a seeded logical
    error, 6 syndrome rounds, lookup decode, conditional corrections,
    decrypt; returns (plaintext, logical readout, measured row bits)."""
    m, code = 5, qec.steane_code()
    n, n_cols = code.n, 2 * m
    rng = np.random.default_rng([seed, i])
    plain = "01+"[i % 3]
    err = ["none", "X", "Z"][int(rng.integers(3))]
    err_row = int(rng.integers(n))
    key = permkey.PermKey.sample(m, rng)
    client = permkey.PermClient(key=key, rng=rng)
    reg = permkey.build_concatenated_code(code, m).encode(plain)
    anc = [reg.add_ancilla_row("plus") for _ in code.generators]
    for r in range(n):
        for letter in "XZ":
            roles = client.pair_order("zero", "one")
            slots = (reg.add_ancilla_row(roles[0]), reg.add_ancilla_row(roles[1]))
            client.record_pair(f"c{r}{letter}", roles, slots)
    reg.encrypt(key)
    if err != "none":
        reg.transversal_single(err_row, err)
    parities, bits = [], []
    for a, stab in zip(anc, code.generators):
        parity, msgs = permkey.encrypted_syndrome_protocol(
            reg, stab, list(range(n)), a, client, rng)
        parities.append(parity)
        bits.append(msgs[0]["payload"])
    corr = qec.lookup_decode(qec.Syndrome(tuple(parities)), code)
    for r in range(n):
        for letter in "XZ":
            on = corr.restricted_letter(r) in (letter, "Y")
            named = client.row_for(f"c{r}{letter}", "one" if on else "zero")
            permkey.apply_conditional_logical(reg, letter, r, named)
    reg.decrypt(key)
    for row, (role, alive) in enumerate(zip(reg.roles, reg.alive)):
        if alive and role != "data":
            reg.discard_row(row)
    (factor,) = reg.factors
    letter = "X" if plain == "+" else "Z"
    qubits = [r * n_cols + c for r in range(n) for c in range(m)]
    x = np.zeros(n * n_cols, np.uint8)
    z = np.zeros(n * n_cols, np.uint8)
    (x if letter == "X" else z)[qubits] = 1
    value = factor.state.expectation(PauliString(x, z))
    return plain, int(value), [[int(b) for b in row] for row in bits]


def signed_pauli(n, rng) -> PauliString:
    """`random_pauli` with a uniform sign, drawn after the letters."""
    p = random_pauli(n, rng)
    return PauliString(p.x, p.z, p.phase + 2) if rng.integers(0, 2) else p


def random_clifford_circuit(n: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Random gate-word circuit (test-input generation, not uniform)."""
    gates: list[Gate] = []
    one_q = ["H", "S", "X", "Y", "Z"]
    two_q = ["CNOT", "CZ", "SWAP"]
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.5:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(str(rng.choice(two_q)), (int(a), int(b))))
        else:
            gates.append(Gate(str(rng.choice(one_q)), (int(rng.integers(n)),)))
    return Circuit(n, tuple(gates))


def key_average(scheme: SchemeDescriptor, factors, rho: DensityMatrix,
                expected: int) -> DensityMatrix:
    """Uniform mixture of rho's encryptions under every product of one key
    per factor list, the first list's key applied first; the list sizes
    must multiply to `expected`.  Each list sums its encryptions of the
    previous list's sum, and the one division comes last: every key's
    word replayed gate by gate, the reference for `ciphertext_average`."""
    if math.prod(len(factor) for factor in factors) != expected:
        raise SchemeError("key factors disagree with key_count")
    total = rho
    for factor in factors:
        acc = np.zeros_like(rho.mat)
        for key in factor:
            acc += scheme.encrypt(key, total).mat
        total = _dense(acc)
    return _dense(total.mat / expected)


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
        encrypt_word=_word_on(n),
        transport=lambda k, c: PauliKey.identity(n),
        allows=lambda c: c.is_identity_channel(),
        key_from_pauli=from_pauli,
    )
