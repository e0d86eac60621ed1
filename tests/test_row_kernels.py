"""Row-level stabilizer kernels: the fused measure-and-discard of a list of
qubits, and transversal gates folded into one column-sliced update."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhelab import gf2, permkey, qec, states
from qhelab.paulis import CLIFFORD_GATES, PauliString, random_clifford
from qhelab.states import (BackendError, DensityMatrix, StabilizerState,
                           ZeroProbabilityError, trace_distance)


def _random_state(backend, n, rng):
    """A random stabilizer state on n qubits, mixed on about a third of
    them, as `backend`."""
    spec = "".join(rng.choice(list("01+-im**"), n))
    stab = StabilizerState.product(spec).apply_clifford(random_clifford(n, rng))
    return stab if backend is StabilizerState else stab.to_density()


def _sequential(state, qs, rng, discard=None):
    """The reference: one Z measurement per qubit, then one discard (the
    state's own `discard_qubits` unless `discard` is given)."""
    bits = []
    for q in qs:
        zq = PauliString.single(state.n_qubits, q, "Z")
        state, rec = state.measure_pauli(zq, rng)
        bits.append(rec.outcome)
    return (discard or type(state).discard_qubits)(state, qs), bits


def _same_group(a: StabilizerState, b: StabilizerState) -> bool:
    return (a.n_qubits == b.n_qubits and len(a.phase) == len(b.phase)
            and all(b.expectation(g) == 1 for g in a.generators)
            and all(a.expectation(g) == 1 for g in b.generators))


def _case(seed, n_max):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, n + 1))
    qs = [int(q) for q in rng.permutation(n)[:k]]
    return rng, n, qs, int(rng.integers(2 ** 32))


class TestMeasureDiscard:
    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_stabilizer_matches_sequential(self, seed):
        rng, n, qs, draw_seed = _case(seed, 10)
        state = _random_state(StabilizerState, n, rng)
        ref_rng, rng = (np.random.default_rng(draw_seed) for _ in range(2))
        want, want_bits = _sequential(state, qs, ref_rng)
        got, bits = state.measure_discard(qs, rng)
        assert bits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert _same_group(got, want)
        assert got._validate() is None

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_dense_matches_sequential(self, seed):
        rng, n, qs, draw_seed = _case(seed, 6)
        state = _random_state(DensityMatrix, n, rng)
        ref_rng, rng = (np.random.default_rng(draw_seed) for _ in range(2))
        want, want_bits = _sequential(state, qs, ref_rng)
        got, bits = state.measure_discard(qs, rng)
        assert bits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(got.mat, want.mat)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_stabilizer_agrees_with_dense_oracle(self, seed):
        """The tableau's post-measurement state is the dense projection
        onto the bits it drew."""
        rng, n, qs, draw_seed = _case(seed, 6)
        stab = _random_state(StabilizerState, n, rng)
        got, bits = stab.measure_discard(qs, np.random.default_rng(draw_seed))
        dense = stab.to_density()
        for q, bit in zip(qs, bits):
            dense, _ = dense.measure_pauli(
                PauliString.single(n, q, "Z"), rng, force=bit)
        dense = dense.discard_qubits(qs)
        assert trace_distance(got.to_density(), dense) < 1e-10

    def test_deterministic_outcomes_draw_nothing(self):
        rng = np.random.default_rng(0)
        state, bits = StabilizerState.product("01+").measure_discard([1, 0], rng)
        assert bits == [1, 0]
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
        assert [g.label() for g in state.generators] == ["+X"]

    def test_parity_fixed_by_earlier_outcomes(self):
        """Bell pair: the first outcome is uniform, the second copies it."""
        bell = StabilizerState.product("00").apply_gates(
            [("H", (0,)), ("CNOT", (0, 1))])
        for seed in range(8):
            _, bits = bell.measure_discard([1, 0], np.random.default_rng(seed))
            assert bits[0] == bits[1]

    def test_row_longer_than_a_machine_word(self):
        """GHZ on 70 qubits read backwards: one uniform bit, 69 copies."""
        n = 70
        ghz = StabilizerState.zero(n).apply_gates(
            [("H", (0,))] + [("CNOT", (0, q)) for q in range(1, n)])
        for seed in range(4):
            rng = np.random.default_rng(seed)
            _, bits = ghz.measure_discard(list(range(n))[::-1], rng)
            assert bits == [bits[0]] * n
            assert bits[0] == np.random.default_rng(seed).integers(0, 2)

    def test_whole_register(self):
        state, bits = StabilizerState.product("1*0").measure_discard(
            [2, 1, 0], np.random.default_rng(5))
        assert state.n_qubits == 0 and bits[0] == 0 and bits[2] == 1


def _eliminate_discard(state: StabilizerState, qs) -> StabilizerState:
    """The reference partial trace: every generator Gaussian-eliminated
    over the discarded x columns, then their z columns, one column at a
    time; pivots leave and the rest is restricted to the kept qubits."""
    x, z, phase = state.x.copy(), state.z.copy(), state.phase.copy()
    alive = np.ones(len(phase), bool)
    for bits in (x, z):
        for q in qs:
            hits = (bits[:, q] & alive).nonzero()[0]
            if len(hits):
                states._multiply_rows(x, z, phase, hits[1:], hits[0])
                alive[hits[0]] = False
    x, z, phase = x[alive], z[alive], phase[alive]
    assert not x[:, qs].any() and not z[:, qs].any()
    keep = np.ones(state.n_qubits, bool)
    keep[list(qs)] = False
    return states._tableau(int(keep.sum()), x[:, keep], z[:, keep], phase)


QS_SHAPES = ["contiguous", "scattered", "unsorted", "empty", "whole"]


def _qubits(shape: str, n: int, rng) -> list[int]:
    """Qubits to measure or discard on n qubits, of the named shape."""
    if shape == "contiguous":
        k = int(rng.integers(1, n + 1))
        start = int(rng.integers(0, n - k + 1))
        return list(range(start, start + k))
    if shape == "empty":
        return []
    if shape == "whole":
        return list(range(n))
    qs = [int(q) for q in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
    return sorted(qs) if shape == "scattered" else qs


def _register_factor(seed: int):
    """A m = 5 spread register merged into one tableau factor by random
    transversal gates, encrypted under a random key: (state, row ranges)."""
    rng = np.random.default_rng(seed)
    reg = permkey.SpreadRegister(5)
    for ch in rng.choice(list("01+-im"), 2):
        reg.add_data_row(str(ch))
    for role in rng.choice(["plus", "zero", "one", "plusi"], 3):
        reg.add_ancilla_row(str(role))
    rows = list(range(5))
    for _ in range(8):
        if rng.integers(3):
            a, b = (int(r) for r in rng.choice(rows, 2, replace=False))
            reg.transversal_pair(str(rng.choice(["CNOT", "CZ"])), a, b)
        else:
            reg.transversal_single(int(rng.choice(rows)),
                                   str(rng.choice(["H", "S", "X", "Z"])))
    for a, b in zip(rows, rows[1:]):
        reg.transversal_pair("CNOT", a, b)
    reg.encrypt(permkey.PermKey.sample(5, rng))
    (f,) = reg.factors
    return f.state, [f.columns(row, reg.n_cols) for row in f.rows]


class TestRowReduction:
    """`discard_qubits` and `measure_discard` reduce only the generators
    with support on the qubits: the same group as the column-by-column
    elimination, and for measurements the same bits and draws as one
    `measure_pauli` per qubit."""

    @staticmethod
    def _assert_discard(state, qs):
        got = state.discard_qubits(qs)
        assert _same_group(got, _eliminate_discard(state, qs))
        assert got._validate() is None

    @staticmethod
    def _assert_measure(state, qs, draw_seed):
        ref_rng, rng = (np.random.default_rng(draw_seed) for _ in range(2))
        want, want_bits = _sequential(state, qs, ref_rng, _eliminate_discard)
        got, bits = state.measure_discard(qs, rng)
        assert bits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert _same_group(got, want)
        assert got._validate() is None

    @given(st.integers(0, 10 ** 9), st.sampled_from(QS_SHAPES))
    @settings(max_examples=150, deadline=None)
    def test_random_states(self, seed, shape):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        state = _random_state(StabilizerState, n, rng)
        qs = _qubits(shape, n, rng)
        self._assert_discard(state, qs)
        self._assert_measure(state, qs, int(rng.integers(2 ** 32)))

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=25, deadline=None)
    def test_register_rows(self, seed):
        state, rows = _register_factor(seed)
        rng = np.random.default_rng(seed)
        for row in rows:
            self._assert_discard(state, row)
            self._assert_measure(state, list(row), int(rng.integers(2 ** 32)))
        for shape in QS_SHAPES:
            qs = _qubits(shape, state.n_qubits, rng)
            self._assert_discard(state, qs)
            self._assert_measure(state, qs, int(rng.integers(2 ** 32)))

    def test_one_row_product_per_touched_generator(self, monkeypatch):
        """Over one encrypted Steane x spread cycle at m = 5, each
        measurement, and the one reduction that traces out every
        discarded row at the final read, forms at most one relation
        product per generator with support on its qubits.  (On other qubit lists a
        measurement can form more: on X0, X0Z1Z3, X0Z2Z4, Z3, Z4 measuring
        qubits 0-2 forms four, two per reduction step.)"""
        products = _Counter(monkeypatch, states, "_row_product")
        seen = []
        for name in ("discard_qubits", "measure_discard"):
            inner = getattr(StabilizerState, name)

            def counted(state, qs, *rest, inner=inner):
                cols = list(qs)
                touched = int((state.x[:, cols].any(1)
                               | state.z[:, cols].any(1)).sum())
                products.take()
                out = inner(state, qs, *rest)
                seen.append((products.take(), touched))
                return out
            monkeypatch.setattr(StabilizerState, name, counted)
        plain, value, _ = _qec_cycle(101, 1)
        assert value == (-1 if plain == "1" else 1)
        assert len(seen) == 6 + 1
        assert sum(calls for calls, _ in seen) > 0
        assert all(calls <= touched for calls, touched in seen)


def _random_dense(n, rng):
    """A random pure or full-rank mixed state on n qubits, with no dyadic
    structure, so every kernel rounds."""
    if rng.integers(2):
        return DensityMatrix.random_pure(n, rng)
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


class _StubRng:
    """Draws 0.0 forever: outcome 0 whenever p0 > 0."""

    def random(self):
        return 0.0


class TestDenseMeasureDiscard:
    """The dense diagonal-block selection against one `measure_pauli` per
    qubit then a discard, on states whose entries are not dyadic."""

    @staticmethod
    def _assert_matches(state, qs, draw_seed):
        ref_rng, rng = (np.random.default_rng(draw_seed) for _ in range(2))
        want, want_bits = _sequential(state, qs, ref_rng)
        got, bits = state.measure_discard(qs, rng)
        assert bits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert got.mat.shape == want.mat.shape
        assert np.max(np.abs(got.mat - want.mat)) < 1e-13

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_non_dyadic_matches_sequential(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        qs = [int(q) for q in rng.permutation(n)[:k]]
        self._assert_matches(_random_dense(n, rng), qs, int(rng.integers(2 ** 32)))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_empty_list(self, n):
        state = _random_dense(n, np.random.default_rng(n))
        self._assert_matches(state, [], 0)
        got, bits = state.measure_discard([], np.random.default_rng(0))
        assert bits == [] and got.n_qubits == n

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_whole_register(self, n):
        rng = np.random.default_rng(10 + n)
        state = _random_dense(n, rng)
        qs = [int(q) for q in rng.permutation(n)]
        self._assert_matches(state, qs, 3)
        got, bits = state.measure_discard(qs, np.random.default_rng(3))
        assert got.n_qubits == 0 and len(bits) == n
        assert got.mat == pytest.approx(np.ones((1, 1)), abs=1e-15)

    def test_zero_probability_guard(self):
        """A stub draw of 0.0 picks qubit 0's outcome 0, of mass 1/2, then
        qubit 1's outcome 0, of conditional probability 2e-13; both
        kernels refuse it."""
        rho = np.diag([1e-13, 0.5 - 1e-13, 0.25, 0.25]).astype(complex)
        state = DensityMatrix(rho)
        with pytest.raises(ZeroProbabilityError):
            _sequential(state, [0, 1], _StubRng())
        with pytest.raises(ZeroProbabilityError):
            state.measure_discard([0, 1], _StubRng())


class TestQubitChecks:
    @pytest.mark.parametrize("qs", [[-1], [5], [0, 0], [1, 2, 1]])
    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    def test_bad_qubits_raise(self, backend, qs):
        state = backend.product("0+1")
        with pytest.raises(BackendError):
            state.discard_qubits(qs)
        with pytest.raises(BackendError):
            state.measure_discard(qs, np.random.default_rng(0))

    def test_negative_index_is_not_wrapped(self):
        with pytest.raises(BackendError):
            StabilizerState.product("0+").discard_qubits([-1])


def _layers(word):
    return [(name, tuple(qs)) for name, qs in word]


LAYERED = {
    "H": [("H", (0,)), ("H", (2,)), ("H", (4,))],
    "S": [("S", (1,)), ("S", (3,)), ("S", (0,))],
    "X": [("X", (0,)), ("X", (1,)), ("X", (5,))],
    "Y": [("Y", (2,)), ("Y", (3,)), ("Y", (4,))],
    "Z": [("Z", (5,)), ("Z", (0,)), ("Z", (3,))],
    "CNOT": [("CNOT", (0, 3)), ("CNOT", (1, 4)), ("CNOT", (5, 2))],
    "CZ": [("CZ", (0, 1)), ("CZ", (2, 3)), ("CZ", (4, 5))],
    "SWAP": [("SWAP", (0, 5)), ("SWAP", (1, 4)), ("SWAP", (2, 3))],
}

# runs that must not fuse: a shared qubit makes the order matter
UNFUSABLE = [
    [("CNOT", (0, 1)), ("CNOT", (1, 2))],
    [("CNOT", (0, 1)), ("CNOT", (2, 0))],
    [("H", (0,)), ("H", (0,)), ("H", (1,))],
    [("S", (2,)), ("S", (2,))],
    [("SWAP", (0, 1)), ("SWAP", (1, 2)), ("SWAP", (3, 4))],
    [("CZ", (0, 1)), ("CZ", (1, 0))],
    [("CNOT", (0, 1)), ("CZ", (2, 3)), ("CNOT", (4, 5))],
]


class TestTransversalFold:
    @pytest.mark.parametrize("name", CLIFFORD_GATES)
    def test_layer_matches_per_gate(self, name):
        assert set(LAYERED) == set(CLIFFORD_GATES)
        rng = np.random.default_rng(sorted(CLIFFORD_GATES).index(name))
        state = _random_state(StabilizerState, 6, rng)
        word = LAYERED[name] * 2
        assert len(list(states._gate_runs(_layers(word)))) == 2
        self._assert_per_gate(state, word)

    @pytest.mark.parametrize("word", UNFUSABLE)
    def test_unfusable_runs_stay_apart(self, word):
        rng = np.random.default_rng(len(word))
        state = _random_state(StabilizerState, 6, rng)
        runs = list(states._gate_runs(_layers(word)))
        assert sum(len(np.atleast_1d(slots[0])) for _, slots in runs) == len(word)
        # the first gate runs alone: the second one shares a qubit or a name
        assert len(runs) >= 2 and np.ndim(runs[0][1][0]) == 0
        self._assert_per_gate(state, word)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_layered_words(self, seed):
        """Random words of same-gate layers, some overlapping."""
        rng = np.random.default_rng(seed)
        n = 8
        state = _random_state(StabilizerState, n, rng)
        word = []
        for _ in range(6):
            name = str(rng.choice(CLIFFORD_GATES))
            arity = 2 if name in ("CNOT", "CZ", "SWAP") else 1
            for _ in range(int(rng.integers(1, 4))):
                word.append((name, tuple(int(q) for q in
                                         rng.choice(n, arity, replace=False))))
        self._assert_per_gate(state, word)

    @staticmethod
    def _assert_per_gate(state, word):
        got = state.apply_gates(word)
        want = state
        for gate in word:
            want = want.apply_gates([gate])
        for a, b in ((got.x, want.x), (got.z, want.z), (got.phase, want.phase)):
            assert np.array_equal(a, b)


class _Counter:
    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def take(self) -> int:
        calls, self.calls = self.calls, 0
        return calls


class TestRowKernelCounts:
    def test_one_update_per_gate_one_solve_per_row(self, monkeypatch):
        """At m = 5 a transversal gate is one engine call and measuring a
        row is at most one GF(2) solve."""
        code = qec.steane_code()
        reg = permkey.build_concatenated_code(code, 5).encode("0")
        anc = [reg.add_ancilla_row("plus") for _ in code.generators]
        client = permkey.PermClient(key=permkey.PermKey.identity(5),
                                    rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        engine = _Counter(monkeypatch, states, "_apply_gate_rows")
        solves = _Counter(monkeypatch, gf2, "solve")
        reg.transversal_single(3, "X")
        assert engine.take() == 1
        for a, stab in zip(anc, code.generators):
            for i in range(code.n):
                letter = stab.restricted_letter(i)
                if letter == "I":
                    continue
                if letter == "Z":
                    reg.transversal_single(i, "H")
                    assert engine.take() == 1
                reg.transversal_pair("CNOT", a, i)
                assert engine.take() == 1
                if letter == "Z":
                    reg.transversal_single(i, "H")
                    assert engine.take() == 1
            reg.transversal_single(a, "H")
            assert engine.take() == 1
            bits = reg.measure_row(a, rng)
            assert solves.take() <= 1
            assert engine.take() == 0
            # X_3 flips exactly the generators with Z on row 3
            assert client.parity(bits) == int(stab.restricted_letter(3) == "Z")

    def test_dense_measure_discard_selects_one_block(self, monkeypatch):
        """The dense kernel neither measures qubit by qubit nor traces
        out: it reads the diagonal and selects one block."""
        measures = _Counter(monkeypatch, DensityMatrix, "measure_pauli")
        traces = _Counter(monkeypatch, DensityMatrix, "discard_qubits")
        state = _random_dense(4, np.random.default_rng(2))
        got, bits = state.measure_discard([2, 0], np.random.default_rng(5))
        assert (measures.take(), traces.take()) == (0, 0)
        assert got.n_qubits == 2 and len(bits) == 2
        reg = permkey.SpreadRegister(1)
        data = reg.add_data_row("+")
        magic = reg.add_ancilla_row("magic")
        reg.transversal_pair("CNOT", data, magic)
        reg.measure_row(magic, np.random.default_rng(0))
        assert (measures.take(), traces.take()) == (0, 0)


# sha256 of the concatenated QEC cycle's outputs and measured row bits
# (Steane x spreading at m = 5), recorded from a column-by-column
# measurement loop with one engine call per gate; the row kernels must
# reproduce it bit for bit
CYCLE_SHA256 = "3fc483b88e95f60f8bb82b842c8e3a9f06abca8a0bbfd6babb85c1b4eb648d12"


def _qec_cycle(seed: int, i: int):
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


def test_qec_cycle_outputs_pinned():
    runs = [_qec_cycle(seed, i) for seed in (101, 7) for i in range(6)]
    for plain, value, _ in runs:
        assert value == (-1 if plain == "1" else 1)
    blob = json.dumps(runs, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == CYCLE_SHA256
