"""Row-level stabilizer kernels: the fused measure-and-discard of a list of
qubits, one column-sliced engine call per transversal gate, and the pinned
encrypted QEC cycle."""
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (Calls, ScriptedRng, qec_cycle, random_dense,
                     random_state, same_group, sequential)
from qhelab import gf2, permkey, qec, states
from qhelab.states import (BackendError, DensityMatrix, StabilizerState,
                           ZeroProbabilityError)


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
        state = random_state(StabilizerState, n, rng)
        ref_rng, rng = (np.random.default_rng(draw_seed) for _ in range(2))
        want, want_bits = sequential(state, qs, ref_rng)
        got, bits = state.measure_discard(qs, rng)
        assert bits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert same_group(got, want)
        assert got._validate() is None

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_dense_matches_sequential(self, seed):
        rng, n, qs, draw_seed = _case(seed, 6)
        state = random_state(DensityMatrix, n, rng)
        ref_rng, rng = (np.random.default_rng(draw_seed) for _ in range(2))
        want, want_bits = sequential(state, qs, ref_rng)
        got, bits = state.measure_discard(qs, rng)
        assert bits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(got.mat, want.mat)

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
        assert same_group(got, _eliminate_discard(state, qs))
        assert got._validate() is None

    @staticmethod
    def _assert_measure(state, qs, draw_seed):
        ref_rng, rng = (np.random.default_rng(draw_seed) for _ in range(2))
        want, want_bits = sequential(state, qs, ref_rng, _eliminate_discard)
        got, bits = state.measure_discard(qs, rng)
        assert bits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert same_group(got, want)
        assert got._validate() is None

    @given(st.integers(0, 10 ** 9), st.sampled_from(QS_SHAPES))
    @settings(max_examples=150, deadline=None)
    def test_random_states(self, seed, shape):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        state = random_state(StabilizerState, n, rng)
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
        """Over one encrypted Steane x spread cycle at m = 5, each of the
        6 row measurements and each of the 14 merge-free corrections forms
        at most one relation product per generator with support on its
        qubits; no reduction is left for the final read.  (On other qubit
        lists a measurement can form more: on X0, X0Z1Z3, X0Z2Z4, Z3, Z4
        measuring qubits 0-2 forms four, two per reduction step.)"""
        calls = Calls(monkeypatch)
        calls.count(states, "_row_product", "product")

        def touched(state, qs):
            qs = list(qs)
            return int((state.x[:, qs].any(1) | state.z[:, qs].any(1)).sum())
        for name in ("discard_qubits", "measure_discard"):
            calls.count(StabilizerState, name, "reduce", scope=True,
                        note=lambda state, qs, *_: touched(state, qs))
        calls.count(permkey, "_controlled_discard", "correct", scope=True,
                    note=lambda target, control, name, cols: touched(target, cols))
        plain, value, _ = qec_cycle(101, 1)
        assert value == (-1 if plain == "1" else 1)
        seen = [(key, c["product"], touched) for key, touched, c in calls.scopes]
        assert [key for key, _, _ in seen] == ["reduce"] * 6 + ["correct"] * 14
        assert sum(products for _, products, _ in seen) > 0
        assert all(products <= touched for _, products, touched in seen)


class TestDenseMeasureDiscard:
    """The dense diagonal-block selection against one `measure_pauli` per
    qubit then a discard, on states whose entries are not dyadic."""

    @staticmethod
    def _assert_matches(state, qs, draw_seed):
        """The entries agree within ((k + 1)(2^n + 1) eps + |tr rho - 1|) / P
        for k measured qubits and P the drawn block's probability.

        The reference renormalises once per measured qubit, by a p_i
        summed over the 2^n diagonal entries of a state of trace about 1:
        each p_i is off by at most 2^n eps, and each division by it adds
        at most 2^n eps / p_i + eps relative error.  Every p_i is at least
        P, their product.  The kernel divides once, by the block's mass, a
        sum of at most 2^n entries, and so normalises the input's trace as
        well, which the reference leaves as it is when k = 0.  Entries of a
        state are at most 1 in modulus, so relative errors bound absolute
        ones."""
        ref_rng, rng = (np.random.default_rng(draw_seed) for _ in range(2))
        want, want_bits = sequential(state, qs, ref_rng)
        got, bits = state.measure_discard(qs, rng)
        assert bits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert got.mat.shape == want.mat.shape
        n = state.n_qubits
        block = [slice(None)] * n
        for q, bit in zip(qs, bits):
            block[q] = bit
        prob = np.diagonal(state.mat).real.reshape((2,) * n)[tuple(block)].sum()
        drift = abs(np.trace(state.mat).real - 1)
        eps = np.finfo(float).eps
        bound = ((len(qs) + 1) * (2 ** n + 1) * eps + drift) / prob
        assert np.max(np.abs(got.mat - want.mat)) <= bound

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_non_dyadic_matches_sequential(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        qs = [int(q) for q in rng.permutation(n)[:k]]
        self._assert_matches(random_dense(n, rng), qs, int(rng.integers(2 ** 32)))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_empty_list(self, n):
        state = random_dense(n, np.random.default_rng(n))
        self._assert_matches(state, [], 0)
        got, bits = state.measure_discard([], np.random.default_rng(0))
        assert bits == [] and got.n_qubits == n

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_whole_register(self, n):
        rng = np.random.default_rng(10 + n)
        state = random_dense(n, rng)
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
            sequential(state, [0, 1], ScriptedRng(itertools.repeat(0.0)))
        with pytest.raises(ZeroProbabilityError):
            state.measure_discard([0, 1], ScriptedRng(itertools.repeat(0.0)))


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
        calls = Calls(monkeypatch)
        calls.count(states, "_apply_gate_rows", "engine")
        calls.count(gf2, "solve")
        reg.transversal_single(3, "X")
        assert calls.take("engine") == 1
        for a, stab in zip(anc, code.generators):
            for i in range(code.n):
                letter = stab.restricted_letter(i)
                if letter == "I":
                    continue
                if letter == "Z":
                    reg.transversal_single(i, "H")
                    assert calls.take("engine") == 1
                reg.transversal_pair("CNOT", a, i)
                assert calls.take("engine") == 1
                if letter == "Z":
                    reg.transversal_single(i, "H")
                    assert calls.take("engine") == 1
            reg.transversal_single(a, "H")
            assert calls.take("engine") == 1
            bits = reg.measure_row(a, rng)
            assert calls.take("solve") <= 1
            assert calls.take("engine") == 0
            # X_3 flips exactly the generators with Z on row 3
            assert client.parity(bits) == int(stab.restricted_letter(3) == "Z")

    def test_dense_measure_discard_selects_one_block(self, monkeypatch):
        """The dense kernel neither measures qubit by qubit nor traces
        out: it reads the diagonal and selects one block."""
        calls = Calls(monkeypatch)
        calls.count(DensityMatrix, "measure_pauli")
        calls.count(DensityMatrix, "discard_qubits")
        state = random_dense(4, np.random.default_rng(2))
        got, bits = state.measure_discard([2, 0], np.random.default_rng(5))
        assert (calls.take("measure_pauli"), calls.take("discard_qubits")) == (0, 0)
        assert got.n_qubits == 2 and len(bits) == 2
        reg = permkey.SpreadRegister(1)
        data = reg.add_data_row("+")
        magic = reg.add_ancilla_row("magic")
        reg.transversal_pair("CNOT", data, magic)
        reg.measure_row(magic, np.random.default_rng(0))
        assert (calls.take("measure_pauli"), calls.take("discard_qubits")) == (0, 0)


# sha256 of the concatenated QEC cycle's outputs and measured row bits
# (Steane x spreading at m = 5), recorded from a column-by-column
# measurement loop with one engine call per gate; the row kernels must
# reproduce it bit for bit
CYCLE_SHA256 = "3fc483b88e95f60f8bb82b842c8e3a9f06abca8a0bbfd6babb85c1b4eb648d12"


def test_qec_cycle_outputs_pinned():
    runs = [qec_cycle(seed, i) for seed in (101, 7) for i in range(6)]
    for plain, value, _ in runs:
        assert value == (-1 if plain == "1" else 1)
    blob = json.dumps(runs, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == CYCLE_SHA256
