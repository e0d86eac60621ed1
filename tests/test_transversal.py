"""Transversal gates as column ranges: `apply_transversal` on both backends
against the per-gate word, the logical CZ that replaces H; CNOT; H, the
operand checks, and the engine, word-check and permutation calls of one
encrypted QEC cycle."""
import collections

import numpy as np
import pytest

from qhelab import paulis, permkey, qec, states
from qhelab.paulis import CLIFFORD_GATES, PauliString, random_clifford
from qhelab.permkey import PermClient, PermKey, RegisterError, SpreadRegister
from qhelab.states import BackendError, DensityMatrix, StabilizerState
from test_row_kernels import _qec_cycle


def _random_state(backend, n, rng):
    """A random stabilizer state on n qubits, mixed on about a quarter of
    them, as `backend`."""
    spec = "".join(rng.choice(list("01+-im**"), n))
    stab = StabilizerState.product(spec).apply_clifford(random_clifford(n, rng))
    return stab if backend is StabilizerState else stab.to_density()


def _random_slots(rng, n: int, arity: int) -> list[range]:
    """`arity` disjoint step-1 ranges of one random length in range(n),
    at random offsets and in random order."""
    length = int(rng.integers(0, n // arity + 1))
    cuts = np.sort(rng.integers(0, n - arity * length + 1, arity))
    slots = [range(int(c) + i * length, int(c) + (i + 1) * length)
             for i, c in enumerate(cuts)]
    return [slots[i] for i in rng.permutation(arity)]


def _per_gate(state, name, slots):
    """The reference: the word the slots stand for, one gate at a time."""
    for qs in zip(*slots):
        state = state.apply_gates([(name, qs)])
    return state


def _assert_same_tableau(a, b):
    for u, v in ((a.x, b.x), (a.z, b.z), (a.phase, b.phase)):
        assert np.array_equal(u, v)


def _arity(name):
    return paulis._GATE_ARITY[name]


class TestApplyTransversal:
    @pytest.mark.parametrize("name", CLIFFORD_GATES)
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_tableau_rows_match_per_gate(self, name, m):
        """Slots are whole rows of a 3-row factor, rows in either order."""
        rng = np.random.default_rng([m, CLIFFORD_GATES.index(name)])
        n_cols = 2 * m
        state = _random_state(StabilizerState, 3 * n_cols, rng)
        for rows in ([2, 0], [0, 1], [1, 2]):
            slots = [range(r * n_cols, (r + 1) * n_cols)
                     for r in rows[:_arity(name)]]
            _assert_same_tableau(state.apply_transversal(name, slots),
                                 _per_gate(state, name, slots))

    @pytest.mark.parametrize("name", CLIFFORD_GATES)
    @pytest.mark.parametrize("seed", range(8))
    def test_tableau_random_ranges_match_per_gate(self, name, seed):
        rng = np.random.default_rng([seed, CLIFFORD_GATES.index(name), 1])
        n = int(rng.integers(2, 31))
        state = _random_state(StabilizerState, n, rng)
        slots = _random_slots(rng, n, _arity(name))
        _assert_same_tableau(state.apply_transversal(name, slots),
                             _per_gate(state, name, slots))

    @pytest.mark.parametrize("name", CLIFFORD_GATES + ("T",))
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_matches_per_gate(self, name, seed):
        rng = np.random.default_rng([seed, len(name), 2])
        n = int(rng.integers(2, 7))
        state = _random_state(DensityMatrix, n, rng)
        slots = _random_slots(rng, n, _arity(name))
        got = state.apply_transversal(name, slots)
        assert np.array_equal(got.mat, _per_gate(state, name, slots).mat)

    def test_register_pair_matches_word(self):
        """On a 7-row concatenated factor, a logical gate between two rows
        is the per-column word on the rows' column ranges."""
        m = 3
        reg = permkey.build_concatenated_code(qec.steane_code(), m).encode("+")
        (f,) = reg.factors
        for name, rows in (("CNOT", (5, 2)), ("CZ", (1, 4)), ("SWAP", (6, 0))):
            before = f.state
            reg.transversal_pair(name, *rows)
            word = [(name, (a, b)) for a, b in zip(
                *(range(r * 2 * m, (r + 1) * 2 * m) for r in rows))]
            _assert_same_tableau(f.state, before.apply_gates(word))


def _cz_registers(m: int, plaintext):
    """Two equal registers: a data row, a |1> and a |+> row."""
    regs = []
    for _ in range(2):
        reg = SpreadRegister(m)
        reg.add_data_row(plaintext)
        reg.add_ancilla_row("one")
        reg.add_ancilla_row("plus")
        regs.append(reg)
    return regs


class TestLogicalCZ:
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_cz_equals_h_cnot_h_on_tableau(self, m):
        for control, row in ((1, 0), (2, 0), (0, 2)):
            cz, hch = _cz_registers(m, "+")
            cz.controlled_z(control, row)
            hch.transversal_single(row, "H")
            hch.transversal_pair("CNOT", control, row)
            hch.transversal_single(row, "H")
            assert [f.rows for f in cz.factors] == [f.rows for f in hch.factors]
            for a, b in zip(cz.factors, hch.factors):
                _assert_same_tableau(a.state, b.state)

    def test_cz_equals_h_cnot_h_on_dense(self):
        plain = DensityMatrix.random_pure(1, np.random.default_rng(3))
        cz, hch = _cz_registers(1, plain)
        cz.controlled_z(1, 0)
        hch.transversal_single(0, "H")
        hch.transversal_pair("CNOT", 1, 0)
        hch.transversal_single(0, "H")
        a, b = cz.factors[-1].state, hch.factors[-1].state
        assert a.BACKEND == b.BACKEND == "dense"
        assert np.abs(a.mat - b.mat).max() < 1e-15

    def test_z_coupling_needs_odd_m(self):
        reg = SpreadRegister(2)
        data = reg.add_data_row("0")
        control = reg.add_ancilla_row("one")
        # a |+> row cannot be spread at even m: stand one in by role
        plus = reg._add_factor_row("plus", StabilizerState.product("++++"))
        snapshot = reg.to_json()
        with pytest.raises(RegisterError):
            permkey.apply_conditional_logical(reg, "Z", data, control)
        with pytest.raises(RegisterError):
            reg.controlled_z(control, data)
        client = PermClient(PermKey.identity(2), np.random.default_rng(0))
        with pytest.raises(RegisterError):
            permkey.encrypted_syndrome_protocol(
                reg, PauliString.from_label("Z"), [data], plus, client,
                np.random.default_rng(1))
        assert reg.to_json() == snapshot
        permkey.apply_conditional_logical(reg, "X", data, control)


BAD_SLOTS = [
    ("CNOT", [range(0, 3), range(2, 5)]),      # overlapping
    ("CNOT", [range(1, 3), range(1, 3)]),      # the same range twice
    ("SWAP", [range(3, 5), range(0, 4)]),      # unequal and overlapping
    ("H", [range(4, 8)]),                      # leaves the register
    ("H", [range(-1, 2)]),                     # negative start
    ("CZ", [range(0, 2), range(5, 7)]),        # second slot leaves
    ("CNOT", [range(0, 2), range(3, 6)]),      # unequal lengths
    ("H", [range(0, 2), range(2, 4)]),         # arity 1 given 2 slots
    ("CNOT", [range(0, 3)]),                   # arity 2 given 1 slot
    ("CZ", []),                                # no slots
    ("H", [[0, 1, 2]]),                        # not a range
    ("H", [range(0, 6, 2)]),                   # not step 1
    ("CCX", [range(0, 1)]),                    # not a gate
    ("M", [range(0, 1)]),                      # not a unitary gate
]


class TestBadOperands:
    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    @pytest.mark.parametrize("name,slots", BAD_SLOTS)
    def test_bad_slots_raise(self, backend, name, slots):
        state = backend.product("0+1-i0")
        with pytest.raises(BackendError):
            state.apply_transversal(name, slots)

    def test_t_only_on_dense(self):
        with pytest.raises(BackendError):
            StabilizerState.product("0+").apply_transversal("T", [range(0, 2)])
        DensityMatrix.product("0+").apply_transversal("T", [range(0, 2)])

    @pytest.mark.parametrize("m", [1, 3])
    def test_pair_on_one_row_raises(self, m):
        reg = SpreadRegister(m)
        row = reg.add_data_row("+")
        reg.add_ancilla_row("magic" if m == 1 else "zero")
        with pytest.raises(BackendError):
            reg.transversal_pair("CNOT", row, row)
        with pytest.raises(BackendError):
            reg.transversal_pair("CZ", 1, 1)

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    @pytest.mark.parametrize("perm", [[0, 1], [0, 1, 1], [0, 1, 3],
                                      [-1, 0, 1], [0, 1, 2, 3], [[0, 1, 2]],
                                      [2, 2, 0]])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_bad_perm_raises(self, backend, perm, as_array):
        state = backend.product("0+1")
        with pytest.raises(BackendError):
            state.permute_qubits(np.array(perm) if as_array else perm)

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    def test_array_perm_equals_list_perm(self, backend):
        state = _random_state(backend, 4, np.random.default_rng(5))
        perm = [2, 0, 3, 1]
        a = state.permute_qubits(perm).to_density().mat
        b = state.permute_qubits(np.array(perm)).to_density().mat
        assert np.array_equal(a, b)


class _Calls:
    """Counts calls of wrapped callables, apart from those made while an
    encoder is built (`qec.steane_code` synthesizes its Clifford) or run
    (`ConcatenatedSpreadCode.encode`), which are counted separately."""

    def __init__(self, monkeypatch):
        self.mp = monkeypatch
        self.outside = collections.Counter()
        self.encoding = collections.Counter()
        self.in_encoder = False
        for owner, name in ((qec, "steane_code"),
                            (permkey.ConcatenatedSpreadCode, "encode")):
            self._flag(owner, name)

    def _flag(self, owner, name: str) -> None:
        inner = getattr(owner, name)

        def flagged(*args, **kwargs):
            self.in_encoder = True
            try:
                return inner(*args, **kwargs)
            finally:
                self.in_encoder = False
        self.mp.setattr(owner, name, flagged)

    def book(self, key: str, calls: int = 1) -> None:
        (self.encoding if self.in_encoder else self.outside)[key] += calls

    def count(self, owner, name: str, key: str) -> None:
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.book(key)
            return inner(*args, **kwargs)
        self.mp.setattr(owner, name, counted)


def _interleaves(reg: SpreadRegister, rows) -> bool:
    """Do the factors that hold `rows` leave rows out of place when they
    are concatenated in order of their first row?"""
    owners = sorted({id(f): f for f in (reg._owner[r] for r in rows)}.values(),
                    key=lambda f: f.rows[0])
    order = [r for f in owners for r in f.rows]
    return order != sorted(order)


class TestCycleCalls:
    def test_transversal_gates_skip_the_word_path(self, monkeypatch):
        """Over one encrypted Steane x spread QEC cycle at m = 5: the word
        check and the run folding serve only the encoder, each transversal
        gate is one engine call, and the only qubit permutations are one
        per factor at encrypt and decrypt plus one per merge whose rows
        interleave."""
        calls = _Calls(monkeypatch)
        calls.count(paulis, "_check_word", "check_word")
        calls.count(states, "_check_word", "check_word")
        calls.count(states, "_gate_runs", "gate_runs")
        calls.count(states, "_apply_gate_rows", "engine")
        for name in ("transversal_single", "transversal_pair"):
            calls.count(SpreadRegister, name, "transversal")
        for backend in (StabilizerState, DensityMatrix):
            calls.count(backend, "permute_qubits", "permute")
        permute_columns = SpreadRegister.permute_columns
        merge = SpreadRegister._merge

        def counted_permute_columns(reg, key):
            calls.book("expected_permute", len(reg.factors))
            return permute_columns(reg, key)

        def counted_merge(reg, rows):
            calls.book("expected_permute", int(_interleaves(reg, rows)))
            return merge(reg, rows)
        monkeypatch.setattr(SpreadRegister, "permute_columns",
                            counted_permute_columns)
        monkeypatch.setattr(SpreadRegister, "_merge", counted_merge)

        plain, value, bits = _qec_cycle(101, 1)
        assert value == (-1 if plain == "1" else 1)
        assert len(bits) == 6
        enc, out = calls.encoding, calls.outside
        assert enc["check_word"] > 0 and enc["gate_runs"] > 0
        assert out["check_word"] == 0 and out["gate_runs"] == 0
        assert out["transversal"] > 0
        assert out["engine"] == out["transversal"]
        assert out["expected_permute"] > 0
        assert out["permute"] == out["expected_permute"]

    @pytest.mark.parametrize("middle", ["+", "magic"])
    def test_interleaved_merge_matches_dense_oracle(self, monkeypatch, middle):
        """Rows 0 and 2 merge in order; row 1 then lands between them, and
        that merge alone permutes qubits.  The factor equals the dense
        product of the rows under the same gate word."""
        reg = SpreadRegister(1)
        reg.add_data_row("0")
        if middle == "magic":
            reg.add_ancilla_row("magic")
        else:
            reg.add_data_row(middle)
        reg.add_data_row("1")
        rho = reg.factors[0].state.to_density()
        for f in reg.factors[1:]:
            rho = rho.tensor(f.state)
        calls = _Calls(monkeypatch)
        for backend in (StabilizerState, DensityMatrix):
            calls.count(backend, "permute_qubits", "permute")
        reg.transversal_pair("CNOT", 0, 2)
        assert calls.outside["permute"] == 0
        reg.transversal_pair("CZ", 1, 0)
        assert calls.outside["permute"] == 1
        (f,) = reg.factors
        assert f.rows == [0, 1, 2]
        want = rho.apply_gates([("CNOT", (0, 4)), ("CNOT", (1, 5)),
                                ("CZ", (2, 0)), ("CZ", (3, 1))])
        assert np.abs(f.state.to_density().mat - want.mat).max() < 1e-12
