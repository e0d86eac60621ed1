"""Transversal gates as column ranges: `apply_transversals` on both
backends against the per-gate word, the logical CZ that replaces H; CNOT;
H, the operand checks, the engine, word-check and permutation calls of one
encrypted QEC cycle, register programs whose discarded rows leave their
factor's state at its next read, and merge-free corrections and
teleports against the merged gate, measurement and discard they replace."""
import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (Calls, per_gate, qec_cycle, random_dense, random_state,
                     same_group, same_rows)
from qhelab import paulis, permkey, qec, states
from qhelab.paulis import CLIFFORD_GATES, PauliString, parse_circuit
from qhelab.permkey import PermClient, PermKey, RegisterError, SpreadRegister
from qhelab.protocol import run_session
from qhelab.states import BackendError, DensityMatrix, StabilizerState


def _random_slots(rng, n: int, arity: int) -> list[range]:
    """`arity` disjoint step-1 ranges of one random length in range(n),
    at random offsets and in random order."""
    length = int(rng.integers(0, n // arity + 1))
    cuts = np.sort(rng.integers(0, n - arity * length + 1, arity))
    slots = [range(int(c) + i * length, int(c) + (i + 1) * length)
             for i, c in enumerate(cuts)]
    return [slots[i] for i in rng.permutation(arity)]


def _word(name, slots):
    """The gate word a transversal gate on `slots` stands for."""
    return [(name, qs) for qs in zip(*slots)]


def _arity(name):
    return paulis._GATE_ARITY[name]


class TestApplyTransversal:
    @pytest.mark.parametrize("name", CLIFFORD_GATES)
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_tableau_rows_match_per_gate(self, name, m):
        """Slots are whole rows of a 3-row factor, rows in either order."""
        rng = np.random.default_rng([m, CLIFFORD_GATES.index(name)])
        n_cols = 2 * m
        state = random_state(StabilizerState, 3 * n_cols, rng)
        for rows in ([2, 0], [0, 1], [1, 2]):
            slots = [range(r * n_cols, (r + 1) * n_cols)
                     for r in rows[:_arity(name)]]
            assert same_rows(state.apply_transversals([(name, slots)]),
                             per_gate(state, _word(name, slots)))

    @pytest.mark.parametrize("name", CLIFFORD_GATES)
    @pytest.mark.parametrize("seed", range(8))
    def test_tableau_random_ranges_match_per_gate(self, name, seed):
        rng = np.random.default_rng([seed, CLIFFORD_GATES.index(name), 1])
        n = int(rng.integers(2, 31))
        state = random_state(StabilizerState, n, rng)
        slots = _random_slots(rng, n, _arity(name))
        assert same_rows(state.apply_transversals([(name, slots)]),
                         per_gate(state, _word(name, slots)))

    @pytest.mark.parametrize("name", CLIFFORD_GATES + ("T",))
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_matches_per_gate(self, name, seed):
        rng = np.random.default_rng([seed, len(name), 2])
        n = int(rng.integers(2, 7))
        state = random_state(DensityMatrix, n, rng)
        slots = _random_slots(rng, n, _arity(name))
        got = state.apply_transversals([(name, slots)])
        assert np.array_equal(got.mat, per_gate(state, _word(name, slots)).mat)

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    @pytest.mark.parametrize("seed", range(8))
    def test_word_matches_one_call_per_gate(self, backend, seed):
        """A word of transversal gates in one call is the same gates in
        one call each, byte for byte."""
        rng = np.random.default_rng([seed, 3])
        n = int(rng.integers(2, 7 if backend is DensityMatrix else 31))
        state = random_state(backend, n, rng)
        names = rng.choice(CLIFFORD_GATES, int(rng.integers(0, 6)))
        word = [(str(name), _random_slots(rng, n, _arity(name))) for name in names]
        got, want = state.apply_transversals(word), state
        for gate in word:
            want = want.apply_transversals([gate])
        if backend is StabilizerState:
            assert same_rows(got, want)
        else:
            assert np.array_equal(got.mat, want.mat)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_syndrome_round_matches_gate_by_gate(self, m):
        """`encrypted_syndrome_protocol` sends a round through one logical
        word: the same rows, bits and draws as its gates applied one
        `transversal_pair` at a time, then H and the row's measurement."""
        code = qec.steane_code()
        key = PermKey.sample(m, np.random.default_rng(m))
        client = PermClient(key, np.random.default_rng(0))
        for i, stab in enumerate(code.generators):
            regs, rngs = [], [np.random.default_rng([m, i]) for _ in range(2)]
            for _ in range(2):
                reg = permkey.build_concatenated_code(code, m).encode("01+"[i % 3])
                anc = reg.add_ancilla_row("plus")
                reg.encrypt(key)
                reg.transversal_single(i, "XZ"[i % 2])
                regs.append(reg)
            batched, stepwise = regs
            _, msgs = permkey.encrypted_syndrome_protocol(
                batched, stab, list(range(code.n)), anc, client, rngs[0])
            for r in range(code.n):
                letter = stab.restricted_letter(r)
                if letter != "I":
                    stepwise.transversal_pair("CNOT" if letter == "X" else "CZ",
                                              anc, r)
            stepwise.transversal_single(anc, "H")
            assert msgs[0]["payload"] == stepwise.measure_row(anc, rngs[1])
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            (a,), (b,) = batched.factors, stepwise.factors
            assert a.rows == b.rows and same_rows(a.state, b.state)

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
            assert same_rows(f.state, before.apply_gates(word))


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
            cz.transversal_pair("CZ", control, row)
            hch.transversal_single(row, "H")
            hch.transversal_pair("CNOT", control, row)
            hch.transversal_single(row, "H")
            assert [f.rows for f in cz.factors] == [f.rows for f in hch.factors]
            for a, b in zip(cz.factors, hch.factors):
                assert same_rows(a.state, b.state)

    def test_cz_equals_h_cnot_h_on_dense(self):
        plain = DensityMatrix.random_pure(1, np.random.default_rng(3))
        cz, hch = _cz_registers(1, plain)
        cz.transversal_pair("CZ", 1, 0)
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
        client = PermClient(PermKey.identity(2), np.random.default_rng(0))
        # a round's H comes last in its word and is checked before the
        # word's CNOT (X) or CZ (Z) coupling merges or changes anything
        for label in "ZX":
            with pytest.raises(RegisterError):
                permkey.encrypted_syndrome_protocol(
                    reg, PauliString.from_label(label), [data], plus, client,
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
            state.apply_transversals([(name, slots)])

    def test_t_only_on_dense(self):
        with pytest.raises(BackendError):
            StabilizerState.product("0+").apply_transversals([("T", [range(0, 2)])])
        DensityMatrix.product("0+").apply_transversals([("T", [range(0, 2)])])

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
        state = random_state(backend, 4, np.random.default_rng(5))
        perm = [2, 0, 3, 1]
        a = state.permute_qubits(perm).to_density().mat
        b = state.permute_qubits(np.array(perm)).to_density().mat
        assert np.array_equal(a, b)


class TestCycleCalls:
    def test_transversal_gates_skip_the_word_path(self, monkeypatch):
        """Over one encrypted Steane x spread QEC cycle at m = 5: the word
        check serves only the encoder (`qec.steane_code` synthesizes its
        Clifford, `ConcatenatedSpreadCode.encode` runs it), each
        transversal gate sent through `SpreadRegister.apply_logical` is
        one engine call, and the only qubit permutations are at encrypt
        and decrypt, one per distinct factor state (`_permute`, the kernel
        behind `permute_qubits`, which the register calls without the
        check): the fresh rows of one role share theirs."""
        calls = Calls(monkeypatch)
        for owner, name in ((qec, "steane_code"),
                            (permkey.ConcatenatedSpreadCode, "encode")):
            calls.count(owner, name, "encoder", scope=True)
        calls.count(paulis, "_check_word", "check_word")
        calls.count(states, "_check_word", "check_word")
        calls.count(states, "_apply_gate_rows", "engine")
        calls.count(SpreadRegister, "apply_logical", "logical",
                    note=lambda reg, gates: len(gates))
        for backend in (StabilizerState, DensityMatrix):
            calls.count(backend, "_permute", "permute")
        calls.count(SpreadRegister, "permute_columns", scope=True,
                    note=lambda reg, key: (len(reg.factors),
                                           len({id(f.state) for f in reg.factors})))

        plain, value, bits = qec_cycle(101, 1)
        assert value == (-1 if plain == "1" else 1)
        assert len(bits) == 6
        enc = calls.inside("encoder")
        out = calls.counts - enc
        assert enc["check_word"] > 0 and out["check_word"] == 0
        assert enc["logical"] == 0 and out["logical"] > 0
        assert out["engine"] == sum(calls.log["logical"])
        permutes = [(c["permute"], note) for key, note, c in calls.scopes
                    if key == "permute_columns"]
        assert len(permutes) == 2
        assert out["permute"] == sum(done for done, _ in permutes)
        assert all(0 < done == distinct <= factors
                   for done, (factors, distinct) in permutes)
        # at encrypt: the data factor, and one state per fresh-row role
        assert permutes[0][1] == (1 + 6 + 2 * 2 * 7, 4)

    @pytest.mark.parametrize("middle", ["+", "magic"])
    def test_interleaved_merge_matches_dense_oracle(self, monkeypatch, middle):
        """Rows 0 and 2 merge, then row 1 joins them: the factor keeps the
        concatenation order, rows 0, 2, 1, and no merge permutes qubits.
        The factor equals the dense product of the rows in that order
        under the matching gate word."""
        reg = SpreadRegister(1)
        reg.add_data_row("0")
        if middle == "magic":
            reg.add_ancilla_row("magic")
        else:
            reg.add_data_row(middle)
        reg.add_data_row("1")
        row_states = [f.state for f in reg.factors]
        calls = Calls(monkeypatch)
        for backend in (StabilizerState, DensityMatrix):
            calls.count(backend, "_permute", "permute")
        reg.transversal_pair("CNOT", 0, 2)
        reg.transversal_pair("CZ", 1, 0)
        assert calls.counts["permute"] == 0
        (f,) = reg.factors
        assert f.rows == [0, 2, 1]
        rho = row_states[0].to_density().tensor(row_states[2]).tensor(
            row_states[1])
        want = rho.apply_gates([("CNOT", (0, 2)), ("CNOT", (1, 3)),
                                ("CZ", (4, 0)), ("CZ", (5, 1))])
        assert np.abs(f.state.to_density().mat - want.mat).max() < 1e-12


def _eager_discard_row(reg: SpreadRegister, row: int) -> None:
    """The reference discard: the factor's state is read right away and
    the row's columns leave it at once, by one `discard_qubits` on them,
    so no discarded row ever waits in the held state."""
    f = reg._factor_of(row)
    state = f.state.discard_qubits(f.columns(row, reg.n_cols))
    reg.discard_row(row)
    f.state = state


_ADDS = [*"01+-imT", *sorted(permkey._ROW_CHAR), "magic"]
_STEP = st.tuples(st.sampled_from(["add", "single", "pair", "pair", "pair",
                                   "measure", "discard", "discard", "encrypt",
                                   "decrypt", "read"]),
                  st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
# a few rows first, so that most programs merge factors before they
# measure or discard
_PROGRAM = st.builds(lambda adds, steps: adds + steps,
                     st.lists(st.tuples(st.just("add"), st.integers(0, 10 ** 6),
                                        st.just(0)), min_size=2, max_size=5),
                     st.lists(_STEP, min_size=4, max_size=20))


def _step(reg: SpreadRegister, step, rng, discard):
    """Run one program step; returns what it gives back, or the type and
    message of what it raised.  Row picks index the live rows."""
    kind, a, b = step
    live = [r for r, alive in enumerate(reg.alive) if alive]
    if kind not in ("add", "encrypt", "decrypt") and not live:
        return None
    if kind in ("measure", "discard") and b % 3:
        # mostly a row that shares its factor, when there is one
        live = [r for r in live if len(reg._owner[r].rows) > 1] or live
    try:
        if kind == "add":
            what = _ADDS[a % len(_ADDS)]
            return (reg.add_data_row(what) if len(what) == 1
                    else reg.add_ancilla_row(what))
        if kind == "single":
            return reg.transversal_single(live[a % len(live)],
                                          "XYZHS"[b % 5])
        if kind == "pair":
            # two distinct rows whenever there are two
            c = live[a % len(live)]
            t = live[(a + 1 + b % max(len(live) - 1, 1)) % len(live)]
            return reg.transversal_pair(("CNOT", "CZ", "SWAP")[b % 3], c, t)
        if kind == "measure":
            row = live[a % len(live)]
            if b % 2:
                reg.transversal_single(row, "H")
            return reg.measure_row(row, rng)
        if kind == "discard":
            return discard(reg, live[a % len(live)])
        if kind in ("encrypt", "decrypt"):
            key = PermKey.sample(reg.m, np.random.default_rng(a))
            return getattr(reg, kind)(key)
        return reg.row_state(live[a % len(live)])
    except (BackendError, RegisterError) as err:
        return type(err), str(err)


def _assert_same_state(a, b):
    assert a.BACKEND == b.BACKEND and a.n_qubits == b.n_qubits
    if a.BACKEND == StabilizerState.BACKEND:
        assert same_group(a, b)
    else:
        assert np.abs(a.mat - b.mat).max() < 1e-12


class TestDeferredDiscards:
    """`discard_row` retires a row at once and leaves its columns in the
    factor's held state until the state is next read; every register
    program gives what the eager reference gives."""

    @given(st.sampled_from([1, 3, 5]), st.integers(0, 2 ** 32 - 1),
           _PROGRAM)
    @settings(max_examples=150, deadline=None)
    def test_programs_match_eager_reference(self, m, seed, program):
        regs = [SpreadRegister(m), SpreadRegister(m)]
        rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
        discards = [_eager_discard_row, SpreadRegister.discard_row]
        for step in program:
            ref, lazy = (_step(reg, step, rng, d)
                         for reg, rng, d in zip(regs, rngs, discards))
            if step[0] == "read" and ref is not None and not isinstance(ref, tuple):
                _assert_same_state(ref, lazy)
            else:
                assert ref == lazy, step
            eager, deferred = regs
            assert eager.alive == deferred.alive
            assert (eager.consumed_ancilla_rows()
                    == deferred.consumed_ancilla_rows())
            assert ([f.rows for f in eager.factors]
                    == [f.rows for f in deferred.factors])
            for e, f in zip(eager.factors, deferred.factors):
                # a copy's read traces the dead rows out of the copy alone
                state = copy.copy(f).state
                assert state.n_qubits == len(f.rows) * 2 * m
                _assert_same_state(e.state, state)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_reduction_at_the_next_read(self, monkeypatch, m):
        """Two discards from one factor wait for its next read, which
        traces both rows out in one call; a measured row leaves at once."""
        reg = SpreadRegister(m)
        rows = [reg.add_data_row(ch) for ch in "0+1"]
        rows.append(reg.add_ancilla_row("plus"))
        for r in rows[1:]:
            reg.transversal_pair("CNOT", rows[0], r)
        (f,) = reg.factors
        calls = Calls(monkeypatch)
        for backend in (StabilizerState, DensityMatrix):
            calls.count(backend, "discard_qubits", "discard",
                        note=lambda state, qs: list(qs))
        reg.measure_row(rows[1], np.random.default_rng(0))
        reg.discard_row(rows[3])
        reg.discard_row(rows[2])
        assert f.rows == [rows[0]] and calls.log["discard"] == []
        assert reg.consumed_ancilla_rows() == 1
        n_cols = 2 * m
        assert f.state.n_qubits == n_cols
        # held rows 0, 2, 3 after the measurement: 2 and 3 leave together
        assert calls.log["discard"] == [list(range(n_cols, 3 * n_cols))]
        f.state
        assert len(calls.log["discard"]) == 1


def _reference_correction(reg: SpreadRegister, letter: str, row: int,
                          control: int) -> None:
    """The correction as the transversal gate and a discard: the control
    row merges into `row`'s factor, then leaves it."""
    if letter == "Z":
        reg._require_transversal("H")
        reg.transversal_pair("CZ", control, row)
    else:
        reg.transversal_pair("CNOT", control, row)
    reg.discard_row(control)


def _correct(reg: SpreadRegister, step, rng, apply):
    """Run one step of a correction program: "control" adds a |0> or |1>
    row, "correct" applies a conditional X or Z from a live correction
    row onto another live row through `apply`, and any other step runs as
    in `_step`, picking among all live rows, so that both registers pick
    the same rows whatever their factors hold."""
    kind, a, b = step
    if kind == "control":
        return reg.add_ancilla_row(("zero", "one")[a % 2])
    if kind != "correct":
        return _step(reg, (kind, a, 3 * b), rng, SpreadRegister.discard_row)
    live = [r for r, alive in enumerate(reg.alive) if alive]
    controls = [r for r in live if reg.roles[r] in ("zero", "one")]
    if not controls or len(live) < 2:
        return None
    control = controls[a % len(controls)]
    targets = [r for r in live if r != control]
    try:
        return apply(reg, "XZ"[b % 2], targets[b // 2 % len(targets)], control)
    except (BackendError, RegisterError) as err:
        return type(err), str(err)


_CORRECTION_PROGRAM = st.builds(
    lambda adds, steps: adds + steps,
    st.lists(st.tuples(st.sampled_from(["add", "control"]),
                       st.integers(0, 10 ** 6), st.just(0)),
             min_size=2, max_size=5),
    st.lists(st.tuples(st.sampled_from(["add", "control", "control", "single",
                                        "pair", "measure", "discard",
                                        "encrypt", "decrypt", "read",
                                        *["correct"] * 5]),
                       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
             min_size=6, max_size=24))


class TestMergeFreeCorrections:
    """A conditional logical consumes its |0>/|1> row, and on a tableau
    target never merges it: every register program gives what the
    transversal gate followed by `discard_row` gives."""

    @given(st.sampled_from([1, 3, 5]), st.integers(0, 2 ** 32 - 1),
           _CORRECTION_PROGRAM)
    @settings(max_examples=100, deadline=None)
    def test_programs_match_gate_and_discard(self, m, seed, program):
        regs = [SpreadRegister(m), SpreadRegister(m)]
        rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
        applies = [_reference_correction, permkey.apply_conditional_logical]
        for step in program:
            ref, got = (_correct(reg, step, rng, apply)
                        for reg, rng, apply in zip(regs, rngs, applies))
            if step[0] == "read" and ref is not None and not isinstance(ref, tuple):
                _assert_same_state(ref, got)
            else:
                assert ref == got, step
            merged, merge_free = regs
            assert merged.alive == merge_free.alive
            assert (merged.consumed_ancilla_rows()
                    == merge_free.consumed_ancilla_rows())
            # the reference's merged factor moves to the end of the list
            states_by_rows = [{tuple(f.rows): f.state for f in reg.factors}
                              for reg in regs]
            assert states_by_rows[0].keys() == states_by_rows[1].keys()
            for rows, state in states_by_rows[0].items():
                _assert_same_state(state, states_by_rows[1][rows])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("letter", ["X", "Z"])
    def test_correction_never_merges(self, m, letter):
        """On a tableau target the control row leaves the register without
        joining the target's factor, and is counted as consumed."""
        reg = SpreadRegister(m)
        data = reg.add_data_row("+")
        rows = [reg.add_ancilla_row(role) for role in ("zero", "one", "plus")]
        reg.encrypt(PermKey.sample(m, np.random.default_rng(m)))
        target = reg.factors[0]
        for control in rows[:2]:
            permkey.apply_conditional_logical(reg, letter, data, control)
            assert not reg.alive[control]
            assert target.rows == [data] and reg.factors[0] is target
        assert reg.consumed_ancilla_rows() == 2
        assert [f.rows for f in reg.factors] == [[data], [rows[2]]]

    def test_consumed_row_cannot_be_reused(self):
        reg = SpreadRegister(3)
        data = reg.add_data_row("0")
        control = reg.add_ancilla_row("one")
        permkey.apply_conditional_logical(reg, "X", data, control)
        snapshot = reg.to_json()
        with pytest.raises(RegisterError):
            permkey.apply_conditional_logical(reg, "X", data, control)
        assert reg.to_json() == snapshot

    def test_only_correction_rows_control(self):
        reg = SpreadRegister(3)
        data = reg.add_data_row("0")
        plus = reg.add_ancilla_row("plus")
        snapshot = reg.to_json()
        with pytest.raises(RegisterError):
            permkey.apply_conditional_logical(reg, "X", data, plus)
        assert reg.to_json() == snapshot


class TestControlledDiscard:
    """`states._controlled_discard` against the product state, the
    transversal gate and the control's discard that it stands for."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_tensor_gate_discard(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, n + 1))
        target = random_state(StabilizerState, n, rng)
        # CNOTs keep a product of 0, 1 and mixed qubits Z-type
        control = StabilizerState.product("".join(rng.choice(list("01*"), k)))
        if k > 1:
            control = control.apply_gates(
                ("CNOT", tuple(int(q) for q in rng.permutation(k)[:2]))
                for _ in range(int(rng.integers(0, 2 * k))))
        start = int(rng.integers(0, n - k + 1))
        cols = range(start, start + k)
        for name in ("CNOT", "CZ"):
            got = states._controlled_discard(target, control, name, cols)
            want = control.tensor(target).apply_transversals(
                [(name, [range(k), range(k + start, k + start + k)])]
            ).discard_qubits(list(range(k)))
            assert same_group(got, want)

    def test_other_states_are_not_served(self):
        """Dense and X-generator controls, and state-vector targets, are
        refused; a dense target is served, and matches the product state,
        the transversal gate and the control's discard."""
        target = StabilizerState.product("0+1")
        for t in (target, target.to_density()):
            for control in (StabilizerState.product("+0"),
                            StabilizerState.product("01").to_density()):
                assert states._controlled_discard(t, control, "CNOT",
                                                  range(2)) is None
        assert states._controlled_discard(
            states.StateVector.product("0+1"), StabilizerState.product("01"),
            "CZ", range(2)) is None
        rho = random_dense(4, np.random.default_rng(7))
        for spec in ("01", "1*", "*0", "**"):
            control = StabilizerState.product(spec)
            for name in ("CNOT", "CZ"):
                for start in (0, 1, 2):
                    got = states._controlled_discard(rho, control, name,
                                                     range(start, start + 2))
                    want = control.tensor(rho).apply_transversals(
                        [(name, [range(2), range(2 + start, 4 + start)])]
                    ).discard_qubits([0, 1])
                    assert got.BACKEND == DensityMatrix.BACKEND
                    assert np.abs(got.mat - want.mat).max() < 1e-15


def _merged_teleport(reg: SpreadRegister, data_row: int, row: int, rng):
    """The teleport as the merged transversal CNOT, then `measure_row`."""
    reg.transversal_pair("CNOT", data_row, row)
    return reg.measure_row(row, rng)


def _merged_correction(reg: SpreadRegister, name: str, control: int,
                       row: int) -> None:
    """`apply_correction` as the merged transversal gate and a discard."""
    _reference_correction(reg, {"CNOT": "X", "CZ": "Z"}[name], row, control)


def _assert_twins(merged: SpreadRegister, merge_free: SpreadRegister) -> None:
    """The same live rows and factor rows, and bitwise-equal states; the
    merged reference's factor moves to the end of the list."""
    assert merged.alive == merge_free.alive
    by_rows = [{tuple(f.rows): f.state for f in reg.factors}
               for reg in (merged, merge_free)]
    assert by_rows[0].keys() == by_rows[1].keys()
    for rows, want in by_rows[0].items():
        got = by_rows[1][rows]
        assert got.BACKEND == want.BACKEND, rows
        if want.BACKEND == StabilizerState.BACKEND:
            assert same_rows(got, want)
        else:
            assert np.array_equal(got.mat, want.mat)


_FRESH = [*sorted(permkey._ROW_CHAR), "magic"]


class TestMergeFreeTeleport:
    """`SpreadRegister.teleport_row` and the dense corrections at m = 1,
    on twin registers with twin generators, against the merged gate,
    measurement and discard that they replace: the same bits, generator
    state and factor rows, and bitwise-equal states."""

    @staticmethod
    def _twins(data, fresh: str, seed: int):
        """Two registers holding a data row, a fresh row and a |+> row,
        encrypted under one key."""
        regs = []
        for _ in range(2):
            reg = SpreadRegister(1)
            rows = (reg.add_data_row(data), reg.add_ancilla_row(fresh),
                    reg.add_ancilla_row("plus"))
            reg.encrypt(PermKey.sample(1, np.random.default_rng(seed)))
            regs.append(reg)
        return regs, rows

    @pytest.mark.parametrize("fresh", _FRESH)
    @pytest.mark.parametrize("data", ["+", "0", "i", "T", "dense", "mixed"])
    def test_teleport_matches_merged(self, data, fresh):
        for seed in range(6):
            plaintext = data
            if data in ("dense", "mixed"):
                # a non-dyadic data row, so every product rounds
                rho = random_dense(1, np.random.default_rng([seed, 1]))
                plaintext = rho if data == "dense" else DensityMatrix(
                    (rho.mat + np.eye(2) / 2) / 2)
            (merged, merge_free), (d, row, plus) = self._twins(plaintext, fresh,
                                                               seed)
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            want = _merged_teleport(merged, d, row, rngs[0])
            assert merge_free.teleport_row(d, row, rngs[1]) == want
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            _assert_twins(merged, merge_free)
            # the data row's factor keeps its other rows
            merged.transversal_pair("CNOT", d, plus)
            merge_free.transversal_pair("CNOT", d, plus)
            spare = [reg.add_ancilla_row(fresh) for reg in (merged, merge_free)]
            want = _merged_teleport(merged, d, spare[0], rngs[0])
            assert merge_free.teleport_row(d, spare[1], rngs[1]) == want
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            _assert_twins(merged, merge_free)

    @pytest.mark.parametrize("control", ["zero", "one"])
    @pytest.mark.parametrize("letter", ["X", "Z"])
    def test_dense_correction_matches_merged(self, control, letter):
        for seed in range(6):
            data = random_dense(1, np.random.default_rng([seed, 2]))
            (merged, merge_free), (d, row, _) = self._twins(data, control, seed)
            _reference_correction(merged, letter, d, row)
            permkey.apply_conditional_logical(merge_free, letter, d, row)
            assert merged.consumed_ancilla_rows() == 1
            _assert_twins(merged, merge_free)

    @pytest.mark.parametrize("circuit", ["H T S T H", "T H T", "S T T"])
    @pytest.mark.parametrize("plaintext", ["+", "0", "1", "i"])
    def test_sessions_match_merged(self, monkeypatch, circuit, plaintext):
        """Whole deterministic-T sessions: the same transcript, generator
        state and decrypted output."""
        gates = parse_circuit("".join(f"{g} 0\n" for g in circuit.split()))
        for seed in range(4):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            with monkeypatch.context() as patch:
                patch.setattr(SpreadRegister, "teleport_row", _merged_teleport)
                patch.setattr(SpreadRegister, "apply_correction",
                              _merged_correction)
                want = run_session("perm", plaintext, gates, rngs[0], m=1)
            got = run_session("perm", plaintext, gates, rngs[1], m=1)
            assert got[2].messages == want[2].messages
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            assert np.array_equal(got[0].mat, want[0].mat)

    @pytest.mark.parametrize("fresh", ["plus", "zero"])
    def test_tableau_pair_still_merges(self, monkeypatch, fresh):
        calls = Calls(monkeypatch)
        calls.count(permkey, "_teleport_discard", "kernel")
        calls.count(SpreadRegister, "_merge", "merge")
        (merged, merge_free), (d, row, _) = self._twins("+", fresh, 3)
        rngs = [np.random.default_rng(3) for _ in range(2)]
        assert merge_free.teleport_row(d, row, rngs[1]) == _merged_teleport(
            merged, d, row, rngs[0])
        assert calls.counts["kernel"] == 0 and calls.counts["merge"] == 2
        _assert_twins(merged, merge_free)

    @pytest.mark.parametrize("op", ["teleport", "correction"])
    def test_past_cap_raises_before_allocating(self, op):
        """At m = 3 a data row and a fresh row hold 12 qubits together:
        the merge-free call raises the merge's `BackendError`, allocates
        less than one dense matrix of 7 qubits, and changes nothing."""
        errors = []
        for apply in ("merged", "merge-free"):
            reg = SpreadRegister(3)
            if op == "teleport":
                data, row = reg.add_data_row("+"), reg.add_ancilla_row("magic")
                call = (_merged_teleport if apply == "merged"
                        else SpreadRegister.teleport_row)
                run = lambda: call(reg, data, row, np.random.default_rng(0))
            else:
                data, row = reg.add_data_row("T"), reg.add_ancilla_row("zero")
                call = (_reference_correction if apply == "merged"
                        else permkey.apply_conditional_logical)
                run = lambda: call(reg, "Z", data, row)
            snapshot = reg.to_json()
            tracemalloc.start()
            try:
                with pytest.raises(BackendError) as err:
                    run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if apply == "merge-free":
                assert peak < (2 ** 7) ** 2 * np.dtype(complex).itemsize
                assert reg.to_json() == snapshot
            errors.append(str(err.value))
        assert errors[0] == errors[1]
