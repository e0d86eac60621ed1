"""The state protocol: every backend, driven by the same calls, agrees.

`BackendPair` is the differential harness: a Hypothesis state machine that
holds one state on the tableau, on the dense oracle and, while it is pure,
on the state vector, and drives every protocol method on each, one rule or
invariant per method.  A new backend joins it as one more side."""
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from oracles import ScriptedRng
from qhelab.paulis import _GATE_ARITY, CLIFFORD_GATES, CliffordOp, PauliString
from qhelab.paulis import parse_circuit, random_clifford, random_pauli
from qhelab.permkey import SpreadRegister
from qhelab.permkey import perm_scheme, spread_basis_input
from qhelab.protocol import run_session
from qhelab.schemes import security_delta
from qhelab.states import (DENSE_QUBIT_CAP, VECTOR_QUBIT_CAP, BackendError,
                           DensityMatrix, StabilizerState, StateVector,
                           ZeroProbabilityError, trace_distance)

TOL = 1e-12
BACKENDS = (StabilizerState, DensityMatrix, StateVector)


def _qubits(n, size=None):
    """Distinct qubits of range(n) in any order: `size` of them, or none,
    some or all."""
    return st.lists(st.integers(0, n - 1), unique=True,
                    min_size=size or 0, max_size=n if size is None else size)


def _gate(n):
    """A Clifford gate on distinct qubits of range(n), n >= 1."""
    names = [g for g in CLIFFORD_GATES if _GATE_ARITY[g] <= n]
    return st.builds(lambda name, qs: (name, tuple(qs[:_GATE_ARITY[name]])),
                     st.sampled_from(names), _qubits(n, min(n, 2)))


def _pauli(n, hermitian):
    """An n-qubit Pauli: any phase, or a Hermitian one of either sign."""
    def build(x, z, extra):
        x, z = ((v >> np.arange(n) & 1).astype(np.uint8) for v in (x, z))
        # i^phase X^x Z^z is Hermitian when phase + |x & z| is even
        phase = int((x & z).sum()) + 2 * extra if hermitian else extra
        return PauliString(x, z, phase)
    bits = st.integers(0, 2 ** n - 1)
    return st.builds(build, bits, bits, st.integers(0, 1 if hermitian else 3))


def _bits_rng(bits):
    """The dense side's draws that reproduce the tableau's bits."""
    return ScriptedRng(0.75 if b else 0.25 for b in bits)


class BackendPair(RuleBasedStateMachine):
    """One state on every backend, n <= 6, driven by the same calls.

    It starts as a product of '01+-im*' characters, the dense side built by
    `to_density()`, and a state-vector side when the spec has no '*'.  The
    vector side lasts while the state is pure: a partial trace or a mixed
    tensor factor ends it.  After every step the dense forms agree within
    1e-12; measurements agree on outcomes exactly and on probabilities
    within 1e-12.  The tableau draws outcomes from a seeded generator, and
    the other sides replay its bits through `ScriptedRng`: on a stabilizer
    state every outcome has probability 0, 1/2 or 1."""

    @initialize(spec=st.text("01+-im*", min_size=1, max_size=DENSE_QUBIT_CAP))
    def start(self, spec):
        self.stab = StabilizerState.product(spec)
        self.dense = self.stab.to_density()
        self.vec = None if "*" in spec else StateVector.product(spec)

    @property
    def n(self) -> int:
        return self.stab.n_qubits

    @property
    def sides(self):
        """The dense oracle and, while it lasts, the state vector."""
        return (self.dense,) if self.vec is None else (self.dense, self.vec)

    def _take(self, stab, others):
        """The tableau's new state, and the other sides' in `sides` order."""
        self.stab = stab
        self.dense, self.vec = (*others, None)[:2]

    def _step(self, name, *args):
        self.stab = getattr(self.stab, name)(*args)
        self.dense = getattr(self.dense, name)(*args)
        if self.vec is not None:
            self.vec = getattr(self.vec, name)(*args)

    @precondition(lambda self: self.n)
    @rule(data=st.data())
    def apply_gate(self, data):
        self._step("apply_gate", *data.draw(_gate(self.n)))

    @precondition(lambda self: self.n)
    @rule(data=st.data())
    def apply_gates(self, data):
        self._step("apply_gates", data.draw(st.lists(_gate(self.n), max_size=8)))

    @precondition(lambda self: self.n)
    @rule(data=st.data())
    def apply_clifford(self, data):
        word = data.draw(st.lists(_gate(self.n), max_size=8))
        self._step("apply_clifford", CliffordOp.from_gates(self.n, word))

    @precondition(lambda self: self.n)
    @rule(data=st.data())
    def apply_transversals(self, data):
        """A word of up to three transversal gates, each on disjoint
        step-1 ranges of one length, at any offsets, in any order."""
        word = []
        for _ in range(data.draw(st.integers(0, 3))):
            name = data.draw(st.sampled_from(
                [g for g in CLIFFORD_GATES if _GATE_ARITY[g] <= self.n]))
            arity = _GATE_ARITY[name]
            length = data.draw(st.integers(0, self.n // arity))
            cuts = sorted(data.draw(st.lists(st.integers(
                0, self.n - arity * length), min_size=arity, max_size=arity)))
            slots = [range(c + i * length, c + (i + 1) * length)
                     for i, c in enumerate(cuts)]
            order = data.draw(st.permutations(range(arity)))
            word.append((name, [slots[i] for i in order]))
        self._step("apply_transversals", word)

    @precondition(lambda self: self.n)
    @rule(data=st.data())
    def apply_pauli(self, data):
        self._step("apply_pauli", data.draw(_pauli(self.n, hermitian=False)))

    @precondition(lambda self: self.n)
    @rule(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def measure_pauli(self, data, seed):
        """Forced to an outcome the tableau allows, or drawn by the
        tableau; a forced impossible outcome raises on both sides."""
        k = data.draw(_pauli(self.n, hermitian=True))
        ev = self.stab.expectation(k)
        if ev:      # the outcome is fixed: forcing the other one raises
            for state in (self.stab, *self.sides):
                with pytest.raises(ZeroProbabilityError):
                    state.measure_pauli(k, None, force=int(ev == 1))
        if data.draw(st.booleans()):
            force = data.draw(st.integers(0, 1)) if ev == 0 else int(ev == -1)
            stab, srec = self.stab.measure_pauli(k, None, force)
            others = [s.measure_pauli(k, None, force) for s in self.sides]
            assert srec.outcome == force
        else:
            stab, srec = self.stab.measure_pauli(k, np.random.default_rng(seed))
            others = [s.measure_pauli(k, _bits_rng([srec.outcome]))
                      for s in self.sides]
        for _, rec in others:
            assert srec.outcome == rec.outcome
            assert abs(srec.probability - rec.probability) <= TOL
        self._take(stab, [state for state, _ in others])

    @precondition(lambda self: self.n)
    @rule(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def measure_discard(self, data, seed):
        qs = data.draw(_qubits(self.n))
        stab, bits = self.stab.measure_discard(qs, np.random.default_rng(seed))
        others = [s.measure_discard(qs, _bits_rng(bits)) for s in self.sides]
        assert all(other_bits == bits for _, other_bits in others)
        self._take(stab, [state for state, _ in others])

    @precondition(lambda self: self.n)
    @rule(data=st.data())
    def permute_qubits(self, data):
        self._step("permute_qubits", data.draw(st.permutations(range(self.n))))

    @precondition(lambda self: self.n)
    @rule(data=st.data())
    def discard_qubits(self, data):
        """The vector side's partial trace is a `DensityMatrix`, held to
        the oracle's; the state may be mixed from here on, so the vector
        side ends."""
        qs = data.draw(_qubits(self.n))
        reduced = None if self.vec is None else self.vec.discard_qubits(qs)
        self.vec = None
        self._step("discard_qubits", qs)
        if reduced is not None:
            assert reduced.BACKEND == DensityMatrix.BACKEND
            assert np.abs(reduced.mat - self.dense.mat).max() <= TOL

    @precondition(lambda self: self.n < DENSE_QUBIT_CAP)
    @rule(data=st.data(), left=st.booleans())
    def tensor(self, data, left):
        """A fresh product tableau on either side.  The dense side takes it
        as it is and the tableau side's mixed product takes its dense
        form, so both orders of the mixed product promote to dense."""
        spec = data.draw(st.text("01+-im*", max_size=DENSE_QUBIT_CAP - self.n))
        fresh = StabilizerState.product(spec)
        if left:
            stab, dense = fresh.tensor(self.stab), fresh.tensor(self.dense)
            mixed = fresh.to_density().tensor(self.stab)
        else:
            stab, dense = self.stab.tensor(fresh), self.dense.tensor(fresh)
            mixed = self.stab.tensor(fresh.to_density())
        assert mixed.BACKEND == dense.BACKEND
        assert np.abs(mixed.mat - dense.mat).max() <= TOL
        if self.vec is not None:
            pair = (fresh, self.vec) if left else (self.vec, fresh)
            if "*" in spec:     # a mixed factor has no vector
                with pytest.raises(BackendError):
                    pair[0].tensor(pair[1])
                self.vec = None
            else:
                self.vec = pair[0].tensor(pair[1])
                assert self.vec.BACKEND == StateVector.BACKEND
        self.stab, self.dense = stab, dense

    @invariant()
    def to_density(self):
        for state in (self.stab, self.vec):
            if state is not None:
                assert state.n_qubits == self.dense.n_qubits
                assert np.abs(state.to_density().mat - self.dense.mat).max() <= TOL

    @invariant()
    def expectation(self):
        """On every generator, and on X, Y or Z of every qubit, in turn."""
        singles = [PauliString.single(self.n, q, "XYZ"[q % 3])
                   for q in range(self.n)]
        for p in self.stab.generators + tuple(singles):
            for state in self.sides:
                assert abs(self.stab.expectation(p) - state.expectation(p)) <= TOL

    @precondition(lambda self: self.n <= 3)
    @invariant()
    def to_json(self):
        """Every side's blob survives JSON text and names its backend and
        size, up to 3 qubits."""
        for state in (self.stab, self.dense, self.vec):
            if state is not None:
                blob = json.loads(json.dumps(state.to_json()))
                assert blob["backend"] == state.BACKEND
                assert blob["n_qubits"] == state.n_qubits

    @invariant()
    def reduced_density(self):
        """On every qubit rotated by one, qs[j] = (j + 1) mod n, an order
        that is no involution from 3 qubits on, and on every other qubit
        from the last down, which discards the rest.  The sides agree with
        the dense oracle; and since every side runs the one shared method,
        each is also held to a reference that does not: X, Y and Z on
        position j of its reduced state read as on qubit qs[j] of the
        full tableau."""
        for qs in ([(j + 1) % self.n for j in range(self.n)],
                   list(range(self.n))[::-2]):
            dense = self.dense.reduced_density(qs).mat
            want = [self.stab.expectation(PauliString.single(self.n, q, letter))
                    for q in qs for letter in "XYZ"]
            for state in (self.stab, *self.sides):
                reduced = state.reduced_density(qs)
                assert np.abs(reduced.mat - dense).max() <= TOL
                got = [reduced.expectation(
                    PauliString.single(len(qs), j, letter))
                    for j in range(len(qs)) for letter in "XYZ"]
                assert np.abs(np.subtract(got, want)).max(initial=0) <= TOL


BackendPair.TestCase.settings = settings(max_examples=10, stateful_step_count=20,
                                         deadline=None)
TestBackendPair = BackendPair.TestCase


def _both(spec):
    return [StabilizerState.product(spec), DensityMatrix.product(spec)]


class TestSameProgramBothBackends:
    def test_apply_clifford_replays_the_gate_word(self):
        rng = np.random.default_rng(3)
        c = random_clifford(4, rng)
        for st in _both("0+1i"):
            assert trace_distance(st.apply_clifford(c).to_density(),
                                  st.apply_gates(c.gates).to_density()) == 0.0

    def test_gate_word_agrees_with_conjugation(self):
        rng = np.random.default_rng(4)
        c = random_clifford(5, rng)
        st = StabilizerState.product("0+1im").apply_clifford(c)
        want = [c.conjugate(g) for g in StabilizerState.product("0+1im").generators]
        assert list(st.generators) == want

    def test_non_clifford_gate_on_tableau(self):
        with pytest.raises(BackendError):
            StabilizerState.product("+").apply_gate("T", (0,))
        dense = DensityMatrix.product("+").apply_gate("T", (0,))
        assert trace_distance(dense, DensityMatrix.product("T")) < 1e-12

    def test_dense_to_density_is_itself(self):
        rho = DensityMatrix.product("+")
        assert rho.to_density() is rho

    def test_every_backend_has_every_protocol_method(self):
        """The protocol is every public non-constructor method of the three
        backends, inherited ones included: each backend has each, and
        `BackendPair` names a rule or an invariant after each, so a new
        protocol method fails here until the machine drives it on every
        backend."""
        names = {name for backend in BACKENDS for name in dir(backend)
                 if not name.startswith("_")
                 and inspect.isfunction(inspect.getattr_static(backend, name))}
        assert {"apply_gates", "discard_qubits", "reduced_density"} <= names
        missing = [f"{backend.__name__}.{name}" for name in sorted(names)
                   for backend in BACKENDS if not callable(getattr(backend, name, None))]
        assert missing == []
        driven = {name for name, attr in vars(BackendPair).items()
                  if hasattr(attr, "hypothesis_stateful_rule")
                  or hasattr(attr, "hypothesis_stateful_invariant")}
        assert sorted(names - driven) == []


class TestMixedTensor:
    @pytest.mark.parametrize("order", ["stab-dense", "dense-stab"])
    def test_promotes_to_dense(self, order):
        stab = StabilizerState.product("+0")
        dense = DensityMatrix.product("T")
        left, right = (stab, dense) if order == "stab-dense" else (dense, stab)
        out = left.tensor(right)
        assert out.BACKEND == DensityMatrix.BACKEND
        want = np.kron(left.to_density().mat, right.to_density().mat)
        assert np.max(np.abs(out.mat - want)) < 1e-15

    def test_stabilizer_pair_stays_a_tableau(self):
        a, b = StabilizerState.product("+"), StabilizerState.product("*1")
        out = a.tensor(b)
        assert out.BACKEND == StabilizerState.BACKEND
        assert [g.label() for g in out.generators] == ["+XII", "-IIZ"]

    def test_oversize_mixed_tensor_rejected(self):
        with pytest.raises(BackendError):
            StabilizerState.product("0" * DENSE_QUBIT_CAP).tensor(
                DensityMatrix.product("T"))
        with pytest.raises(BackendError):
            DensityMatrix.product("T").tensor(
                StabilizerState.product("0" * DENSE_QUBIT_CAP))


class TestStateVectorHoldsPureStates:
    """The vector never falls back to dense: a mixed state, or one past
    its cap, raises."""

    def test_maximally_mixed(self):
        with pytest.raises(BackendError, match="pure states only"):
            StateVector.maximally_mixed(1)

    def test_mixed_tensor_factor(self):
        with pytest.raises(BackendError, match="pure states only"):
            StateVector.product("+").tensor(StabilizerState.product("0*"))

    def test_tensor_past_the_cap(self):
        half = StateVector.product("0" * (VECTOR_QUBIT_CAP // 2))
        wide = half.tensor(half)
        assert wide.n_qubits == VECTOR_QUBIT_CAP
        with pytest.raises(BackendError, match="capped at 12"):
            wide.tensor(StateVector.product("1"))
        with pytest.raises(BackendError, match="capped at 12"):
            StabilizerState.product("1").tensor(wide)


class TestVectorPastTheDenseCap:
    """From 7 qubits up the dense oracle cannot hold the state, and the
    tableau is the vector's reference: on a pure stabilizer state every
    generator reads +1 and any Pauli reads the tableau's -1, 0 or +1."""

    @pytest.mark.parametrize("n", [7, 9, VECTOR_QUBIT_CAP])
    def test_clifford_word_and_measurements(self, n):
        rng = np.random.default_rng(n)
        spec = "".join(rng.choice(list("01+-im"), n))
        word = random_clifford(n, rng).gates
        stab = StabilizerState.product(spec).apply_gates(word)
        vec = StateVector.product(spec).apply_gates(word)
        k = PauliString.single(n, n // 2, "X")
        ev = stab.expectation(k)
        force = int(rng.integers(2)) if ev == 0 else int(ev == -1)
        (stab, srec), (vec, vrec) = (s.measure_pauli(k, None, force)
                                     for s in (stab, vec))
        assert abs(srec.probability - vrec.probability) <= TOL
        qs = [int(q) for q in rng.permutation(n)[:3]]
        stab, bits = stab.measure_discard(qs, np.random.default_rng(n))
        vec, vec_bits = vec.measure_discard(qs, _bits_rng(bits))
        assert vec_bits == bits
        probes = stab.generators + tuple(random_pauli(stab.n_qubits, rng)
                                         for _ in range(20))
        for p in probes:
            assert abs(vec.expectation(p) - stab.expectation(p)) <= TOL


class TestRegisterMergeCap:
    @pytest.mark.parametrize("first", ["magic", "plus"])
    def test_merge_past_cap_raises_before_allocating(self, first):
        """Three 2-qubit rows fit the dense cap; the fourth does not.  The
        refused merge allocates less than one matrix of its 8 qubits."""
        reg = SpreadRegister(1)
        data = reg.add_data_row("+")
        rows = [reg.add_ancilla_row(first), reg.add_ancilla_row("plus"),
                reg.add_ancilla_row("magic")]
        reg.transversal_pair("CNOT", data, rows[0])
        reg.transversal_pair("CNOT", data, rows[1])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                reg.transversal_pair("CNOT", data, rows[2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dim = 2 ** (DENSE_QUBIT_CAP + 2)
        assert peak < dim * dim * np.dtype(complex).itemsize


class TestDenseOracleBuildsNoFullOperator:
    """Dense gates go in as row maps or 4^k x 4^k superoperators and
    Paulis as signed permutations, so whole sessions and sweeps never build a 2^n x 2^n
    operator and never ask a Pauli for its matrix."""

    def test_sessions_and_sweep(self, monkeypatch):
        sizes = []
        real_kron = np.kron

        def is_state(m):
            return np.ndim(m) == 2 and abs(np.trace(m) - 1.0) < 1e-9

        def kron(a, b):
            # vectors and products of two density matrices are states
            if np.ndim(a) == 2 and not (is_state(a) and is_state(b)):
                sizes.append(np.shape(a)[0] * np.shape(b)[0])
            return real_kron(a, b)

        def to_matrix(self):
            raise AssertionError("PauliString.to_matrix called")

        monkeypatch.setattr(np, "kron", kron)
        monkeypatch.setattr(PauliString, "to_matrix", to_matrix)
        rng = np.random.default_rng(11)
        one_row = parse_circuit("H 0\nT 0\nS 0\nT 0\nH 0\n")
        got, ref, _ = run_session("perm", "+", one_row, rng, m=1)
        assert trace_distance(got, ref) < 1e-10
        two_t = parse_circuit("H 0\nCNOT 0 1\nT 1\nH 2\nCNOT 2 3\nT 3\n"
                              "CNOT 1 2\n")
        got, ref, _ = run_session("pauli", "1010", two_t, rng)
        assert trace_distance(got, ref) < 1e-10
        report = security_delta(perm_scheme(2),
                                [spread_basis_input(2, b) for b in (0, 1)])
        assert report.delta == pytest.approx(0.25)
        assert max(sizes, default=0) <= 4 ** 2


class TestPauliOperandChecks:
    """Every backend rejects the same Pauli operands with BackendError,
    checking the qubit count before Hermiticity."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_hermitian_expectation(self, backend):
        with pytest.raises(BackendError, match="Hermitian"):
            backend.product("+").expectation(PauliString.from_label("iX"))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("label", ["XZ", "iXZ"])
    def test_expectation_size_mismatch(self, backend, label):
        with pytest.raises(BackendError, match="qubit count mismatch"):
            backend.product("+").expectation(PauliString.from_label(label))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("label", ["XZ", "iXZ"])
    def test_measure_size_mismatch(self, backend, label):
        with pytest.raises(BackendError, match="qubit count mismatch"):
            backend.product("+").measure_pauli(PauliString.from_label(label),
                                               np.random.default_rng(0))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_pauli_size_mismatch(self, backend):
        with pytest.raises(BackendError, match="qubit count mismatch"):
            backend.product("+0").apply_pauli(PauliString.from_label("X"))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hermitian_expectation_still_reads(self, backend):
        state = backend.product("+1")
        assert state.expectation(PauliString.from_label("-XZ")) == pytest.approx(1.0)
        assert state.expectation(PauliString.from_label("ZI")) == pytest.approx(0.0)
