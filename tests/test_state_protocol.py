"""The state protocol: both backends, driven by the same calls, agree."""
import tracemalloc

import numpy as np
import pytest

from qhelab.paulis import PauliString
from qhelab.paulis import parse_circuit, random_clifford, random_pauli
from qhelab.permkey import SpreadRegister
from qhelab.permkey import perm_scheme, spread_basis_input
from qhelab.protocol import run_session
from qhelab.schemes import security_delta
from qhelab.states import (DENSE_QUBIT_CAP, BackendError, DensityMatrix,
                           StabilizerState, trace_distance)


def _both(spec):
    return [StabilizerState.product(spec), DensityMatrix.product(spec)]


def _assert_agree(stab, dense):
    assert stab.n_qubits == dense.n_qubits
    assert trace_distance(stab.to_density(), dense.to_density()) < 1e-10


class TestSameProgramBothBackends:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_program(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        spec = "".join(rng.choice(list("01+-im"), n))
        stab, dense = _both(spec)
        word = random_clifford(n, rng).gates
        stab, dense = stab.apply_gates(word), dense.apply_gates(word)
        _assert_agree(stab, dense)
        for i in range(3):
            k = random_pauli(n, rng, phase_free=False)
            if k.weight() == 0:
                continue
            # force the outcome the stabilizer side allows
            ev = stab.expectation(k)
            force = int(rng.integers(2)) if ev == 0 else (0 if ev == 1 else 1)
            stab, srec = stab.measure_pauli(k, rng, label=f"m{i}", force=force)
            dense, drec = dense.measure_pauli(k, rng, label=f"m{i}", force=force)
            assert srec.outcome == drec.outcome == force
            assert srec.probability == pytest.approx(drec.probability, abs=1e-10)
            _assert_agree(stab, dense)
        p = random_pauli(n, rng)
        stab, dense = stab.apply_pauli(p), dense.apply_pauli(p)
        perm = [int(q) for q in rng.permutation(n)]
        stab, dense = stab.permute_qubits(perm), dense.permute_qubits(perm)
        _assert_agree(stab, dense)
        drop = sorted(int(q) for q in rng.choice(n, int(rng.integers(1, n)),
                                                 replace=False))
        stab, dense = stab.discard_qubits(drop), dense.discard_qubits(drop)
        _assert_agree(stab, dense)
        m = stab.n_qubits
        qubits = [int(q) for q in rng.permutation(m)[:min(m, 3)]]
        assert np.allclose(stab.reduced_density(qubits).mat,
                           dense.reduced_density(qubits).mat, atol=1e-10)

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

    def test_dense_methods_exist_on_the_tableau(self):
        """Every public non-constructor method of the dense oracle is part
        of the protocol, so the tableau has it too."""
        names = [name for name, attr in vars(DensityMatrix).items()
                 if not name.startswith("_") and callable(attr)
                 and not isinstance(attr, classmethod)]
        assert "discard_qubits" in names and "permute_qubits" in names
        missing = [name for name in names
                   if not callable(getattr(StabilizerState, name, None))]
        assert missing == []


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
    """Both backends reject the same Pauli operands with BackendError,
    checking the qubit count before Hermiticity."""

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    def test_non_hermitian_expectation(self, backend):
        with pytest.raises(BackendError, match="Hermitian"):
            backend.product("+").expectation(PauliString.from_label("iX"))

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    @pytest.mark.parametrize("label", ["XZ", "iXZ"])
    def test_expectation_size_mismatch(self, backend, label):
        with pytest.raises(BackendError, match="qubit count mismatch"):
            backend.product("+").expectation(PauliString.from_label(label))

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    @pytest.mark.parametrize("label", ["XZ", "iXZ"])
    def test_measure_size_mismatch(self, backend, label):
        with pytest.raises(BackendError, match="qubit count mismatch"):
            backend.product("+").measure_pauli(PauliString.from_label(label),
                                               np.random.default_rng(0))

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    def test_apply_pauli_size_mismatch(self, backend):
        with pytest.raises(BackendError, match="qubit count mismatch"):
            backend.product("+0").apply_pauli(PauliString.from_label("X"))

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    def test_hermitian_expectation_still_reads(self, backend):
        state = backend.product("+1")
        assert state.expectation(PauliString.from_label("-XZ")) == pytest.approx(1.0)
        assert state.expectation(PauliString.from_label("ZI")) == pytest.approx(0.0)
