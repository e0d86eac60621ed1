"""Backend tests: tableau simulator vs the exact dense oracle."""
import itertools

import numpy as np
import pytest

from oracles import full_rank_density, projected, random_dense, signed_pauli
from qhelab import states
from qhelab.paulis import CliffordOp, PauliString, random_clifford
from qhelab.paulis import _signed_permutation
from qhelab.states import (BackendError, DensityMatrix, StabilizerState,
                           StateVector, ZeroProbabilityError, statevector,
                           trace_distance)
from qhelab.states import _GATE_MATS, _dense

P = PauliString.from_label
H = CliffordOp.from_gates(1, [("H", (0,))])
BELL = CliffordOp.from_gates(2, [("H", (0,)), ("CNOT", (0, 1))])


class TestApplyClifford:
    def test_h_on_zero_gives_plus(self):
        st = StabilizerState.product("0").apply_clifford(H)
        assert [g.label() for g in st.generators] == ["+X"]

    def test_maximally_mixed_is_invariant(self):
        rng = np.random.default_rng(0)
        st = StabilizerState.maximally_mixed(1)
        for _ in range(10):
            assert st.apply_clifford(random_clifford(1, rng)).generators == ()

    def test_bell_state_against_dense(self):
        st = StabilizerState.product("00").apply_clifford(BELL)
        assert {g.label() for g in st.generators} == {"+XX", "+ZZ"}
        bell_vec = (statevector("00") + statevector("11")) / np.sqrt(2)
        assert trace_distance(st.to_density(),
                              DensityMatrix.from_statevector(bell_vec)) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(BackendError):
            StabilizerState.product("00").apply_clifford(H)

    def test_dense_cap(self):
        with pytest.raises(BackendError):
            DensityMatrix.maximally_mixed(7)

    @pytest.mark.parametrize("name, qs", [("CNOT", (0,)), ("H", (0, 1)),
                                          ("SWAP", (1, 1)), ("CNOT", (0, 0)),
                                          ("H", (2,)), ("H", (5,)),
                                          ("H", (-1,)), ("Q", (0,)),
                                          ("T", (0,))])
    def test_bad_gate_or_qubits_rejected(self, name, qs):
        with pytest.raises(BackendError):
            StabilizerState.product("0+").apply_gate(name, qs)
        with pytest.raises(BackendError):
            StabilizerState.product("0+").apply_gates([("H", (1,)), (name, qs)])


class TestMeasurePauli:
    def test_z_on_zero_deterministic(self):
        rng = np.random.default_rng(1)
        _, rec = StabilizerState.product("0").measure_pauli(P("Z"), rng)
        assert (rec.outcome, rec.probability) == (0, 1.0)

    def test_zz_on_bell_deterministic(self):
        rng = np.random.default_rng(1)
        bell = StabilizerState.product("00").apply_clifford(BELL)
        _, rec = bell.measure_pauli(P("ZZ"), rng)
        assert (rec.outcome, rec.probability) == (0, 1.0)
        # dense projection oracle agrees
        dense = bell.to_density()
        _, drec = dense.measure_pauli(P("ZZ"), rng)
        assert (drec.outcome, drec.probability) == (0, 1.0)

    def test_x_on_zero_is_uniform(self):
        rng = np.random.default_rng(2)
        outcomes = set()
        for _ in range(40):
            _, rec = StabilizerState.product("0").measure_pauli(P("X"), rng)
            assert rec.probability == 0.5
            outcomes.add(rec.outcome)
        assert outcomes == {0, 1}

    def test_forced_zero_probability_errors(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ZeroProbabilityError):
            StabilizerState.product("0").measure_pauli(P("Z"), rng, force=1)
        with pytest.raises(ZeroProbabilityError):
            DensityMatrix.product("0").measure_pauli(P("Z"), rng, force=1)

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    @pytest.mark.parametrize("bad", [2, -1, 0.0, 1.0, "1"])
    @pytest.mark.parametrize("spec", ["0", "+"])
    def test_forced_outcome_must_be_zero_or_one(self, backend, bad, spec):
        rng = np.random.default_rng(3)
        with pytest.raises(BackendError, match="must be 0 or 1"):
            backend.product(spec).measure_pauli(P("Z"), rng, force=bad)

    @pytest.mark.parametrize("backend", [StabilizerState, DensityMatrix])
    @pytest.mark.parametrize("force", [True, False, np.int64(1), np.uint8(0)])
    def test_forced_outcome_recorded_as_int(self, backend, force):
        rng = np.random.default_rng(3)
        _, rec = backend.product("+").measure_pauli(P("Z"), rng, force=force)
        assert type(rec.outcome) is int and rec.outcome == int(force)

    def test_negative_operator_measurement(self):
        rng = np.random.default_rng(4)
        _, rec = StabilizerState.product("0").measure_pauli(P("-Z"), rng)
        assert (rec.outcome, rec.probability) == (1, 1.0)

    def test_mixed_state_purifies(self):
        rng = np.random.default_rng(5)
        st = StabilizerState.maximally_mixed(2)
        st, rec = st.measure_pauli(P("ZI"), rng)
        assert rec.probability == 0.5
        assert len(st.generators) == 1

    def test_update_keeps_generators_valid(self):
        rng = np.random.default_rng(6)
        st = StabilizerState.product("000").apply_clifford(
            CliffordOp.from_gates(3, [("H", (0,)), ("CNOT", (0, 1)),
                                      ("CNOT", (1, 2))]))
        for label in ("XII", "ZZI", "XYZ", "IZZ"):
            st, _ = st.measure_pauli(P(label), rng)
            StabilizerState(st.n_qubits, st.generators)  # revalidates


class TestTraceDistance:
    def test_self_distance_zero(self):
        rho = DensityMatrix.product("0")
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_states(self):
        assert trace_distance(DensityMatrix.product("0"),
                              DensityMatrix.product("1")) == pytest.approx(1.0)

    def test_pure_vs_mixed_half(self):
        assert trace_distance(DensityMatrix.product("0"),
                              DensityMatrix.maximally_mixed(1)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(BackendError):
            trace_distance(DensityMatrix.product("0"),
                           DensityMatrix.product("00"))


class TestToDensity:
    def test_empty_generators_give_mixed(self):
        assert np.allclose(StabilizerState.maximally_mixed(1).to_density().mat,
                           np.eye(2) / 2)

    def test_z_generator_gives_zero_state(self):
        assert np.allclose(StabilizerState.product("0").to_density().mat,
                           DensityMatrix.product("0").mat)

    def test_bell_projector(self):
        bell = StabilizerState.product("00").apply_clifford(BELL)
        vec = (statevector("00") + statevector("11")) / np.sqrt(2)
        assert np.allclose(bell.to_density().mat, np.outer(vec, vec.conj()))

    def test_output_validates(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            st = StabilizerState.product("000").apply_clifford(
                random_clifford(3, rng))
            DensityMatrix(st.to_density().mat)  # runs the full validator

    def test_cap(self):
        with pytest.raises(BackendError):
            StabilizerState.zero(7).to_density()

    def test_cached_build_matches_fresh_build(self):
        """Equal packed rows share one read-only dense state, byte-equal to
        the one built from the identity, one generator at a time."""
        rng = np.random.default_rng(11)
        for i in range(40):
            n = 1 + i % 4
            spec = "".join(rng.choice(list("01+-im*"), n))
            st = StabilizerState.product(spec).apply_clifford(
                random_clifford(n, rng))
            rho = np.eye(2 ** n, dtype=complex)
            for row in zip(st.x, st.z, st.phase):
                idx, s = _signed_permutation(*row)
                rho = (rho + s[:, None] * rho[idx]) / 2.0
            want = rho / 2 ** (n - len(st.phase))
            got = st.to_density()
            assert got.mat.tobytes() == want.tobytes()
            assert not got.mat.flags.writeable
            copy = StabilizerState(n, st.generators)
            assert copy.to_density() is got
        assert 0 < states._density_of.cache_info().maxsize <= 64


class TestClassicallyControlledPauli:
    """A Pauli applied when a forced measurement reads 1, as the T
    gadgets and the syndrome corrections apply theirs."""

    def test_cpauli_fires_on_outcome_one(self):
        for forced in (0, 1):
            sides = []
            for start in (StabilizerState.zero(2), DensityMatrix.product("00")):
                state, rec = start.apply_gate("H", (0,)).measure_pauli(
                    P("ZI"), np.random.default_rng(0), force=forced)
                assert rec.outcome == forced
                sides.append(state.apply_pauli(P("IX")) if rec.outcome else state)
            st, dn = sides
            # qubit 1 flips exactly when the measured bit reads 1
            marginal = st.to_density().discard_qubits([0])
            want = DensityMatrix.product("1" if forced else "0")
            assert trace_distance(marginal, want) < 1e-12
            assert trace_distance(st.to_density(), dn) < 1e-12

    @pytest.mark.parametrize("a, b, c", itertools.product((0, 1), repeat=3))
    def test_forced_bits_on_every_backend(self, a, b, c):
        """`force` fixes each outcome on every backend.  Bit c re-reads
        qubit 0 after a, so it is a's with probability 1, and forcing the
        other value raises on each backend."""
        z0, z1 = P("ZII"), P("IZI")
        for backend in (StabilizerState, DensityMatrix, StateVector):
            state = backend.product("000").apply_gates(
                [("H", (0,)), ("CNOT", (0, 1))])
            state, rec_a = state.measure_pauli(z0, None, force=a)
            if c != a:
                with pytest.raises(ZeroProbabilityError):
                    state.measure_pauli(z0, None, force=c)
                continue
            state, rec_c = state.measure_pauli(z0, None, force=c)
            state, rec_b = state.apply_gate("H", (1,)).measure_pauli(
                z1, None, force=b)
            if a:
                state = state.apply_pauli(P("IIX"))
            if b:
                state = state.apply_pauli(P("ZII"))
            recs = (rec_a, rec_b, rec_c)
            assert [rec.outcome for rec in recs] == [a, b, c]
            assert [rec.probability for rec in recs] == pytest.approx(
                [0.5, 0.5, 1.0], abs=1e-12)
            want = DensityMatrix.product(f"{a}{b}{a}")
            assert trace_distance(state.to_density(), want) < 1e-12, backend


class TestReductionAndDiscard:
    def test_reduced_density_of_bell(self):
        bell = StabilizerState.product("00").apply_clifford(BELL)
        assert np.allclose(bell.reduced_density([0]).mat, np.eye(2) / 2)
        assert np.allclose(bell.reduced_density([1]).mat, np.eye(2) / 2)

    def test_discard_matches_partial_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            st = StabilizerState.product("0000").apply_clifford(
                random_clifford(4, rng))
            dropped = st.discard_qubits([1, 3])
            assert np.allclose(dropped.to_density().mat,
                               st.to_density().discard_qubits([1, 3]).mat,
                               atol=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_dense_json_is_the_per_entry_list(self, n):
        """The vectorised JSON is the list of one [real, imag] pair of
        Python floats per entry, signed zeros included."""
        rng = np.random.default_rng(n)
        for rho in (random_dense(n, rng),
                    DensityMatrix.product("+0-i1m"[:n]).apply_gate("S", (0,))):
            blob = rho.to_json()
            assert blob["matrix"] == [[float(v.real), float(v.imag)]
                                      for v in rho.mat.reshape(-1)]
            assert all(type(v) is float for pair in blob["matrix"] for v in pair)
        # the gate leaves negative zeros in the product state's matrix
        assert n == 1 or (np.signbit(rho.mat.imag) & (rho.mat.imag == 0)).any()

    def test_density_invariants_enforced(self):
        bad = np.eye(2, dtype=complex)       # trace 2
        with pytest.raises(BackendError):
            DensityMatrix(bad)
        notherm = np.array([[0.5, 1j], [0.5j, 0.5]])
        with pytest.raises(BackendError):
            DensityMatrix(notherm)


class TestConstructors:
    """The public constructors check outside data; `_dense` and `_tableau`
    take exactly built arrays as they are."""

    @pytest.mark.parametrize("mat, why", [
        (np.eye(2)[:, :1], "square"),
        (np.eye(3) / 3, "power-of-two"),
        (np.eye(2 ** 7) / 2 ** 7, "capped"),
        (np.diag([1.5, -0.5]), "semidefinite"),
    ])
    def test_density_matrix_rejects(self, mat, why):
        with pytest.raises(BackendError, match=why):
            DensityMatrix(mat)

    @pytest.mark.parametrize("labels, why", [
        (["XI", "ZI"], "commute"),
        (["ZZ", "ZZ"], "independent"),
        (["iZ"], "Hermitian"),
    ])
    def test_stabilizer_state_rejects(self, labels, why):
        gens = [P(s) for s in labels]
        with pytest.raises(BackendError, match=why):
            StabilizerState(gens[0].n_qubits, gens)

    @pytest.mark.parametrize("v", [np.ones(3), np.ones(2 ** 7)])
    def test_from_statevector_checks_size(self, v):
        with pytest.raises(BackendError):
            DensityMatrix.from_statevector(v)

    def test_random_pure_capped(self):
        with pytest.raises(BackendError):
            DensityMatrix.random_pure(7, np.random.default_rng(0))

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_density_matrix_copies_the_callers_array(self, dtype):
        mat = np.eye(2, dtype=dtype) / 2
        rho = DensityMatrix(mat)
        mat[0, 0] = 0.4
        assert mat.flags.writeable and rho.mat is not mat
        assert rho.mat[0, 0] == 0.5 and not rho.mat.flags.writeable

    def test_dense_takes_the_array_as_is(self):
        mat = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho = _dense(mat)
        assert rho.mat is mat and rho.n_qubits == 2
        assert not mat.flags.writeable

    @pytest.mark.parametrize("spec", ["0", "1+", "im*", "*-0", "", "**"])
    def test_built_states_pass_the_checks(self, spec):
        st = StabilizerState.product(spec)
        again = StabilizerState(st.n_qubits, st.generators)
        assert again.generators == st.generators
        dense = DensityMatrix(st.to_density().mat)
        assert np.array_equal(dense.mat, st.to_density().mat)

    def test_reduced_density_is_a_state_on_both_backends(self):
        st = StabilizerState.product("0+1")
        for state in (st, st.to_density()):
            red = state.reduced_density([2, 0])
            assert isinstance(red, DensityMatrix)
            assert trace_distance(red, DensityMatrix.product("10")) < 1e-12

    def test_trace_distance_across_backends(self):
        st = StabilizerState.product("+")
        assert trace_distance(st, DensityMatrix.product("+")) < 1e-12
        assert trace_distance(st, StabilizerState.product("-")) == pytest.approx(1.0)


class TestNoBackendBranches:
    def test_no_backend_isinstance_or_validate_keyword(self):
        """Library code talks to states through the protocol: no module
        asks which backend it holds, and no call passes a `validate` flag
        (internal states come from the private `_tableau` / `_dense`)."""
        import ast
        from pathlib import Path

        import qhelab
        backends = {"DensityMatrix", "StabilizerState", "StateVector", "State"}
        found = []
        for path in sorted(Path(qhelab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                if any(kw.arg == "validate" for kw in node.keywords):
                    found.append(f"{path.name}:{node.lineno} validate=")
                if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                        and len(node.args) == 2):
                    names = {e.id for e in ast.walk(node.args[1])
                             if isinstance(e, ast.Name)}
                    if names & backends:
                        found.append(f"{path.name}:{node.lineno} isinstance")
        assert found == []


# -- the dense oracle against full-size reference operators ------------------

def _kron_embedding(u, n, qs):
    """Reference 2^n x 2^n embedding of a gate matrix, built with np.kron
    (qubit 0 the most significant bit)."""
    order = list(qs) + [q for q in range(n) if q not in qs]
    axes = [order.index(q) for q in range(n)]
    full = np.kron(u, np.eye(2 ** (n - len(qs)))).reshape((2,) * (2 * n))
    return full.transpose(axes + [n + a for a in axes]).reshape(2 ** n, 2 ** n)


def _conjugated(u, rho):
    return u @ rho @ u.conj().T


def _gate_arity(name):
    return len(_GATE_MATS[name]).bit_length() - 1


class TestDenseGateKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_gate_on_every_qubit_tuple(self, n):
        rho = full_rank_density(n, np.random.default_rng(n))
        state = DensityMatrix(rho)
        for name, u in _GATE_MATS.items():
            for qs in itertools.permutations(range(n), _gate_arity(name)):
                want = _conjugated(_kron_embedding(u, n, qs), rho)
                got = state.apply_gate(name, qs).mat
                assert np.max(np.abs(got - want)) < 1e-14, (name, qs)

    def test_random_gates_on_six_qubits(self):
        rng = np.random.default_rng(6)
        state = DensityMatrix(full_rank_density(6, rng))
        names = sorted(_GATE_MATS)
        for _ in range(60):
            name = names[int(rng.integers(len(names)))]
            qs = tuple(int(q) for q in
                       rng.choice(6, _gate_arity(name), replace=False))
            want = _conjugated(_kron_embedding(_GATE_MATS[name], 6, qs),
                               state.mat)
            state = state.apply_gate(name, qs)
            assert np.max(np.abs(state.mat - want)) < 1e-14, (name, qs)

    @pytest.mark.parametrize("name, qs", [("CNOT", (0,)), ("H", (0, 1)),
                                          ("SWAP", (1, 1)), ("H", (2,)),
                                          ("H", (-1,)), ("Q", (0,)),
                                          ("SWAP", (0, 2)), ("SWAP", (-1, 0))])
    def test_bad_gate_or_qubits_rejected(self, name, qs):
        with pytest.raises(BackendError):
            DensityMatrix.product("0+").apply_gate(name, qs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_clifford_to_matrix_matches_kron_product(self, n):
        c = random_clifford(n, np.random.default_rng(10 + n))
        want = np.eye(2 ** n, dtype=complex)
        for name, qs in c.gates:
            want = _kron_embedding(_GATE_MATS[name], n, qs) @ want
        assert np.max(np.abs(c.to_matrix() - want)) < 1e-13


def _every_pauli(n):
    """Every n-qubit Pauli letter string under each of the four phases."""
    for letters in itertools.product("IXYZ", repeat=n):
        base = P("".join(letters))
        for extra in range(4):
            yield PauliString(base.x, base.z, base.phase + extra)


class TestDensePauliPaths:
    @pytest.mark.parametrize("n", [1, 2])
    def test_apply_pauli_every_pauli_and_phase(self, n):
        rho = full_rank_density(n, np.random.default_rng(20 + n))
        for p in _every_pauli(n):
            want = _conjugated(p.to_matrix(), rho)
            got = DensityMatrix(rho).apply_pauli(p).mat
            assert np.max(np.abs(got - want)) < 1e-15, p

    @pytest.mark.parametrize("n", [1, 2])
    def test_expectation_every_pauli_and_phase(self, n):
        state = DensityMatrix(full_rank_density(n, np.random.default_rng(30 + n)))
        for p in _every_pauli(n):
            if not p.is_hermitian():
                with pytest.raises(BackendError, match="Hermitian"):
                    state.expectation(p)
                continue
            want = np.real(np.trace(p.to_matrix() @ state.mat))
            assert state.expectation(p) == pytest.approx(want, abs=1e-15)

    def _check_measurement(self, rho, k):
        """Both forced outcomes against the projector sandwich."""
        for outcome in (0, 1):
            want, prob = projected(rho, k, outcome)
            state = DensityMatrix(rho)
            if want is None:
                with pytest.raises(ZeroProbabilityError):
                    state.measure_pauli(k, np.random.default_rng(0), force=outcome)
                continue
            post, rec = state.measure_pauli(k, np.random.default_rng(0),
                                            force=outcome)
            assert rec.outcome == outcome
            assert rec.probability == pytest.approx(prob, abs=1e-14)
            assert np.max(np.abs(post.mat - want)) < 1e-14, (k, outcome)

    @pytest.mark.parametrize("n", [1, 2])
    def test_measure_every_hermitian_pauli(self, n):
        rng = np.random.default_rng(40 + n)
        mixed = full_rank_density(n, rng)
        pure = DensityMatrix.product("0" * n).mat     # zero-probability cases
        for p in _every_pauli(n):
            if p.is_hermitian():
                self._check_measurement(mixed, p)
                self._check_measurement(pure, p)

    def test_random_strings_on_six_qubits(self):
        rng = np.random.default_rng(6)
        rho = full_rank_density(6, rng)
        for _ in range(20):
            k = signed_pauli(6, rng)
            self._check_measurement(rho, k)
            assert DensityMatrix(rho).expectation(k) == pytest.approx(
                np.real(np.trace(k.to_matrix() @ rho)), abs=1e-14)
            p = PauliString(k.x, k.z, k.phase + int(rng.integers(4)))
            got = DensityMatrix(rho).apply_pauli(p).mat
            assert np.max(np.abs(got - _conjugated(p.to_matrix(), rho))) < 1e-15

    @pytest.mark.parametrize("eps, raises", [(5e-13, True), (2e-12, False)])
    def test_zero_probability_threshold(self, eps, raises):
        state = DensityMatrix(np.diag([1.0 - eps, eps]).astype(complex))
        rng = np.random.default_rng(0)
        if raises:
            with pytest.raises(ZeroProbabilityError):
                state.measure_pauli(P("Z"), rng, force=1)
        else:
            post, rec = state.measure_pauli(P("Z"), rng, force=1)
            # prob is 1 - p0, so it carries p0's rounding error
            assert rec.probability == pytest.approx(eps, rel=1e-3)
            assert post.mat[1, 1] == pytest.approx(1.0, rel=1e-3)

    def test_probability_clamped_to_unit_interval(self):
        rng = np.random.default_rng(0)
        over = _dense(np.diag([1 + 1e-13, 0]).astype(complex))
        _, rec = over.measure_pauli(P("Z"), rng)
        assert (rec.outcome, rec.probability) == (0, 1.0)
        under = _dense(np.diag([-1e-13, 1 + 1e-13]).astype(complex))
        _, rec = under.measure_pauli(P("Z"), rng)
        assert (rec.outcome, rec.probability) == (1, 1.0)
        with pytest.raises(ZeroProbabilityError):
            under.measure_pauli(P("Z"), rng, force=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_stabilizer_to_density_against_projector_product(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            spec = "".join(rng.choice(list("01+-im*"), n))
            st = StabilizerState.product(spec).apply_clifford(
                random_clifford(n, rng))
            want = np.eye(2 ** n, dtype=complex)
            for g in st.generators:
                want = want @ (np.eye(2 ** n) + g.to_matrix()) / 2
            want /= 2 ** (n - len(st.generators))
            assert np.max(np.abs(st.to_density().mat - want)) < 1e-15, spec


class TestDenseZMeasurement:
    """A Z-type Pauli is diagonal, so the dense kernel keeps the rows and
    columns of the outcome's sign; checked against the projector built
    from `PauliString.to_matrix`."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_z_strings_with_signs(self, n):
        rng = np.random.default_rng(60 + n)
        for trial in range(12):
            rho = (full_rank_density(n, rng) if trial % 2
                   else DensityMatrix.random_pure(n, rng).mat)
            z = rng.integers(0, 2, n).astype(np.uint8)
            z[rng.integers(n)] = 1              # single- and multi-qubit Z
            k = PauliString(np.zeros(n, np.uint8), z, 2 * int(rng.integers(2)))
            state = DensityMatrix(rho)
            for force in (0, 1):
                want, prob = projected(rho, k, force)
                post, rec = state.measure_pauli(k, rng, force=force)
                assert rec.outcome == force
                assert rec.probability == pytest.approx(prob, abs=1e-13)
                assert np.max(np.abs(post.mat - want)) < 1e-13, (k, force)
            draw_seed = int(rng.integers(2 ** 32))
            post, rec = state.measure_pauli(k, np.random.default_rng(draw_seed))
            p0 = projected(rho, k, 0)[1]
            drawn = np.random.default_rng(draw_seed).random()
            assert rec.outcome == (0 if drawn < p0 else 1)
            want, _ = projected(rho, k, rec.outcome)
            assert np.max(np.abs(post.mat - want)) < 1e-13

    @pytest.mark.parametrize("spec, label, impossible", [
        ("0", "Z", 1), ("0", "-Z", 0), ("01", "ZZ", 0), ("01", "-ZZ", 1),
        ("011", "IZZ", 1), ("110", "-ZIZ", 1)])
    def test_impossible_outcome_raises(self, spec, label, impossible):
        state = DensityMatrix.product(spec)
        with pytest.raises(ZeroProbabilityError):
            state.measure_pauli(P(label), np.random.default_rng(0),
                                force=impossible)
        post, rec = state.measure_pauli(P(label), np.random.default_rng(0))
        assert (rec.outcome, rec.probability) == (1 - impossible, 1.0)
        assert np.array_equal(post.mat, state.mat)
