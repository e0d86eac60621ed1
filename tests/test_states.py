"""Backend tests: tableau simulator vs the exact dense oracle."""
import json

import numpy as np
import pytest

from qhelab.paulis import CliffordOp, PauliString, parse_circuit, random_clifford
from qhelab.states import (BackendError, DensityMatrix, StabilizerState,
                           ZeroProbabilityError, evaluate_circuit,
                           statevector, to_density, trace_distance)

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
            DensityMatrix(to_density(st).mat)  # runs the full validator

    def test_cap(self):
        with pytest.raises(BackendError):
            StabilizerState.zero(7).to_density()


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_forced_circuits_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        gates = []
        n_meas = 0
        for _ in range(12):
            roll = rng.random()
            if roll < 0.25:
                gates.append(f"M {int(rng.integers(n))} -> b{n_meas}")
                n_meas += 1
            elif roll < 0.5 and n >= 2:
                a, b = rng.choice(n, 2, replace=False)
                gates.append(f"{rng.choice(['CNOT', 'CZ'])} {a} {b}")
            else:
                gates.append(f"{rng.choice(['H', 'S', 'X', 'Z'])} {int(rng.integers(n))}")
        circuit = parse_circuit("\n".join(gates) + "\n", n_qubits=n)
        forced = {f"b{i}": int(rng.integers(2)) for i in range(n_meas)}
        st = StabilizerState.zero(n)
        dn = DensityMatrix.product("0" * n)
        try:
            st_out, st_rec = evaluate_circuit(st, circuit, np.random.default_rng(0),
                                              forced=forced)
            dn_out, dn_rec = evaluate_circuit(dn, circuit, np.random.default_rng(0),
                                              forced=forced)
        except ZeroProbabilityError:
            return  # forced branch has no support; nothing to compare
        assert trace_distance(st_out.to_density(), dn_out) < 1e-10
        for label in st_rec:
            assert st_rec[label].outcome == dn_rec[label].outcome
            assert st_rec[label].probability == pytest.approx(
                dn_rec[label].probability, abs=1e-10)


class TestClassicallyControlledPauli:
    def test_cpauli_fires_on_outcome_one(self):
        circuit = parse_circuit("H 0\nM 0 -> b\nCPAULI b X 1\n", n_qubits=2)
        for forced in (0, 1):
            st, recs = evaluate_circuit(StabilizerState.zero(2), circuit,
                                        np.random.default_rng(0),
                                        forced={"b": forced})
            dn, _ = evaluate_circuit(DensityMatrix.product("00"), circuit,
                                     np.random.default_rng(0),
                                     forced={"b": forced})
            assert recs["b"].outcome == forced
            # qubit 1 flips exactly when the measured bit reads 1
            marginal = st.to_density().partial_trace([1])
            want = DensityMatrix.product("1" if forced else "0")
            assert trace_distance(marginal, want) < 1e-12
            assert trace_distance(st.to_density(), dn) < 1e-12

    def test_cpauli_requires_prior_measurement(self):
        circuit = parse_circuit("CPAULI b Z 0\n", n_qubits=1)
        with pytest.raises(BackendError):
            evaluate_circuit(StabilizerState.zero(1), circuit,
                             np.random.default_rng(0))


class TestReductionAndDiscard:
    def test_reduced_density_of_bell(self):
        bell = StabilizerState.product("00").apply_clifford(BELL)
        assert np.allclose(bell.reduced_density([0]), np.eye(2) / 2)
        assert np.allclose(bell.reduced_density([1]), np.eye(2) / 2)

    def test_reduced_density_matches_dense_partial_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            st = StabilizerState.product("000").apply_clifford(
                random_clifford(3, rng))
            keep = sorted(rng.choice(3, 2, replace=False).tolist())
            assert np.allclose(st.reduced_density(keep),
                               st.to_density().partial_trace(keep).mat,
                               atol=1e-12)

    def test_discard_matches_partial_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            st = StabilizerState.product("0000").apply_clifford(
                random_clifford(4, rng))
            dropped = st.discard_qubits([1, 3])
            assert np.allclose(dropped.to_density().mat,
                               st.to_density().partial_trace([0, 2]).mat,
                               atol=1e-12)


class TestSerialization:
    def test_stabilizer_json_round_trip(self):
        bell = StabilizerState.product("00").apply_clifford(BELL)
        blob = json.loads(json.dumps(bell.to_json()))
        back = StabilizerState.from_json(blob)
        assert back.generators == bell.generators

    def test_dense_json_round_trip(self):
        rho = DensityMatrix.product("+0")
        back = DensityMatrix.from_json(json.loads(json.dumps(rho.to_json())))
        assert np.allclose(back.mat, rho.mat)

    def test_density_invariants_enforced(self):
        bad = np.eye(2, dtype=complex)       # trace 2
        with pytest.raises(BackendError):
            DensityMatrix(bad)
        notherm = np.array([[0.5, 1j], [0.5j, 0.5]])
        with pytest.raises(BackendError):
            DensityMatrix(notherm)


class TestNoBackendBranches:
    def test_isinstance_on_backends_only_in_trace_distance(self):
        """Scheme code talks to states through the protocol; the only
        backend check left is trace_distance accepting raw matrices."""
        import ast
        from pathlib import Path

        import qhelab
        backends = {"DensityMatrix", "StabilizerState"}
        found = []
        for path in sorted(Path(qhelab.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = set()
            for node in ast.walk(tree):
                if (path.name == "states.py" and isinstance(node, ast.FunctionDef)
                        and node.name == "trace_distance"):
                    allowed = set(range(node.lineno, node.end_lineno + 1))
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance" and len(node.args) == 2):
                    continue
                kinds = node.args[1]
                names = {e.id for e in ast.walk(kinds) if isinstance(e, ast.Name)}
                if names & backends and node.lineno not in allowed:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []
