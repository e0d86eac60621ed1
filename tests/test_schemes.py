"""Scheme algebra: ciphertext averages, security sweeps, decryption
derivation, composition, and the encode/encrypt commutation check."""
import json

import numpy as np
import pytest

from oracles import Calls, random_clifford_circuit, trivial_scheme
from qhelab.paulis import CliffordOp, random_clifford
from qhelab.paulikey import (PauliKey, all_keys, compose_with_stabilizer_code,
                             pauli_scheme, zkey_scheme)
from qhelab.permkey import PermKey, perm_scheme, security_bound, spread_basis_input
from qhelab.qec import repetition_code, logical_lift
from qhelab.schemes import (KeySpaceError, SchemeError, check_qec_commutation,
                            ciphertext_average, compose_schemes,
                            derive_decryption, security_delta)
from qhelab.states import (BackendError, DensityMatrix, StabilizerState,
                           trace_distance)


class TestCiphertextAverage:
    @pytest.mark.parametrize("n", [1, 2])
    def test_pauli_key_average_is_maximally_mixed(self, n):
        rng = np.random.default_rng(n)
        avg = ciphertext_average(pauli_scheme(n), DensityMatrix.random_pure(n, rng))
        assert np.max(np.abs(avg.mat - np.eye(2 ** n) / 2 ** n)) < 1e-14

    def test_trivial_scheme_leaves_state(self):
        rho = DensityMatrix.product("+0")
        avg = ciphertext_average(trivial_scheme(2), rho)
        assert trace_distance(avg, rho) == 0.0

    def test_z_only_key_mixes_plus(self):
        avg = ciphertext_average(zkey_scheme(1), DensityMatrix.product("+"))
        assert np.max(np.abs(avg.mat - np.eye(2) / 2)) < 1e-14


class TestSecurityDelta:
    def test_pauli_inputs_indistinguishable(self):
        rep = security_delta(pauli_scheme(1), [DensityMatrix.product("0"),
                                               DensityMatrix.product("+")])
        assert rep.delta < 1e-12
        assert rep.method == "exact-sweep"
        assert rep.key_count == 4

    def test_singleton_key_leaks_everything(self):
        rep = security_delta(trivial_scheme(1), [DensityMatrix.product("0"),
                                                 DensityMatrix.product("1")])
        assert rep.delta == pytest.approx(1.0)

    def test_perm_m1_exact_le_bound(self):
        rep = security_delta(perm_scheme(1), [spread_basis_input(1, 0),
                                              spread_basis_input(1, 1)])
        assert rep.method == "exact-sweep" and rep.key_count == 2
        assert rep.delta <= security_bound(0, 1) + 1e-12

    def test_empty_inputs_rejected(self):
        with pytest.raises(SchemeError):
            security_delta(pauli_scheme(1), [])

    def test_single_input_rejected(self):
        # one input has no pair to compare: no delta, no witness pair
        with pytest.raises(SchemeError):
            security_delta(perm_scheme(1), [spread_basis_input(1, 0)])

    def test_report_serializes(self):
        rep = security_delta(pauli_scheme(1), [DensityMatrix.product("0"),
                                               DensityMatrix.product("1")])
        blob = json.loads(rep.to_json())
        assert set(blob) == {"delta", "method", "key_count", "witness_pair"}


class TestDeriveDecryption:
    def test_identity_computation_gives_adjoint(self):
        sch = pauli_scheme(1)
        key = PauliKey.from_label("Y")
        dec = derive_decryption(sch, key, CliffordOp.identity(1))
        assert dec.channel == CliffordOp.from_gates(1, key.word()).inverse()

    def test_transported_key_through_h(self):
        sch = pauli_scheme(1)
        key = PauliKey.from_label("X")
        h = CliffordOp.from_gates(1, [("H", (0,))])
        dec = derive_decryption(sch, key, h)
        rho = DensityMatrix.product("0")
        out = dec(sch.encrypt(key, rho).apply_clifford(h))
        assert trace_distance(out, rho.apply_clifford(h)) < 1e-12

    def test_perm_decryption_computation_independent(self):
        sch = perm_scheme(1)
        key = PermKey(1, (1, 0))
        ident = derive_decryption(sch, key, CliffordOp.identity(2))
        swap_cols = CliffordOp.from_gates(2, [("H", (0,)), ("H", (1,))])
        transversal = derive_decryption(sch, key, swap_cols)
        assert ident.channel == transversal.channel

    def test_disallowed_computation_rejected(self):
        sch = perm_scheme(1)
        lopsided = CliffordOp.from_gates(2, [("H", (0,))])
        with pytest.raises(SchemeError):
            derive_decryption(sch, PermKey(1, (0, 1)), lopsided)

    @pytest.mark.parametrize("seed", range(20))
    def test_correctness_randomized(self, seed):
        """Decr . phi(C) . Encr == C on random states, keys, circuits."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        sch = pauli_scheme(n)
        key = PauliKey.random(n, rng)
        comp = CliffordOp.from_circuit(random_clifford_circuit(n, 20, rng))
        rho = DensityMatrix.random_pure(n, rng)
        served = sch.encrypt(key, rho).apply_clifford(comp)
        out = derive_decryption(sch, key, comp)(served)
        assert trace_distance(out, rho.apply_clifford(comp)) < 1e-10

    def test_perm_scheme_correctness_identity(self):
        """Decr . phi(C) . Encr == C for the permutation descriptor, dense."""
        sch = perm_scheme(1)
        transversal_h = CliffordOp.from_gates(2, [("H", (0,)), ("H", (1,))])
        rng = np.random.default_rng(6)
        for key in sch.iter_keys():
            rho = DensityMatrix(np.kron(DensityMatrix.random_pure(1, rng).mat,
                                        np.eye(2) / 2))
            served = sch.encrypt(key, rho).apply_clifford(transversal_h)
            out = derive_decryption(sch, key, transversal_h)(served)
            assert trace_distance(out, rho.apply_clifford(transversal_h)) < 1e-10

    def test_code_composed_scheme_correctness_identity(self):
        """Decrypting after a lifted logical gate returns the plain logical
        action on the unencoded register."""
        from qhelab.paulikey import compose_with_stabilizer_code
        from qhelab.qec import steane_code
        from qhelab.states import StabilizerState

        code = repetition_code()
        sch = compose_with_stabilizer_code(code)
        lifted = logical_lift(code, CliffordOp.from_gates(1, [("X", (0,))]))
        rng = np.random.default_rng(7)
        for key in list(sch.iter_keys())[:4]:
            rho = DensityMatrix.random_pure(1, rng).tensor(
                DensityMatrix.product("00"))
            served = sch.encrypt(key, rho).apply_clifford(lifted)
            out = derive_decryption(sch, key, lifted)(served)
            ref = rho.apply_gate("X", (0,))
            assert trace_distance(out, ref) < 1e-10

        steane = steane_code()
        sch7 = compose_with_stabilizer_code(steane)
        lifted_h = logical_lift(steane, CliffordOp.from_gates(1, [("H", (0,))]))
        key = PauliKey.from_label("Y")
        st = StabilizerState.product("0" * 7)
        served = sch7.encrypt(key, st).apply_clifford(lifted_h)
        out = derive_decryption(sch7, key, lifted_h)(served)
        want = StabilizerState.product("+" + "0" * 6)
        assert all(out.expectation(g) == 1 for g in want.generators)

    def test_compactness_gate_count_polynomial(self):
        """Decryption circuit size stays linear in the key length."""
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            sch = pauli_scheme(n)
            comp = CliffordOp.from_circuit(random_clifford_circuit(n, 15, rng))
            for key in all_keys(n):
                dec = derive_decryption(sch, key, comp)
                assert dec.gate_count <= 2 * n  # one gate per nontrivial wire


class TestComposeSchemes:
    def test_pauli_with_trivial_key_space(self):
        comp = compose_schemes([pauli_scheme(1), trivial_scheme(1)])
        keys = list(comp.iter_keys())
        assert comp.key_count == 4 and len(keys) == 4
        labels = {k[0].label() + k[1].label() for k in keys}
        assert labels == {"II", "XI", "YI", "ZI"}

    def test_single_scheme_unchanged(self):
        sch = pauli_scheme(2)
        assert compose_schemes([sch]) is sch

    def test_two_pauli_qubits_average(self):
        comp = compose_schemes([pauli_scheme(1), pauli_scheme(1)])
        rng = np.random.default_rng(3)
        avg = ciphertext_average(comp, DensityMatrix.random_pure(2, rng))
        assert np.max(np.abs(avg.mat - np.eye(4) / 4)) < 1e-14

    def test_average_factorizes(self):
        comp = compose_schemes([pauli_scheme(1), trivial_scheme(1)])
        rho = DensityMatrix.product("0").tensor(DensityMatrix.product("+"))
        avg = ciphertext_average(comp, rho)
        left = ciphertext_average(pauli_scheme(1), DensityMatrix.product("0"))
        ref = left.tensor(DensityMatrix.product("+"))
        assert trace_distance(avg, ref) < 1e-12

    def test_transport_respects_component_spaces(self):
        comp = compose_schemes([pauli_scheme(1), trivial_scheme(1)])
        cnot = CliffordOp.from_gates(2, [("CNOT", (0, 1))])
        # CNOT drags the data key onto the trivially keyed wire
        assert not comp.allows(cnot)
        h0 = CliffordOp.from_gates(2, [("H", (0,))])
        assert comp.allows(h0)
        key = (PauliKey.from_label("X"), PauliKey.identity(1))
        moved = comp.transport(key, h0)
        assert moved[0].label() == "Z"

    def test_perm_component_has_no_pauli_transport(self):
        """Perm keys are not Pauli strings, so the joint scheme allows no
        computation and cannot transport, yet still encrypts."""
        comp = compose_schemes([pauli_scheme(1), perm_scheme(1)])
        assert comp.key_from_pauli is None
        assert not comp.allows(CliffordOp.identity(3))
        with pytest.raises(SchemeError):
            comp.transport((PauliKey.from_label("X"), PermKey.identity(1)),
                           CliffordOp.identity(3))
        avg = ciphertext_average(comp, DensityMatrix.product("0").tensor(
            spread_basis_input(1, 1)))
        ref = ciphertext_average(pauli_scheme(1), DensityMatrix.product("0")).tensor(
            ciphertext_average(perm_scheme(1), spread_basis_input(1, 1)))
        assert trace_distance(avg, ref) < 1e-12


class TestQecCommutation:
    ENV = pauli_scheme(3)
    CODE = repetition_code()

    def test_trivial_key_gives_lambda_kappa(self):
        holds, lam = check_qec_commutation(self.ENV, self.CODE.encoder, None,
                                           PauliKey.identity(3))
        assert holds and lam == PauliKey.identity(3)

    @pytest.mark.parametrize("label", ["XII", "YII", "ZII"])
    def test_all_single_qubit_keys_commute(self, label):
        key = PauliKey.from_label(label)
        holds, lam = check_qec_commutation(self.ENV, self.CODE.encoder, None, key)
        assert holds
        # dense channel-distance certificate
        rng = np.random.default_rng(hash(label) % 2 ** 31)
        rho = DensityMatrix.random_pure(3, rng)
        lhs = rho.apply_clifford(self.CODE.encoder).apply_pauli(key.pauli)
        rhs = rho.apply_pauli(lam.pauli).apply_clifford(self.CODE.encoder)
        assert trace_distance(lhs, rhs) < 1e-10

    def test_eq26_cross_check_with_lift(self):
        comp = CliffordOp.from_gates(1, [("X", (0,))])
        comp3 = comp.tensor(CliffordOp.identity(2))
        lifted = logical_lift(self.CODE, comp)
        for label in ("III", "XII", "ZII", "YII"):
            holds, lam = check_qec_commutation(
                self.ENV, self.CODE.encoder, comp3, PauliKey.from_label(label),
                lifted_comp=lifted)
            assert holds

    def test_enc_outside_allowed_set_rejected(self):
        sch = perm_scheme(1)
        lopsided = CliffordOp.from_gates(2, [("S", (0,))])
        with pytest.raises(SchemeError):
            check_qec_commutation(sch, lopsided, None, PermKey(1, (0, 1)))

    def test_commutation_lifted_form(self):
        """Lifted form: phi(L(C)) . Encr_{f(k, L(C))} . Enc equals
        Lbar(phi(C)) . Encbar . Encr_{f(lambda, C)} as exact channels."""
        comp = CliffordOp.from_gates(1, [("Z", (0,))])
        comp3 = comp.tensor(CliffordOp.identity(2))
        lifted = logical_lift(self.CODE, comp)
        for label in ("XII", "YII", "ZII"):
            key = PauliKey.from_label(label)
            _, lam = check_qec_commutation(self.ENV, self.CODE.encoder, None, key)
            lhs = lifted.compose(
                self.ENV.encrypt_op(self.ENV.transport_back(key, lifted))
            ).compose(self.CODE.encoder)
            rhs = lifted.compose(self.CODE.encoder).compose(
                self.ENV.encrypt_op(self.ENV.transport_back(lam, comp3)))
            assert lhs == rhs

    def test_transport_fixed_points_where_types_permit(self):
        """The unnumbered display degenerates for Pauli keys: it forces the
        key to be fixed by the transport, which holds exactly when the key
        channel commutes with the lifted computation."""
        comp = CliffordOp.from_gates(1, [("X", (0,))])
        lifted = logical_lift(self.CODE, comp)
        commuting = PauliKey.from_label("XII")
        assert self.ENV.transport_back(commuting, lifted) == commuting
        moving = PauliKey.from_label("ZII")
        assert self.ENV.transport_back(moving, lifted) == moving  # sign dropped
        h_lift = CliffordOp.from_gates(3, [("SWAP", (0, 1))])
        assert self.ENV.transport_back(commuting, h_lift) != commuting

    def test_cv_scheme_has_no_enumeration(self):
        from qhelab.schemes import SchemeDescriptor
        cv_like = SchemeDescriptor(
            name="cv", n_qubits=1, key_count=None, iter_keys=lambda: iter([]),
            encrypt_word=lambda k: [], transport=lambda k, c: k,
            allows=lambda c: True)
        with pytest.raises(KeySpaceError):
            ciphertext_average(cv_like, DensityMatrix.product("0"))


WORD_SCHEMES = {
    "perm1": lambda: perm_scheme(1),
    "perm2": lambda: perm_scheme(2),
    "pauli2": lambda: pauli_scheme(2),
    "zkey2": lambda: zkey_scheme(2),
    "trivial1": lambda: trivial_scheme(1),
    "pauli*repetition": lambda: compose_with_stabilizer_code(repetition_code()),
    "pauli*trivial": lambda: compose_schemes([pauli_scheme(1), trivial_scheme(1)]),
}


class TestEncryptionWord:
    """`encrypt` replays the key's gate word; `encrypt_op` is the same
    channel as a tableau."""

    @pytest.fixture(params=sorted(WORD_SCHEMES))
    def scheme(self, request):
        return WORD_SCHEMES[request.param]()

    def test_word_matches_tableau_on_dense_states(self, scheme):
        rng = np.random.default_rng(11)
        rho = DensityMatrix.random_pure(scheme.n_qubits, rng)
        for key in scheme.iter_keys():
            cipher = scheme.encrypt(key, rho)
            ref = rho.apply_clifford(scheme.encrypt_op(key))
            assert np.array_equal(cipher.mat, ref.mat)
            assert np.array_equal(scheme.decrypt(key, cipher).mat, rho.mat)

    def test_word_matches_tableau_on_stabilizer_states(self, scheme):
        rng = np.random.default_rng(12)
        n = scheme.n_qubits
        psi = StabilizerState.product("0" * n).apply_clifford(random_clifford(n, rng))
        for key in scheme.iter_keys():
            cipher = scheme.encrypt(key, psi)
            ref = psi.apply_clifford(scheme.encrypt_op(key))
            assert cipher.generators == ref.generators
            assert scheme.decrypt(key, cipher).generators == psi.generators

    @pytest.mark.parametrize("backend", [DensityMatrix, StabilizerState])
    def test_wrong_size_state_rejected(self, scheme, backend):
        key = next(iter(scheme.iter_keys()))
        wrong = backend.product("0" * (scheme.n_qubits + 1))
        with pytest.raises(BackendError):
            scheme.encrypt(key, wrong)
        with pytest.raises(BackendError):
            scheme.decrypt(key, wrong)

    @pytest.mark.parametrize("scheme, key", [
        (pauli_scheme(2), PauliKey.from_label("X")),
        (perm_scheme(2), PermKey.identity(1)),
        (compose_with_stabilizer_code(repetition_code()), PauliKey.from_label("XI")),
    ])
    def test_wrong_size_key_rejected(self, scheme, key):
        rho = DensityMatrix.product("0" * scheme.n_qubits)
        with pytest.raises(SchemeError):
            scheme.encrypt(key, rho)

    def test_ciphertext_average_builds_no_tableau(self, monkeypatch):
        scheme, rho = perm_scheme(2), spread_basis_input(2, 1)
        calls = Calls(monkeypatch)
        calls.count(CliffordOp, "__init__")
        ciphertext_average(scheme, rho)
        assert calls.take("__init__") == 0
