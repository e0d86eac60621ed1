"""Pauli/Clifford algebra: every value checked against the dense oracle."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhelab.paulis import (CLIFFORD_GATES, Circuit, CliffordOp, Gate,
                           PauliAlgebraError, PauliString, parse_circuit,
                           random_clifford, random_clifford_circuit,
                           random_pauli)

P = PauliString.from_label


def dense_mul(a: PauliString, b: PauliString) -> np.ndarray:
    return a.to_matrix() @ b.to_matrix()


class TestMultiply:
    def test_identity_case(self):
        assert (P("X") * P("I")) == P("X")

    def test_x_times_z_is_minus_i_y(self):
        got = P("X") * P("Z")
        assert got.label() == "-iY"
        assert np.allclose(got.to_matrix(), dense_mul(P("X"), P("Z")))

    def test_two_qubit_product_against_dense(self):
        got = P("XZ") * P("ZZ")
        assert np.allclose(got.to_matrix(), dense_mul(P("XZ"), P("ZZ")))
        # (XZ)(ZZ) = (XZ) tensor I up to the phase -i
        assert got.label() == "-iYI"

    def test_length_mismatch(self):
        with pytest.raises(PauliAlgebraError):
            P("X") * P("XX")

    @pytest.mark.parametrize("a", ["I", "X", "Y", "Z"])
    @pytest.mark.parametrize("b", ["I", "X", "Y", "Z"])
    def test_single_qubit_table_vs_dense(self, a, b):
        assert np.allclose((P(a) * P(b)).to_matrix(), dense_mul(P(a), P(b)))

    def test_adjoint(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_pauli(3, rng, phase_free=False)
            assert np.allclose(p.adjoint().to_matrix(),
                               p.to_matrix().conj().T)

    @given(st.integers(1, 4), st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_phase_group_closure(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pauli(n, rng, False), random_pauli(n, rng, False)
        prod = a * b
        assert prod.phase in (0, 1, 2, 3)
        assert np.allclose(prod.to_matrix(), dense_mul(a, b))


class TestConjugate:
    def test_identity_clifford(self):
        c = CliffordOp.identity(2)
        assert c.conjugate(P("XZ")) == P("XZ")

    def test_h_sends_x_to_z(self):
        h = CliffordOp.from_gates(1, [("H", (0,))])
        assert h.conjugate(P("X")) == P("Z")

    def test_cnot_copies_x(self):
        cnot = CliffordOp.from_gates(2, [("CNOT", (0, 1))])
        assert cnot.conjugate(P("XI")) == P("XX")

    def test_length_mismatch(self):
        with pytest.raises(PauliAlgebraError):
            CliffordOp.identity(2).conjugate(P("X"))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_dense_u_p_udag(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        c = random_clifford(n, rng)
        u = c.to_matrix()
        for _ in range(3):
            p = random_pauli(n, rng, phase_free=False)
            assert np.allclose(c.conjugate(p).to_matrix(),
                               u @ p.to_matrix() @ u.conj().T, atol=1e-10)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_preserves_commutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        c = random_clifford(n, rng)
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        assert p.commutes(q) == c.conjugate(p).commutes(c.conjugate(q))

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_group_automorphism(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        c = random_clifford(n, rng)
        p, q = random_pauli(n, rng, False), random_pauli(n, rng, False)
        assert c.conjugate(p * q) == c.conjugate(p) * c.conjugate(q)


class TestCompose:
    def test_h_h_is_identity(self):
        h = CliffordOp.from_gates(1, [("H", (0,))])
        assert h.compose(h).is_identity_channel()

    def test_s_s_acts_like_z(self):
        s = CliffordOp.from_gates(1, [("S", (0,))])
        z = CliffordOp.from_gates(1, [("Z", (0,))])
        ss = s.compose(s)
        assert ss == z
        assert np.allclose(np.abs(ss.to_matrix() @ z.to_matrix().conj().T),
                           np.eye(2))

    def test_cnot_cnot_is_identity(self):
        cnot = CliffordOp.from_gates(2, [("CNOT", (0, 1))])
        assert cnot.compose(cnot).is_identity_channel()

    @pytest.mark.parametrize("seed", range(15))
    def test_homomorphism_on_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        c1, c2 = random_clifford(n, rng), random_clifford(n, rng)
        p = random_pauli(n, rng, False)
        assert (c2.compose(c1)).conjugate(p) == c2.conjugate(c1.conjugate(p))

    def test_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = random_clifford(3, rng)
            assert c.compose(c.inverse()).is_identity_channel()
            assert c.inverse().compose(c).is_identity_channel()


class TestRandomClifford:
    def test_single_qubit_group_order(self):
        rng = np.random.default_rng(0)
        seen = {(c.x_images, c.z_images)
                for c in (random_clifford(1, rng) for _ in range(2000))}
        assert len(seen) == 24

    def test_single_qubit_uniformity(self):
        """Chi-square over the 24 classes at 24000 samples; the 1%
        critical value for 23 dof is 41.64."""
        rng = np.random.default_rng(123)
        counts: dict = {}
        n_samples = 24_000
        for _ in range(n_samples):
            c = random_clifford(1, rng)
            key = (c.x_images, c.z_images)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expect = n_samples / 24
        chi2 = sum((v - expect) ** 2 / expect for v in counts.values())
        assert chi2 < 41.64

    def test_symplectic_validity_bulk(self):
        rng = np.random.default_rng(1)
        for _ in range(10 ** 4):
            c = random_clifford(2, rng)
            for i in range(2):
                assert not c.x_images[i].commutes(c.z_images[i])
                for j in range(2):
                    if i != j:
                        assert c.x_images[i].commutes(c.z_images[j])
                        assert c.x_images[i].commutes(c.x_images[j])
                        assert c.z_images[i].commutes(c.z_images[j])

    def test_seed_determinism(self):
        a = random_clifford(3, np.random.default_rng(77))
        b = random_clifford(3, np.random.default_rng(77))
        assert a == b and a.gates == b.gates

    def test_gate_list_reproduces_tableau(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            c = random_clifford(3, rng)
            rebuilt = CliffordOp.from_gates(3, c.gates)
            assert rebuilt == c

    # sha256 prefixes of the words drawn at seeds 0..19, one per n
    WORD_HASHES = {1: "38e4d127fdfe10b0", 2: "25f992ad3e26b210",
                   3: "60cb3d6c5189a974", 4: "ae7369f79b2f5c56",
                   5: "5356d953c284524a", 6: "f4347e710f4e5687",
                   7: "c42788c8e78c1f44", 8: "0ff870360178516a"}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gate_words_pinned(self, n):
        """The sampled words, not just their tableaux, stay fixed per seed,
        so every seeded run that draws a random Clifford repeats."""
        text = "\n".join(
            ";".join(name + "".join(f" {q}" for q in qs) for name, qs in
                     random_clifford(n, np.random.default_rng(seed)).gates)
            for seed in range(20))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.WORD_HASHES[n]

    def test_gate_set_is_the_fixed_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = random_clifford(4, rng)
            assert all(name in CLIFFORD_GATES for name, _ in c.gates)


class TestCircuitFormat:
    def test_round_trip(self):
        text = ("H 0\n"
                "CNOT 0 1\n"
                "T 2\n"
                "M 1 -> syn0\n"
                "CPAULI syn0 X 2\n"
                "SWAP 1 2\n")
        c = parse_circuit(text)
        assert c.serialize() == text
        assert parse_circuit(c.serialize()) == c

    def test_comments_and_blanks(self):
        c = parse_circuit("# a comment\n\nH 0  # trailing\n")
        assert c.gates == (Gate("H", (0,)),)

    def test_duplicate_measurement_bits_rejected(self):
        with pytest.raises(PauliAlgebraError):
            parse_circuit("M 0 -> b\nM 1 -> b\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(PauliAlgebraError):
            parse_circuit("FROB 0\n")

    def test_out_of_range_qubits_rejected(self):
        with pytest.raises(PauliAlgebraError):
            Circuit(1, (Gate("H", (3,)),))

    @pytest.mark.parametrize("letter", ["XY", "", "I", "XYZ"])
    def test_cpauli_letter_rejected(self, letter):
        with pytest.raises(PauliAlgebraError):
            parse_circuit(f"M 0 -> b\nCPAULI b {letter} 0\n")
        with pytest.raises(PauliAlgebraError):
            Circuit(1, (Gate("M", (0,), bit="b"),
                        Gate("CPAULI", (0,), bit="b", pauli=letter or None)))

    def test_arity_enforced_for_all_elements(self):
        with pytest.raises(PauliAlgebraError):
            Circuit(2, (Gate("M", (0, 1), bit="b"),))
        with pytest.raises(PauliAlgebraError):
            Circuit(2, (Gate("CNOT", (0,)),))

    def test_clifford_predicate(self):
        assert parse_circuit("H 0\nCZ 0 1\n").is_clifford()
        assert not parse_circuit("T 0\n").is_clifford()


class TestLabels:
    @pytest.mark.parametrize("label", ["+XIZ", "-iYY", "+i" + "Z", "-X"])
    def test_label_round_trip(self, label):
        assert P(label).label() == label

    def test_positive_and_sign(self):
        p = P("-YZ")
        assert p.sign() == -1
        assert p.positive().sign() == 1
        assert p.positive().negate() == p


def kron_reference(p: PauliString) -> np.ndarray:
    """i^phase times the Kronecker product of X^x Z^z, qubit 0 leftmost."""
    x_mat, z_mat = np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])
    out = np.array([[1.0 + 0j]])
    for xi, zi in zip(p.x, p.z):
        out = np.kron(out, np.linalg.matrix_power(x_mat, int(xi))
                      @ np.linalg.matrix_power(z_mat, int(zi)))
    return (1j ** p.phase) * out


class TestToMatrix:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_every_pauli_and_phase(self, n):
        for bits in range(4 ** n):
            x = [(bits >> q) & 1 for q in range(n)]
            z = [(bits >> (n + q)) & 1 for q in range(n)]
            for phase in range(4):
                p = PauliString(x, z, phase)
                got = p.to_matrix()
                assert got.dtype == complex
                assert np.array_equal(got, kron_reference(p))

    def test_random_strings_at_six_qubits(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_pauli(6, rng, phase_free=False)
            p = PauliString(p.x, p.z, p.phase + int(rng.integers(0, 2)))
            assert np.array_equal(p.to_matrix(), kron_reference(p))

    @pytest.mark.parametrize("phase", range(4))
    def test_no_qubits(self, phase):
        got = PauliString([], [], phase).to_matrix()
        assert got.shape == (1, 1)
        assert np.array_equal(got, [[1j ** phase]])


class TestPackedTableau:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_conjugate_matches_dense_for_every_pauli(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(4):
            c = random_clifford(n, rng)
            u = c.to_matrix()
            for bits in range(4 ** n):
                x = [(bits >> q) & 1 for q in range(n)]
                z = [(bits >> (n + q)) & 1 for q in range(n)]
                for phase in range(4):
                    p = PauliString(x, z, phase)
                    assert np.allclose(c.conjugate(p).to_matrix(),
                                       u @ p.to_matrix() @ u.conj().T,
                                       atol=1e-12), (c.gates, p)

    @pytest.mark.parametrize("seed", range(16))
    def test_compose_equals_concatenated_gate_word(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        a, b = random_clifford(n, rng), random_clifford(n, rng)
        got = a.compose(b)
        want = CliffordOp.from_gates(n, b.gates + a.gates)
        assert got == want and got.gates == want.gates
        assert got.x_images == want.x_images and got.z_images == want.z_images

    @pytest.mark.parametrize("seed", range(12))
    def test_batched_compose_at_larger_n(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(1, 25))
        a = random_clifford(n, rng) if seed % 3 == 0 else \
            CliffordOp.from_circuit(random_clifford_circuit(n, 4 * n, rng))
        b = CliffordOp.from_circuit(random_clifford_circuit(n, 4 * n, rng))
        for first, second in ((b, a), (a, b), (a, a)):
            got = second.compose(first)
            want = CliffordOp.from_gates(n, first.gates + second.gates)
            assert got == want and got.gates == want.gates
            assert got.x.dtype == got.z.dtype == got.phase.dtype == np.uint8

    @pytest.mark.parametrize("seed", range(6))
    def test_then_appends_a_gate_word(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(1, 7))
        c = random_clifford(n, rng)
        word = list(random_clifford_circuit(n, 10, rng).gates)
        got = c.then(word)
        want = CliffordOp.from_gates(n, word).compose(c)
        assert got == want and got.gates == want.gates
        assert hash(got) == hash(want)
        with pytest.raises(PauliAlgebraError):
            c.then([("CNOT", (0, 0))])

    def test_rows_are_the_images(self):
        c = random_clifford(3, np.random.default_rng(2))
        for q in range(3):
            assert c.row(q) == c.conjugate(PauliString.single(3, q, "X"))
            assert c.row(3 + q) == c.conjugate(PauliString.single(3, q, "Z"))
        assert c.x_images + c.z_images == tuple(c.row(i) for i in range(6))

    def test_tableau_is_read_only(self):
        c = random_clifford(2, np.random.default_rng(3))
        for arr in (c.x, c.z, c.phase):
            with pytest.raises(ValueError):
                arr[0] ^= 1

    def test_core_operations_build_no_pauli_strings(self, monkeypatch):
        rng = np.random.default_rng(4)
        words = [random_clifford(4, rng).gates for _ in range(3)]
        built = []
        original = PauliString.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(PauliString, "__init__", counting)
        a, b, c = (CliffordOp.from_gates(4, w) for w in words)
        d = a.compose(b).compose(c.inverse())
        assert not d.is_identity_channel()
        assert d.compose(d.inverse()).is_identity_channel()
        assert a == CliffordOp.from_gates(4, words[0]) and a != b
        assert hash(a) == hash(CliffordOp.from_gates(4, words[0]))
        assert built == []

    def test_from_images_rejects_broken_commutation(self):
        with pytest.raises(PauliAlgebraError, match="commutation"):
            CliffordOp.from_images([P("XI"), P("IX")], [P("ZI"), P("XZ")])
        with pytest.raises(PauliAlgebraError, match="Hermitian"):
            CliffordOp.from_images([P("X")], [PauliString([0], [1], 1)])


class TestGateOperands:
    def test_negative_qubit_rejected(self):
        with pytest.raises(PauliAlgebraError):
            CliffordOp.from_gates(2, [("CNOT", (0, -1))])

    def test_extra_qubit_rejected(self):
        with pytest.raises(PauliAlgebraError):
            CliffordOp.from_gates(2, [("H", (0, 1))])

    def test_repeated_qubit_rejected(self):
        with pytest.raises(PauliAlgebraError):
            CliffordOp.from_gates(2, [("CNOT", (0, 0))])

    def test_qubit_past_register_is_a_value_error(self):
        with pytest.raises(PauliAlgebraError):
            CliffordOp.from_gates(2, [("SWAP", (0, 2))])

    @pytest.mark.parametrize("name", ["T", "M", "FOO"])
    def test_non_clifford_name_rejected(self, name):
        with pytest.raises(PauliAlgebraError):
            CliffordOp.from_gates(1, [(name, (0,))])

    def test_repeated_qubit_rejected_in_circuits(self):
        with pytest.raises(PauliAlgebraError):
            parse_circuit("H 0\nCNOT 1 1\n")

    def test_circuit_gates_accepted(self):
        circ = parse_circuit("H 0\nCNOT 0 1\n")
        assert (CliffordOp.from_gates(2, circ.gates)
                == CliffordOp.from_gates(2, [("H", (0,)), ("CNOT", (0, 1))]))
