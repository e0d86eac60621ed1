"""Displacement-key transport identities, checked in phase space."""
import numpy as np
import pytest

from qhelab.cv import (DisplacementVec, GaussianError, NullifierSet,
                       SymplecticOp, circuit_symplectic, commutation_phase,
                       gkp_logical_to_displacement, nullifier_key_offset,
                       nullifier_transport, parse_gaussian_circuit,
                       symplectic_form, transport_key_gaussian,
                       transport_key_squeezer)


def random_circuit(rng, n_layers=6, modes=3):
    layers = []
    for _ in range(n_layers):
        kind = rng.choice(["BS", "PS", "SMS"])
        if kind == "BS":
            i, j = rng.choice(modes, 2, replace=False)
            layers.append(("BS", int(i), int(j), float(rng.uniform(0, np.pi))))
        elif kind == "PS":
            layers.append(("PS", int(rng.integers(modes)),
                           float(rng.uniform(0, 2 * np.pi))))
        else:
            layers.append(("SMS", int(rng.integers(modes)),
                           float(rng.uniform(-1.2, 1.2)),
                           float(rng.uniform(0, 2 * np.pi))))
    return layers


def random_key(rng, modes=3):
    return DisplacementVec(rng.normal(size=modes) + 1j * rng.normal(size=modes))


class TestLinearTransport:
    def test_identity(self):
        """The real-mixer beamsplitter is an involution: twice is the
        identity network."""
        key = DisplacementVec(np.array([1 + 2j, -0.5]))
        out = transport_key_gaussian([("BS", 0, 1, 0.7)] * 2, key, 2)
        assert np.allclose(out.alpha, key.alpha, rtol=0, atol=1e-14)

    def test_fifty_fifty_beamsplitter(self):
        out = transport_key_gaussian([("BS", 0, 1, np.pi / 4)], DisplacementVec(
            np.array([np.sqrt(2), 0])), 2)
        assert np.allclose(out.alpha, [1.0, 1.0])

    def test_phase_shifter_quarter_turn(self):
        out = transport_key_gaussian([("PS", 0, np.pi / 2)],
                                     DisplacementVec(np.array([1.0])), 1)
        assert np.allclose(out.alpha, [1j])

    def test_non_unitary_rejected(self):
        with pytest.raises(GaussianError):
            SymplecticOp.from_passive(np.array([[2.0, 0], [0, 1.0]]))


class TestSqueezerTransport:
    def test_no_squeezing(self):
        assert transport_key_squeezer(0.0, 1.3, 0.7 - 0.2j) == 0.7 - 0.2j

    def test_real_axis_doubles(self):
        assert transport_key_squeezer(np.log(2), 0.0, 1.0) == pytest.approx(2.0)

    def test_imaginary_axis_halves(self):
        got = transport_key_squeezer(np.log(2), 0.0, 1j)
        assert got == pytest.approx(0.5j)

    def test_infinite_parameter_rejected(self):
        with pytest.raises(GaussianError):
            transport_key_squeezer(np.inf, 0.0, 1.0)


class TestGaussianTransport:
    def test_empty_circuit(self):
        key = DisplacementVec(np.array([1j, 2.0]))
        assert np.allclose(transport_key_gaussian([], key, 2).alpha, key.alpha,
                           rtol=0, atol=1e-14)

    def test_bs_then_sms_composes_the_examples(self):
        layers = [("BS", 0, 1, np.pi / 4), ("SMS", 0, np.log(2), 0.0)]
        out = transport_key_gaussian(layers, DisplacementVec(
            np.array([np.sqrt(2), 0.0])), 2)
        assert np.allclose(out.alpha, [2.0, 1.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_commutation_identity_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        layers = random_circuit(rng)
        key = random_key(rng)
        moved = transport_key_gaussian(layers, key, 3)
        stot = circuit_symplectic(layers, 3)
        assert np.max(np.abs(stot.apply_quad(key.quad_vector())
                             - moved.quad_vector())) < 1e-10

    @pytest.mark.parametrize("seed", range(100))
    def test_group_property(self, seed):
        rng = np.random.default_rng(1000 + seed)
        a = random_circuit(rng, 3)
        b = random_circuit(rng, 3)
        key = random_key(rng)
        sequential = transport_key_gaussian(
            b, transport_key_gaussian(a, key, 3), 3)
        joint = transport_key_gaussian(a + b, key, 3)
        assert np.allclose(sequential.alpha, joint.alpha, rtol=0, atol=1e-10)

    def test_linearity_exact(self):
        rng = np.random.default_rng(7)
        layers = random_circuit(rng)
        k1, k2 = random_key(rng), random_key(rng)
        lhs = transport_key_gaussian(layers, k1 + k2, 3)
        rhs = DisplacementVec(
            transport_key_gaussian(layers, k1, 3).alpha
            + transport_key_gaussian(layers, k2, 3).alpha)
        assert np.max(np.abs(lhs.alpha - rhs.alpha)) < 1e-12

    def test_displacement_layer_fixes_key_and_shifts_state(self):
        layers = [("DISP", 0, 1.5, -0.5)]
        key = DisplacementVec(np.array([0.3 + 0.1j]))
        assert np.allclose(transport_key_gaussian(layers, key, 1).alpha,
                           key.alpha, rtol=0, atol=1e-14)
        op = circuit_symplectic(layers, 1)
        assert np.allclose(op.shift, [1.5, -0.5])

    def test_bad_layer_rejected(self):
        with pytest.raises(GaussianError):
            transport_key_gaussian([("WIG", 0, 1.0)], DisplacementVec(np.zeros(1)), 1)


class TestSymplecticOp:
    def test_form_preserved(self):
        rng = np.random.default_rng(2)
        op = circuit_symplectic(random_circuit(rng), 3)
        omega = symplectic_form(3)
        assert np.max(np.abs(op.mat.T @ omega @ op.mat - omega)) < 1e-10

    def test_non_symplectic_rejected(self):
        with pytest.raises(GaussianError):
            SymplecticOp(np.diag([2.0, 2.0]))

    def test_compose_tracks_shift(self):
        a = SymplecticOp(np.eye(2), shift=np.array([1.0, 0.0]))
        b = SymplecticOp.from_squeezer(1, 0, np.log(2), 0.0)
        out = b.compose(a)
        assert np.allclose(out.shift, [2.0, 0.0])


class TestNullifiers:
    def test_identity_transport(self):
        nulls = NullifierSet([[1, -1]], [[1, 0]])
        rows = nullifier_transport(nulls, SymplecticOp.identity(2))
        assert np.allclose(rows, nulls.rows())

    def test_swap(self):
        nulls = NullifierSet([[1, -1]], [[0, 0]])
        swap = SymplecticOp.from_passive(np.array([[0, 1], [1, 0]], complex))
        got = nullifier_transport(nulls, swap)[0]
        assert np.allclose(got, [-1, 1, 0, 0])

    def test_key_offset_linear_functional(self):
        nulls = NullifierSet([[1, -1]], [[0, 0]])
        key = DisplacementVec.from_quadratures([1, 0], [0, 0])
        assert nullifier_key_offset(nulls.rows()[0], key) == pytest.approx(1.0)

    def test_coefficient_domain_enforced(self):
        with pytest.raises(GaussianError):
            NullifierSet([[2, 0]], [[0, 0]])

    def test_commute_with_keys_up_to_scalar(self):
        """Transported nullifier vs key commutator is the predicted
        symplectic-form number for random circuits."""
        rng = np.random.default_rng(3)
        nulls = NullifierSet([[1, 0, -1]], [[0, 1, 0]])
        for _ in range(20):
            op = circuit_symplectic(random_circuit(rng), 3)
            key = random_key(rng)
            row = nullifier_transport(nulls, op)[0]
            offset = nullifier_key_offset(row, key)
            assert np.isfinite(offset)


class TestGKP:
    def test_x_is_position_shift(self):
        d = gkp_logical_to_displacement("X", 2, np.sqrt(np.pi))
        assert d.x()[0] == pytest.approx(np.sqrt(np.pi))
        assert d.p()[0] == pytest.approx(0.0)

    def test_z_is_momentum_shift(self):
        d = gkp_logical_to_displacement("Z", 2, np.sqrt(np.pi))
        assert d.p()[0] == pytest.approx(2 * np.pi / (2 * np.sqrt(np.pi)))
        assert d.p()[0] == pytest.approx(np.sqrt(np.pi))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_commutation_scalar(self, n):
        alpha = 0.8
        dx = gkp_logical_to_displacement("X", n, alpha)
        dz = gkp_logical_to_displacement("Z", n, alpha)
        assert commutation_phase(dz, dx) == pytest.approx(
            np.exp(2j * np.pi / n), abs=1e-12)

    def test_keys_compose_like_paulis(self):
        """X and Z images add as displacements; the scalar tracks order."""
        dx = gkp_logical_to_displacement("X", 2, 1.0)
        dz = gkp_logical_to_displacement("Z", 2, 1.0)
        both = dx + dz
        assert np.allclose(both.quad_vector(),
                           dx.quad_vector() + dz.quad_vector())
        assert commutation_phase(dx, dz) == pytest.approx(
            np.conj(commutation_phase(dz, dx)))

    def test_bad_arguments(self):
        with pytest.raises(GaussianError):
            gkp_logical_to_displacement("Y", 2, 1.0)
        with pytest.raises(GaussianError):
            gkp_logical_to_displacement("X", 1, 1.0)


class TestCircuitFormat:
    def test_round_trip(self):
        text = "BS 0 1 0.5\nPS 2 1.25\nSMS 1 0.3 0.0\nDISP 0 1.0 -2.0\n"
        assert parse_gaussian_circuit(text) == [
            ("BS", 0, 1, 0.5), ("PS", 2, 1.25), ("SMS", 1, 0.3, 0.0),
            ("DISP", 0, 1.0, -2.0)]

    def test_comments(self):
        layers = parse_gaussian_circuit("# hi\nPS 0 1.0\n")
        assert layers == [("PS", 0, 1.0)]

    def test_parse_errors_report_line(self):
        with pytest.raises(GaussianError, match="line 1"):
            parse_gaussian_circuit("BS 0 1\n")
