"""Pauli-key scheme: twirl, transport, T injection, encrypted syndrome
measurement, IQP sampling, and composition with stabilizer codes."""
import dataclasses
import warnings

import numpy as np
import pytest

from oracles import Calls, random_clifford_circuit
from qhelab import protocol
from qhelab.paulis import (Circuit, CliffordOp, Gate, PauliAlgebraError,
                           PauliString, parse_circuit, random_clifford,
                           random_pauli)
from qhelab.paulikey import (EvalTracker, PauliKey, all_keys,
                             compactness_budget,
                             compose_with_stabilizer_code, encrypt,
                             encrypted_stabilizer_measurement,
                             homomorphic_eval, inject_t_gate, iqp_distribution,
                             pauli_scheme, prepare_magic_register,
                             transport_key)
from qhelab.qec import extract_syndrome, repetition_code, steane_code
from qhelab.schemes import SchemeError, ciphertext_average, derive_decryption
from qhelab.states import (DensityMatrix, StabilizerState, StateVector,
                           trace_distance)

P = PauliString.from_label


class TestEncrypt:
    def test_identity_key(self):
        rho = DensityMatrix.product("+0")
        assert trace_distance(encrypt(PauliKey.identity(2), rho), rho) == 0.0

    def test_x_key_flips(self):
        out = encrypt(PauliKey.from_label("X"), DensityMatrix.product("0"))
        assert trace_distance(out, DensityMatrix.product("1")) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_twirl_is_maximally_mixed(self, n):
        rng = np.random.default_rng(n)
        rho = DensityMatrix.random_pure(n, rng)
        avg = ciphertext_average(pauli_scheme(n), rho)
        assert np.max(np.abs(avg.mat - np.eye(2 ** n) / 2 ** n)) < 1e-14

    def test_size_mismatch(self):
        with pytest.raises(SchemeError):
            encrypt(PauliKey.identity(1), DensityMatrix.product("00"))


class TestTransportKey:
    def test_x_through_h_is_z(self):
        key, sign = transport_key(PauliKey.from_label("X"),
                                  CliffordOp.from_gates(1, [("H", (0,))]))
        assert key.label() == "Z" and sign == 1

    def test_z_through_s_unchanged(self):
        key, sign = transport_key(PauliKey.from_label("Z"),
                                  CliffordOp.from_gates(1, [("S", (0,))]))
        assert key.label() == "Z" and sign == 1

    def test_identity_fixes_everything(self):
        for key in all_keys(2):
            moved, sign = transport_key(key, CliffordOp.identity(2))
            assert moved == key and sign == 1

    def test_sign_recorded_not_exposed(self):
        # H sends Y to -Y: the key stays Y, the sign carries the minus
        key, sign = transport_key(PauliKey.from_label("Y"),
                                  CliffordOp.from_gates(1, [("H", (0,))]))
        assert key.label() == "Y" and sign == -1

    @pytest.mark.parametrize("seed", range(10))
    def test_transport_associativity(self, seed):
        rng = np.random.default_rng(seed)
        from qhelab.paulis import random_clifford
        c1, c2 = random_clifford(3, rng), random_clifford(3, rng)
        key = PauliKey.random(3, rng)
        through_both = transport_key(key, c2.compose(c1))[0]
        sequential = transport_key(transport_key(key, c1)[0], c2)[0]
        assert through_both == sequential


class TestHomomorphicEval:
    def test_h_roundtrip_via_transported_key(self):
        sch = pauli_scheme(1)
        key = PauliKey.from_label("X")
        h = CliffordOp.from_gates(1, [("H", (0,))])
        served = homomorphic_eval(Circuit(1, (Gate("H", (0,)),)),
                                  sch.encrypt(key, DensityMatrix.product("0")))
        out = derive_decryption(sch, key, h)(served)
        assert trace_distance(out, DensityMatrix.product("+")) < 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_deep_random_roundtrips(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_clifford_circuit(3, 20, rng)
        comp = CliffordOp.from_circuit(circuit)
        sch = pauli_scheme(3)
        key = PauliKey.random(3, rng)
        rho = DensityMatrix.random_pure(3, rng)
        out = derive_decryption(sch, key, comp)(
            homomorphic_eval(circuit, sch.encrypt(key, rho)))
        assert trace_distance(out, rho.apply_clifford(comp)) < 1e-10

    def test_empty_circuit_recovers_exactly(self):
        sch = pauli_scheme(2)
        key = PauliKey.from_label("YZ")
        rho = DensityMatrix.product("+1")
        out = sch.decrypt(key, sch.encrypt(key, rho))
        assert trace_distance(out, rho) == 0.0

    def test_t_without_magic_rejected(self):
        with pytest.raises(SchemeError):
            homomorphic_eval(Circuit(1, (Gate("T", (0,)),)),
                             DensityMatrix.product("0"))


class TestInjectT:
    def _run_single_t(self, plaintext, seed):
        rng = np.random.default_rng(seed)
        key = PauliKey.random(1, rng)
        cipher, tracker, magic = prepare_magic_register(
            DensityMatrix.product(plaintext), key, 1, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cipher, msgs = inject_t_gate(cipher, 0, magic, tracker, rng)
        out = tracker.decrypt(cipher).reduced_density([0])
        return out, msgs

    def test_t_on_zero_is_fixed_point(self):
        out, _ = self._run_single_t("0", 3)
        assert trace_distance(out, DensityMatrix.product("0")) < 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_t_on_plus_all_keys_and_outcomes(self, seed):
        out, msgs = self._run_single_t("+", seed)
        assert trace_distance(out, DensityMatrix.product("T")) < 1e-10
        assert msgs[0]["kind"] == "classical-bits"

    @pytest.mark.parametrize("seed", range(12))
    def test_vector_gadget_matches_dense(self, seed):
        """The same magic register and injections on a dense and on a
        state-vector plaintext, at the same seed: the same messages and
        tracker keys, the states within 1e-12, the streams aligned."""
        circuit = [("H", (0,)), ("T", (0,)), ("CNOT", (0, 1)), ("T", (1,)),
                   ("S", (0,)), ("T", (0,))]
        runs = []
        for backend in (DensityMatrix, StateVector):
            rng = np.random.default_rng(seed)
            key = PauliKey.random(2, rng)
            state, tracker, magic = prepare_magic_register(
                backend.product("+1"), key, 3, rng)
            msgs = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for name, qs in circuit:
                    if name == "T":
                        state, sent = inject_t_gate(state, qs[0], magic,
                                                    tracker, rng)
                        msgs += sent
                    else:
                        state = state.apply_gate(name, qs)
                        tracker.absorb(name, qs)
            assert state.BACKEND == backend.BACKEND
            runs.append((msgs, tracker.key, state.to_density().mat, rng.random()))
        (dense_msgs, dense_key, dense, dense_next), (msgs, key, vec, vec_next) = runs
        assert msgs == dense_msgs and key == dense_key
        assert np.abs(vec - dense).max() <= 1e-12
        assert vec_next == dense_next

    def test_magic_exhaustion(self):
        rng = np.random.default_rng(0)
        cipher, tracker, magic = prepare_magic_register(
            DensityMatrix.product("0"), PauliKey.identity(1), 0, rng)
        with pytest.raises(SchemeError):
            inject_t_gate(cipher, 0, magic, tracker, rng)

    def test_compactness_warning(self):
        rng = np.random.default_rng(1)
        cipher, tracker, magic = prepare_magic_register(
            DensityMatrix.product("0"), PauliKey.identity(1), 2, rng)
        budget = compactness_budget(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(budget + 1):
                cipher, _ = inject_t_gate(cipher, 0, magic, tracker, rng)
        assert any("compactness" in str(w.message) for w in caught)

    def test_three_ts_with_interleaved_cliffords(self):
        """Deterministic decryption after <= 3 injections plus Cliffords."""
        for seed in range(25):
            rng = np.random.default_rng(seed)
            key = PauliKey.random(2, rng)
            rho = DensityMatrix.product("+0")
            cipher, tracker, magic = prepare_magic_register(rho, key, 3, rng)
            n = cipher.n_qubits
            ref = rho

            def both(state, ref, name, qs):
                tracker.absorb(name, qs)
                return state.apply_gate(name, qs), ref.apply_gate(name, qs)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cipher, msgs = inject_t_gate(cipher, 0, magic, tracker, rng)
                ref = ref.apply_gate("T", (0,))
                cipher, ref = both(cipher, ref, "CNOT", (0, 1))
                cipher, msgs = inject_t_gate(cipher, 1, magic, tracker, rng)
                ref = ref.apply_gate("T", (1,))
                cipher, ref = both(cipher, ref, "CZ", (0, 1))
                cipher, msgs = inject_t_gate(cipher, 0, magic, tracker, rng)
                ref = ref.apply_gate("T", (0,))
            out = tracker.decrypt(cipher).reduced_density([0, 1])
            assert trace_distance(out, ref) < 1e-10

    @pytest.mark.parametrize("seed", range(50))
    def test_randomized_t_clifford_programs(self, seed):
        """Random interleavings of T markers with gates that keep pending
        corrections diagonal, plus an arbitrary Clifford tail: decryption
        must match the dense reference exactly."""
        rng = np.random.default_rng(seed)
        n = 2
        safe_1q = ["S", "Z", "X", "Y"]
        program: list[tuple] = []
        for _ in range(3):
            for _ in range(int(rng.integers(0, 4))):
                if rng.random() < 0.5:
                    program.append((str(rng.choice(safe_1q)),
                                    (int(rng.integers(n)),)))
                else:
                    a, b = rng.choice(n, 2, replace=False)
                    program.append((str(rng.choice(["CZ", "CNOT"])),
                                    (int(a), int(b))))
            program.append(("T", (int(rng.integers(n)),)))
        tail = random_clifford_circuit(n, 6, rng)
        program += [(g.name, g.qubits) for g in tail.gates]

        key = PauliKey.random(n, rng)
        rho = DensityMatrix.random_pure(n, rng)
        cipher, tracker, magic = prepare_magic_register(rho, key, 3, rng)
        ref = rho
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name, qs in program:
                if name == "T":
                    cipher, _ = inject_t_gate(cipher, qs[0], magic, tracker,
                                              rng)
                    ref = ref.apply_gate("T", qs)
                else:
                    full_qs = qs
                    cipher = cipher.apply_gate(name, full_qs)
                    tracker.absorb(name, full_qs)
                    ref = ref.apply_gate(name, qs)
        out = tracker.decrypt(cipher).reduced_density(list(range(n)))
        assert trace_distance(out, ref) < 1e-10

    def test_blocked_injection_point_raises(self):
        """An H between two T's on the same wire moves the pending
        correction off the diagonal; that path needs the general
        exponential decryption and is rejected."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            key = PauliKey.from_label("XI")  # X key can flip the reading
            rho = DensityMatrix.product("+0")
            cipher, tracker, magic = prepare_magic_register(rho, key, 2, rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cipher, _ = inject_t_gate(cipher, 0, magic, tracker, rng)
                if tracker.pending.is_identity_channel():
                    continue
                cipher = cipher.apply_gate("H", (0,))
                tracker.absorb("H", (0,))
                with pytest.raises(SchemeError):
                    inject_t_gate(cipher, 0, magic, tracker, rng)
                return
        pytest.fail("no seed produced a pending correction")


class _PerGateLedger:
    """Reference ledger: one CliffordOp per absorbed gate, the key moved by
    `transport_key` and the pending correction conjugated gate by gate."""

    def __init__(self, key: PauliKey):
        self.n_qubits = key.n_qubits
        self.key = key
        self.pending = CliffordOp.identity(key.n_qubits)
        self.t_injected = 0

    def absorb(self, name, qs):
        gate = CliffordOp.from_gates(self.n_qubits, [(name, qs)])
        self.key = transport_key(self.key, gate)[0]
        if not self.pending.is_identity_channel():
            self.pending = gate.compose(self.pending).compose(gate.inverse())

    def correct_first(self, fix):
        self.pending = self.pending.compose(fix)

    def blocks(self, q):
        zq = PauliString.single(self.n_qubits, q, "Z")
        return self.pending.conjugate(zq) != zq

    def key_x(self, q):
        return int(self.key.pauli.x[q])


class TestBitRowLedger:
    """The packed-row tracker against the per-gate reference ledger."""

    def _program(self, rng, n_data, n_t):
        n = n_data + n_t
        steps = []
        for _ in range(n_t):
            steps += [(g.name, g.qubits) for g in
                      random_clifford_circuit(n, int(rng.integers(0, 7)), rng).gates]
            steps.append(("T", (int(rng.integers(n_data)),)))
        steps += [(g.name, g.qubits)
                  for g in random_clifford_circuit(n, 8, rng).gates]
        return steps

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_gate_reference(self, seed):
        rng = np.random.default_rng(900 + seed)
        n_data = int(rng.integers(1, 5))
        n_t = int(rng.integers(1, 7 - n_data))
        read_every_step = seed % 2 == 0
        key = PauliKey.random(n_data, rng)
        rho = DensityMatrix.random_pure(n_data, rng)
        cipher, tracker, magic = prepare_magic_register(rho, key, n_t, rng)
        ref_magic = dataclasses.replace(magic)
        ref = _PerGateLedger(tracker.key)
        state = cipher
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name, qs in self._program(rng, n_data, n_t):
                if name == "T":
                    draw = int(rng.integers(2 ** 32))
                    try:
                        out, _ = inject_t_gate(state, qs[0], magic, tracker,
                                               np.random.default_rng(draw))
                    except SchemeError:
                        with pytest.raises(SchemeError):
                            inject_t_gate(state, qs[0], ref_magic, ref,
                                          np.random.default_rng(draw))
                        break
                    ref_out, _ = inject_t_gate(state, qs[0], ref_magic, ref,
                                               np.random.default_rng(draw))
                    assert np.array_equal(out.mat, ref_out.mat)
                    state = out
                else:
                    state = state.apply_gate(name, qs)
                    tracker.absorb(name, qs)
                    ref.absorb(name, qs)
                assert tracker.key == ref.key
                if read_every_step or name == "T":
                    got, want = tracker.pending, ref.pending
                    assert got == want and got.gates == want.gates
        got, want = tracker.pending, ref.pending
        assert got == want and got.gates == want.gates
        key_op = CliffordOp.from_gates(ref.key.n_qubits, ref.key.word())
        expect = state.apply_clifford(ref.pending.inverse().compose(key_op))
        assert np.max(np.abs(tracker.decrypt(state).mat - expect.mat)) < 1e-12

    def test_block_check_matches_tableau_check(self):
        """On random ledgers that carry a pending correction, the one-row
        check answers as conjugating Z_q by the materialised tableau, on
        every qubit; pending corrections that block are among them."""
        answers = []
        for seed in range(150):
            rng = np.random.default_rng(4000 + seed)
            n = int(rng.integers(1, 6))
            tracker = EvalTracker(PauliKey.random(n, rng))
            ref = _PerGateLedger(tracker.key)
            fix = (random_clifford(n, rng) if seed % 3 == 0 else
                   CliffordOp.from_gates(n, [("S", (int(rng.integers(n)),))]
                                         * int(rng.integers(1, 4))))
            for ledger in (tracker, ref):
                ledger.correct_first(fix)
            for step in range(3):
                for g in random_clifford_circuit(n, int(rng.integers(0, 6)),
                                                 rng).gates:
                    tracker.absorb(g.name, g.qubits)
                    ref.absorb(g.name, g.qubits)
                got = [tracker.blocks(q) for q in range(n)]
                assert got == [ref.blocks(q) for q in range(n)]
                answers += got
                if step == 1:   # an empty word after a read
                    assert tracker.pending == ref.pending
        assert True in answers and False in answers

    def test_absorb_builds_no_clifford(self, monkeypatch):
        rng = np.random.default_rng(5)
        tracker = EvalTracker(PauliKey.random(4, rng))
        tracker.correct_first(CliffordOp.from_gates(4, [("S", (1,))]))
        calls = Calls(monkeypatch)
        calls.count(CliffordOp, "__init__")
        for g in random_clifford_circuit(4, 40, rng).gates:
            tracker.absorb(g.name, g.qubits)
        assert calls.take("__init__") == 0
        assert not tracker.pending.is_identity_channel()
        assert calls.take("__init__") > 0

    def test_bad_gate_rejected(self):
        tracker = EvalTracker(PauliKey.identity(2))
        for name, qs in (("CNOT", (0, 0)), ("H", (2,)), ("T", (0,)),
                         ("H", (0, 1))):
            with pytest.raises(PauliAlgebraError):
                tracker.absorb(name, qs)

    def test_session_reads_build_no_key_or_clifford(self, monkeypatch):
        """A Pauli session on the 2-T benchmark circuit: the block check
        and decryption build no CliffordOp, and `inject_t_gate` builds no
        PauliKey.  Sessions that end with a pending correction are among
        them, so the checks are not vacuous."""
        circuit = parse_circuit(
            "H 0\nCNOT 0 1\nT 1\nH 2\nCNOT 2 3\nT 3\nCNOT 1 2\n")
        calls = Calls(monkeypatch)
        calls.count(CliffordOp, "__init__", "clifford")
        calls.count(PauliKey, "__init__", "key")
        calls.count(EvalTracker, "blocks", scope=True)
        calls.count(EvalTracker, "decrypt", scope=True,
                    note=lambda tracker, state: tracker._deferring)
        calls.count(protocol, "inject_t_gate", scope=True)
        for seed in range(12):
            protocol.run_session("pauli", "0000" if seed % 2 else "1010",
                                 circuit, np.random.default_rng(seed))
        assert calls.counts["blocks"] == 24 and calls.counts["decrypt"] == 12
        assert any(calls.log["decrypt"]) and not all(calls.log["decrypt"])
        assert calls.counts["clifford"] > 0
        assert calls.inside("blocks", "decrypt")["clifford"] == 0
        assert calls.inside("inject_t_gate")["key"] == 0

    def test_key_reads_as_a_positive_view(self):
        tracker = EvalTracker(PauliKey.from_label("XY"))
        tracker.absorb("H", (0,))
        tracker.absorb("S", (1,))
        assert tracker.key == PauliKey.from_label("ZX")
        assert tracker.key.pauli.sign() == 1


class TestKeyDraws:
    """The key draws' random streams, independent of the session pins."""

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_random_key_is_random_pauli(self, n):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        key, want = PauliKey.random(n, rng), random_pauli(n, ref)
        assert key.pauli == want
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n_t", [0, 1, 2, 5])
    def test_magic_keys_drawn_as_one_key_per_wire(self, n_t):
        """The magic wires' key bits are what n_t one-qubit
        `PauliKey.random` calls draw, x then z per wire, and nothing
        else is drawn."""
        data_key = PauliKey.from_label("XZY")
        rng, ref = np.random.default_rng(70 + n_t), np.random.default_rng(70 + n_t)
        _, tracker, _ = prepare_magic_register(StateVector.product("0+1"),
                                               data_key, n_t, rng)
        want = data_key
        for _ in range(n_t):
            want = want.tensor(PauliKey.random(1, ref))
        assert tracker.key == want
        assert rng.bit_generator.state == ref.bit_generator.state


class TestEncryptedStabilizerMeasurement:
    def test_codeword_reads_zero(self):
        rng = np.random.default_rng(0)
        _, raw, corr = encrypted_stabilizer_measurement(
            DensityMatrix.product("00"), P("ZZ"), PauliKey.identity(1), rng)
        assert (raw, corr) == (0, 0)

    def test_data_key_shows_in_encrypted_frame(self):
        rng = np.random.default_rng(1)
        # Encr_{X(x)I}(|00>) = |10>: the raw outcome reports the encrypted
        # frame's syndrome; the logical interpretation stays with QEC
        _, raw, corr = encrypted_stabilizer_measurement(
            DensityMatrix.product("10"), P("ZZ"), PauliKey.identity(1), rng)
        assert (raw, corr) == (1, 1)

    def test_ancilla_z_key_flips_raw_only(self):
        for plaintext, expect in (("00", 0), ("10", 1)):
            rng = np.random.default_rng(2)
            _, raw_i, corr_i = encrypted_stabilizer_measurement(
                DensityMatrix.product(plaintext), P("ZZ"),
                PauliKey.identity(1), rng)
            rng = np.random.default_rng(2)
            _, raw_z, corr_z = encrypted_stabilizer_measurement(
                DensityMatrix.product(plaintext), P("ZZ"),
                PauliKey.from_label("Z"), rng)
            assert corr_i == corr_z == expect
            assert raw_z == raw_i ^ 1

    def test_works_on_stabilizer_backend(self):
        rng = np.random.default_rng(3)
        st = StabilizerState.product("00")
        _, raw, corr = encrypted_stabilizer_measurement(
            st, P("ZZ"), PauliKey.from_label("X"), rng)
        assert corr == 0

    def test_y_factor_stabilizers(self):
        rng = np.random.default_rng(4)
        # |i i> is stabilized by YY... YxY has eigenvalue +1 on |ii>? check
        # via both backends agreeing
        st = DensityMatrix.product("im")
        _, raw, corr = encrypted_stabilizer_measurement(
            st, P("YY"), PauliKey.identity(1), rng)
        st2 = StabilizerState.product("im")
        _, raw2, corr2 = encrypted_stabilizer_measurement(
            st2, P("YY"), PauliKey.identity(1), np.random.default_rng(4))
        assert corr == corr2

    def test_non_pauli_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(SchemeError):
            encrypted_stabilizer_measurement(
                DensityMatrix.product("00"), P("-iXZ") * P("II"),
                PauliKey.identity(1), rng)


class TestIQP:
    def test_trivial_circuit(self):
        probs, _ = iqp_distribution(Circuit(1, ()), (0,))
        assert probs[0] == pytest.approx(1.0)

    def test_single_t_value(self):
        probs, _ = iqp_distribution(Circuit(1, (Gate("T", (0,)),)), (0,))
        assert probs[0] == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)

    def test_cz_distribution_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        circuit = Circuit(2, (Gate("CZ", (0, 1)),))
        probs, counts = iqp_distribution(circuit, (0, 0), n_samples=10 ** 5,
                                         rng=rng)
        # dense oracle: H(x)H CZ H(x)H |00>
        rho = DensityMatrix.product("00")
        for name, qs in [("H", (0,)), ("H", (1,)), ("CZ", (0, 1)),
                         ("H", (0,)), ("H", (1,))]:
            rho = rho.apply_gate(name, qs)
        dense_probs = np.real(np.diag(rho.mat))
        assert np.max(np.abs(probs - dense_probs)) < 1e-12
        tv = 0.5 * np.sum(np.abs(counts / counts.sum() - probs))
        assert tv < 0.02

    def test_z_key_invariance(self):
        """Encrypting inputs with Z keys leaves the decrypted distribution
        unchanged: P(y ^ kappa | x ^ kappa) == P(y | x)."""
        rng = np.random.default_rng(1)
        circuit = Circuit(2, (Gate("T", (0,)), Gate("CZ", (0, 1)),
                              Gate("S", (1,))))
        base, _ = iqp_distribution(circuit, (0, 1))
        for kappa in [(0, 1), (1, 0), (1, 1)]:
            x_enc = tuple(a ^ b for a, b in zip((0, 1), kappa))
            enc, _ = iqp_distribution(circuit, x_enc)
            k_idx = kappa[0] * 2 + kappa[1]
            decrypted = np.array([enc[y ^ k_idx] for y in range(4)])
            assert np.max(np.abs(decrypted - base)) < 1e-12

    def test_non_diagonal_gate_rejected(self):
        with pytest.raises(SchemeError):
            iqp_distribution(Circuit(1, (Gate("H", (0,)),)), (0,))


class TestComposeWithStabilizerCode:
    def test_repetition_end_to_end_under_encryption(self):
        """Inject X error on ciphertext, extract, correct, decode, decrypt."""
        code = repetition_code()
        sch = compose_with_stabilizer_code(code)
        rng = np.random.default_rng(0)
        for keylabel in ("I", "X", "Y", "Z"):
            key = PauliKey.from_label(keylabel)
            rho = DensityMatrix.product("+00")
            cipher = sch.encrypt(key, rho)
            cipher = cipher.apply_pauli(P("IXI"))
            cipher, syn, _ = extract_syndrome(cipher, code, 2, rng)
            assert syn.bits == (1, 1)
            from qhelab.qec import lookup_decode
            cipher = cipher.apply_pauli(lookup_decode(syn, code))
            out = sch.decrypt(key, cipher)
            assert trace_distance(out, rho) < 1e-10

    def test_no_error_syndromes_zero_for_all_keys(self):
        code = repetition_code()
        sch = compose_with_stabilizer_code(code)
        rng = np.random.default_rng(1)
        for key in all_keys(1):
            cipher = sch.encrypt(key, DensityMatrix.product("000"))
            _, syn, _ = extract_syndrome(cipher, code, 2, rng)
            assert syn.bits == (0, 0)

    def test_syndrome_distribution_blind_to_logical_content(self):
        """Corrected syndrome bits identical across logical plaintexts,
        for every generator of both codes and every weight<=1 error."""
        for code in (repetition_code(), steane_code()):
            sch = compose_with_stabilizer_code(code)
            for err_q in range(code.n):
                for letter in "XZ":
                    err = PauliString.single(code.n, err_q, letter)
                    seen = []
                    for plain in ("0", "1"):
                        rng = np.random.default_rng(9)
                        key = PauliKey.random(1, rng)
                        st = sch.encrypt(key, StabilizerState.product(
                            plain + "0" * (code.n - 1))).apply_pauli(err)
                        _, syn, _ = extract_syndrome(
                            st, code, len(code.generators), rng)
                        seen.append(syn.bits)
                    assert seen[0] == seen[1]

    def test_transport_through_logical_lift(self):
        from qhelab.qec import logical_lift
        code = steane_code()
        sch = compose_with_stabilizer_code(code)
        lifted = logical_lift(code, CliffordOp.from_gates(1, [("H", (0,))]))
        assert sch.allows(lifted)
        moved = sch.transport(PauliKey.from_label("X"), lifted)
        assert moved.label() == "Z"

    def test_fig3_syndrome_secrecy_literal_bits(self):
        """Corrected syndrome bits from the ancilla-coupled measurement are
        bit-identical when logical X/Z operations hit the plaintext."""
        from qhelab.qec import logical_lift
        for code in (repetition_code(), steane_code()):
            sch = compose_with_stabilizer_code(code)
            logical_ops = [CliffordOp.identity(code.n)]
            for letter in ("X", "Z"):
                logical_ops.append(logical_lift(
                    code, CliffordOp.from_gates(1, [(letter, (0,))])))
            for g in code.generators:
                bits = set()
                for lop in logical_ops:
                    rng = np.random.default_rng(13)
                    key = PauliKey.random(1, rng)
                    st = sch.encrypt(key, StabilizerState.product(
                        "0" + "0" * (code.n - 1))).apply_clifford(lop)
                    kappa_a = PauliKey.random(1, rng)
                    _, _, corrected = encrypted_stabilizer_measurement(
                        st, g, kappa_a, rng)
                    bits.add(corrected)
                assert len(bits) == 1, (code.name, g.label())
