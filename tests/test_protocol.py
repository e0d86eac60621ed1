"""Session runtime and transcript auditing."""
import json
import warnings

import numpy as np
import pytest

from qhelab.cli import main
from qhelab.paulikey import all_keys, prepare_magic_register
from qhelab.paulis import Circuit, Gate, parse_circuit
from qhelab.permkey import RegisterError
from qhelab.protocol import (ProtocolViolation, Transcript, audit_transcript,
                             canary_session, load_session_config, run_session)
from qhelab.schemes import SchemeError
from qhelab.states import (VECTOR_QUBIT_CAP, BackendError, DensityMatrix,
                           trace_distance)


class TestRunSession:
    def test_pauli_h_session(self):
        rng = np.random.default_rng(1)
        out, ref, tr = run_session("pauli", "0", Circuit(1, (Gate("H", (0,)),)),
                                   rng)
        assert trace_distance(out, ref) < 1e-12
        kinds = [(m.sender, m.kind) for m in tr.messages]
        assert kinds == [("client", "quantum-handoff"),
                         ("server", "quantum-handoff")]

    def test_clifford_only_has_no_classical_traffic(self):
        rng = np.random.default_rng(2)
        circuit = parse_circuit("H 0\nCNOT 0 1\nS 1\nCZ 0 1\n")
        _, _, tr = run_session("pauli", "0+", circuit, rng)
        assert tr.classical_slots() == []

    @pytest.mark.parametrize("seed", range(15))
    def test_pauli_t_sessions_decrypt_exactly(self, seed):
        rng = np.random.default_rng(seed)
        circuit = Circuit(1, (Gate("T", (0,)), Gate("H", (0,))))
        out, ref, tr = run_session("pauli", "+", circuit, rng)
        assert trace_distance(out, ref) < 1e-10
        assert len(tr.classical_slots()) == 1

    @pytest.mark.parametrize("k", range(1, VECTOR_QUBIT_CAP))
    def test_t_h_powers_stop_only_by_design(self, k):
        """(T H)^k at seed 0 holds 1 + k qubits on the state vector: it
        completes, or the pending correction blocks an injection; the
        backend's cap never stops it."""
        circuit = parse_circuit("T 0\nH 0\n" * k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                out, ref, _ = run_session("pauli", "0", circuit,
                                          np.random.default_rng(0))
            except SchemeError as err:
                assert "pending correction blocks" in str(err)
            else:
                assert trace_distance(out, ref) < 1e-12

    def test_t_h_power_past_the_vector_cap(self):
        circuit = parse_circuit("T 0\nH 0\n" * VECTOR_QUBIT_CAP)
        with pytest.raises(BackendError, match="capped at 12"):
            run_session("pauli", "0", circuit, np.random.default_rng(0))

    def test_perm_t_session_message_shape(self):
        rng = np.random.default_rng(3)
        out, ref, tr = run_session("perm", "+", Circuit(1, (Gate("T", (0,)),)),
                                   rng, m=1)
        assert trace_distance(out, ref) < 1e-10
        shapes = [(m.sender, m.kind, len(m.payload)) for m in tr.messages]
        # server sends 2m bits, client answers with one row label, twice
        assert shapes[1] == ("server", "classical-bits", 2)
        assert shapes[2] == ("client", "classical-bits", 1)
        assert shapes[3] == ("server", "classical-bits", 2)
        assert shapes[4] == ("client", "classical-bits", 1)

    def test_unknown_scheme(self):
        with pytest.raises(ProtocolViolation):
            run_session("rot13", "0", Circuit(1, ()), np.random.default_rng(0))

    @pytest.mark.parametrize("plain", ["01", "1Z"])
    def test_perm_session_takes_one_plaintext_character(self, plain):
        circuit = Circuit(1, (Gate("T", (0,)),))
        with pytest.raises(RegisterError, match="one character"):
            run_session("perm", plain, circuit, np.random.default_rng(1))

    @pytest.mark.parametrize("scheme, plain, text, reason", [
        ("perm", "0", "CNOT 0 1\n", "one data row"),
        ("pauli", "01", "H 0\n", "plaintext length"),
    ])
    def test_session_rejections(self, scheme, plain, text, reason):
        with pytest.raises(ProtocolViolation, match=reason):
            run_session(scheme, plain, parse_circuit(text),
                        np.random.default_rng(0))

    def test_roundtrip_rejection_exits_2(self, tmp_path, capsys):
        circ = tmp_path / "cnot.qc"
        circ.write_text("CNOT 0 1\n")
        code = main(["roundtrip", "perm", "-c", str(circ), "-i", "0",
                     "--seed", "1"])
        assert code == 2
        assert "one data row" in capsys.readouterr().err

    def test_transcript_determinism(self):
        circuit = Circuit(1, (Gate("T", (0,)), Gate("H", (0,))))
        a = run_session("perm", "0", circuit, np.random.default_rng(42), m=1)[2]
        b = run_session("perm", "0", circuit, np.random.default_rng(42), m=1)[2]
        assert a.to_jsonl() == b.to_jsonl()

    def test_server_view_reproducible_without_keys(self):
        """Averaged over keys, the pauli handoff is the maximally mixed
        state: a key-free simulator reproduces the server's entire view."""
        rng = np.random.default_rng(4)
        for spec in ("0", "+", "i"):
            rho = DensityMatrix.product(spec)
            acc = np.zeros((2, 2), dtype=complex)
            for key in all_keys(1):
                cipher, _, _ = prepare_magic_register(rho, key, 0, rng)
                acc += cipher.mat
            assert np.max(np.abs(acc / 4 - np.eye(2) / 2)) < 1e-14


class TestTranscript:
    def test_jsonl_round_trip_fields(self):
        tr = Transcript()
        tr.log("client", "quantum-handoff", [3])
        tr.log("server", "classical-bits", [0, 1])
        lines = tr.to_jsonl().strip().splitlines()
        blobs = [json.loads(line) for line in lines]
        assert blobs[0] == {"role": "client", "kind": "quantum-handoff",
                            "payload": [3]}
        assert blobs[1]["payload"] == [0, 1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolViolation):
            Transcript().log("client", "smoke-signals", [1])


class TestSessionConfig:
    GOOD = {"scheme": "perm", "circuit": "t.qc", "seed": 7, "runs": 1000}

    def _load(self, tmp_path, blob):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(blob))
        return load_session_config(str(path))

    def test_defaults(self, tmp_path):
        blob = self._load(tmp_path, self.GOOD)
        assert blob["plaintexts"] == ["0", "1"] and blob["m"] == 1

    def test_not_an_object(self, tmp_path):
        with pytest.raises(ProtocolViolation, match="JSON object"):
            self._load(tmp_path, [self.GOOD])

    @pytest.mark.parametrize("key, value", [
        ("scheme", 3), ("scheme", None), ("circuit", ["t.qc"]),
        ("circuit", None), ("seed", "7"), ("seed", 7.0), ("seed", True),
        ("runs", "1000"), ("runs", False), ("m", "3"), ("m", True),
    ])
    def test_field_types(self, tmp_path, key, value):
        with pytest.raises(ProtocolViolation, match=repr(key)):
            self._load(tmp_path, {**self.GOOD, key: value})

    @pytest.mark.parametrize("value", ["0,1", ["0", 1], [["0"]], {"0": "1"}])
    def test_plaintexts_list_of_strings(self, tmp_path, value):
        with pytest.raises(ProtocolViolation, match="plaintexts"):
            self._load(tmp_path, {**self.GOOD, "plaintexts": value})


class TestAudit:
    def test_insufficient_samples_rejected(self):
        with pytest.raises(ProtocolViolation):
            audit_transcript(lambda p, rng: Transcript(), ["0", "1"], 10)

    def test_single_plaintext_rejected(self):
        with pytest.raises(ProtocolViolation):
            audit_transcript(lambda p, rng: Transcript(), ["0"], 1000)

    def test_pauli_clifford_sessions_trivially_silent(self):
        factory = lambda p, rng: run_session(
            "pauli", p, Circuit(1, (Gate("H", (0,)),)), rng)[2]
        rep = audit_transcript(factory, ["0", "1"], 1000)
        assert rep["max_tv"] == 0.0
        assert rep["slots"] == {}

    def test_perm_t_rows_leak_nothing(self):
        factory = lambda p, rng: run_session(
            "perm", p, Circuit(1, (Gate("T", (0,)),)), rng, m=1)[2]
        rep = audit_transcript(factory, ["0", "1"], 1000)
        assert rep["max_tv"] < 0.05

    def test_canary_flagged(self):
        factory = lambda p, rng: canary_session(p, Circuit(1, ()), rng)[2]
        rep = audit_transcript(factory, ["0", "1"], 1000)
        assert rep["max_tv"] > 0.9

    def test_tv_from_exact_counts(self):
        """The canary's payloads never coincide across plaintexts, so its
        TV is exactly 1; float per-run frequencies read above 1."""
        factory = lambda p, rng: canary_session(p, Circuit(1, ()), rng)[2]
        rep = audit_transcript(factory, ["0", "1"], 1000, base_seed=3)
        assert rep["max_tv"] == 1.0
        assert all(tv <= 1.0 for tv in rep["slots"].values())
