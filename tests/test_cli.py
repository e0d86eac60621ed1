"""CLI contract: exit codes, determinism, formats."""
import json
import os
import subprocess
import sys

import pytest

from qhelab.cli import main

HERE = os.path.dirname(__file__)


@pytest.fixture()
def h_circuit(tmp_path):
    path = tmp_path / "h.qc"
    path.write_text("H 0\n")
    return str(path)


def run_cli(args):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


class TestRoundtrip:
    def test_pauli_identity_case(self, h_circuit):
        code, out = run_cli(["roundtrip", "pauli", "-c", h_circuit,
                             "-i", "0", "--seed", "1"])
        blob = json.loads(out)
        assert code == 0 and blob["trace_distance"] < 1e-8

    def test_perm_m5(self, h_circuit):
        code, out = run_cli(["roundtrip", "perm", "-m", "5", "-c", h_circuit,
                             "-i", "+", "--seed", "1"])
        assert code == 0
        assert json.loads(out)["trace_distance"] < 1e-10

    def test_malformed_circuit_exits_2(self, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_text("WOBBLE 0\n")
        code, _ = run_cli(["roundtrip", "pauli", "-c", str(bad), "-i", "0",
                           "--seed", "1"])
        assert code == 2

    def test_missing_file_exits_2(self):
        code, _ = run_cli(["roundtrip", "pauli", "-c", "/nope.qc", "-i", "0",
                           "--seed", "1"])
        assert code == 2

    def test_seed_required(self, h_circuit, monkeypatch):
        monkeypatch.delenv("QHELAB_SEED", raising=False)
        with pytest.raises(SystemExit):
            run_cli(["roundtrip", "pauli", "-c", h_circuit, "-i", "0"])

    def test_plaintext_length_mismatch_exits_2(self, h_circuit, capsys):
        code, _ = run_cli(["roundtrip", "pauli", "-c", h_circuit,
                           "-i", "01", "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("scheme", ["pauli", "perm"])
    def test_measurement_in_circuit_exits_2(self, tmp_path, scheme, capsys):
        circ = tmp_path / "m.qc"
        circ.write_text("H 0\nM 0 -> b\n")
        code, _ = run_cli(["roundtrip", scheme, "-c", str(circ), "-i", "0",
                           "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_from_environment(self, h_circuit, monkeypatch):
        monkeypatch.setenv("QHELAB_SEED", "7")
        code, out = run_cli(["roundtrip", "pauli", "-c", h_circuit, "-i", "0"])
        assert code == 0 and json.loads(out)["seed"] == 7


class TestSecurity:
    def test_pauli_basis_pair_delta_zero(self):
        code, out = run_cli(["security", "pauli", "--inputs", "0,1",
                             "--seed", "2"])
        assert code == 0
        assert json.loads(out)["delta"] < 1e-12

    def test_perm_exact_sweep_vs_bound(self):
        code, out = run_cli(["security", "perm", "--inputs", "0,1", "-m", "1",
                             "--seed", "2"])
        blob = json.loads(out)
        assert code == 0
        assert blob["delta"] <= blob["security_bound"]

    def test_oversize_dense_request_errors(self):
        code, _ = run_cli(["security", "pauli", "--inputs",
                           "0000000000,1111111111", "--seed", "2"])
        assert code == 2


class TestQecDemo:
    @pytest.mark.parametrize("codename,err", [("repetition3", "X1"),
                                              ("steane713", "Z4"),
                                              ("steane713", "Y0")])
    def test_correctable_walkthrough(self, codename, err):
        code, out = run_cli(["qec-demo", "--code", codename, "--error", err,
                             "--seed", "3"])
        assert code == 0 and "recovered: yes" in out


class TestUsageErrors:
    @pytest.mark.parametrize("err", ["X99", "Q1", "x-1", "X7", "Z", "XZ1"])
    def test_bad_qec_error_exits_2(self, err, capsys):
        code, out = run_cli(["qec-demo", "--code", "steane713", "--error", err,
                             "--seed", "3"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("err", ["x1", "Z6", "NONE"])
    def test_good_qec_error_accepted(self, err):
        code, out = run_cli(["qec-demo", "--code", "steane713", "--error", err,
                             "--seed", "3"])
        assert code == 0 and "recovered: yes" in out

    @pytest.mark.parametrize("mode", ["prob", "det"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_tgate_needs_a_trial(self, mode, trials, capsys):
        code, out = run_cli(["t-gate", "--mode", mode, "--trials", trials,
                             "--seed", "4"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_cv_check_needs_a_trial(self, trials, capsys):
        code, out = run_cli(["cv-check", "--trials", trials, "--seed", "1"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["security", "pauli", "--inputs", "0,1", "--format", "csv"],
        ["resources", "--ntot", "1e6", "--format", "text"],
        ["roundtrip", "pauli", "-c", "h.qc", "-i", "0", "--format", "csv"],
        ["qec-demo", "--code", "repetition3", "--format", "json"],
        ["t-gate", "--mode", "det", "--format", "json"],
        ["cv-check", "--format", "json"],
        ["audit", "--scheme", "pauli", "--format", "json"],
    ])
    def test_format_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_roundtrip_text_format(self, h_circuit):
        code, out = run_cli(["roundtrip", "pauli", "-c", h_circuit, "-i", "0",
                             "--seed", "1", "--format", "text"])
        assert code == 0
        assert out.startswith("trace distance ") and out.endswith("(PASS)\n")

    def test_missing_seed_exits_2(self, h_circuit, monkeypatch, capsys):
        monkeypatch.delenv("QHELAB_SEED", raising=False)
        with pytest.raises(SystemExit) as exc:
            run_cli(["roundtrip", "pauli", "-c", h_circuit, "-i", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: a seed is required")


class TestResources:
    def test_fig5_preset_rows(self):
        code, out = run_cli(["resources", "--fig5", "--k", "100",
                             "--ntot", "1e6,1e8,1e10"])
        rows = json.loads(out)
        assert code == 0 and len(rows) == 3
        assert all(r["t"] == 11 and r["n"] == 529 for r in rows)

    def test_nonconvergent_exits_2(self):
        code, _ = run_cli(["resources", "--p0", "1e-3", "--pthr", "1e-3",
                           "--k", "10", "--ntot", "1e6"])
        assert code == 2

    def test_csv_json_parity(self):
        _, as_json = run_cli(["resources", "--fig5", "--k", "100",
                              "--ntot", "1e6,1e8"])
        _, as_csv = run_cli(["resources", "--fig5", "--k", "100",
                             "--ntot", "1e6,1e8", "--format", "csv"])
        import csv as csvmod
        import io
        jrows = json.loads(as_json)
        crows = list(csvmod.DictReader(io.StringIO(as_csv)))
        for j, c in zip(jrows, crows):
            assert int(c["n_tot"]) == j["n_tot"]
            assert int(c["a_nt"]) == j["a_nt"]


class TestDeterminism:
    def test_byte_identical_output_files(self, tmp_path, h_circuit):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(["roundtrip", "perm", "-c", h_circuit, "-i", "0",
                     "--seed", "123", "--output", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_tgate_det_demo(self):
        code, out = run_cli(["t-gate", "--mode", "det", "--trials", "10",
                             "--seed", "4"])
        assert code == 0
        assert json.loads(out)["worst_distance"] < 1e-10

    def test_cv_check(self):
        code, out = run_cli(["cv-check", "--trials", "25", "--seed", "4"])
        blob = json.loads(out)
        assert code == 0
        assert blob["worst_commutation_deviation"] < 1e-10
        assert blob["squeezer_gamma"] == [2.0, 0.0]


class TestAuditCommand:
    def test_canary_detected(self):
        code, out = run_cli(["audit", "--scheme", "canary", "--runs", "1000",
                             "--seed", "5", "--expect-leak"])
        assert code == 0
        assert json.loads(out)["leak_detected"]

    def test_honest_pauli_silent(self, tmp_path):
        circ = tmp_path / "c.qc"
        circ.write_text("H 0\nS 0\n")
        code, out = run_cli(["audit", "--scheme", "pauli", "--runs", "1000",
                             "--seed", "5", "--circuit", str(circ)])
        assert code == 0
        assert not json.loads(out)["leak_detected"]

    def test_session_config_file(self, tmp_path):
        circ = tmp_path / "c.qc"
        circ.write_text("H 0\n")
        config = tmp_path / "session.json"
        config.write_text(json.dumps({
            "scheme": "pauli", "circuit": str(circ), "seed": 5,
            "runs": 1000, "plaintexts": ["0", "1"]}))
        code, out = run_cli(["audit", "--config", str(config)])
        assert code == 0
        assert json.loads(out)["runs_per_plaintext"] == 1000

    def test_audit_without_scheme_or_config_exits_2(self):
        code, _ = run_cli(["audit", "--runs", "1000", "--seed", "1"])
        assert code == 2

    def test_too_few_runs_exits_2(self, capsys):
        code, _ = run_cli(["audit", "--scheme", "pauli", "--runs", "10",
                           "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: insufficient samples")

    def test_config_missing_runs_exits_2(self, tmp_path, capsys):
        config = tmp_path / "session.json"
        config.write_text(json.dumps({"scheme": "pauli", "circuit": None,
                                      "seed": 5}))
        code, _ = run_cli(["audit", "--config", str(config)])
        assert code == 2
        assert "missing ['runs']" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, h_circuit):
        proc = subprocess.run(
            [sys.executable, "-m", "qhelab.cli", "roundtrip", "pauli",
             "-c", h_circuit, "-i", "0", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_usage_error_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qhelab.cli", "roundtrip"],
            capture_output=True, text=True)
        assert proc.returncode == 2
