"""CLI contract: exit codes, determinism, formats."""
import hashlib
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

    @pytest.mark.parametrize("line", ["H", "CNOT 0", "SWAP 0 1 2"])
    def test_gate_arity_exits_2(self, tmp_path, line, capsys):
        """A gate line with too few or too many qubits is a parse error:
        exit 2 and one line on stderr, with no traceback."""
        bad = tmp_path / "arity.qc"
        bad.write_text(f"H 0\n{line}\n")
        code, out = run_cli(["roundtrip", "pauli", "-c", str(bad), "-i", "0",
                             "--seed", "1"])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: ") and err.count("\n") == 1
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("plain", ["01", "1Z"])
    def test_perm_multi_character_plaintext_exits_2(self, tmp_path, plain,
                                                   capsys):
        circ = tmp_path / "t.qc"
        circ.write_text("T 0\n")
        code, _ = run_cli(["roundtrip", "perm", "-c", str(circ), "-i", plain,
                           "--seed", "1"])
        assert code == 2
        assert "one character" in capsys.readouterr().err

    def test_seed_from_environment(self, h_circuit, monkeypatch):
        monkeypatch.setenv("QHELAB_SEED", "7")
        code, out = run_cli(["roundtrip", "pauli", "-c", h_circuit, "-i", "0"])
        assert code == 0 and json.loads(out)["seed"] == 7


class TestSecurity:
    def test_pauli_basis_pair_delta_zero(self):
        code, out = run_cli(["security", "pauli", "--inputs", "0,1"])
        assert code == 0
        assert json.loads(out)["delta"] < 1e-12

    def test_perm_exact_sweep_vs_bound(self):
        code, out = run_cli(["security", "perm", "--inputs", "0,1", "-m", "1"])
        blob = json.loads(out)
        assert code == 0
        assert blob["delta"] <= blob["security_bound"]

    def test_oversize_dense_request_errors(self):
        code, _ = run_cli(["security", "pauli", "--inputs",
                           "0000000000,1111111111"])
        assert code == 2


SECURITY_RUNS = [
    *(["perm", "-m", m, "--inputs", inputs]
      for m in ("1", "2", "3") for inputs in ("0,1", "1,0")),
    ["pauli", "--inputs", "0+,1-"],
    ["pauli", "--inputs", "000,+1T"],
    ["zkey", "--inputs", "++,-+"],
]
# sha256 over the stdout and exit code of each SECURITY_RUNS entry, recorded
# when `security` still accepted --seed (at --seed 3), which it never read
SECURITY_SHA256 = "fc48098c9de2cad238f1177a7845b25ed259ffa310216af1206cdcb8d10288af"


def security_digest() -> str:
    digest = hashlib.sha256()
    for argv in SECURITY_RUNS:
        code, out = run_cli(["security", *argv])
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return digest.hexdigest()


class TestSecurityGolden:
    def test_outputs_pinned(self):
        assert security_digest() == SECURITY_SHA256

    def test_no_seed_needed(self, monkeypatch, capsys):
        """`security` and `resources` draw nothing: they run without a seed
        and reject --seed as a usage error."""
        monkeypatch.delenv("QHELAB_SEED", raising=False)
        for argv in (["security", "perm", "-m", "1", "--inputs", "0,1"],
                     ["resources", "--fig5", "--k", "100", "--ntot", "1e6"]):
            code, out = run_cli(argv)
            assert code == 0 and out
            with pytest.raises(SystemExit) as exc:
                run_cli(argv + ["--seed", "3"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


TGATE_RUNS = [
    *(["--seed", seed, "--plaintext", plain, "-m", "1"]
      for seed in ("0", "4", "99") for plain in ("+", "0", "i")),
    # the merged magic and data rows exceed the dense cap: exit 2
    ["--seed", "0", "--plaintext", "+", "-m", "3"],
]
# sha256 over the stdout and exit code of `t-gate --mode det --trials 5`
# at each TGATE_RUNS entry
TGATE_SHA256 = "d796a97fca95b7525093dedbc633b0e3cc1bb1880ea11db867dd0f6634c65ec8"
# the same runs with each report's worst_distance left out: a float near
# 1e-16 that moves with the last bits of the plain reference
TGATE_TRANSCRIPTS_SHA256 = "ec6f242c4971e714f33055f0f1a714f2b8e13afb3b2dcbbc179905c56da60240"


def tgate_digest(distances: bool = True) -> str:
    digest = hashlib.sha256()
    for argv in TGATE_RUNS:
        code, out = run_cli(["t-gate", "--mode", "det", "--trials", "5", *argv])
        if out and not distances:
            blob = json.loads(out)
            del blob["worst_distance"]
            out = json.dumps(blob)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return digest.hexdigest()


class TestTGateGolden:
    def test_outputs_pinned(self):
        assert tgate_digest() == TGATE_SHA256

    def test_transcripts_and_exit_codes_pinned(self):
        assert tgate_digest(distances=False) == TGATE_TRANSCRIPTS_SHA256

    def test_dense_cap_exits_2(self, capsys):
        code, out = run_cli(["t-gate", "--mode", "det", "--trials", "5",
                             *TGATE_RUNS[-1]])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")


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
        ["perm", "-m", "1", "--inputs", "0"],
        ["perm", "-m", "1", "--inputs", "0,"],
        ["pauli", "--inputs", "0"],
        ["pauli", "--inputs", ","],
        ["pauli", "--inputs", "00,,11"],
        ["zkey", "--inputs", ""],
    ])
    def test_security_needs_two_inputs(self, argv, capsys):
        code, out = run_cli(["security"] + argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: --inputs needs")

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

    @pytest.mark.parametrize("tok", ["inf", "1e400", "nan", "-5", "0", "abc",
                                     "2.9", "1.0000005e6"])
    def test_bad_ntot_token_exits_2(self, tok, capsys):
        code, _ = run_cli(["resources", f"--ntot=1e6,{tok}", "--k", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and repr(tok) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_k_exits_2(self, k, capsys):
        code, out = run_cli(["resources", "--ntot", "1e6", f"--k={k}"])
        assert code == 2 and not out
        assert capsys.readouterr().err == f"error: k must be >= 1, not {k}\n"

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

    @pytest.mark.parametrize("mode", ["det", "prob"])
    def test_tgate_multi_character_plaintext_exits_2(self, mode, capsys):
        code, _ = run_cli(["t-gate", "--mode", mode, "--plaintext", "01",
                           "--trials", "1", "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "one character" in err and "bijection" not in err

    def test_tgate_prob_passes_small_trial_counts(self):
        """At 5 trials no success count is unlikely enough to fail a fair
        gadget, whatever the seed."""
        for seed in range(40):
            code, out = run_cli(["t-gate", "--mode", "prob", "--trials", "5",
                                 "--seed", str(seed)])
            blob = json.loads(out)
            assert code == 0, (seed, blob)
            assert blob["p_value"] >= 0.0625

    def test_tgate_prob_flags_a_biased_gadget(self, monkeypatch):
        """A gadget that always succeeds fails the binomial test at 100
        trials: p = 2 / 2^100."""
        import qhelab.cli

        monkeypatch.setattr(qhelab.cli, "t_gate_probabilistic",
                            lambda *args: (True, [], []))
        code, out = run_cli(["t-gate", "--mode", "prob", "--trials", "100",
                             "--seed", "0"])
        blob = json.loads(out)
        assert code == 1
        assert blob["success_rate"] == 1.0 and blob["p_value"] == 2.0 ** -99

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 37, 100])
    def test_binomial_p_value_matches_scipy(self, n):
        from scipy.stats import binomtest

        from qhelab.cli import _binomial_p_value
        for k in range(n + 1):
            want = binomtest(k, n, 0.5).pvalue
            assert abs(_binomial_p_value(k, n) - want) < 1e-12, (k, n)

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


    @pytest.mark.parametrize("blob", [
        [{"scheme": "pauli", "circuit": "c.qc", "seed": 5, "runs": 1000}],
        {"scheme": "pauli", "circuit": "c.qc", "seed": 5, "runs": "1000"},
        {"scheme": "perm", "circuit": "c.qc", "seed": 5, "runs": 1000,
         "m": "3"},
        {"scheme": "pauli", "circuit": "c.qc", "seed": 5, "runs": 1000,
         "plaintexts": "0,1"},
    ])
    def test_malformed_config_exits_2(self, tmp_path, blob, capsys):
        config = tmp_path / "session.json"
        config.write_text(json.dumps(blob))
        code, _ = run_cli(["audit", "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: session config")


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
