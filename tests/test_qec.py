"""Code library: encoders, syndromes, lookup decoding, logical lifts."""
import itertools

import numpy as np
import pytest

from qhelab.paulis import CliffordOp, PauliString, random_clifford
from qhelab.qec import (CodeError, LiftError, Syndrome, UncorrectableSyndrome,
                        encode, extract_syndrome, logical_lift, lookup_decode,
                        parse_code, phase_flip_code, repetition_code,
                        serialize_code, steane_code)
from qhelab.states import DensityMatrix, StabilizerState, statevector, trace_distance

P = PauliString.from_label
REP = repetition_code()
PF = phase_flip_code()
STEANE = steane_code()
ALL_CODES = [REP, PF, STEANE]


class TestEncode:
    def test_repetition_zero_becomes_000(self):
        out = encode(REP, DensityMatrix.product("0"))
        assert trace_distance(out, DensityMatrix.product("000")) < 1e-12

    def test_repetition_plus_becomes_ghz(self):
        out = encode(REP, DensityMatrix.product("+"))
        ghz = DensityMatrix.from_statevector(
            (statevector("000") + statevector("111")) / np.sqrt(2))
        assert trace_distance(out, ghz) < 1e-12

    def test_steane_zero_stabilized(self):
        out = encode(STEANE, StabilizerState.product("0"))
        for g in STEANE.generators:
            assert out.expectation(g) == 1
        assert out.expectation(STEANE.logical_z[0]) == 1

    def test_wrong_logical_size(self):
        with pytest.raises(CodeError):
            encode(REP, DensityMatrix.product("00"))


class TestExtractSyndrome:
    def test_codeword_gives_zero_syndrome(self):
        rng = np.random.default_rng(0)
        for code in ALL_CODES:
            st = encode(code, StabilizerState.product("+"))
            _, syn, left = extract_syndrome(st, code, len(code.generators), rng)
            assert syn.bits == (0,) * len(code.generators)
            assert left == 0

    def test_x_error_on_repetition(self):
        rng = np.random.default_rng(1)
        st = encode(REP, StabilizerState.product("0")).apply_pauli(P("XII"))
        _, syn, _ = extract_syndrome(st, REP, 2, rng)
        assert syn.bits == (1, 0)

    def test_z_error_is_invisible_to_repetition(self):
        rng = np.random.default_rng(2)
        st = encode(REP, StabilizerState.product("0")).apply_pauli(P("ZII"))
        _, syn, _ = extract_syndrome(st, REP, 2, rng)
        assert syn.bits == (0, 0)

    def test_ancilla_exhaustion(self):
        rng = np.random.default_rng(3)
        st = encode(REP, StabilizerState.product("0"))
        with pytest.raises(CodeError):
            extract_syndrome(st, REP, 1, rng)


class TestLookupDecode:
    def test_weight_one_x_on_repetition(self):
        assert lookup_decode(Syndrome((1, 0)), REP) == P("XII").positive()

    def test_zero_syndrome_is_identity(self):
        assert lookup_decode(Syndrome((0, 0)), REP).weight() == 0

    @pytest.mark.parametrize("q,letter", list(itertools.product(range(7), "XYZ")))
    def test_steane_weight_one_exact_recovery(self, q, letter):
        err = PauliString.single(7, q, letter)
        corr = lookup_decode(STEANE.syndrome_of_pauli(err), STEANE)
        residue = (corr * err).positive()
        codeword = encode(STEANE, StabilizerState.product("0"))
        assert codeword.expectation(residue) == 1

    def test_uncorrectable_flagged(self):
        table = STEANE.decode_table()
        missing = next(s for s in itertools.product((0, 1), repeat=6)
                       if s not in table)
        with pytest.raises(UncorrectableSyndrome):
            lookup_decode(Syndrome(missing), STEANE)

    def test_completeness_weight_one(self):
        """extract -> decode -> correct -> un-encode recovers exactly."""
        rng = np.random.default_rng(4)
        for code in ALL_CODES:
            for plain in ("0", "+", "i"):
                for q in range(code.n):
                    for letter in "XYZ":
                        err = PauliString.single(code.n, q, letter)
                        st = encode(code, StabilizerState.product(plain))
                        st = st.apply_pauli(err)
                        st, syn, _ = extract_syndrome(
                            st, code, len(code.generators), rng)
                        try:
                            corr = lookup_decode(syn, code)
                        except UncorrectableSyndrome:
                            # repetition-type codes are blind to the dual error
                            assert code.d == 3 and code.k == 1
                            continue
                        st = st.apply_pauli(corr)
                        back = st.apply_clifford(code.encoder.inverse())
                        want = StabilizerState.product(
                            plain + "0" * (code.n - code.k))
                        ok = all(back.expectation(g) == 1
                                 for g in want.generators)
                        blind = (code is REP and letter in "YZ") or \
                                (code is PF and letter in "XY")
                        assert ok or blind


class TestLogicalLift:
    def test_logical_x_on_repetition_is_xxx(self):
        lx = logical_lift(REP, CliffordOp.from_gates(1, [("X", (0,))]))
        assert lx == CliffordOp.from_gates(3, [("X", (0,)), ("X", (1,)), ("X", (2,))])

    def test_identity_lifts_to_identity(self):
        assert logical_lift(REP, CliffordOp.identity(1)).is_identity_channel()

    def test_steane_transversal_h_is_logical_h_dense(self):
        """Codespace check at full 128-dim, raw statevectors."""
        lh = logical_lift(STEANE, CliffordOp.from_gates(1, [("H", (0,))]))
        uenc = STEANE.encoder.to_matrix()
        ulh = lh.to_matrix()
        h1 = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(64))
        for spec in ("0", "1", "+", "-", "i", "m"):
            v = np.kron(statevector(spec), statevector("0" * 6))
            a = uenc @ h1 @ v
            b = ulh @ uenc @ v
            assert np.max(np.abs(np.outer(a, a.conj())
                                 - np.outer(b, b.conj()))) < 1e-10

    def test_unsupported_gate_rejected(self):
        with pytest.raises(LiftError):
            logical_lift(REP, CliffordOp.from_gates(1, [("H", (0,))]))

    def test_homomorphism_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c1, c2 = random_clifford(1, rng), random_clifford(1, rng)
            lhs = logical_lift(STEANE, c2.compose(c1))
            rhs = logical_lift(STEANE, c2).compose(logical_lift(STEANE, c1))
            assert lhs == rhs


class TestStructure:
    def test_generators_commute_with_logicals(self):
        for code in ALL_CODES:
            for g in code.generators:
                for l in (*code.logical_x, *code.logical_z):
                    assert g.commutes(l)

    def test_logical_pairs_anticommute(self):
        for code in ALL_CODES:
            assert not code.logical_x[0].commutes(code.logical_z[0])

    def test_encoder_reproduces_from_gate_list(self):
        for code in ALL_CODES:
            assert CliffordOp.from_gates(code.n, code.encoder.gates) == code.encoder


class TestCodeFiles:
    def test_round_trip(self):
        for code in ALL_CODES:
            text = serialize_code(code)
            back = parse_code(text)
            assert serialize_code(back) == text
            assert back.generators == code.generators

    def test_encoder_synthesized_when_absent(self):
        text = ("NAME rep\nN 3\nK 1\nD 3\n"
                "G +ZZI\nG +IZZ\nLX +XXX\nLZ +ZII\n")
        code = parse_code(text)
        out = encode(code, StabilizerState.product("0"))
        for g in code.generators:
            assert out.expectation(g) == 1

    def test_parse_error_reports_line(self):
        with pytest.raises(CodeError, match="line 2"):
            parse_code("N 3\nG NOTAPAULI\n")


class TestBadEncoderLines:
    HEAD = "N 3\nK 1\nG +ZZI\nG +IZZ\nLX +XXX\nLZ +ZII\n"

    def test_negative_qubit_is_a_code_error(self):
        with pytest.raises(CodeError, match="encoder"):
            parse_code(self.HEAD + "ENC CNOT 0 1\nENC CNOT 0 -1\n")

    def test_unknown_gate_is_a_code_error(self):
        with pytest.raises(CodeError, match="FOO"):
            parse_code(self.HEAD + "ENC FOO 0\n")

    def test_wrong_arity_is_a_code_error(self):
        with pytest.raises(CodeError):
            parse_code(self.HEAD + "ENC CNOT 0\n")

    def test_repeated_qubit_is_a_code_error(self):
        with pytest.raises(CodeError):
            parse_code(self.HEAD + "ENC CNOT 1 1\n")
