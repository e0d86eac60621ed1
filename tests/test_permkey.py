"""Permutation-key scheme: spreading, security, transversal evaluation,
T gates, and the concatenated inner-code construction."""
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import same_rows
from qhelab import permkey, qec
from qhelab.paulis import CliffordOp, PauliString
from qhelab.permkey import (PermClient, PermKey,
                            RegisterError, SpreadRegister,
                            apply_conditional_logical, build_concatenated_code,
                            build_t_register, decryption_complexity,
                            encrypted_syndrome_protocol, perm_scheme,
                            security_bound, security_bound_log2,
                            spread_basis_input, spread_gate_list, spread_qubit,
                            t_gate_deterministic, t_gate_probabilistic)
from qhelab.qec import Syndrome, lookup_decode, repetition_code
from qhelab.schemes import SchemeError, security_delta
from qhelab.states import DensityMatrix, StabilizerState, trace_distance

P = PauliString.from_label


class TestPermKey:
    def test_identity_and_inverse(self):
        k = PermKey.sample(3, np.random.default_rng(0))
        inv = k.inverse()
        assert [inv.perm[k.perm[c]] for c in range(6)] == list(range(6))

    def test_sample_determinism(self):
        a = PermKey.sample(4, np.random.default_rng(9))
        b = PermKey.sample(4, np.random.default_rng(9))
        assert a == b

    def test_cycle_notation_known_permutations(self):
        assert PermKey.identity(2).cycle_notation() == "(0)(1)(2)(3)"
        assert PermKey(1, (1, 0)).cycle_notation() == "(0 1)"
        assert PermKey(3, (1, 2, 0, 4, 3, 5)).cycle_notation() == "(0 1 2)(3 4)(5)"

    def test_bad_permutation_rejected(self):
        with pytest.raises(SchemeError):
            PermKey(1, (0, 0))

    def test_column_swaps_realize_the_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = PermKey.sample(2, rng)
            pos = list(range(4))
            for a, b in k.column_swaps():
                pos[a], pos[b] = pos[b], pos[a]
            # pos[new] = old  <=>  perm[old] = new
            assert all(k.perm[pos[new]] == new for new in range(4))


class TestSpread:
    def test_m1_is_identity(self):
        rho = DensityMatrix.product("+")
        assert trace_distance(spread_qubit(rho, 1), rho) == 0.0

    def test_m5_zero_matches_formula(self):
        got = spread_qubit(DensityMatrix.product("0"), 5)
        want = (np.eye(32) + P("ZZZZZ").to_matrix()) / 32
        assert np.max(np.abs(got.mat - want)) < 1e-14

    def test_m5_mixed_stays_mixed(self):
        got = spread_qubit(DensityMatrix.maximally_mixed(1), 5)
        assert np.max(np.abs(got.mat - np.eye(32) / 32)) < 1e-14

    def test_m3_bloch_vector_formula(self):
        """General state: (1/2^m) sum_j a_j s_j^m with the m=3 Y sign."""
        rng = np.random.default_rng(2)
        rho = DensityMatrix.random_pure(1, rng)
        a = [rho.expectation(P(c)) for c in "XYZ"]
        got = spread_qubit(rho, 3)
        want = np.eye(8, dtype=complex)
        want += a[0] * P("XXX").to_matrix()
        want -= a[1] * P("YYY").to_matrix()   # m=3: spread(Y) = -Y^3
        want += a[2] * P("ZZZ").to_matrix()
        assert np.max(np.abs(got.mat - want / 8)) < 1e-12

    def test_even_m_has_no_spreading_clifford(self):
        with pytest.raises(RegisterError):
            spread_gate_list(2)

    @pytest.mark.parametrize("plain", ["01", "1Z", "", "T+"])
    def test_data_row_takes_one_character(self, plain):
        reg = SpreadRegister(1)
        with pytest.raises(RegisterError, match="one character"):
            reg.add_data_row(plain)
        assert reg.roles == [] and reg.factors == []

    @pytest.mark.parametrize("backend", [DensityMatrix, StabilizerState])
    @pytest.mark.parametrize("spec", ["01", "+0-", ""])
    @pytest.mark.parametrize("m", [1, 3])
    def test_data_row_takes_one_qubit_state(self, backend, spec, m):
        reg = SpreadRegister(m)
        state = backend.product(spec)
        with pytest.raises(RegisterError, match=f"one qubit, not {len(spec)}"):
            reg.add_data_row(state)
        assert reg.roles == [] and reg.factors == []

    def test_cnot_count_is_2m_minus_2(self):
        for m in (3, 5, 7):
            assert len(spread_gate_list(m)) == 2 * m - 2

    def test_stabilizer_and_dense_agree(self):
        for spec in ("0", "1", "+", "-", "i", "m"):
            dense = spread_qubit(DensityMatrix.product(spec), 3)
            stab = spread_qubit(StabilizerState.product(spec), 3)
            assert trace_distance(stab.to_density(), dense) < 1e-12


def _gate_path_encode(inner, m: int, plaintext: str) -> StabilizerState:
    """The reference spread of an inner encoding: tensor n(2m - 1) mixed
    qubits, move each data qubit to column 0 of its row, then run the
    spreading word on every row."""
    state = qec.encode(inner, StabilizerState.product(plaintext))
    n, mixed = inner.n, 2 * m - 1
    full = state.tensor(StabilizerState.maximally_mixed(n * mixed))
    perm = [0] * (2 * m * n)
    for r in range(n):
        perm[r] = r * 2 * m
        for j in range(mixed):
            perm[n + r * mixed + j] = r * 2 * m + 1 + j
    return full.permute_qubits(perm).apply_gates(
        (name, tuple(r * 2 * m + q for q in qs))
        for name, qs in spread_gate_list(m) for r in range(n))


class TestSpreadBroadcast:
    """Spreading on the tableau copies each generator's bits into the
    first m columns of its row, phase unchanged: the same x, z and phase
    as the spreading gate word."""

    @pytest.mark.parametrize("code", ["steane", "repetition", "phase_flip"])
    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_encode_equals_gate_path(self, code, m):
        inner = getattr(qec, f"{code}_code")()
        cat = build_concatenated_code(inner, m)
        for plain in "01+-im":
            (f,) = cat.encode(plain).factors
            assert f.rows == list(range(inner.n))
            assert same_rows(f.state, _gate_path_encode(inner, m, plain))

    @pytest.mark.parametrize("code", ["steane", "repetition", "phase_flip"])
    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_cached_encoding_equals_uncached(self, code, m):
        """Each character is encoded once; later registers share the
        read-only state, equal to `qec.encode` then `_spread_rows`."""
        inner = getattr(qec, f"{code}_code")()
        cat = build_concatenated_code(inner, m)
        for plain in "01+-im":
            first = cat.encode(plain).factors[0].state
            (f,) = cat.encode(plain).factors
            assert f.state is first is cat._encoded[plain]
            want = permkey._spread_rows(
                qec.encode(inner, StabilizerState.product(plain)), m)
            assert same_rows(f.state, want)
            assert not any(a.flags.writeable for a in (f.state.x, f.state.z,
                                                       f.state.phase))
        assert sorted(cat._encoded) == sorted("01+-im")

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    @pytest.mark.parametrize("role", sorted(permkey._ROW_CHAR))
    def test_row_equals_spread_qubit(self, role, m):
        ch = permkey._ROW_CHAR[role]
        want = spread_qubit(StabilizerState.product(ch), m).tensor(
            StabilizerState.maximally_mixed(m))
        assert same_rows(permkey._spread_row_stabilizer(role, m), want)

    @pytest.mark.parametrize("m", [2, 4])
    def test_even_m(self, m):
        for role in ("plus", "minus", "plusi", "minusi"):
            with pytest.raises(RegisterError, match="odd m"):
                SpreadRegister(m).add_ancilla_row(role)
        for role, phase in (("zero", 0), ("one", 2)):
            row = permkey._spread_row_stabilizer(role, m)
            assert row.x.tolist() == [[0] * (2 * m)]
            assert row.z.tolist() == [[1] * m + [0] * m]
            assert row.phase.tolist() == [phase]
        with pytest.raises(RegisterError, match="odd m"):
            SpreadRegister(m).add_data_row("+")
        with pytest.raises(RegisterError, match="odd m"):
            SpreadRegister(m).add_ancilla_row("magic")
        with pytest.raises(RegisterError, match="spreading circuit requires odd m"):
            build_concatenated_code(repetition_code(), m).encode("0")

    def test_fresh_rows_are_cached_read_only_states(self):
        for make, args in ((permkey._spread_row_stabilizer, ("plusi", 5)),
                           (permkey._spread_magic_dense, (1,))):
            row = make(*args)
            assert make(*args) is row
            for arr in (getattr(row, a) for a in ("x", "z", "phase", "mat")
                        if hasattr(row, a)):
                assert not arr.flags.writeable

    def test_caches_fill_on_first_call(self):
        """Importing the package builds no row and fills no cache: every
        cached function of every qhelab module is empty after import,
        and a fresh concatenated code holds no encoding."""
        code = textwrap.dedent("""
            import importlib, json, pkgutil, qhelab
            from qhelab import permkey, qec
            rows = [permkey._spread_row_stabilizer.cache_info().currsize,
                    permkey._spread_magic_dense.cache_info().currsize]
            caches = {f"{info.name}.{attr}": fn.cache_info().currsize
                      for info in pkgutil.iter_modules(qhelab.__path__)
                      for attr, fn in vars(importlib.import_module(
                          f"qhelab.{info.name}")).items()
                      if hasattr(fn, "cache_info")}
            cat = permkey.build_concatenated_code(qec.steane_code(), 5)
            print(json.dumps([rows, caches, len(cat._encoded)]))
            """)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        rows, caches, encoded = json.loads(out.stdout)
        assert rows == [0, 0]
        assert {"paulis._signed_permutation_of", "states._row_map",
                "states._density_of", "permkey._spread_row_stabilizer",
                "permkey._spread_magic_dense"} <= set(caches)
        assert {name: size for name, size in caches.items() if size} == {}
        assert encoded == 0


class TestEncrypt:
    def test_identity_permutation(self):
        reg = SpreadRegister(1)
        reg.add_data_row("0")
        before = reg.factors[0].state.to_density()
        reg.encrypt(PermKey.identity(1))
        assert trace_distance(reg.factors[0].state.to_density(), before) == 0.0

    def test_encrypt_then_decrypt_restores(self):
        rng = np.random.default_rng(3)
        for m in (1, 5):
            reg = SpreadRegister(m)
            reg.add_data_row("+")
            before = [g for g in reg.factors[0].state.generators]
            key = PermKey.sample(m, rng)
            reg.encrypt(key)
            reg.decrypt(key)
            assert list(reg.factors[0].state.generators) == before

    def test_m1_average_over_both_keys(self):
        """Exact 2-key sweep stays within the r=0 bound."""
        rep = security_delta(perm_scheme(1), [spread_basis_input(1, 0),
                                              spread_basis_input(1, 1)])
        assert rep.key_count == 2
        assert rep.delta <= security_bound(0, 1) + 1e-12

    def test_column_count_enforced(self):
        reg = SpreadRegister(2)
        reg.add_data_row("0")
        with pytest.raises(SchemeError):
            reg.encrypt(PermKey.identity(1))


class TestSecurityBound:
    def test_value_r0_m1(self):
        assert security_bound(0, 1) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_value_r1_m2(self):
        assert security_bound(1, 2) == pytest.approx(np.sqrt(2 / 6), abs=1e-12)

    def test_log_space_large_m(self):
        # C(40, 20) = 137846528820
        assert security_bound(0, 20) == pytest.approx(
            np.sqrt(1 / 137846528820), rel=1e-10)

    def test_log2_matches_exact_binomial(self):
        import math
        for r, m in [(0, 1), (3, 4), (10, 30), (0, 200)]:
            exact = 0.5 * (r - math.log2(math.comb(2 * m, m)))
            assert security_bound_log2(r, m) == pytest.approx(exact, abs=1e-9)

    @given(st.integers(0, 40), st.integers(1, 60))
    @settings(max_examples=80, deadline=None)
    def test_monotonicity(self, r, m):
        assert security_bound(r + 1, m) > security_bound(r, m)
        assert security_bound(r, m + 1) < security_bound(r, m)

    def test_invalid_arguments(self):
        with pytest.raises(SchemeError):
            security_bound(-1, 1)


class TestTransversalClifford:
    def test_identity_leaves_register(self):
        reg = SpreadRegister(5)
        reg.add_data_row("0")
        gens = list(reg.factors[0].state.generators)
        reg.apply_logical([])
        assert list(reg.factors[0].state.generators) == gens

    @pytest.mark.parametrize("m", [1, 5])
    def test_h_roundtrip(self, m):
        rng = np.random.default_rng(m)
        for plain in ("0", "1", "+", "i"):
            reg = SpreadRegister(m)
            reg.add_data_row(plain)
            key = PermKey.sample(m, rng)
            reg.encrypt(key)
            reg.transversal_single(0, "H")
            reg.decrypt(key)
            got = reg.data_qubit_density(0)
            want = DensityMatrix.product(plain).apply_gate("H", (0,))
            assert trace_distance(got, want) < 1e-12

    def test_double_s_equals_z(self):
        rng = np.random.default_rng(4)
        reg1 = SpreadRegister(5)
        reg1.add_data_row("i")
        key = PermKey.sample(5, rng)
        reg1.encrypt(key)
        reg1.transversal_single(0, "S")
        reg1.transversal_single(0, "S")
        reg1.decrypt(key)
        reg2 = SpreadRegister(5)
        reg2.add_data_row("i")
        reg2.transversal_single(0, "Z")
        assert np.max(np.abs(reg1.data_qubit_density(0).mat
                             - reg2.data_qubit_density(0).mat)) < 1e-12

    def test_s_needs_m_1_mod_4(self):
        reg = SpreadRegister(3)
        reg.add_data_row("0")
        with pytest.raises(RegisterError):
            reg.transversal_single(0, "S")

    @pytest.mark.parametrize("m", [1, 5])
    def test_depth_10_clifford_word_roundtrip(self, m):
        rng = np.random.default_rng(10 + m)
        for plain in ("0", "+", "i"):
            word = [str(g) for g in rng.choice(["H", "S", "X", "Y", "Z"], 10)]
            reg = SpreadRegister(m)
            reg.add_data_row(plain)
            key = PermKey.sample(m, rng)
            reg.encrypt(key)
            for g in word:
                reg.transversal_single(0, g)
            reg.decrypt(key)
            got = reg.data_qubit_density(0)
            want = DensityMatrix.product(plain)
            for g in word:
                want = want.apply_gate(g, (0,))
            assert trace_distance(got, want) < 1e-10


class TestProbabilisticT:
    def test_success_rate_near_half(self):
        succ = 0
        trials = 2000
        for i in range(trials):
            rng = np.random.default_rng(i)
            key = PermKey.sample(1, rng)
            reg, client, budget = build_t_register("+", 1, 1, key, rng)
            ok, _, _ = t_gate_probabilistic(
                reg, 0, budget.bundles[0]["magic"], client, rng)
            succ += int(ok)
        assert 0.46 <= succ / trials <= 0.54

    def test_success_branch_carries_t(self):
        hit = 0
        for i in range(60):
            rng = np.random.default_rng(i)
            key = PermKey.sample(1, rng)
            reg, client, budget = build_t_register("+", 1, 1, key, rng)
            ok, _, _ = t_gate_probabilistic(
                reg, 0, budget.bundles[0]["magic"], client, rng)
            if not ok:
                continue
            hit += 1
            reg.decrypt(key)
            got = reg.data_qubit_density(0)
            assert trace_distance(got, DensityMatrix.product("T")) < 1e-10
        assert hit > 10

    def test_failure_branch_is_s_correctable(self):
        for i in range(60):
            rng = np.random.default_rng(i)
            key = PermKey.sample(1, rng)
            reg, client, budget = build_t_register("+", 1, 1, key, rng)
            ok, _, _ = t_gate_probabilistic(
                reg, 0, budget.bundles[0]["magic"], client, rng)
            if ok:
                continue
            reg.transversal_single(0, "S")   # S . T^dagger = T
            reg.decrypt(key)
            got = reg.data_qubit_density(0)
            assert trace_distance(got, DensityMatrix.product("T")) < 1e-10

    def test_missing_magic_row(self):
        rng = np.random.default_rng(0)
        key = PermKey.sample(1, rng)
        reg, client, budget = build_t_register("+", 1, 1, key, rng)
        with pytest.raises(SchemeError):
            t_gate_probabilistic(reg, 0, 0, client, rng)  # row 0 is data


class TestDeterministicT:
    @pytest.mark.parametrize("plain", ["0", "+", "i"])
    def test_always_lands_t(self, plain):
        for i in range(40):
            rng = np.random.default_rng(1000 + i)
            key = PermKey.sample(1, rng)
            reg, client, budget = build_t_register(plain, 1, 1, key, rng)
            t_gate_deterministic(reg, 0, budget, client, rng)
            reg.decrypt(key)
            got = reg.data_qubit_density(0)
            want = DensityMatrix.product(plain).apply_gate("T", (0,))
            assert trace_distance(got, want) < 1e-10

    def test_budget_exhaustion(self):
        rng = np.random.default_rng(0)
        key = PermKey.sample(1, rng)
        reg, client, budget = build_t_register("+", 1, 1, key, rng)
        t_gate_deterministic(reg, 0, budget, client, rng)
        with pytest.raises(SchemeError):
            budget.take()

    def test_r_accounting_five_rows_per_gate(self):
        rng = np.random.default_rng(0)
        key = PermKey.sample(1, rng)
        reg, client, budget = build_t_register("+", 1, 2, key, rng)
        t_gate_deterministic(reg, 0, budget, client, rng)
        assert reg.consumed_ancilla_rows() == 5
        t_gate_deterministic(reg, 0, budget, client, rng)
        assert reg.consumed_ancilla_rows() == 10

    @pytest.mark.parametrize("seed", range(30))
    def test_randomized_t_clifford_interleavings(self, seed):
        """T gates interleaved with arbitrary transversal Clifford words;
        each teleportation chain fully resolves, so any program works."""
        rng = np.random.default_rng(777 + seed)
        n_t = int(rng.integers(1, 4))
        gates_pool = ["H", "S", "X", "Y", "Z"]
        program: list[str] = []
        for _ in range(n_t):
            program += [str(g) for g in
                        rng.choice(gates_pool, size=int(rng.integers(0, 5)))]
            program.append("T")
        program += [str(g) for g in rng.choice(gates_pool, size=3)]

        plain = str(rng.choice(list("01+-im")))
        key = PermKey.sample(1, rng)
        reg, client, budget = build_t_register(plain, 1, n_t, key, rng)
        ref = DensityMatrix.product(plain)
        for g in program:
            if g == "T":
                t_gate_deterministic(reg, 0, budget, client, rng)
            else:
                reg.transversal_single(0, g)
            ref = ref.apply_gate(g, (0,))
        reg.decrypt(key)
        assert trace_distance(reg.data_qubit_density(0), ref) < 1e-10

    def test_row_labels_uniform(self):
        """Chi-square test on the two client label messages at 10^4 runs."""
        counts_a = np.zeros(2)
        counts_b = np.zeros(2)
        runs = 10 ** 4
        for i in range(runs):
            rng = np.random.default_rng(20_000 + i)
            key = PermKey.sample(1, rng)
            reg, client, budget = build_t_register("0", 1, 1, key, rng)
            msgs = t_gate_deterministic(reg, 0, budget, client, rng)
            labels = [m["payload"][0] for m in msgs if m["sender"] == "client"]
            counts_a[labels[0]] += 1
            counts_b[labels[1]] += 1
        for counts in (counts_a, counts_b):
            chi2 = np.sum((counts - runs / 2) ** 2 / (runs / 2))
            # p > 0.01 for 1 dof <=> chi2 < 6.635
            assert chi2 < 6.635

    def test_transcript_obliviousness_across_plaintexts(self):
        """Every classical slot's distribution is plaintext independent."""
        from collections import Counter
        slots: dict[tuple, Counter] = {}
        runs = 800
        for plain in ("0", "1"):
            for i in range(runs):
                rng = np.random.default_rng(31_000 + i)
                key = PermKey.sample(1, rng)
                reg, client, budget = build_t_register(plain, 1, 1, key, rng)
                msgs = t_gate_deterministic(reg, 0, budget, client, rng)
                for j, m in enumerate(msgs):
                    slots.setdefault((plain, j), Counter())[tuple(m["payload"])] += 1
        for j in range(4):
            a, b = slots[("0", j)], slots[("1", j)]
            keys = set(a) | set(b)
            tv = 0.5 * sum(abs(a[k] / runs - b[k] / runs) for k in keys)
            assert tv < 0.06, (j, tv)


class TestConcatenatedCode:
    def test_trivial_inner_reduces_to_spread(self):
        """n=1 inner code: the concatenated encoding is the bare spread."""
        from qhelab.qec import StabilizerCode
        trivial = StabilizerCode(
            name="trivial1", n=1, k=1, d=1, generators=(),
            logical_x=(P("X"),), logical_z=(P("Z"),),
            encoder=CliffordOp.identity(1))
        reg = build_concatenated_code(trivial, 3).encode("0")
        want = spread_qubit(StabilizerState.product("0"), 3).tensor(
            StabilizerState.maximally_mixed(3))
        assert reg.factors[0].state.generators == want.generators

    def test_error_syndrome_correct_decrypt_cycle(self):
        rep = repetition_code()
        cat = build_concatenated_code(rep, 1)
        for plain in ("0", "1", "+"):
            for err_row in (None, 0, 1, 2):
                rng = np.random.default_rng(
                    abs(hash((plain, err_row))) % 2 ** 31)
                key = PermKey.sample(1, rng)
                client = PermClient(key=key, rng=rng)
                reg = cat.encode(plain)
                anc = [reg.add_ancilla_row("plus") for _ in range(2)]
                for i in range(3):
                    roles = client.pair_order("zero", "one")
                    slots = (reg.add_ancilla_row(roles[0]),
                             reg.add_ancilla_row(roles[1]))
                    client.record_pair(f"c{i}", roles, slots)
                reg.encrypt(key)
                if err_row is not None:
                    f = reg._factor_of(err_row)
                    n = len(f.rows) * reg.n_cols
                    q = f.loc(err_row, key.perm[0], reg.n_cols)
                    f.state = f.state.apply_pauli(
                        PauliString.single(n, q, "X"))
                parities = []
                for a, stab in zip(anc, rep.generators):
                    parity, _ = encrypted_syndrome_protocol(
                        reg, stab, [0, 1, 2], a, client, rng)
                    parities.append(parity)
                corr = lookup_decode(Syndrome(tuple(parities)), rep)
                for r in range(3):
                    bit = 1 if corr.restricted_letter(r) == "X" else 0
                    named = client.row_for(f"c{r}", "one" if bit else "zero")
                    apply_conditional_logical(reg, "X", r, named)
                reg.decrypt(key)
                f = reg._merge([0, 1, 2])
                st = f.state
                inv = rep.encoder.inverse()
                gates = [(nm, tuple(f.loc(r, 0, reg.n_cols) for r in qs))
                         for nm, qs in inv.gates]
                st = st.apply_clifford(
                    CliffordOp.from_gates(len(f.rows) * reg.n_cols, gates))
                got = st.reduced_density([f.loc(0, 0, reg.n_cols)])
                assert trace_distance(got, DensityMatrix.product(plain)) < 1e-10

    def test_fresh_ancilla_required(self):
        rng = np.random.default_rng(0)
        key = PermKey.sample(1, rng)
        client = PermClient(key=key, rng=rng)
        cat = build_concatenated_code(repetition_code(), 1)
        reg = cat.encode("0")
        with pytest.raises(SchemeError):
            encrypted_syndrome_protocol(reg, repetition_code().generators[0],
                                        [0, 1, 2], 0, client, rng)

    def test_syndrome_rounds_increment_r_accounting(self):
        """Each protocol round burns an encrypted ancilla row, tightening
        the same r that enters Delta(r, m)."""
        rep = repetition_code()
        cat = build_concatenated_code(rep, 1)
        rng = np.random.default_rng(6)
        key = PermKey.sample(1, rng)
        client = PermClient(key=key, rng=rng)
        reg = cat.encode("0")
        a1 = reg.add_ancilla_row("plus")
        a2 = reg.add_ancilla_row("plus")
        reg.encrypt(key)
        assert reg.consumed_ancilla_rows() == 0
        before = security_bound(reg.consumed_ancilla_rows(), 1)
        encrypted_syndrome_protocol(reg, rep.generators[0], [0, 1, 2], a1,
                                    client, rng)
        assert reg.consumed_ancilla_rows() == 1
        encrypted_syndrome_protocol(reg, rep.generators[1], [0, 1, 2], a2,
                                    client, rng)
        assert reg.consumed_ancilla_rows() == 2
        after = security_bound(reg.consumed_ancilla_rows(), 1)
        assert after > before


class TestRegisterSnapshot:
    def test_to_json_round_trips_through_json(self):
        import json
        reg = SpreadRegister(3)
        reg.add_data_row("+")
        reg.add_ancilla_row("zero")
        blob = json.loads(json.dumps(reg.to_json()))
        assert blob["m"] == 3
        assert blob["roles"] == ["data", "zero"]
        assert len(blob["factors"]) == 2
        assert blob["factors"][0]["state"]["backend"] == "stabilizer"


class TestDecryptionComplexity:
    def test_identity_costs_nothing(self):
        assert decryption_complexity(PermKey.identity(4), 1, 2) == 0

    def test_single_transposition_three_rows(self):
        key = PermKey(4, (1, 0, 2, 3, 4, 5, 6, 7))
        assert decryption_complexity(key, 3, 0) == 3

    def test_full_cycle_two_rows(self):
        key = PermKey(4, (1, 2, 3, 4, 5, 6, 7, 0))
        assert decryption_complexity(key, 2, 0) == 14

    def test_linear_in_rows(self):
        key = PermKey.sample(5, np.random.default_rng(0))
        one = decryption_complexity(key, 1, 0)
        assert decryption_complexity(key, 3, 4) == 7 * one
