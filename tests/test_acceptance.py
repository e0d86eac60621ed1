"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single PASS line with the measured figure; run with
`pytest -s tests/test_acceptance.py` to see them.  Tolerances and runtime
budgets are pinned here, not configurable.
"""
import time

import numpy as np

from oracles import random_clifford_circuit
from qhelab.cv import (DisplacementVec, circuit_symplectic, commutation_phase,
                       gkp_logical_to_displacement, transport_key_gaussian,
                       transport_key_squeezer)
from qhelab.paulis import Circuit, CliffordOp, Gate, PauliString
from qhelab.paulikey import (PauliKey, compose_with_stabilizer_code,
                             homomorphic_eval, pauli_scheme)
from qhelab.permkey import (PermKey, SpreadRegister, build_t_register,
                            perm_scheme, security_bound, spread_basis_input,
                            t_gate_deterministic, t_gate_probabilistic)
from qhelab.protocol import audit_transcript, canary_session, run_session
from qhelab.qec import (extract_syndrome, lookup_decode,
                        repetition_code, steane_code)
from qhelab.resources import (ResourceParams, ancilla_count, code_length,
                              headline_preset_params, max_power, min_t,
                              security_after_qec_log2)
from qhelab.schemes import (check_qec_commutation, ciphertext_average,
                            derive_decryption, security_delta)
from qhelab.states import DensityMatrix, StabilizerState, trace_distance


def report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS — {detail}")


class TestAcceptance:
    def test_01_pauli_twirl_ciphertext(self):
        """Averaging over all 4^n keys yields I/2^n entrywise to 1e-14."""
        start = time.time()
        worst = 0.0
        for n in (1, 2, 3):
            rng = np.random.default_rng(n)
            rho = DensityMatrix.random_pure(n, rng)
            avg = ciphertext_average(pauli_scheme(n), rho)
            worst = max(worst, float(np.max(np.abs(
                avg.mat - np.eye(2 ** n) / 2 ** n))))
        elapsed = time.time() - start
        assert worst < 1e-14
        assert elapsed < 1.0
        report("1 (Pauli twirl)",
               f"max entrywise deviation {worst:.2e} in {elapsed:.2f}s")

    def test_02_correctness_randomized(self):
        """200 random (key, depth<=20 circuit, input) tuples per scheme
        decrypt to within 1e-10 of the plain evaluation."""
        start = time.time()
        worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 4))
            sch = pauli_scheme(n)
            key = PauliKey.random(n, rng)
            circuit = random_clifford_circuit(n, int(rng.integers(1, 21)), rng)
            comp = CliffordOp.from_circuit(circuit)
            rho = DensityMatrix.random_pure(n, rng)
            out = derive_decryption(sch, key, comp)(
                homomorphic_eval(circuit, sch.encrypt(key, rho)))
            worst = max(worst, trace_distance(out, rho.apply_clifford(comp)))
        for seed in range(200):
            rng = np.random.default_rng(10_000 + seed)
            m = 1 if seed % 2 == 0 else 5
            plain = str(rng.choice(list("01+-im")))
            word = [str(g) for g in
                    rng.choice(["H", "S", "X", "Y", "Z"],
                               size=int(rng.integers(1, 21)))]
            key = PermKey.sample(m, rng)
            reg = SpreadRegister(m)
            reg.add_data_row(plain)
            reg.encrypt(key)
            for g in word:
                reg.transversal_single(0, g)
            reg.decrypt(key)
            got = reg.data_qubit_density(0)
            want = DensityMatrix.product(plain)
            for g in word:
                want = want.apply_gate(g, (0,))
            worst = max(worst, trace_distance(got, want))
        elapsed = time.time() - start
        assert worst < 1e-10
        assert elapsed < 30.0
        report("2 (correctness)",
               f"400 round trips, worst distance {worst:.2e} in {elapsed:.1f}s")

    def test_03_permutation_security_bound(self):
        """Exact sweeps sit under sqrt(2^r / C(2m,m)); the evaluator
        reproduces 0.70711 and 0.57735 to five decimals."""
        start = time.time()
        assert f"{security_bound(0, 1):.5f}" == "0.70711"
        assert f"{security_bound(1, 2):.5f}" == "0.57735"
        rep1 = security_delta(perm_scheme(1), [spread_basis_input(1, 0),
                                               spread_basis_input(1, 1)])
        assert rep1.method == "exact-sweep" and rep1.key_count == 2
        assert rep1.delta <= security_bound(0, 1) + 1e-12
        rep2 = security_delta(perm_scheme(2), [spread_basis_input(2, 0),
                                               spread_basis_input(2, 1)])
        assert rep2.method == "exact-sweep" and rep2.key_count == 24
        assert rep2.delta <= security_bound(0, 2) + 1e-12
        elapsed = time.time() - start
        assert elapsed < 10.0
        report("3 (permutation security)",
               f"exact deltas {rep1.delta:.4f} (m=1), {rep2.delta:.4f} (m=2) "
               f"under their bounds in {elapsed:.1f}s")

    def test_04_deterministic_and_probabilistic_t(self):
        """100 deterministic sessions all land T|+>; the probabilistic
        gadget succeeds at a rate in [0.48, 0.52] over 10^4 trials."""
        start = time.time()
        worst = 0.0
        want = DensityMatrix.product("T")
        for seed in range(100):
            rng = np.random.default_rng(40_000 + seed)
            key = PermKey.sample(1, rng)
            reg, client, budget = build_t_register("+", 1, 1, key, rng)
            t_gate_deterministic(reg, 0, budget, client, rng)
            reg.decrypt(key)
            worst = max(worst, trace_distance(reg.data_qubit_density(0), want))
        assert worst < 1e-10
        succ = 0
        trials = 10 ** 4
        for seed in range(trials):
            rng = np.random.default_rng(80_000 + seed)
            key = PermKey.sample(1, rng)
            reg, client, budget = build_t_register("+", 1, 1, key, rng)
            ok, _, _ = t_gate_probabilistic(
                reg, 0, budget.bundles[0]["magic"], client, rng)
            succ += int(ok)
        rate = succ / trials
        elapsed = time.time() - start
        assert 0.48 <= rate <= 0.52
        assert elapsed < 60.0
        report("4 (T gates)",
               f"100 deterministic runs worst {worst:.2e}; success rate "
               f"{rate:.4f} over 10^4 trials in {elapsed:.1f}s")

    def test_05_encode_encrypt_commutation(self):
        """Encode-after-encrypt equals encrypt-after-encode with the
        transported key, for all four single-qubit Pauli keys."""
        code = repetition_code()
        env = pauli_scheme(3)
        rng = np.random.default_rng(5)
        worst = 0.0
        for label in ("III", "XII", "YII", "ZII"):
            key = PauliKey.from_label(label)
            holds, lam = check_qec_commutation(env, code.encoder, None, key)
            assert holds
            rho = DensityMatrix.random_pure(3, rng)
            lhs = rho.apply_clifford(code.encoder).apply_pauli(key.pauli)
            rhs = rho.apply_pauli(lam.pauli).apply_clifford(code.encoder)
            worst = max(worst, trace_distance(lhs, rhs))
        assert worst < 1e-10
        # trivial-transport case: f(kappa, .) = kappa forces lambda = kappa
        _, lam = check_qec_commutation(env, code.encoder, None,
                                       PauliKey.identity(3))
        assert lam == PauliKey.identity(3)
        report("5 (encode/encrypt commutation)",
               f"4 keys, worst channel distance {worst:.2e}; "
               "trivial transport gives lambda = kappa")

    def test_06_qec_end_to_end_under_encryption(self):
        """Every correctable single-qubit error on the encrypted register
        is corrected and decryption recovers the logical state exactly;
        syndromes are identical across logical plaintexts."""
        for code in (repetition_code(), steane_code()):
            sch = compose_with_stabilizer_code(code)
            correctable = []
            for q in range(code.n):
                for letter in "XYZ":
                    err = PauliString.single(code.n, q, letter)
                    syn = code.syndrome_of_pauli(err)
                    corr = code.decode_table().get(syn.bits)
                    if corr is None:
                        continue
                    probe = (corr * err).positive()
                    from qhelab.qec import encode as qec_encode
                    if qec_encode(code, StabilizerState.product("0")
                                  ).expectation(probe) == 1 and \
                       qec_encode(code, StabilizerState.product("+")
                                  ).expectation(probe) == 1:
                        correctable.append(err)
            # repetition corrects its 3 bit flips; Steane all 21 errors
            assert len(correctable) == {"repetition3": 3,
                                        "steane713": 21}[code.name]
            syndromes_seen = {}
            for err in correctable:
                for plain in ("0", "1", "+"):
                    rng = np.random.default_rng(
                        abs(hash((code.name, err.label(), plain))) % 2 ** 31)
                    key = PauliKey.random(1, rng)
                    padded = plain + "0" * (code.n - 1)
                    cipher = sch.encrypt(key, StabilizerState.product(padded))
                    cipher = cipher.apply_pauli(err)
                    cipher, syn, _ = extract_syndrome(
                        cipher, code, len(code.generators), rng)
                    syndromes_seen.setdefault(
                        (code.name, err.label()), set()).add(syn.bits)
                    cipher = cipher.apply_pauli(lookup_decode(syn, code))
                    out = sch.decrypt(key, cipher)
                    want = StabilizerState.product(padded)
                    assert all(out.expectation(g) == 1
                               for g in want.generators), (code.name,
                                                           err.label(), plain)
            for key_id, syns in syndromes_seen.items():
                assert len(syns) == 1, key_id  # plaintext independent
        report("6 (QEC under encryption)",
               "repetition and Steane recover exactly from every correctable "
               "single-qubit error; syndromes blind to logical content")

    def test_07_resource_formulas(self):
        """Headline parameters give t=11, n=529, A=430,140,480 exactly;
        r scales as sqrt(N) within 5%; security improves with m."""
        start = time.time()
        preset = headline_preset_params()
        t = min_t(preset)
        n = code_length(t)
        assert (t, n) == (11, 529)
        assert ancilla_count(n, t) == 430_140_480
        flat = ResourceParams(p0=1e-6, p_threshold=1e-3, a_coeff=10.0,
                              p_target=0.5, k=10)   # t=1 regime: A = 0
        for big_n in (10 ** 6, 10 ** 7):
            r1 = max_power(ResourceParams(
                p0=flat.p0, p_threshold=flat.p_threshold, a_coeff=flat.a_coeff,
                p_target=flat.p_target, k=10, n_total=big_n)).r_bound
            r4 = max_power(ResourceParams(
                p0=flat.p0, p_threshold=flat.p_threshold, a_coeff=flat.a_coeff,
                p_target=flat.p_target, k=10, n_total=4 * big_n)).r_bound
            assert abs(r4 / r1 - 2.0) < 0.05
        deltas = [security_after_qec_log2(3, 1, 2, m) for m in range(4, 64, 8)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        elapsed = time.time() - start
        assert elapsed < 5.0
        report("7 (resource formulas)",
               f"t=11, n=529, A=430,140,480 exact; sqrt-N ratios within 5%; "
               f"delta-bar monotone in m ({elapsed:.2f}s)")

    def test_08_cv_identities(self):
        """100 random 3-mode Gaussian circuits satisfy the transport
        commutation to 1e-10; gamma = 2 at (1, ln 2, 0); GKP X/Z scalar."""
        start = time.time()
        worst = 0.0
        master = np.random.default_rng(8)
        for _ in range(100):
            layers = []
            for _ in range(6):
                kind = master.choice(["BS", "PS", "SMS"])
                if kind == "BS":
                    i, j = master.choice(3, 2, replace=False)
                    layers.append(("BS", int(i), int(j),
                                   float(master.uniform(0, np.pi))))
                elif kind == "PS":
                    layers.append(("PS", int(master.integers(3)),
                                   float(master.uniform(0, 2 * np.pi))))
                else:
                    layers.append(("SMS", int(master.integers(3)),
                                   float(master.uniform(-1.2, 1.2)),
                                   float(master.uniform(0, 2 * np.pi))))
            key = DisplacementVec(master.normal(size=3)
                                  + 1j * master.normal(size=3))
            moved = transport_key_gaussian(layers, key, 3)
            stot = circuit_symplectic(layers, 3)
            worst = max(worst, float(np.max(np.abs(
                stot.apply_quad(key.quad_vector()) - moved.quad_vector()))))
        assert worst < 1e-10
        gamma = transport_key_squeezer(np.log(2.0), 0.0, 1.0)
        assert abs(gamma - 2.0) < 1e-12
        for qudit in (2, 3, 5):
            dx = gkp_logical_to_displacement("X", qudit, np.sqrt(np.pi))
            dz = gkp_logical_to_displacement("Z", qudit, np.sqrt(np.pi))
            assert abs(commutation_phase(dz, dx)
                       - np.exp(2j * np.pi / qudit)) < 1e-10
        elapsed = time.time() - start
        assert elapsed < 5.0
        report("8 (CV identities)",
               f"worst commutation deviation {worst:.2e}; gamma = 2; "
               f"GKP scalars exact ({elapsed:.2f}s)")

    def test_09_transcript_obliviousness(self):
        """Audits over 10^3 sessions per plaintext: honest protocols leak
        TV < 0.05; the key-in-clear canary reads ~1."""
        start = time.time()
        perm_factory = lambda p, rng: run_session(
            "perm", p, Circuit(1, (Gate("T", (0,)),)), rng, m=1)[2]
        honest = audit_transcript(perm_factory, ["0", "1"], 1000)
        assert honest["max_tv"] < 0.05
        pauli_factory = lambda p, rng: run_session(
            "pauli", p, Circuit(1, (Gate("H", (0,)),)), rng)[2]
        silent = audit_transcript(pauli_factory, ["0", "1"], 1000)
        assert silent["max_tv"] == 0.0
        canary_factory = lambda p, rng: canary_session(p, Circuit(1, ()), rng)[2]
        leaky = audit_transcript(canary_factory, ["0", "1"], 1000)
        assert leaky["max_tv"] > 0.9
        elapsed = time.time() - start
        assert elapsed < 60.0
        report("9 (transcript obliviousness)",
               f"honest TV {honest['max_tv']:.3f}, canary TV "
               f"{leaky['max_tv']:.3f} in {elapsed:.1f}s")
