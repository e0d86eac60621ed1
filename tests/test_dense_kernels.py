"""The dense oracle's gate kernels: monomial gates and qubit permutations
as row-map gathers.

S, X, Y, Z, CNOT, CZ and SWAP have one nonzero per row, so u rho u^dag only
moves and re-phases entries of rho.  These tests hold the gather to the
superoperator contraction it replaced, show that only H and T still
contract, hold a Pauli's signed gather to the np.ix_ form it replaced, hold
a qubit permutation's gather to the tensor transpose it replaced, and hold
the outer-product builds of product vectors and tensors to np.kron."""
import functools
import itertools

import numpy as np
import pytest

from oracles import Calls, contraction
from qhelab import states
from qhelab.paulikey import PauliKey, encrypt, prepare_magic_register
from qhelab.paulis import PauliString, _signed_permutation
from qhelab.states import (_GATE_MATS, _GATE_SUPEROPS, DensityMatrix,
                           StabilizerState, _dense, statevector)

MONOMIAL = ["S", "X", "Y", "Z", "CNOT", "CZ", "SWAP"]


def _every_placement(name, n):
    arity = len(_GATE_MATS[name]).bit_length() - 1
    return list(itertools.permutations(range(n), arity))


def _kron_all(factors, start):
    return functools.reduce(np.kron, factors, start)


class TestGatherMatchesContraction:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_pure_bitwise(self, n):
        rng = np.random.default_rng(60 + n)
        rho = DensityMatrix.random_pure(n, rng)
        for name in MONOMIAL:
            for qs in _every_placement(name, n):
                got = rho.apply_gate(name, qs).mat
                assert got.tobytes() == contraction(rho, [(name, qs)]).tobytes(), \
                    (name, qs)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_product_inputs_equal(self, n):
        # a contraction can flip the sign of a zero entry, so compare values
        rng = np.random.default_rng(70 + n)
        for _ in range(3):
            rho = DensityMatrix.product("".join(rng.choice(list("01+-T"), n)))
            for name in MONOMIAL:
                for qs in _every_placement(name, n):
                    got = rho.apply_gate(name, qs).mat
                    assert np.array_equal(got, contraction(rho, [(name, qs)])), \
                        (name, qs)

    def test_row_maps_are_read_only_and_unit(self):
        for name in MONOMIAL:
            for qs in _every_placement(name, 3):
                idx, d = states._row_map(3, name, qs)
                assert sorted(idx) == list(range(8))
                assert not idx.flags.writeable
                if name in ("X", "CNOT", "SWAP"):
                    assert d is None
                else:
                    assert not d.flags.writeable
                    assert np.array_equal(np.abs(d), np.ones(8))


def test_only_h_and_t_contract(monkeypatch):
    rng = np.random.default_rng(5)
    rho = DensityMatrix.random_pure(4, rng)
    word = [("H", (0,)), ("S", (1,)), ("CNOT", (0, 2)), ("T", (3,)),
            ("X", (2,)), ("Y", (3,)), ("Z", (0,)), ("CZ", (1, 3)),
            ("SWAP", (0, 3)), ("T", (1,)), ("CNOT", (3, 1)), ("H", (2,))]
    want = rho.apply_gates(word)     # builds every row map the word needs
    calls = Calls(monkeypatch)
    calls.count(states, "_apply_on_bits", note=lambda mat, op, bits: op)
    ops = calls.log["_apply_on_bits"]
    got = rho.apply_gates(word)
    assert got.mat.tobytes() == want.mat.tobytes()
    contracted = [name for name, u in _GATE_SUPEROPS.items()
                  for op in ops if op is u]
    assert sorted(contracted) == ["H", "H", "T", "T"]
    assert len(ops) == 4
    assert sorted(_GATE_SUPEROPS) == ["H", "T"]
    # SWAP words and qubit permutations never contract
    rho.apply_gates([("SWAP", (0, 3)), ("SWAP", (1, 2)), ("SWAP", (3, 1))])
    for perm in itertools.permutations(range(4)):
        rho.permute_qubits(perm)
    DensityMatrix.random_pure(6, rng).permute_qubits([5, 3, 1, 0, 2, 4])
    assert len(ops) == 4


def _relabel(rho, src):
    """The tensor transpose that permuted qubits before the gather: new
    qubit q carries old qubit src[q], on rows and columns alike."""
    n = rho.n_qubits
    t = rho.mat.reshape((2,) * (2 * n))
    t = t.transpose([*src, *(n + a for a in src)])
    return t.reshape(2 ** n, 2 ** n)


class TestPermuteGather:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_transpose_bitwise(self, n):
        """Every permutation at n <= 4 and 30 random ones at n = 5, 6, on
        random pure states and on 0/1/+/-/T products."""
        rng = np.random.default_rng(110 + n)
        perms = (list(itertools.permutations(range(n))) if n <= 4 else
                 [rng.permutation(n).tolist() for _ in range(30)])
        inputs = [DensityMatrix.random_pure(n, rng),
                  DensityMatrix.random_pure(n, rng),
                  DensityMatrix.product("".join(rng.choice(list("01+-T"), n))),
                  DensityMatrix.product("".join(rng.choice(list("01+-T"), n)))]
        for perm in perms:
            src = np.argsort(perm)
            for rho in inputs:
                want = _relabel(rho, src)
                assert rho.permute_qubits(perm).mat.tobytes() == want.tobytes()
                got = rho.permute_qubits(np.array(perm)).mat
                assert got.tobytes() == want.tobytes(), perm

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reduced_density_in_any_order(self, n):
        """reduced_density on unsorted qubit lists: the sorted reduction,
        then the transpose that puts its qubits in the order given."""
        rng = np.random.default_rng(120 + n)
        for rho in (DensityMatrix.random_pure(n, rng),
                    DensityMatrix.product("".join(rng.choice(list("01+-T"), n)))):
            for _ in range(20):
                k = int(rng.integers(1, n + 1))
                qubits = rng.choice(n, k, replace=False).tolist()
                kept = rho.discard_qubits([q for q in range(n) if q not in qubits])
                want = _relabel(kept, [sorted(qubits).index(q) for q in qubits])
                got = rho.reduced_density(qubits).mat
                assert got.tobytes() == want.tobytes(), qubits


class TestPauliGather:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_fancy_index_bitwise(self, n):
        """apply_pauli's two `take` gathers and phase product equal the
        np.ix_ gather times np.outer(s, s.conj()) byte for byte, on random
        pure states and Paulis of every phase."""
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            rho = DensityMatrix.random_pure(n, rng)
            p = PauliString(rng.integers(0, 2, n, dtype=np.uint8),
                            rng.integers(0, 2, n, dtype=np.uint8),
                            int(rng.integers(4)))
            idx, s = _signed_permutation(p.x, p.z, p.phase)
            want = np.outer(s, s.conj()) * rho.mat[np.ix_(idx, idx)]
            assert rho.apply_pauli(p).mat.tobytes() == want.tobytes()


class TestOuterProductsMatchKron:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_statevector(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(10):
            spec = "".join(rng.choice(list("01+-imT"), n))
            want = _kron_all([states._1Q_VECTORS[ch] for ch in spec],
                             np.array([1.0 + 0j]))
            assert statevector(spec).tobytes() == want.tobytes(), spec

    def test_tensor(self):
        rng = np.random.default_rng(90)
        for na in range(1, 4):
            for nb in range(1, 4):
                a = DensityMatrix.random_pure(na, rng)
                dense_spec = "".join(rng.choice(list("0+-T"), nb))
                stab_spec = "".join(rng.choice(list("01+-im*"), nb))
                for b in (DensityMatrix.random_pure(nb, rng),
                          DensityMatrix.product(dense_spec),
                          StabilizerState.product(stab_spec)):
                    want = np.kron(a.mat, b.to_density().mat)
                    assert a.tensor(b).mat.tobytes() == want.tobytes()
                    want = np.kron(b.to_density().mat, a.mat)
                    assert b.tensor(a).mat.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_t", [1, 2, 3])
    def test_prepare_magic_register(self, n_t):
        plaintext = DensityMatrix.product("+0")
        t_mat = DensityMatrix.product("T").mat
        for seed in range(5):
            rng = np.random.default_rng(seed)
            key = PauliKey.random(plaintext.n_qubits, rng)
            cipher, tracker, _ = prepare_magic_register(plaintext, key, n_t, rng)
            full = _kron_all([t_mat] * n_t, plaintext.mat)
            want = encrypt(tracker.key, _dense(full)).mat
            assert cipher.mat.tobytes() == want.tobytes(), seed
