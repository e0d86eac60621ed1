"""SWAPs on the dense oracle move entries, they are not gate contractions.

`DensityMatrix.apply_gate` gathers a SWAP's rows and columns by its row
map, as it does for every gate with one nonzero per row.  These tests pin
the permutation scheme's ciphertexts bit for bit, compare mixed gate words
with a gate-by-gate contraction reference, and check that no SWAP reaches
the contraction kernel."""
import hashlib

import numpy as np
import pytest

from oracles import Calls, contraction, key_average
from qhelab import states
from qhelab.permkey import perm_scheme, spread_basis_input
from qhelab.schemes import ciphertext_average
from qhelab.states import BackendError, DensityMatrix

def _random_word(n, rng):
    """Runs of 0-5 SWAPs (n >= 2) between single H/S/CNOT/CZ/T/X/Y/Z gates."""
    names = ["H", "S", "T", "X", "Y", "Z"] + (["CNOT", "CZ"] if n > 1 else [])
    word = []
    for _ in range(int(rng.integers(1, 5))):
        for _ in range(int(rng.integers(0, 6)) if n > 1 else 0):
            word.append(("SWAP", tuple(int(q) for q in
                                       rng.choice(n, 2, replace=False))))
        name = names[int(rng.integers(len(names)))]
        arity = 2 if name in ("CNOT", "CZ") else 1
        word.append((name, tuple(int(q) for q in
                                 rng.choice(n, arity, replace=False))))
    if n > 1 and rng.random() < 0.5:      # a trailing run
        for _ in range(int(rng.integers(1, 6))):
            word.append(("SWAP", tuple(int(q) for q in
                                       rng.choice(n, 2, replace=False))))
    return word


def _inputs(m):
    return {"basis0": spread_basis_input(m, 0),
            "basis1": spread_basis_input(m, 1),
            "random": DensityMatrix.random_pure(2 * m,
                                                np.random.default_rng(100 + m))}


# sha256 prefixes of every key's encryption and decryption (concatenated in
# key order) and of the per-key sum over every key, taken when each SWAP was
# still a superoperator contraction
PINNED = {
    (1, "basis0"): ("dc7345818f06521e", "dc7345818f06521e", "7fefcf0666d4a249"),
    (1, "basis1"): ("ef0d8180e3905361", "ef0d8180e3905361", "e67fc78d6e0bfd34"),
    (1, "random"): ("327d59cc9f983e57", "327d59cc9f983e57", "ed0be34dbf36de23"),
    (2, "basis0"): ("8da9112c2b0d12e4", "4fc03f8b7ec564a7", "b450222bda2c242d"),
    (2, "basis1"): ("80c2ddac73f52bd1", "b583ef8bb35571b0", "efc5d09d8cbd88dc"),
    (2, "random"): ("0f2b03283c17f5d6", "113989ab735482cf", "59d98dbfc4ad031f"),
    (3, "basis0"): ("a41899fc96c4cd32", "9ea0de3bd766049d", "81ed114e6d1d12b8"),
    (3, "basis1"): ("ff48a3f17b531bff", "71e385acc3bb3d4c", "63c4715924b1c132"),
    (3, "random"): ("5d2f54d49a1e65a7", "83e59808e24f6622", "144f3110b1f5770f"),
}


class TestPermCiphertextsPinned:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_key_bitwise(self, m):
        scheme = perm_scheme(m)
        for label, rho in _inputs(m).items():
            enc, dec = hashlib.sha256(), hashlib.sha256()
            for key in scheme.iter_keys():
                enc.update(scheme.encrypt(key, rho).mat.tobytes())
                dec.update(scheme.decrypt(key, rho).mat.tobytes())
            per_key = key_average(scheme, [list(scheme.iter_keys())], rho,
                                  scheme.key_count).mat
            avg = hashlib.sha256(per_key.tobytes())
            got = tuple(h.hexdigest()[:16] for h in (enc, dec, avg))
            assert got == PINNED[(m, label)], (m, label)
            # the factor chain sums in another order: exact sums on the
            # basis inputs, last bits on the random one
            chain = ciphertext_average(scheme, rho).mat
            if label == "random":
                assert np.max(np.abs(chain - per_key)) < 1e-15, m
            else:
                assert chain.tobytes() == per_key.tobytes(), (m, label)


class TestSwapRunsMatchContraction:
    def test_random_words_bitwise(self):
        rng = np.random.default_rng(8)
        swaps = 0
        for i in range(200):
            n = 1 + i % 6
            rho = DensityMatrix.random_pure(n, rng)
            word = _random_word(n, rng)
            swaps += sum(name == "SWAP" for name, _ in word)
            got = rho.apply_gates(word).mat
            want = contraction(rho, word)
            assert got.tobytes() == want.tobytes(), (n, word)
        assert swaps > 200

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_single_swap_gate(self, n):
        rho = DensityMatrix.random_pure(n, np.random.default_rng(n))
        for a in range(n):
            for b in range(n):
                if a != b:
                    got = rho.apply_gate("SWAP", (a, b)).mat
                    want = contraction(rho, [("SWAP", (a, b))])
                    assert got.tobytes() == want.tobytes(), (a, b)

    def test_empty_word_and_cancelling_run(self):
        rho = DensityMatrix.random_pure(3, np.random.default_rng(3))
        assert rho.apply_gates([]).mat.tobytes() == rho.mat.tobytes()
        run = [("SWAP", (0, 2)), ("SWAP", (2, 0))]
        assert rho.apply_gates(run).mat.tobytes() == rho.mat.tobytes()


class TestBadSwapInRun:
    GOOD = [("SWAP", (0, 1)), ("SWAP", (1, 2))]

    @pytest.mark.parametrize("bad", [(1, 1), (0, 3), (-1, 0), (0,)])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_raises_anywhere_in_run(self, bad, where):
        word = list(self.GOOD)
        word.insert(where, ("SWAP", bad))
        rho = DensityMatrix.product("0+1")
        with pytest.raises(BackendError, match="bad qubits"):
            rho.apply_gates(word + [("H", (0,))])
        with pytest.raises(BackendError, match="bad qubits"):
            rho.apply_gates(word)


def test_perm_average_runs_no_contraction(monkeypatch):
    rho = spread_basis_input(3, 0)
    calls = Calls(monkeypatch)
    calls.count(states, "_apply_on_bits")
    ciphertext_average(perm_scheme(3), rho)
    assert calls.take("_apply_on_bits") == 0
    DensityMatrix.product("0+").apply_gate("H", (0,))
    assert calls.take("_apply_on_bits") == 1   # the counter does see a contraction
