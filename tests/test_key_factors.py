"""Key averages as a chain of small twirls.

A scheme that declares `key_factors` lists keys such that every key is
exactly one product of one key per list, each list starting with the
identity key.  `ciphertext_average` then sums one list at a time; the
per-key sum over `iter_keys` is the oracle it is checked against."""
import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from oracles import Calls, trivial_scheme
from qhelab.paulis import CliffordOp
from qhelab.paulikey import pauli_scheme, zkey_scheme
from qhelab.permkey import perm_scheme, spread_basis_input
from qhelab.schemes import (SchemeDescriptor, SchemeError, _key_average,
                            ciphertext_average, compose_schemes,
                            security_delta)
from qhelab.states import DensityMatrix

FACTORED = {
    **{f"perm-m{m}": (lambda m=m: perm_scheme(m)) for m in (1, 2, 3)},
    **{f"pauli{n}": (lambda n=n: pauli_scheme(n)) for n in (1, 2, 3)},
    **{f"zkey{n}": (lambda n=n: zkey_scheme(n)) for n in (1, 2, 3)},
    "pauli1*zkey2": lambda: compose_schemes([pauli_scheme(1), zkey_scheme(2)]),
}


def _oracle(scheme, rho):
    """The per-key sum over every key of the scheme."""
    return _key_average(scheme, [list(scheme.iter_keys())], rho,
                        scheme.key_count)


def _product_inputs(n, letters):
    """Every product input over `letters` on n qubits, thinned to at most
    about 16 by a fixed stride."""
    specs = ["".join(s) for s in itertools.product(letters, repeat=n)]
    return specs[::max(1, len(specs) // 16)]


@pytest.fixture(params=sorted(FACTORED))
def scheme(request):
    return FACTORED[request.param]()


class TestFactorContract:
    def test_products_are_the_key_channels(self, scheme):
        factors = scheme.key_factors()
        products = Counter()
        for choice in itertools.product(*factors):
            op = CliffordOp.identity(scheme.n_qubits)
            for key in choice:          # the first list's key applied first
                op = scheme.encrypt_op(key).compose(op)
            products[op] += 1
        keys = Counter(scheme.encrypt_op(key) for key in scheme.iter_keys())
        assert products == keys
        assert sum(keys.values()) == scheme.key_count

    def test_each_factor_starts_with_the_identity(self, scheme):
        identity = CliffordOp.identity(scheme.n_qubits)
        for factor in scheme.key_factors():
            assert scheme.encrypt_op(factor[0]) == identity

    def test_perm_factor_sizes(self):
        sizes = [len(f) for f in perm_scheme(3).key_factors()]
        assert sizes == [2, 3, 4, 5, 6]

    def test_pauli_and_zkey_factor_per_qubit(self):
        assert [len(f) for f in pauli_scheme(3).key_factors()] == [4, 4, 4]
        assert [len(f) for f in zkey_scheme(3).key_factors()] == [2, 2, 2]

    def test_composition_factors_only_when_every_component_does(self):
        assert compose_schemes([pauli_scheme(1), trivial_scheme(1)]).key_factors is None
        assert trivial_scheme(2).key_factors is None
        comp = compose_schemes([zkey_scheme(1), pauli_scheme(1)])
        assert [len(f) for f in comp.key_factors()] == [2, 4]


class TestAverageMatchesPerKeySum:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_spread_basis_inputs_bitwise(self, m, bit):
        scheme, rho = perm_scheme(m), spread_basis_input(m, bit)
        got = ciphertext_average(scheme, rho).mat
        assert got.tobytes() == _oracle(scheme, rho).mat.tobytes()

    def test_computational_basis_inputs_bitwise(self, scheme):
        for bits in _product_inputs(scheme.n_qubits, "01"):
            rho = DensityMatrix.product(bits)
            got = ciphertext_average(scheme, rho).mat
            assert got.tobytes() == _oracle(scheme, rho).mat.tobytes(), bits

    def test_product_inputs_close(self, scheme):
        for spec in _product_inputs(scheme.n_qubits, "01+-"):
            rho = DensityMatrix.product(spec)
            diff = ciphertext_average(scheme, rho).mat - _oracle(scheme, rho).mat
            assert np.max(np.abs(diff)) < 1e-15, spec

    def test_random_pure_inputs_close(self, scheme):
        rng = np.random.default_rng(scheme.n_qubits)
        for _ in range(3):
            rho = DensityMatrix.random_pure(scheme.n_qubits, rng)
            diff = ciphertext_average(scheme, rho).mat - _oracle(scheme, rho).mat
            assert np.max(np.abs(diff)) < 1e-15

    def test_perm_sweep_delta_bitwise(self):
        rep = security_delta(perm_scheme(3), [spread_basis_input(3, 0),
                                              spread_basis_input(3, 1)])
        assert (rep.method, rep.key_count) == ("exact-sweep", 720)
        assert rep.delta == 0.12499999999999997

    def test_largest_dense_key_group_is_swept(self):
        """The 6-qubit dense cap bounds every key group: pauli_scheme(6)'s
        4^6 keys are the most any scheme here has, and they are averaged
        exactly."""
        rep = security_delta(pauli_scheme(6), [DensityMatrix.product("000000"),
                                               DensityMatrix.product("1+0-i1")])
        assert (rep.method, rep.key_count) == ("exact-sweep", 4096)
        assert rep.delta < 1e-15

    def test_one_encryption_per_factor_key(self, monkeypatch):
        calls = Calls(monkeypatch)
        calls.count(SchemeDescriptor, "encrypt")
        ciphertext_average(perm_scheme(3), spread_basis_input(3, 0))
        assert calls.take("encrypt") == 2 + 3 + 4 + 5 + 6
        ciphertext_average(pauli_scheme(3), DensityMatrix.product("0+1"))
        assert calls.take("encrypt") == 4 * 3


class TestFactorSizesChecked:
    def test_short_factor_list_raises(self):
        scheme = perm_scheme(2)
        factors = scheme.key_factors()[:-1]
        with pytest.raises(SchemeError, match="key_count"):
            _key_average(scheme, factors, spread_basis_input(2, 0),
                         scheme.key_count)

    def test_declared_factors_checked_by_ciphertext_average(self):
        scheme = pauli_scheme(2)
        bad = dataclasses.replace(
            scheme, key_factors=lambda: scheme.key_factors() + [
                scheme.key_factors()[0][:2]])
        with pytest.raises(SchemeError, match="key_count"):
            ciphertext_average(bad, DensityMatrix.product("00"))


COMPOSITIONS = [
    lambda: [pauli_scheme(1), zkey_scheme(1)],
    lambda: [zkey_scheme(2), trivial_scheme(1)],
    lambda: [pauli_scheme(1), trivial_scheme(1), zkey_scheme(2)],
    lambda: [pauli_scheme(2), zkey_scheme(2)],
    lambda: [zkey_scheme(1), pauli_scheme(1), trivial_scheme(2)],
    lambda: [zkey_scheme(2), zkey_scheme(2)],
]

_WORD_GATES = ["H", "S", "X", "Z", "CNOT", "CZ", "CZ", "SWAP"]


def _random_word(n, rng):
    word = []
    for _ in range(int(rng.integers(1, 4))):
        name = _WORD_GATES[int(rng.integers(len(_WORD_GATES)))]
        arity = 2 if name in ("CNOT", "CZ", "SWAP") else 1
        word.append((name, tuple(int(q) for q in
                                 rng.choice(n, arity, replace=False))))
    return word


def _allows_exhaustive(comp, op):
    """Transport every key of the joint key space."""
    try:
        for key in comp.iter_keys():
            comp.transport(key, op)
    except SchemeError:
        return False
    return True


class TestAllowsOnGenerators:
    @pytest.mark.parametrize("which", range(len(COMPOSITIONS)))
    def test_agrees_with_exhaustive_probe(self, which):
        comp = compose_schemes(COMPOSITIONS[which]())
        rng = np.random.default_rng(40 + which)
        verdicts = Counter()
        for _ in range(25):
            op = CliffordOp.from_gates(comp.n_qubits,
                                       _random_word(comp.n_qubits, rng))
            verdict = comp.allows(op)
            assert verdict == _allows_exhaustive(comp, op)
            verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]
