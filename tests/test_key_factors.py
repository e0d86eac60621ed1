"""Key averages as a chain of small twirls, run from a cached plan.

A scheme that declares `key_factors` lists keys such that every key is
exactly one product of one key per list, each list starting with the
identity key.  `ciphertext_average` then sums one list at a time, each
key as one gather from the descriptor's cached plan; the per-key replay
over `iter_keys` (`oracles.key_average`) is the oracle it is checked
against."""
import dataclasses
import itertools
import types
from collections import Counter

import numpy as np
import pytest

from oracles import Calls, key_average, per_gate, random_dense, trivial_scheme
from qhelab import states
from qhelab.paulis import CliffordOp
from qhelab.paulikey import (PauliKey, compose_with_stabilizer_code,
                             pauli_scheme, zkey_scheme)
from qhelab.permkey import PermKey, perm_scheme, spread_basis_input
from qhelab.qec import phase_flip_code
from qhelab.schemes import (SchemeDescriptor, SchemeError, ciphertext_average,
                            compose_schemes, security_delta)
from qhelab.states import (BackendError, DensityMatrix, StabilizerState,
                           StateVector)
from test_schemes import WORD_SCHEMES

FACTORED = {
    **{f"perm-m{m}": (lambda m=m: perm_scheme(m)) for m in (1, 2, 3)},
    **{f"pauli{n}": (lambda n=n: pauli_scheme(n)) for n in (1, 2, 3)},
    **{f"zkey{n}": (lambda n=n: zkey_scheme(n)) for n in (1, 2, 3)},
    "pauli1*zkey2": lambda: compose_schemes([pauli_scheme(1), zkey_scheme(2)]),
}


def _oracle(scheme, rho):
    """The per-key sum over every key of the scheme."""
    return key_average(scheme, [list(scheme.iter_keys())], rho,
                       scheme.key_count)


def _replayed(scheme, rho):
    """The same factor lists as `ciphertext_average`, each key's word
    replayed gate by gate: the same sums in the same order."""
    factors = (scheme.key_factors() if scheme.key_factors is not None
               else [list(scheme.iter_keys())])
    return key_average(scheme, factors, rho, scheme.key_count)


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
        """The plan takes one key word per factor key, on first use only."""
        calls = Calls(monkeypatch)
        calls.count(PermKey, "word")
        calls.count(PauliKey, "word")
        for _ in range(2):
            ciphertext_average(perm_scheme(3), spread_basis_input(3, 0))
            assert calls.take("word") == 2 + 3 + 4 + 5 + 6
            ciphertext_average(pauli_scheme(3), DensityMatrix.product("0+1"))
            assert calls.take("word") == 4 * 3


class TestFactorSizesChecked:
    def test_short_factor_list_raises(self):
        scheme = perm_scheme(2)
        short = dataclasses.replace(
            scheme, key_factors=lambda: perm_scheme(2).key_factors()[:-1])
        with pytest.raises(SchemeError, match="key_count"):
            ciphertext_average(short, spread_basis_input(2, 0))

    def test_declared_factors_checked_by_ciphertext_average(self):
        scheme = pauli_scheme(2)
        bad = dataclasses.replace(
            scheme, key_factors=lambda: scheme.key_factors() + [
                scheme.key_factors()[0][:2]])
        with pytest.raises(SchemeError, match="key_count"):
            ciphertext_average(bad, DensityMatrix.product("00"))


PLANNED = {**{f"factored-{name}": make for name, make in FACTORED.items()},
           **{f"word-{name}": make for name, make in WORD_SCHEMES.items()},
           "pauli*phaseflip3": lambda: compose_with_stabilizer_code(phase_flip_code())}


class TestCachedPlan:
    """`ciphertext_average` runs from a plan cached on the descriptor: per
    key one gather of rho's matrix, and per factor list one shared tail
    (the word from its first H or T on) after the list's sum."""

    @pytest.mark.parametrize("name", sorted(PLANNED))
    def test_plan_matches_key_by_key_replay(self, name):
        """Bitwise where no key word contracts; the phase-flip composite's
        encoder holds H, so its tail runs once on the sum, not per key."""
        scheme = PLANNED[name]()
        rng = np.random.default_rng(sorted(PLANNED).index(name))
        for _ in range(3):
            rho = random_dense(scheme.n_qubits, rng)
            got, ref = ciphertext_average(scheme, rho).mat, _replayed(scheme, rho).mat
            if name == "pauli*phaseflip3":
                assert np.max(np.abs(got - ref)) < 1e-12
            else:
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_map_is_the_gate_by_gate_replay(self, n):
        """One gather by the composed map is the word's gathers one gate at
        a time; the word from its first H or T on comes back unapplied."""
        rng = np.random.default_rng(60 + n)
        names = ["S", "X", "Y", "Z", "CNOT", "CZ", "SWAP"]
        for _ in range(20):
            word = []
            for _ in range(int(rng.integers(1, 8))):
                name = names[int(rng.integers(len(names)))]
                word.append((name, tuple(int(q) for q in rng.choice(
                    n, 1 if len(name) == 1 else 2, replace=False))))
            rho = random_dense(n, rng)
            idx, d, rest = states._word_map(n, word + [("H", (0,)), ("X", (1,))])
            assert rest == [("H", (0,)), ("X", (1,))]
            assert np.array_equal(states._gather(rho.mat, idx, d),
                                  per_gate(rho, word).mat)

    def test_word_map_checks_each_gate(self):
        with pytest.raises(BackendError):
            states._word_map(2, [("X", (0,)), ("CNOT", (1, 1))])

    def test_tails_that_differ_raise(self):
        words = {0: [("X", (0,)), ("H", (0,))], 1: [("H", (0,)), ("S", (0,))]}
        scheme = SchemeDescriptor(
            name="split", n_qubits=1, key_count=2, iter_keys=lambda: iter(words),
            encrypt_word=words.__getitem__, transport=lambda k, c: k,
            allows=lambda c: True)
        with pytest.raises(SchemeError, match="first H or T"):
            ciphertext_average(scheme, DensityMatrix.product("0"))

    @pytest.mark.parametrize("make", [lambda: perm_scheme(3),
                                      lambda: pauli_scheme(2)])
    def test_second_average_replays_nothing(self, make, monkeypatch):
        calls = Calls(monkeypatch)
        words = types.SimpleNamespace(of=make().encrypt_word)
        calls.count(words, "of", "encrypt_word")
        scheme = dataclasses.replace(make(), encrypt_word=lambda k: words.of(k))
        rho = random_dense(scheme.n_qubits, np.random.default_rng(5))
        calls.count(states, "_row_map")
        first = ciphertext_average(scheme, rho)
        assert calls.take("encrypt_word") == sum(map(len, scheme.key_factors()))
        calls.take("_row_map")
        second = ciphertext_average(scheme, rho)
        assert calls.take("encrypt_word") == calls.take("_row_map") == 0
        assert first.mat.tobytes() == second.mat.tobytes()


BACKENDS = [StabilizerState, StateVector, DensityMatrix]


class TestAnyBackendInput:
    """`ciphertext_average` reads any backend's `to_density()`."""

    @pytest.mark.parametrize("make, spec", [
        (lambda: perm_scheme(2), "0110"), (lambda: perm_scheme(3), "100101"),
        (lambda: pauli_scheme(3), "101"), (lambda: zkey_scheme(2), "01")])
    def test_basis_inputs_byte_equal_across_backends(self, make, spec):
        """Each backend holds a basis state's matrix exactly, so the three
        averages agree bit for bit."""
        scheme = make()
        averages = {ciphertext_average(scheme, cls.product(spec)).mat.tobytes()
                    for cls in BACKENDS}
        assert len(averages) == 1

    @pytest.mark.parametrize("spec", ["0+1-", "im+0", "-1i0"])
    def test_each_backend_averages_its_density(self, spec):
        scheme = perm_scheme(2)
        averages = []
        for cls in BACKENDS:
            state = cls.product(spec)
            got = ciphertext_average(scheme, state).mat
            assert got.tobytes() == ciphertext_average(
                scheme, state.to_density()).mat.tobytes()
            averages.append(got)
        assert np.max(np.abs(averages[0] - averages[1])) < 1e-15
        assert np.max(np.abs(averages[1] - averages[2])) < 1e-15

    @pytest.mark.parametrize("cls", BACKENDS)
    def test_qubit_count_mismatch_raises(self, cls):
        with pytest.raises(BackendError, match="qubit count"):
            ciphertext_average(perm_scheme(1), cls.product("000"))
        with pytest.raises(BackendError, match="qubit count"):
            security_delta(perm_scheme(1), [cls.product("00"), cls.product("0")])


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
