"""The permutation-key scheme: hiding data in plain sight.

A data qubit is smeared over m columns (plus m decoys) and the columns
are secretly shuffled. Identical gates on every column evaluate logical
gates obliviously; T gates go through with a little classical chatter
whose every message is provably uninformative.
"""
import numpy as np

from qhelab.permkey import (PermKey, SpreadRegister, build_t_register,
                            decryption_complexity, security_bound,
                            spread_basis_input, perm_scheme,
                            t_gate_deterministic, t_gate_probabilistic)
from qhelab.schemes import security_delta
from qhelab.states import DensityMatrix, trace_distance

rng = np.random.default_rng(99)

print("=== 1. Spreading and the security bound ===")
print("Delta(r, m) = sqrt(2^r / C(2m, m)):")
for r, m in [(0, 1), (1, 2), (0, 5), (0, 20), (4, 20)]:
    print(f"  r={r:>2}, m={m:>2}: {security_bound(r, m):.6g}")
rep = security_delta(perm_scheme(1), [spread_basis_input(1, 0),
                                      spread_basis_input(1, 1)])
print(f"exact m=1 sweep: delta = {rep.delta} <= {security_bound(0, 1):.5f}\n")

print("=== 2. Transversal Clifford round trip at m=5 ===")
key = PermKey.sample(5, rng)
print("secret permutation:", key.cycle_notation())
reg = SpreadRegister(5)
reg.add_data_row("+")
reg.encrypt(key)
for gate in ("H", "S", "S", "H"):
    reg.transversal_single(0, gate)
reg.decrypt(key)
got = reg.data_qubit_density(0)
want = DensityMatrix.product("+")
for gate in ("H", "S", "S", "H"):
    want = want.apply_gate(gate, (0,))
print(f"H S S H round trip distance: {trace_distance(got, want):.2e}")
print(f"decryption cost: {decryption_complexity(key, 1, 0)} swaps\n")

print("=== 3. T gates: probabilistic, then deterministic ===")
wins = 0
for i in range(400):
    r = np.random.default_rng(i)
    k = PermKey.sample(1, r)
    reg, client, budget = build_t_register("+", 1, 1, k, r)
    ok, _, _ = t_gate_probabilistic(reg, 0, budget.bundles[0]["magic"],
                                    client, r)
    wins += int(ok)
print(f"bare gate teleportation succeeds {wins}/400 (about 1/2)")

k = PermKey.sample(1, rng)
reg, client, budget = build_t_register("+", 1, 1, k, rng)
messages = t_gate_deterministic(reg, 0, budget, client, rng)
reg.decrypt(k)
out = reg.data_qubit_density(0)
print(f"deterministic T distance to T|+>: "
      f"{trace_distance(out, DensityMatrix.product('T')):.2e}")
print("classical chatter it took:")
for msg in messages:
    print(f"  {msg['sender']:>6} -> {msg['payload']}")
print("(the row labels are uniform coin flips to anyone without the key)")
