"""Stabilizer code library: encoders, syndrome extraction, lookup decoding,
and lifting of logical Cliffords to physical (transversal) circuits."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .paulis import CliffordOp, PauliAlgebraError, PauliString
from .states import StabilizerState


class CodeError(ValueError):
    pass


class UncorrectableSyndrome(CodeError):
    """Syndrome outside the lookup table (error weight above t)."""


class LiftError(CodeError):
    """Requested logical gate has no transversal implementation here."""


@dataclass(frozen=True)
class Syndrome:
    bits: tuple[int, ...]

    def __post_init__(self):
        for b in self.bits:
            if b not in (0, 1):
                raise CodeError("syndrome bits must be 0/1")

    def weight(self) -> int:
        return sum(self.bits)


# Per-gate transversal recipes: logical gate name -> list of physical gates.
TransversalTable = dict[str, list[tuple[str, tuple[int, ...]]]]


@dataclass(frozen=True)
class StabilizerCode:
    name: str
    n: int
    k: int
    d: int
    generators: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]
    encoder: CliffordOp
    transversal: TransversalTable | None = None
    _decode_table: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.generators) != self.n - self.k:
            raise CodeError("need n-k generators")
        for g in self.generators:
            if g.n_qubits != self.n or not g.is_hermitian():
                raise CodeError("bad generator")
        for a, b in itertools.combinations(self.generators, 2):
            if not a.commutes(b):
                raise CodeError("generators must commute")
        for i in range(self.k):
            for g in self.generators:
                if not (self.logical_x[i].commutes(g) and self.logical_z[i].commutes(g)):
                    raise CodeError("logicals must commute with generators")
            for j in range(self.k):
                want_anticommute = i == j
                if self.logical_x[i].commutes(self.logical_z[j]) == want_anticommute:
                    raise CodeError("logical X/Z pairing broken")
        # encoder must map the fresh-ancilla stabilizers into the code group
        # and the data-qubit Paulis onto the logical cosets
        if self.encoder.n_qubits != self.n:
            raise CodeError("encoder size mismatch")
        group = StabilizerState(self.n, self.generators)
        for j in range(len(self.generators)):
            img = self.encoder.row(self.n + self.k + j)
            if group.expectation(img) != 1:
                raise CodeError(f"encoder image of ancilla Z_{self.k + j} "
                                "lies outside the stabilizer group")
        for i in range(self.k):
            ix, iz = self.encoder.row(i), self.encoder.row(self.n + i)
            if group.expectation(ix * self.logical_x[i].adjoint()) != 1:
                raise CodeError("encoder does not produce logical X coset")
            if group.expectation(iz * self.logical_z[i].adjoint()) != 1:
                raise CodeError("encoder does not produce logical Z coset")

    # -- basic maps -------------------------------------------------------

    def syndrome_of_pauli(self, err: PauliString) -> Syndrome:
        return Syndrome(tuple(0 if err.commutes(g) else 1 for g in self.generators))

    def correctable_weight(self) -> int:
        return (self.d - 1) // 2

    def decode_table(self) -> dict[tuple[int, ...], PauliString]:
        if self._decode_table:
            return self._decode_table
        table: dict[tuple[int, ...], PauliString] = {
            (0,) * len(self.generators): PauliString.identity(self.n)}
        t = self.correctable_weight()
        # X/Z before Y: under independent bit- and phase-flip noise a pure
        # error is likelier than the combined one, so it wins syndrome ties
        for w in range(1, t + 1):
            for qubits in itertools.combinations(range(self.n), w):
                for letters in itertools.product("XZY", repeat=w):
                    err = PauliString.identity(self.n)
                    for q, ch in zip(qubits, letters):
                        err = err * PauliString.single(self.n, q, ch)
                    key = self.syndrome_of_pauli(err).bits
                    table.setdefault(key, err.positive())
        self._decode_table.update(table)
        return self._decode_table


def encode(code: StabilizerCode, logical_state):
    """Adjoin n-k fresh |0> ancillas and apply the encoder Clifford."""
    if logical_state.n_qubits != code.k:
        raise CodeError(f"logical state must have {code.k} qubits")
    anc = type(logical_state).product("0" * (code.n - code.k))
    return logical_state.tensor(anc).apply_clifford(code.encoder)


def extract_syndrome(state, code: StabilizerCode, ancillas: int,
                     rng: np.random.Generator):
    """Nondestructive generator measurements; one fresh ancilla each.

    Returns (state, Syndrome, ancillas_left).
    """
    if ancillas < len(code.generators):
        raise CodeError("ancilla supply exhausted")
    bits = []
    for g in code.generators:
        state, rec = state.measure_pauli(g, rng)
        bits.append(rec.outcome)
    return state, Syndrome(tuple(bits)), ancillas - len(code.generators)


def lookup_decode(syndrome: Syndrome, code: StabilizerCode) -> PauliString:
    """Minimal-weight correction for the syndrome; lexicographic tie-break."""
    table = code.decode_table()
    try:
        return table[syndrome.bits]
    except KeyError:
        raise UncorrectableSyndrome(
            f"syndrome {syndrome.bits} not correctable by {code.name}") from None


def logical_lift(code: StabilizerCode, logical: CliffordOp) -> CliffordOp:
    """Physical Clifford implementing the logical computation.

    The logical op's gate word is lifted gate-by-gate through the code's
    transversal table; the result acts on codewords exactly as `logical`
    acts on the encoded data.
    """
    if code.transversal is None:
        raise LiftError(f"{code.name} ships no transversal table")
    if logical.n_qubits != code.k:
        raise LiftError(f"logical op must act on {code.k} qubit(s)")
    phys: list[tuple[str, tuple[int, ...]]] = []
    for name, qs in logical.gates:
        try:
            recipe = code.transversal[name]
        except KeyError:
            raise LiftError(f"{name} is not liftable for {code.name}") from None
        if code.k == 1:
            phys.extend(recipe)
        else:  # pragma: no cover - all shipped codes have k = 1
            raise LiftError("multi-logical lifting not supported")
    lifted = CliffordOp.from_gates(code.n, phys)
    _verify_lift(code, logical, lifted)
    return lifted


def _verify_lift(code: StabilizerCode, logical: CliffordOp, lifted: CliffordOp) -> None:
    """Check Enc . C == L(C) . Enc on the six stabilizer probe states."""
    for spec in ("0", "1", "+", "-", "i", "m"):
        probe = StabilizerState.product(spec * code.k)
        lhs = encode(code, probe.apply_clifford(logical))
        rhs = encode(code, probe).apply_clifford(lifted)
        for g in lhs.generators:
            if rhs.expectation(g) != 1:
                raise LiftError(
                    f"lift of {logical!r} fails on probe {spec!r}")


def _encoder_from_images(generators, logical_x, logical_z, n, k) -> CliffordOp:
    """Complete (logicals, generators) with destabilizers and synthesize."""
    fixed = list(logical_x) + list(logical_z) + list(generators)
    destabs: list[PauliString] = []
    for j, g in enumerate(generators):
        constraints = []
        rhs = []
        for p in fixed:
            constraints.append(np.concatenate([p.z, p.x]))  # symplectic row
            rhs.append(0)
        # anticommute with exactly generator j
        idx_gj = 2 * k + j
        rhs[idx_gj] = 1
        for dprev in destabs:
            constraints.append(np.concatenate([dprev.z, dprev.x]))
            rhs.append(0)
        sol = gf2.solve(np.stack(constraints), np.array(rhs, np.uint8))
        if sol is None:
            raise CodeError("destabilizer completion failed")
        destabs.append(PauliString(sol[:n], sol[n:]).positive())
    x_images = list(logical_x) + destabs
    z_images = list(logical_z) + list(generators)
    return CliffordOp.from_images(x_images, z_images)


def _pl(label: str) -> PauliString:
    return PauliString.from_label(label)


def repetition_code() -> StabilizerCode:
    """3-qubit bit-flip code: corrects one X error, blind to Z."""
    enc = CliffordOp.from_gates(3, [("CNOT", (0, 1)), ("CNOT", (0, 2))])
    return StabilizerCode(
        name="repetition3",
        n=3, k=1, d=3,
        generators=(_pl("ZZI"), _pl("IZZ")),
        logical_x=(_pl("XXX"),),
        # ZII is the encoder-canonical representative; ZZZ = ZII * ZZI * IZZ
        # is the transversal one used by the lift table.
        logical_z=(_pl("ZII"),),
        encoder=enc,
        transversal={
            "X": [("X", (0,)), ("X", (1,)), ("X", (2,))],
            "Y": [("Y", (0,)), ("Y", (1,)), ("Y", (2,))],
            "Z": [("Z", (0,)), ("Z", (1,)), ("Z", (2,))],
        },
    )


def phase_flip_code() -> StabilizerCode:
    """3-qubit phase-flip code (repetition in the X basis)."""
    enc = CliffordOp.from_gates(3, [("CNOT", (0, 1)), ("CNOT", (0, 2)),
                                    ("H", (0,)), ("H", (1,)), ("H", (2,))])
    return StabilizerCode(
        name="phaseflip3",
        n=3, k=1, d=3,
        generators=(_pl("XXI"), _pl("IXX")),
        logical_x=(_pl("ZZZ"),),
        logical_z=(_pl("XII"),),
        encoder=enc,
        transversal={
            "X": [("Z", (0,)), ("Z", (1,)), ("Z", (2,))],
            "Y": [("Y", (0,)), ("Y", (1,)), ("Y", (2,))],
            "Z": [("X", (0,)), ("X", (1,)), ("X", (2,))],
        },
    )


def steane_code() -> StabilizerCode:
    """[[7,1,3]] Steane code; self-dual CSS, transversal H and S."""
    gen_labels = ["IIIXXXX", "IXXIIXX", "XIXIXIX",
                  "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]
    gens = tuple(_pl(s) for s in gen_labels)
    lx = (_pl("XXXXXXX"),)
    lz = (_pl("ZZZZZZZ"),)
    enc = _encoder_from_images(gens, lx, lz, 7, 1)
    sdg = [g for q in range(7) for g in (("Z", (q,)), ("S", (q,)))]
    return StabilizerCode(
        name="steane713",
        n=7, k=1, d=3,
        generators=gens,
        logical_x=lx,
        logical_z=lz,
        encoder=enc,
        transversal={
            "X": [("X", (q,)) for q in range(7)],
            "Y": [("Y", (q,)) for q in range(7)],
            "Z": [("Z", (q,)) for q in range(7)],
            "H": [("H", (q,)) for q in range(7)],
            "S": sdg,  # transversal S^dagger implements logical S
        },
    )


BUILTIN_CODES = {
    "repetition3": repetition_code,
    "phaseflip3": phase_flip_code,
    "steane713": steane_code,
}


# ---------------------------------------------------------------------------
# Code definition files
# ---------------------------------------------------------------------------

def serialize_code(code: StabilizerCode) -> str:
    lines = [f"NAME {code.name}", f"N {code.n}", f"K {code.k}", f"D {code.d}"]
    lines += [f"G {g.label()}" for g in code.generators]
    lines += [f"LX {p.label()}" for p in code.logical_x]
    lines += [f"LZ {p.label()}" for p in code.logical_z]
    lines += [f"ENC {name} {' '.join(map(str, qs))}" for name, qs in code.encoder.gates]
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> StabilizerCode:
    name, n, k, d = "code", None, None, None
    gens, lx, lz, enc_gates = [], [], [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        tag = toks[0].upper()
        try:
            if tag == "NAME":
                name = toks[1]
            elif tag == "N":
                n = int(toks[1])
            elif tag == "K":
                k = int(toks[1])
            elif tag == "D":
                d = int(toks[1])
            elif tag == "G":
                gens.append(_pl(toks[1]))
            elif tag == "LX":
                lx.append(_pl(toks[1]))
            elif tag == "LZ":
                lz.append(_pl(toks[1]))
            elif tag == "ENC":
                enc_gates.append((toks[1].upper(), tuple(int(t) for t in toks[2:])))
            else:
                raise CodeError(f"unknown tag {tag!r}")
        except (IndexError, ValueError, PauliAlgebraError) as exc:
            raise CodeError(f"line {lineno}: {exc}") from None
    if n is None or k is None:
        raise CodeError("code file missing N/K")
    try:
        encoder = (CliffordOp.from_gates(n, enc_gates) if enc_gates else
                   _encoder_from_images(tuple(gens), tuple(lx), tuple(lz), n, k))
    except PauliAlgebraError as exc:
        raise CodeError(f"bad encoder: {exc}") from None
    return StabilizerCode(name=name, n=n, k=k, d=d if d is not None else 1,
                          generators=tuple(gens), logical_x=tuple(lx),
                          logical_z=tuple(lz), encoder=encoder)
