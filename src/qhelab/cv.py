"""Displacement-key transport through Gaussian circuits, in phase space.

Everything in scope is an operator identity on displacement vectors and
quadrature combinations, so no wavefunctions are simulated.  Conventions,
fixed once: alpha = (x + i p)/sqrt(2); quadrature vectors are stored in
block order (x_1..x_n | p_1..p_n) with symplectic form
Omega = [[0, I], [-I, 0]]; the squeezer layer SMS(r, theta) is
parameterized so that it transports a key alpha to
alpha*cosh(r) + conj(alpha)*e^{i theta}*sinh(r).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GaussianError(ValueError):
    pass


_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class DisplacementVec:
    """Per-mode displacement key, held as complex amplitudes."""
    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=complex)
        if a.ndim != 1:
            raise GaussianError("alpha must be a vector")
        if not np.all(np.isfinite(a.view(float))):
            raise GaussianError("displacement entries must be finite")
        object.__setattr__(self, "alpha", a)
        self.alpha.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def from_quadratures(cls, x, p) -> "DisplacementVec":
        x = np.asarray(x, float)
        p = np.asarray(p, float)
        return cls((x + 1j * p) / _SQRT2)

    def x(self) -> np.ndarray:
        return np.sqrt(2.0) * self.alpha.real

    def p(self) -> np.ndarray:
        return np.sqrt(2.0) * self.alpha.imag

    def quad_vector(self) -> np.ndarray:
        return np.concatenate([self.x(), self.p()])

    def __add__(self, other: "DisplacementVec") -> "DisplacementVec":
        return DisplacementVec(self.alpha + other.alpha)


def symplectic_form(n: int) -> np.ndarray:
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


@dataclass(frozen=True)
class SymplecticOp:
    """Phase-space action of a Gaussian unitary: quad -> S quad + shift."""
    mat: np.ndarray
    shift: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.mat, float)
        n2 = s.shape[0]
        if s.shape != (n2, n2) or n2 % 2:
            raise GaussianError("symplectic matrix must be 2n x 2n")
        omega = symplectic_form(n2 // 2)
        if np.max(np.abs(s.T @ omega @ s - omega)) > 1e-10:
            raise GaussianError("matrix is not symplectic")
        object.__setattr__(self, "mat", s)
        if self.shift is not None:
            object.__setattr__(self, "shift", np.asarray(self.shift, float))

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2

    @classmethod
    def identity(cls, n: int) -> "SymplecticOp":
        return cls(np.eye(2 * n))

    @classmethod
    def from_passive(cls, u: np.ndarray) -> "SymplecticOp":
        """Embed an n x n unitary (linear optics) as a symplectic matrix."""
        u = np.asarray(u, complex)
        if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-10:
            raise GaussianError("passive network matrix must be unitary")
        re, im = u.real, u.imag
        return cls(np.block([[re, -im], [im, re]]))

    @classmethod
    def from_squeezer(cls, n: int, mode: int, r: float, theta: float) -> "SymplecticOp":
        c, s = np.cosh(r), np.sinh(r)
        m = np.eye(2 * n)
        i, j = mode, n + mode
        m[i, i] = c + s * np.cos(theta)
        m[i, j] = s * np.sin(theta)
        m[j, i] = s * np.sin(theta)
        m[j, j] = c - s * np.cos(theta)
        return cls(m)

    def compose(self, first: "SymplecticOp") -> "SymplecticOp":
        shift = None
        if self.shift is not None or first.shift is not None:
            s1 = first.shift if first.shift is not None else np.zeros(self.mat.shape[0])
            s2 = self.shift if self.shift is not None else np.zeros(self.mat.shape[0])
            shift = self.mat @ s1 + s2
        return SymplecticOp(self.mat @ first.mat, shift)

    def apply_quad(self, quad: np.ndarray) -> np.ndarray:
        out = self.mat @ quad
        if self.shift is not None:
            out = out + self.shift
        return out


def transport_key_squeezer(r: float, theta: float, alpha: complex) -> complex:
    """Single-mode squeezer: alpha*cosh(r) + conj(alpha)*e^{i theta}*sinh(r)."""
    if not np.isfinite(r):
        raise GaussianError("squeezing parameter must be finite")
    return alpha * np.cosh(r) + np.conj(alpha) * np.exp(1j * theta) * np.sinh(r)


# -- Gaussian circuits as layer lists ---------------------------------------
# ("BS", i, j, theta) | ("PS", i, theta) | ("SMS", i, r, theta)
# | ("DISP", i, x, p)

def beamsplitter_unitary(n: int, i: int, j: int, theta: float) -> np.ndarray:
    """Real mixer convention: at theta = pi/4 it sends (sqrt2, 0) to (1, 1)."""
    u = np.eye(n, dtype=complex)
    u[i, i] = np.cos(theta)
    u[i, j] = np.sin(theta)
    u[j, i] = np.sin(theta)
    u[j, j] = -np.cos(theta)
    return u


def phase_shifter_unitary(n: int, i: int, theta: float) -> np.ndarray:
    u = np.eye(n, dtype=complex)
    u[i, i] = np.exp(1j * theta)
    return u


def parse_gaussian_circuit(text: str) -> list[tuple]:
    layers = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0].upper()
        try:
            if kind == "BS":
                layers.append(("BS", int(toks[1]), int(toks[2]), float(toks[3])))
            elif kind == "PS":
                layers.append(("PS", int(toks[1]), float(toks[2])))
            elif kind == "SMS":
                layers.append(("SMS", int(toks[1]), float(toks[2]), float(toks[3])))
            elif kind == "DISP":
                layers.append(("DISP", int(toks[1]), float(toks[2]), float(toks[3])))
            else:
                raise GaussianError(f"unknown layer {kind!r}")
        except (IndexError, ValueError) as exc:
            raise GaussianError(f"line {lineno}: {exc}") from None
    return layers


def _n_modes_of(layers: list[tuple], n_modes: int | None) -> int:
    if n_modes is not None:
        return n_modes
    hi = -1
    for layer in layers:
        if layer[0] == "BS":
            hi = max(hi, layer[1], layer[2])
        else:
            hi = max(hi, layer[1])
    return hi + 1


def circuit_symplectic(layers: list[tuple], n_modes: int | None = None) -> SymplecticOp:
    n = _n_modes_of(layers, n_modes)
    op = SymplecticOp.identity(n)
    shift = np.zeros(2 * n)
    for layer in layers:
        if layer[0] == "BS":
            _, i, j, theta = layer
            step = SymplecticOp.from_passive(beamsplitter_unitary(n, i, j, theta))
        elif layer[0] == "PS":
            _, i, theta = layer
            step = SymplecticOp.from_passive(phase_shifter_unitary(n, i, theta))
        elif layer[0] == "SMS":
            _, i, r, theta = layer
            step = SymplecticOp.from_squeezer(n, i, r, theta)
        elif layer[0] == "DISP":
            _, i, x, p = layer
            d = np.zeros(2 * n)
            d[i], d[n + i] = x, p
            shift = shift + d
            continue
        else:
            raise GaussianError(f"invalid layer {layer!r}")
        op = SymplecticOp(step.mat @ op.mat)
        shift = step.mat @ shift
    return SymplecticOp(op.mat, shift if shift.any() else None)


def transport_key_gaussian(layers: list[tuple], key: DisplacementVec,
                           n_modes: int | None = None) -> DisplacementVec:
    """Push a displacement key through the circuit layer by layer.

    Displacement layers commute with the key (they only add a global
    phase), so the key is unchanged by them.
    """
    n = _n_modes_of(layers, n_modes)
    if key.n_modes != n:
        raise GaussianError("mode count mismatch")
    alpha = key.alpha.copy()
    for layer in layers:
        if layer[0] == "BS":
            _, i, j, theta = layer
            u = beamsplitter_unitary(n, i, j, theta)
            alpha = u @ alpha
        elif layer[0] == "PS":
            _, i, theta = layer
            alpha[i] = np.exp(1j * theta) * alpha[i]
        elif layer[0] == "SMS":
            _, i, r, theta = layer
            alpha[i] = transport_key_squeezer(r, theta, alpha[i])
        elif layer[0] == "DISP":
            pass
        else:
            raise GaussianError(f"invalid layer {layer!r}")
    return DisplacementVec(alpha)


def commutation_phase(late: DisplacementVec, early: DisplacementVec) -> complex:
    """Scalar with D(late) D(early) = phase * D(early) D(late)."""
    omega = symplectic_form(late.n_modes)
    return np.exp(-1j * float(late.quad_vector() @ omega @ early.quad_vector()))


# -- Nullifier codes ---------------------------------------------------------

@dataclass(frozen=True)
class NullifierSet:
    """Quadrature combinations sum a_k x_k and sum b_k p_k with
    coefficients restricted to -1/0/1 at construction time."""
    x_coeffs: np.ndarray    # rows: x-type nullifiers (length n each)
    p_coeffs: np.ndarray    # rows: p-type nullifiers

    def __post_init__(self):
        xc = np.atleast_2d(np.asarray(self.x_coeffs, float))
        pc = np.atleast_2d(np.asarray(self.p_coeffs, float))
        for arr in (xc, pc):
            if not np.all(np.isin(arr, (-1.0, 0.0, 1.0))):
                raise GaussianError("nullifier coefficients must be -1/0/1")
        object.__setattr__(self, "x_coeffs", xc)
        object.__setattr__(self, "p_coeffs", pc)

    @property
    def n_modes(self) -> int:
        return self.x_coeffs.shape[1]

    def rows(self) -> np.ndarray:
        """All nullifiers as 2n-coefficient rows over (x | p)."""
        n = self.n_modes
        out = []
        for c in self.x_coeffs:
            out.append(np.concatenate([c, np.zeros(n)]))
        for c in self.p_coeffs:
            out.append(np.concatenate([np.zeros(n), c]))
        return np.stack(out)


def nullifier_transport(nulls: NullifierSet, op: SymplecticOp) -> np.ndarray:
    """Coefficient rows pushed through the circuit (rows @ S)."""
    return nulls.rows() @ op.mat


def nullifier_key_offset(coeff_row: np.ndarray, key: DisplacementVec) -> float:
    """Encrypting with D(key) shifts the nullifier value by coeffs . shift."""
    return float(np.asarray(coeff_row) @ key.quad_vector())


# -- GKP logical shifts -------------------------------------------------------

def gkp_logical_to_displacement(pauli: str, n: int, alpha: float) -> DisplacementVec:
    """Logical X -> position shift alpha; logical Z -> momentum shift
    2 pi / (n alpha), n the encoded qudit dimension."""
    if alpha <= 0 or n < 2:
        raise GaussianError("need alpha > 0 and qudit dimension n >= 2")
    if pauli == "X":
        return DisplacementVec.from_quadratures([alpha], [0.0])
    if pauli == "Z":
        return DisplacementVec.from_quadratures([0.0], [2 * np.pi / (n * alpha)])
    raise GaussianError("GKP logicals here are X or Z")
