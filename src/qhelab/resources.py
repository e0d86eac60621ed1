"""Analytic fault-tolerance resource calculator.

All counts are exact big integers; the only floats are logarithms of
probabilities and the security level, which is carried as log2.  The code
family is parameterized by the number of correctable errors t, with
length n = (2t+1)^2 and per-extraction ancilla overhead
A(n,t) = 2tn[t(t+2)+n] C(t,2).
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass

from .permkey import security_bound, security_bound_log2


class ResourceError(ValueError):
    pass


class InfeasibleError(ResourceError):
    """The qubit budget cannot host even one logical qubit at this security."""


@dataclass(frozen=True)
class ResourceParams:
    p0: float               # physical error probability
    p_threshold: float      # fault-tolerance threshold of the code family
    a_coeff: float          # prefactor of the logical failure bound
    p_target: float         # target logical failure probability
    depth: int = 0          # delegated circuit depth
    n_total: int = 0        # physical qubit budget
    k: int | None = None    # security exponent: delta_bar <= 2^-k

    def __post_init__(self):
        for name in ("p0", "p_threshold", "p_target"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ResourceError(f"{name} must be in (0, 1)")
        if self.a_coeff <= 0:
            raise ResourceError("a_coeff must be positive")
        if self.depth < 0 or self.n_total < 0:
            raise ResourceError("counts must be nonnegative")
        if self.k is not None and self.k < 1:
            raise ResourceError(f"k must be >= 1, not {self.k}")


@dataclass(frozen=True)
class ResourcePlan:
    t: int
    n: int
    a_nt: int
    m: int
    r_bound: int
    r_approx: float
    delta_bar_log2: float
    n_tot_used: int
    m_rule: str


def min_t(params: ResourceParams) -> int:
    """Smallest t with a_coeff (p0/p_threshold)^t <= p_target."""
    if params.p0 >= params.p_threshold:
        raise ResourceError("nonconvergent regime: p0 >= p_threshold")
    if params.p_target >= params.a_coeff:
        return 1
    ratio = math.log(params.p_target / params.a_coeff) / math.log(
        params.p0 / params.p_threshold)
    return max(1, math.ceil(ratio))


def code_length(t: int) -> int:
    return (2 * t + 1) ** 2


def ancilla_count(n: int, t: int) -> int:
    """A(n,t) = 2tn[t(t+2)+n] C(t,2); exact integer."""
    if n < 1 or t < 1:
        raise ResourceError("need n, t >= 1")
    a = 2 * t * n * (t * (t + 2) + n) * math.comb(t, 2)
    if a > t ** 3 * n * (t ** 2 + 2 * t + n):
        raise ResourceError("ancilla count exceeded its stated bound")
    return a


def total_qubits(m: int, r: int, depth: int, a_nt: int) -> int:
    """N_tot = 2mr(1 + 3(depth+1) A)."""
    if min(m, r) < 0 or depth < 0 or a_nt < 0:
        raise ResourceError("arguments must be nonnegative")
    return 2 * m * r * (1 + 3 * (depth + 1) * a_nt)


def security_after_qec(r: int, depth: int, a_nt: int, m: int) -> float:
    """Security of the QEC-enhanced scheme: the plain bound at the
    inflated count r + 3r(depth+1)A."""
    return security_bound(r + 3 * r * (depth + 1) * a_nt, m)


def security_after_qec_log2(r: int, depth: int, a_nt: int, m: int) -> float:
    return security_bound_log2(r + 3 * r * (depth + 1) * a_nt, m)


def optimal_m(k: int, n_total: int) -> int:
    """m = floor((sqrt(k^2 + N_tot) + k) / 2), balancing the two r caps."""
    return int((math.isqrt(k * k + n_total) + k) // 2)


def budget_m(r: int, depth: int, a_nt: int, n_total: int) -> int:
    """Largest m fitting the budget at fixed r."""
    denom = 2 * r * (1 + 3 * (depth + 1) * a_nt)
    return n_total // denom


def max_power(params: ResourceParams) -> ResourcePlan:
    """Largest computational power r within the qubit budget at security
    2^-k, with m chosen by the optimal rule."""
    if params.k is None:
        raise ResourceError("max_power needs the security exponent k")
    if params.n_total < 1:
        raise ResourceError("max_power needs a qubit budget")
    t = min_t(params)
    n = code_length(t)
    a = ancilla_count(n, t)
    k, big_n, depth = params.k, params.n_total, params.depth
    m = optimal_m(k, big_n)
    denom = 1 + 3 * (1 + depth) * a
    cap = min(2 * m - 2 * k, big_n // (2 * m))
    r_bound = cap // denom
    r_approx = math.sqrt(k * k + big_n) - k
    if r_bound < 1:
        raise InfeasibleError(
            f"budget N={big_n} gives r < 1 at k={k}, t={t} (A={a})")
    used = total_qubits(m, r_bound, depth, a)
    if used > big_n:
        raise ResourceError("internal: plan exceeds its own budget")
    return ResourcePlan(t=t, n=n, a_nt=a, m=m, r_bound=r_bound,
                        r_approx=r_approx,
                        delta_bar_log2=security_after_qec_log2(r_bound, depth, a, m),
                        n_tot_used=used, m_rule="optimal")


def tradeoff_sweep(params: ResourceParams, n_tot_grid: list[int],
                   r_fixed: int | None = None) -> list[dict]:
    """One table row per budget point; infeasible points are reported as
    rows, not errors.

    With k given, m follows the optimal rule; otherwise m is the largest
    that fits the budget at the caller-fixed r.
    """
    if not n_tot_grid:
        raise ResourceError("empty sweep grid")
    t = min_t(params)
    n = code_length(t)
    a = ancilla_count(n, t)
    rows = []
    for big_n in n_tot_grid:
        row = {"n_tot": int(big_n), "k": params.k, "t": t, "n": n, "a_nt": a}
        try:
            if params.k is not None:
                plan = max_power(dataclasses.replace(params, n_total=int(big_n)))
                row.update(m=plan.m, r_bound=plan.r_bound,
                           r_approx=plan.r_approx,
                           delta_bar_log2=plan.delta_bar_log2,
                           m_rule=plan.m_rule, feasible=True)
            else:
                if r_fixed is None:
                    raise ResourceError("sweep without k needs r_fixed")
                m = budget_m(r_fixed, params.depth, a, int(big_n))
                if m < 1:
                    raise InfeasibleError("budget below one column pair")
                row.update(m=m, r_bound=r_fixed, r_approx=float(r_fixed),
                           delta_bar_log2=security_after_qec_log2(
                               r_fixed, params.depth, a, m),
                           m_rule="budget", feasible=True)
        except InfeasibleError as exc:
            row.update(m=0, r_bound=0, r_approx=0.0, delta_bar_log2=0.0,
                       m_rule="n/a", feasible=False, reason=str(exc))
        rows.append(row)
    return rows


_SWEEP_COLUMNS = ["n_tot", "k", "t", "n", "a_nt", "m", "r_bound", "r_approx",
                  "delta_bar_log2", "m_rule", "feasible"]


def sweep_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def sweep_to_json(rows: list[dict]) -> str:
    return json.dumps([{c: row.get(c) for c in _SWEEP_COLUMNS} for row in rows],
                      indent=2)


def headline_preset_params(k: int = 100, depth: int = 0) -> ResourceParams:
    """The headline parameter set: p0 = 1e-6, target 1e-30, threshold 1e-3,
    prefactor 10, code length (2t+1)^2."""
    return ResourceParams(p0=1e-6, p_threshold=1e-3, a_coeff=10.0,
                          p_target=1e-30, depth=depth, n_total=0, k=k)
