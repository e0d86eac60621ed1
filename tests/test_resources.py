"""Resource-formula tests: exact integers, boundary cases, scaling."""
import math

import pytest

from qhelab.permkey import security_bound
from qhelab.resources import (InfeasibleError, ResourceError, ResourceParams,
                              ancilla_count, budget_m, code_length,
                              headline_preset_params, max_power, min_t, optimal_m,
                              security_after_qec,
                              sweep_to_csv, sweep_to_json, total_qubits,
                              tradeoff_sweep)


def boundary_params(**kw) -> ResourceParams:
    """t=1 regime (zero flag-ancilla overhead)."""
    base = dict(p0=1e-6, p_threshold=1e-3, a_coeff=10.0, p_target=0.5)
    base.update(kw)
    return ResourceParams(**base)


class TestMinT:
    def test_headline_parameters_give_t11(self):
        p = headline_preset_params()
        t = min_t(p)
        assert t == 11
        assert code_length(t) == 529

    def test_exact_boundary_gives_t1(self):
        p = ResourceParams(p0=1e-6, p_threshold=1e-3, a_coeff=10.0,
                           p_target=10.0 * (1e-6 / 1e-3))
        assert min_t(p) == 1

    def test_nonconvergent_regime_rejected(self):
        with pytest.raises(ResourceError):
            min_t(ResourceParams(p0=1e-3, p_threshold=1e-3, a_coeff=10.0,
                                 p_target=1e-30))

    def test_minimality(self):
        """t satisfies the sufficiency bound while t-1 violates it."""
        p = headline_preset_params()
        t = min_t(p)
        bound = lambda tt: p.a_coeff * (p.p0 / p.p_threshold) ** tt
        assert bound(t) <= p.p_target
        assert bound(t - 1) > p.p_target


class TestAncillaCount:
    def test_t1_degenerates_to_zero(self):
        assert ancilla_count(9, 1) == 0
        assert ancilla_count(529, 1) == 0

    def test_t2_n25(self):
        assert ancilla_count(25, 2) == 2 * 2 * 25 * (8 + 25) * 1 == 3300

    def test_headline_exact_integer(self):
        assert ancilla_count(529, 11) == 430_140_480

    def test_inequality_bound_holds(self):
        for t in range(1, 12):
            n = code_length(t)
            assert ancilla_count(n, t) <= t ** 3 * n * (t ** 2 + 2 * t + n)

    def test_integer_exactness(self):
        a = ancilla_count(529, 11)
        assert isinstance(a, int) and a > 4 * 10 ** 8


class TestTotalQubits:
    def test_bare_encryption_doubles(self):
        assert total_qubits(1, 1, 0, 0) == 2

    def test_worked_value(self):
        assert total_qubits(2, 1, 1, 3300) == 79_204

    def test_linearity_in_m(self):
        assert total_qubits(10, 3, 2, 7) == 2 * total_qubits(5, 3, 2, 7)


class TestSecurityAfterQec:
    def test_zero_overhead_reduces_to_plain_bound(self):
        assert security_after_qec(3, 5, 0, 4) == security_bound(3, 4)

    def test_argument_arithmetic(self):
        assert security_after_qec(1, 1, 1, 50) == security_bound(7, 50)

    def test_monotone_in_m(self):
        vals = [security_after_qec(2, 1, 3, m) for m in range(5, 40, 5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMaxPower:
    def test_worked_example(self):
        plan = max_power(boundary_params(n_total=10 ** 4, k=10))
        assert plan.t == 1 and plan.a_nt == 0
        assert plan.m == 55
        assert plan.r_approx == pytest.approx(math.sqrt(10_100) - 10)
        assert plan.r_bound == 90
        assert plan.n_tot_used <= 10 ** 4

    def test_infeasible_when_budget_below_security(self):
        with pytest.raises(InfeasibleError):
            max_power(boundary_params(n_total=100, k=40))

    def test_sqrt_scaling_with_zero_overhead(self):
        for big_n in (10 ** 6, 10 ** 7, 10 ** 8):
            r1 = max_power(boundary_params(n_total=big_n, k=10)).r_bound
            r4 = max_power(boundary_params(n_total=4 * big_n, k=10)).r_bound
            assert abs(r4 / r1 - 2.0) < 0.05

    def test_budget_respected_across_grid(self):
        for big_n in (10 ** 4, 10 ** 5, 3 * 10 ** 6):
            plan = max_power(boundary_params(n_total=big_n, k=12))
            assert total_qubits(plan.m, plan.r_bound, 0, plan.a_nt) <= big_n

    def test_larger_k_gives_smaller_r(self):
        lo = max_power(boundary_params(n_total=10 ** 6, k=5)).r_bound
        hi = max_power(boundary_params(n_total=10 ** 6, k=200)).r_bound
        assert hi < lo


class TestSweep:
    def test_single_point(self):
        rows = tradeoff_sweep(boundary_params(k=10), [10 ** 4])
        assert len(rows) == 1 and rows[0]["feasible"]

    def test_monotone_r_in_budget(self):
        grid = [10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8]
        rows = tradeoff_sweep(boundary_params(k=10), grid)
        rs = [r["r_bound"] for r in rows]
        assert all(a <= b for a, b in zip(rs, rs[1:]))

    def test_headline_preset_rows_report_infeasible(self):
        rows = tradeoff_sweep(headline_preset_params(k=100), [10 ** 6, 10 ** 8])
        assert all(r["t"] == 11 and r["n"] == 529 for r in rows)
        assert all(not r["feasible"] for r in rows)

    def test_headline_preset_feasible_at_astronomic_budget(self):
        rows = tradeoff_sweep(headline_preset_params(k=100), [10 ** 20])
        assert rows[0]["feasible"] and rows[0]["r_bound"] >= 1

    def test_budget_rule_labeled(self):
        p = ResourceParams(p0=1e-6, p_threshold=1e-3, a_coeff=10.0,
                           p_target=0.5, k=None)
        rows = tradeoff_sweep(p, [10 ** 4], r_fixed=7)
        assert rows[0]["m_rule"] == "budget"
        assert rows[0]["m"] == budget_m(7, 0, 0, 10 ** 4)

    @pytest.mark.parametrize("r", [0, -1])
    def test_nonpositive_r_rejected(self, r):
        """r = 0 would divide by zero in `budget_m`, and r < 0 would report
        an infeasible row as feasible."""
        p = ResourceParams(p0=1e-6, p_threshold=1e-3, a_coeff=10.0,
                           p_target=0.5, k=None)
        with pytest.raises(ResourceError, match=f"r must be >= 1, not {r}"):
            tradeoff_sweep(p, [10 ** 4], r_fixed=r)

    def test_empty_grid_rejected(self):
        with pytest.raises(ResourceError):
            tradeoff_sweep(boundary_params(k=10), [])

    def test_csv_json_numeric_parity(self):
        import csv as csvmod
        import io
        import json
        rows = tradeoff_sweep(boundary_params(k=10), [10 ** 4, 10 ** 6])
        parsed_json = json.loads(sweep_to_json(rows))
        parsed_csv = list(csvmod.DictReader(io.StringIO(sweep_to_csv(rows))))
        for j, c in zip(parsed_json, parsed_csv):
            assert int(c["n_tot"]) == j["n_tot"]
            assert int(c["r_bound"]) == j["r_bound"]
            assert float(c["delta_bar_log2"]) == pytest.approx(
                j["delta_bar_log2"])


class TestOptimalM:
    def test_formula(self):
        assert optimal_m(10, 10 ** 4) == 55
        assert optimal_m(0, 400) == 10

    def test_delta_log2_matches_security_level(self):
        """The 2m >= r' + 2k rule treats C(2m,m) as 4^m; the exact central
        binomial is smaller by ~sqrt(pi m), so the achieved level is
        -k + (1/4) log2(pi m).  The planner reports the exact value."""
        plan = max_power(boundary_params(n_total=10 ** 6, k=10))
        slack = 0.25 * math.log2(math.pi * plan.m)
        assert plan.delta_bar_log2 <= -10 + slack + 0.01
        assert plan.delta_bar_log2 > -10  # the nominal claim alone is loose


class TestParamValidation:
    def test_probability_ranges(self):
        with pytest.raises(ResourceError):
            ResourceParams(p0=0.0, p_threshold=1e-3, a_coeff=1.0, p_target=0.5)
        with pytest.raises(ResourceError):
            ResourceParams(p0=1e-6, p_threshold=1.5, a_coeff=1.0, p_target=0.5)

    def test_count_ranges(self):
        with pytest.raises(ResourceError):
            ResourceParams(p0=1e-6, p_threshold=1e-3, a_coeff=1.0,
                           p_target=0.5, depth=-1)
        for k in (0, -3):
            with pytest.raises(ResourceError, match="k must be >= 1"):
                ResourceParams(p0=1e-6, p_threshold=1e-3, a_coeff=1.0,
                               p_target=0.5, k=k)
