import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

import dtnsat.equilibrium as equilibrium
import dtnsat.model as model
from dtnsat.equilibrium import (
    DegenerateContactError,
    _mixed_column,
    _sweep_point,
    minimum_satisfying_cohort,
    mse_columns,
    pareto_dominance_check,
    pareto_grid_scan,
    pse_columns,
    reduced_payoffs,
    region_columns,
    solve_ese,
)
from dtnsat.model import (
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
)
from conftest import make_params
from oracles import mixed_indifference_gap, mixed_relay_payoffs, pure_indifference_gap, \
    with_param

# frozen with 50-digit arithmetic at the reference scenario
ALPHA_PSE = {
    1: 0.70580298399804510,
    2: 0.48093091757107432,
    3: 0.38338199429268203,
    4: 0.30502008493905089,
    5: 0.23020280566318455,
    6: 0.15605581058029090,
    7: 0.08203325846295222,
}
P_MIN_7 = 0.054867394635270070
ALPHA_ESE_7 = 0.76680117101595519
Z_STAR_7 = 0.033113940259353011
TAU_STAR = {0.005: 40.171830949756883, 0.015: 13.390610316585628,
            0.05: 4.0171830949756883}
# four rising delivery targets at n = 3
ESE_FOUR_TARGETS = {
    0.02: (0.01112065313125, 3.800605269572),
    0.48: (0.32451726275294, 0.062525219565492),
    0.65: (0.48924116078907, 0.020018623679132),
    0.85: (0.77655334565810, -0.008221052480660),
}


def reduced_cost(params):
    """The reduced cooperation cost at the one point ``params``."""
    return _sweep_point(params, None, ())[4].item()


class TestReducedPayoffs:
    def test_arrays_match_scalar_calls_exactly(self, base_params):
        q = base_params.q
        cost = reduced_cost(base_params)
        cohorts = range(1, base_params.n + 1)
        misses = [q ** c for c in cohorts]
        successes = [1.0 - miss for miss in misses]
        accept, reject = reduced_payoffs(1.3, np.array(cohorts), np.array(successes),
                                         np.array(misses), cost, base_params)
        for i, args in enumerate(zip(cohorts, successes, misses)):
            assert (accept[i], reject[i]) == reduced_payoffs(1.3, *args, cost, base_params)


class TestReducedCooperationCost:
    def test_zero_rate_limit(self):
        # lam*tau = 1e-9 keeps the first-order offset of the cost below 1e-9
        assert reduced_cost(make_params(lam=0.0, tau=1.0)) == 2e-5 + 2e-5 + 3.8e-5 * 1.0
        assert reduced_cost(make_params(lam=0.0, tau=1.0)) == \
            pytest.approx(reduced_cost(make_params(lam=1e-9, tau=1.0)), rel=1e-9)

    @pytest.mark.parametrize("lam,tau", [(5e-324, 100.0), (1e-320, 100.0),
                                         (1e-315, 100.0), (5e-324, 0.1)])
    def test_subnormal_rate_matches_decimal(self, lam, tau):
        # e*(1 - q) leaves the normal range before the division by lam;
        # 60-digit series of (1 - exp(-x))/lam from the binary inputs
        params = make_params(lam=lam, tau=tau)
        with localcontext() as ctx:
            ctx.prec = 60
            lam_d, tau_d = Decimal(lam), Decimal(tau)
            x = lam_d * tau_d
            stored = tau_d * sum((-x) ** k / math.factorial(k + 1) for k in range(6))
            want = (Decimal(params.e_receive) + Decimal(params.e_transmit)
                    + Decimal(params.e_store) * stored)
        assert abs(reduced_cost(params) / float(want) - 1.0) <= 1e-12


def pse_point(params):
    """(n_a_min, {n_a: alpha_star}, {n_a: clamped}, feasible) of the pure
    candidates at one point, read from its ``pse_columns`` rows."""
    _, n_a, alpha, clamped, n_a_min, feasible = pse_columns(params, None, ())
    cohorts = [int(m) for m in n_a if not math.isnan(m)]
    return (n_a_min[0], dict(zip(cohorts, alpha.tolist())),
            dict(zip(cohorts, clamped.tolist())), bool(feasible[0]))


class TestPseColumns:
    """The pure candidates at one point: ``pse_columns`` with no sweep."""

    def test_reference_table(self, base_params):
        n_a_min, alpha_star, clamped, feasible = pse_point(base_params)
        assert n_a_min == 1
        assert feasible
        assert set(alpha_star) == set(range(1, 8))
        for m, expect in ALPHA_PSE.items():
            assert alpha_star[m] == pytest.approx(expect, rel=1e-12)
            assert not clamped[m]

    def test_rewards_satisfy_their_indifference_equation(self, base_params):
        _, alpha_star, clamped, _ = pse_point(base_params)
        unclamped = {m: a for m, a in alpha_star.items() if not clamped[m]}
        for m, alpha in unclamped.items():
            assert abs(pure_indifference_gap(alpha, m, base_params)) <= 1e-9

    def test_closed_form_matches_independent_linear_root(self, base_params):
        # the gap is linear in the reward; recover its root from two samples
        alpha_star = pse_point(base_params)[1]
        for m in range(1, 8):
            g0 = pure_indifference_gap(0.0, m, base_params)
            g1 = pure_indifference_gap(1.0, m, base_params)
            root = -g0 / (g1 - g0)
            assert alpha_star[m] == pytest.approx(root, abs=1e-9)

    def test_vanishing_threshold_needs_one_relay(self):
        assert pse_point(make_params(delta=1e-12))[0] == 1

    def test_underflowing_failure_needs_one_relay(self):
        # lam*tau = 800: exp(-lam*tau) underflows to 0
        n_a_min, alpha_star, _, _ = pse_point(make_params(lam=8.0, tau=100.0))
        assert n_a_min == 1
        assert all(math.isfinite(a) for a in alpha_star.values())

    @pytest.mark.parametrize("n", [7, 64])
    def test_huge_rate_reward_balances(self, n):
        # lam = 1e308: scaling the balance by lam overflowed its denominator
        # and returned 0 with a gap of -1.05
        params = make_params(lam=1e308, tau=1.0, n=n)
        alpha_star = pse_point(params)[1]
        for m in (1, n):
            alpha = alpha_star[m]
            assert math.isfinite(alpha) and alpha > 0.0
            assert pure_indifference_gap(alpha, m, params) == pytest.approx(0.0, abs=1e-12)
        (p_min,), (alpha,), _, _ = mse_columns(params, None, ())
        assert mixed_indifference_gap(alpha, p_min, params) == pytest.approx(0.0, abs=1e-12)

    def test_exact_integer_bound_not_bumped(self):
        # q = 0.5 and delta = 1 - q**3: the bound is exactly 3
        params = make_params(lam=1.0, tau=math.log(2.0), delta=0.875)
        assert minimum_satisfying_cohort(params) == 3
        assert pse_point(params)[0] == 3

    def test_bound_a_hair_above_an_integer_snaps_to_it(self):
        # delta = 1 - q**2 in floats puts the ratio log(1 - delta) / log(q)
        # a hair above 2, where the ceiling alone would read 3
        q = math.exp(-0.0137)
        params = make_params(lam=0.0137, tau=1.0, delta=1.0 - q ** 2)
        assert params.delta == 0.027028025113755128
        assert params.q == q
        assert math.log(1.0 - params.delta) / math.log(q) == 2.000000000000004
        assert 1.0 - q ** 2 >= params.delta
        assert minimum_satisfying_cohort(params) == 2
        assert pse_point(params)[0] == 2

    def test_infeasible_when_cohort_exceeds_fleet(self):
        n_a_min, alpha_star, _, feasible = pse_point(make_params(n=2, delta=0.999, lam=0.002,
                                                                tau=100.0))
        assert not feasible
        assert n_a_min > 2
        assert alpha_star == {}

    def test_degenerate_failure_marks_the_point(self):
        # lam = 0: q = 1 and no cohort ever delivers
        rows = [c.tolist() for c in pse_columns(make_params(lam=0.0), None, ())]
        assert rows[0] == [0] and rows[3:] == [[False], [math.inf], [False]]
        assert math.isnan(rows[1][0]) and math.isnan(rows[2][0])

    def test_out_of_range_rewards_marked_clamped(self):
        _, _, clamped, feasible = pse_point(make_params(alpha_max=0.2))
        assert feasible
        assert clamped[1] and not clamped[7]


class TestMseColumns:
    """The mixed equilibria at one point: ``mse_columns`` with no sweep."""

    def test_reference_bound(self, base_params):
        (p_min,), (alpha,), (z_star,), (feasible,) = mse_columns(base_params, None, ())
        assert feasible
        assert p_min == pytest.approx(P_MIN_7, rel=1e-12)
        assert alpha == pytest.approx(ALPHA_ESE_7, rel=1e-12)
        assert z_star == pytest.approx(Z_STAR_7, rel=1e-12)
        assert 0.0 <= z_star <= 1.0

    def test_vanishing_threshold(self):
        p_min = mse_columns(make_params(delta=1e-15), None, ())[0].item()
        assert p_min == pytest.approx(0.0, abs=1e-12)

    def test_reward_curve_solves_indifference(self, base_params):
        p_min = mse_columns(base_params, None, ())[0].item()
        ps = p_min + (1.0 - p_min) * np.arange(7) / 6
        for p, alpha in zip(ps, _mixed_column(base_params, p=ps).alpha):
            assert abs(mixed_indifference_gap(alpha, p, base_params)) <= 1e-9

    @pytest.mark.parametrize("n", [7, 64])
    def test_vanishing_delta_reward_balances(self, n):
        # delta = 1e-300: 1 - (1 - z)**n rounds to 0, so a share taken from
        # it left the reward of about 1e299 with a gap of gamma - sigma - cost
        params = make_params(delta=1e-300, n=n)
        (p_min,), (alpha,), _, _ = mse_columns(params, None, ())
        assert math.isfinite(alpha) and alpha > 1e298
        assert mixed_indifference_gap(alpha, p_min, params) == pytest.approx(0.0, abs=1e-12)

    def test_single_relay_boundary(self):
        alpha = _mixed_column(make_params(n=1), p=1.0).alpha.item()
        assert math.isfinite(alpha)

    def test_infeasible_reported_not_raised(self):
        (p_min,), (alpha,), _, (feasible,) = mse_columns(
            make_params(delta=0.99, lam=0.002, tau=50.0), None, ())
        assert not feasible
        assert p_min > 1.0
        assert math.isnan(alpha)

    def test_zero_contact_marks_the_point(self):
        # lam = 0: no relay ever meets the source; solve_ese raises instead
        p_min, alpha, z_star, feasible = mse_columns(make_params(lam=0.0), None, ())
        assert p_min.item() == math.inf and math.isnan(alpha.item())
        assert z_star.item() == 0.0 and not feasible.item()

    @pytest.mark.parametrize("var,values", [
        ("delta", [0.05, 0.21, 0.5, 0.8]),
        ("n", [2, 5, 9, 14]),
        ("lambda", [0.005, 0.01, 0.02, 0.04]),
        ("tau", [30.0, 60.0, 150.0, 400.0]),
    ])
    def test_p_min_monotone(self, var, values):
        mins = mse_columns(make_params(), var, values)[0]
        if var == "delta":
            assert all(a < b for a, b in zip(mins, mins[1:]))
        else:
            assert all(a > b for a, b in zip(mins, mins[1:]))


class TestSolveEse:
    def test_reference_point(self, base_params):
        sol = solve_ese(base_params)
        assert sol.p_star == pytest.approx(P_MIN_7, rel=1e-12)
        assert sol.alpha_star == pytest.approx(ALPHA_ESE_7, rel=1e-12)
        assert not sol.alpha_clamped
        assert abs(sol.binding_delivery - 0.21) <= 1e-9

    def test_binding_constraint(self, base_params):
        sol = solve_ese(base_params)
        delivered = expected_source_utility_mixed(sol.p_star, base_params)
        assert abs(delivered - base_params.delta) <= 1e-9

    def test_every_own_probability_is_best_response(self, base_params):
        # at the balancing reward the payoff is flat in the own accept prob
        sol = solve_ese(base_params)
        for p in (0.0, 0.3, 1.0):
            assert abs(mixed_indifference_gap(sol.alpha_star, sol.p_star,
                                              base_params)) <= 1e-9
            u_a, u_r = mixed_relay_payoffs(sol.alpha_star, sol.p_star, base_params)
            assert u_a == pytest.approx(u_r, abs=1e-9)

    def test_three_relay_quadruple(self):
        for delta, (p_star, alpha_star) in ESE_FOUR_TARGETS.items():
            sol = solve_ese(make_params(n=3, delta=delta))
            assert sol.p_star == pytest.approx(p_star, rel=1e-9)
            if alpha_star < 0:
                assert sol.alpha_clamped
                assert sol.alpha_star == 0.0
            else:
                assert sol.alpha_star == pytest.approx(alpha_star, rel=1e-9)
                assert not sol.alpha_clamped

    def test_infeasible_propagates(self):
        with pytest.raises(DegenerateContactError):
            solve_ese(make_params(delta=0.99, lam=0.002, tau=50.0))

    def test_degenerate_contact_rejected(self):
        with pytest.raises(DegenerateContactError,
                           match=r"^per-relay success is zero even at p = 1: lambda = 0\.0 "
                                 r"and tau = 100\.0 give x = lambda\*tau = 0\.0, "
                                 r"at which exp\(-x\) rounds to 1$"):
            solve_ese(make_params(lam=0.0))


def region_threshold(params, var, lo, hi, p):
    """The threshold of :func:`region_columns` over the sweep (lo, hi)."""
    return region_columns(params, var, (lo, hi), p)[1]


class TestSatisfactionRegion:
    def test_reference_crossing(self, base_params):
        got = region_threshold(base_params, "tau", 1.0, 500.0, 1.0)
        assert got == pytest.approx(TAU_STAR[0.015], abs=2e-6)

    def test_lambda_sweep_crossing(self, base_params):
        got = region_threshold(base_params, "lambda", 1e-4, 0.2, 1.0)
        # by symmetry of lam*tau the crossing sits at tau*(0.015)*0.015/100
        assert got == pytest.approx(TAU_STAR[0.015] * 0.015 / 100.0, abs=2e-6)

    def test_always_satisfied_returns_lower_endpoint(self):
        params = make_params(delta=1e-9)
        assert region_threshold(params, "tau", 1.0, 500.0, 1.0) == 1.0

    def test_never_satisfied_returns_none(self):
        params = make_params(delta=0.9)
        assert region_threshold(params, "tau", 0.1, 0.5, 0.1) is None

    def test_matches_grid_scan(self, base_params):
        lo, hi, points = 1.0, 500.0, 10_000
        step = (hi - lo) / (points - 1)
        first = None
        for i in range(points):
            tau = lo + i * step
            if expected_source_utility_mixed(
                    1.0, make_params(tau=tau)) >= base_params.delta:
                first = tau
                break
        got = region_threshold(base_params, "tau", lo, hi, 1.0)
        assert first is not None
        assert abs(got - first) <= step

    @pytest.mark.parametrize("var,lo,hi,want", [
        ("tau", 1.0, 1e300, TAU_STAR[0.015]),
        ("tau", 1.0, 1e60, TAU_STAR[0.015]),
        ("lambda", 1e-6, 1e250, TAU_STAR[0.015] * 0.015 / 100.0)])
    def test_wide_sweep_finds_the_crossing(self, base_params, var, lo, hi, want):
        # no fixed number of halvings reaches 1e-6 across these spans
        assert region_threshold(base_params, var, lo, hi, 1.0) == pytest.approx(
            want, abs=1e-6)

    @pytest.mark.parametrize("lam,hi,p", [(0.015, 500.0, 0.0), (0.015, 500.0, 5e-324),
                                          (0.0, 500.0, 1.0), (5e-324, 1e308, 1.0)])
    def test_unreachable_returns_none(self, lam, hi, p):
        assert region_threshold(make_params(lam=lam), "tau", 1.0, hi, p) is None

    # scenarios, ranges and p fixed in advance; every interior crossing brackets delta
    BRACKET_SCENARIOS = [{}, {"n": 1}, {"n": 40, "delta": 0.9}, {"delta": 1e-6},
                         {"lam": 0.002}, {"n": 3, "delta": 0.99},
                         {"n": 30, "delta": 0.5, "tau": 10.0}, {"delta": 0.999999999}]
    # the crossing is exact up to rounding; the slack only steps off it
    SLACK = 1e-6

    @pytest.mark.parametrize("scenario", BRACKET_SCENARIOS)
    def test_crossing_brackets_the_threshold(self, scenario):
        params = make_params(**scenario)
        interior = 0
        for var, lo, hi in (("tau", 1.0, 1e6), ("lambda", 1e-6, 10.0)):
            for p in (0.01, 0.05, 0.2, 0.5, 1.0):
                t = region_threshold(params, var, lo, hi, p)
                if t is None or not lo < t <= hi:
                    continue
                interior += 1

                def delivery(value):
                    return expected_source_utility_mixed(p, with_param(params, var, value))
                assert delivery(t + self.SLACK) >= params.delta, (var, p, t)
                if t - self.SLACK > lo:
                    assert delivery(t - self.SLACK) < params.delta, (var, p, t)
        assert interior > 0


class TestParetoDominance:
    def test_ese_does_not_dominate_itself(self, base_params):
        ese = solve_ese(base_params)
        _, _, dominates = pareto_dominance_check(ese.p_star, ese.alpha_star, ese,
                                                 base_params)
        assert not dominates

    def test_worse_source_margin_never_dominates(self, base_params):
        ese = solve_ese(base_params)
        d_margin, _, dominates = pareto_dominance_check(0.01, 0.0, ese, base_params)
        assert d_margin < 0
        assert not dominates

    def test_reward_cut_with_more_acceptance_helps_relays(self, base_params):
        # computed outcome: the forfeited-reward term dominates the relay
        # payoff at low acceptance, so cutting the reward while raising p
        # improves both sides; the binding equilibrium is grid-dominated
        ese = solve_ese(base_params)
        d_margin, d_relay, dominates = pareto_dominance_check(
            1.2 * ese.p_star, 0.8 * ese.alpha_star, ese, base_params)
        assert d_margin > 0
        assert d_relay > 0
        assert dominates

    def test_relay_delta_matches_direct_expectations(self, base_params):
        ese = solve_ese(base_params)
        cand_p, cand_alpha = 0.3, 1.0
        _, d_relay, _ = pareto_dominance_check(cand_p, cand_alpha, ese, base_params)
        expect = (expected_relay_utility_mixed(cand_p, cand_alpha, base_params)
                  - expected_relay_utility_mixed(ese.p_star, ese.alpha_star,
                                                 base_params))
        assert d_relay == pytest.approx(expect, rel=1e-12)

    def test_grid_scan_finds_the_dominating_region(self, base_params):
        ese = solve_ese(base_params)
        dominators = pareto_grid_scan(base_params, ese)
        assert len(dominators), "reward-free high-acceptance points dominate"
        for p, alpha, d_margin, d_relay in dominators.tolist():
            assert pareto_dominance_check(p, alpha, ese, base_params) == \
                (d_margin, d_relay, True)
            assert expected_source_utility_mixed(p, base_params) >= \
                base_params.delta - 1e-9

    @pytest.mark.parametrize("alpha_max, count", [(5.0, 7731), (0.014, 5880), (1.8e306, 5195)])
    def test_grid_scan_rows_are_the_dominating_verdicts_bit_for_bit(self, alpha_max, count):
        # alpha_max * j / 100 rounds one ulp past 0.014 at j = 100 and
        # overflows at 1.8e306, where the axis divides first
        params = make_params(alpha_max=alpha_max)
        ese = solve_ese(params)
        alphas = [min(alpha_max * j / 100 if alpha_max * j < math.inf
                      else alpha_max / 100 * j, alpha_max) for j in range(101)]
        want = []
        for i in range(101):
            for a in alphas:
                d_margin, d_relay, dominates = pareto_dominance_check(i / 100, a, ese, params)
                if dominates:
                    want.append((i / 100, a, d_margin, d_relay))
        rows = pareto_grid_scan(params, ese)
        assert rows.dtype == np.float64 and rows.shape == (len(want), 4) == (count, 4)
        assert rows.tobytes() == np.array(want).tobytes()

    def test_grid_scan_derives_the_record_constants_once(self, monkeypatch):
        # the caching cost is evaluated once, when the record is built, and
        # never when its constants are read, while every cell still scores
        # its candidate and the binding point: 2 x 101 x 101
        calls = {"storage_energy": 0, "expected_relay_utility_mixed": 0}
        for name in calls:
            original = getattr(model, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            for module in (model, equilibrium):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        params = make_params()
        assert calls["storage_energy"] == 1
        assert params.q > 0 and params.reach > 0 and params.total_energy > 0
        assert calls["storage_energy"] == 1
        pareto_grid_scan(params, solve_ese(params))
        assert calls["storage_energy"] == 1
        assert calls["expected_relay_utility_mixed"] == 2 * 101 * 101

    @pytest.mark.parametrize("alpha_max", [5.0, 0.014, 1.8e306, 1.7976931348623157e308])
    def test_grid_scan_checks_candidates_inside_both_ranges(self, alpha_max, monkeypatch):
        # pareto_dominance_check takes its candidates unchecked: the scan is
        # its one program caller, and must build every cell in range
        params = make_params(alpha_max=alpha_max)
        ese = solve_ese(params)
        seen = []

        def spy(p, alpha, point, at):
            seen.append((p, alpha))
            return pareto_dominance_check(p, alpha, point, at)

        monkeypatch.setattr(equilibrium, "pareto_dominance_check", spy)
        pareto_grid_scan(params, ese)
        assert len(seen) == 101 * 101
        assert all(0.0 <= p <= 1.0 and 0.0 <= a <= alpha_max for p, a in seen)
        assert {p for p, _ in seen} == {i / 100 for i in range(101)}
        assert min(a for _, a in seen) == 0.0 and max(a for _, a in seen) == alpha_max
        assert 0.0 <= ese.p_star <= 1.0 and 0.0 <= ese.alpha_star <= alpha_max

    def test_grid_scan_peak_memory(self, base_params):
        # the 7731 rows take 0.24 MiB as floats, 1.48 MiB as a tuple with a
        # verdict object each
        ese = solve_ese(base_params)
        pareto_grid_scan(base_params, ese)
        tracemalloc.start()
        try:
            rows = pareto_grid_scan(base_params, ese)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 7731
        assert peak < 0.75 * 2**20, peak
