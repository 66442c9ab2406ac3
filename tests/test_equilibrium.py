import math

import pytest

from dtnsat.equilibrium import (
    DegenerateContactError,
    DegenerateFailureError,
    RangeError,
    minimum_satisfying_cohort,
    mixed_indifference_gap,
    mixed_relay_payoffs,
    mse_reward,
    pareto_dominance_check,
    pareto_grid_scan,
    pse_reward,
    pure_indifference_gap,
    satisfaction_region,
    solve_ese,
    solve_mse,
    solve_pse,
)
from dtnsat.model import (
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
)
from conftest import make_params

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


class TestSolvePse:
    def test_reference_table(self, base_params):
        sol = solve_pse(base_params)
        assert sol.n_a_min == 1
        assert sol.feasible
        assert set(sol.alpha_star) == set(range(1, 8))
        for m, expect in ALPHA_PSE.items():
            assert sol.alpha_star[m] == pytest.approx(expect, rel=1e-12)
            assert not sol.clamped[m]

    def test_rewards_satisfy_their_indifference_equation(self, base_params):
        sol = solve_pse(base_params)
        for m, alpha in sol.unclamped().items():
            assert abs(pure_indifference_gap(alpha, m, base_params)) <= 1e-9

    def test_closed_form_matches_independent_linear_root(self, base_params):
        # the gap is linear in the reward; recover its root from two samples
        for m in range(1, 8):
            g0 = pure_indifference_gap(0.0, m, base_params)
            g1 = pure_indifference_gap(1.0, m, base_params)
            root = -g0 / (g1 - g0)
            assert pse_reward(base_params, m) == pytest.approx(root, abs=1e-9)

    def test_vanishing_threshold_needs_one_relay(self):
        sol = solve_pse(make_params(delta=1e-12))
        assert sol.n_a_min == 1

    def test_underflowing_failure_needs_one_relay(self):
        # lam*tau = 800: exp(-lam*tau) underflows to 0
        sol = solve_pse(make_params(lam=8.0, tau=100.0))
        assert sol.n_a_min == 1
        assert all(math.isfinite(a) for a in sol.alpha_star.values())

    @pytest.mark.parametrize("n", [7, 64])
    def test_huge_rate_reward_balances(self, n):
        # lam = 1e308: scaling the balance by lam overflowed its denominator
        # and returned 0 with a gap of -1.05
        params = make_params(lam=1e308, tau=1.0, n=n)
        for m in (1, n):
            alpha = pse_reward(params, m)
            assert math.isfinite(alpha) and alpha > 0.0
            assert pure_indifference_gap(alpha, m, params) == pytest.approx(0.0, abs=1e-12)
        mse = solve_mse(params)
        alpha = mse.alpha_of_p(mse.p_min)
        assert mixed_indifference_gap(alpha, mse.p_min, params) == pytest.approx(0.0, abs=1e-12)

    def test_exact_integer_bound_not_bumped(self):
        # q = 0.5 and delta = 1 - q**3: the bound is exactly 3
        params = make_params(lam=1.0, tau=math.log(2.0), delta=0.875)
        assert minimum_satisfying_cohort(params) == 3

    def test_infeasible_when_cohort_exceeds_fleet(self):
        sol = solve_pse(make_params(n=2, delta=0.999, lam=0.002, tau=100.0))
        assert not sol.feasible
        assert sol.n_a_min > 2

    def test_degenerate_failure_rejected(self):
        with pytest.raises(DegenerateFailureError):
            solve_pse(make_params(lam=0.0))

    def test_out_of_range_rewards_marked_clamped(self):
        sol = solve_pse(make_params(alpha_max=0.2))
        assert sol.feasible
        assert sol.clamped[1] and not sol.clamped[7]


class TestSolveMse:
    def test_reference_bound(self, base_params):
        sol = solve_mse(base_params)
        assert sol.feasible
        assert sol.p_min == pytest.approx(P_MIN_7, rel=1e-12)
        assert sol.z_star == pytest.approx(Z_STAR_7, rel=1e-12)
        assert 0.0 <= sol.z_star <= 1.0

    def test_vanishing_threshold(self):
        sol = solve_mse(make_params(delta=1e-15))
        assert sol.p_min == pytest.approx(0.0, abs=1e-12)

    def test_reward_curve_solves_indifference(self, base_params):
        sol = solve_mse(base_params)
        for i in range(7):
            p = sol.p_min + (1.0 - sol.p_min) * i / 6
            assert abs(mixed_indifference_gap(sol.alpha_of_p(p), p, base_params)) <= 1e-9

    @pytest.mark.parametrize("n", [7, 64])
    def test_vanishing_delta_reward_balances(self, n):
        # delta = 1e-300: 1 - (1 - z)**n rounds to 0, so a share taken from
        # it left the reward of about 1e299 with a gap of gamma - sigma - cost
        params = make_params(delta=1e-300, n=n)
        sol = solve_mse(params)
        alpha = sol.alpha_of_p(sol.p_min)
        assert math.isfinite(alpha) and alpha > 1e298
        assert mixed_indifference_gap(alpha, sol.p_min, params) == pytest.approx(0.0, abs=1e-12)

    def test_single_relay_boundary(self):
        params = make_params(n=1)
        alpha = mse_reward(params, 1.0)
        assert math.isfinite(alpha)

    def test_infeasible_reported_not_raised(self):
        sol = solve_mse(make_params(delta=0.99, lam=0.002, tau=50.0))
        assert not sol.feasible
        assert sol.p_min > 1.0

    def test_degenerate_contact_rejected(self):
        with pytest.raises(DegenerateContactError):
            solve_mse(make_params(lam=0.0))

    @pytest.mark.parametrize("var,values", [
        ("delta", [0.05, 0.21, 0.5, 0.8]),
        ("n", [2, 5, 9, 14]),
        ("lam", [0.005, 0.01, 0.02, 0.04]),
        ("tau", [30.0, 60.0, 150.0, 400.0]),
    ])
    def test_p_min_monotone(self, var, values):
        mins = [solve_mse(make_params(**{var: v})).p_min for v in values]
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


class TestSatisfactionRegion:
    def test_reference_crossing(self, base_params):
        got = satisfaction_region(base_params, "tau", 1.0, 500.0, fixed_p=1.0)
        assert got == pytest.approx(TAU_STAR[0.015], abs=2e-6)

    def test_lambda_sweep_crossing(self, base_params):
        got = satisfaction_region(base_params, "lambda", 1e-4, 0.2, fixed_p=1.0)
        # by symmetry of lam*tau the crossing sits at tau*(0.015)*0.015/100
        assert got == pytest.approx(TAU_STAR[0.015] * 0.015 / 100.0, abs=2e-6)

    def test_always_satisfied_returns_lower_endpoint(self):
        params = make_params(delta=1e-9)
        assert satisfaction_region(params, "tau", 1.0, 500.0, 1.0) == 1.0

    def test_never_satisfied_returns_none(self):
        params = make_params(delta=0.9)
        assert satisfaction_region(params, "tau", 0.1, 0.5, 0.1) is None

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
        got = satisfaction_region(base_params, "tau", lo, hi, 1.0)
        assert first is not None
        assert abs(got - first) <= step

    def test_inverted_range_rejected(self, base_params):
        with pytest.raises(RangeError):
            satisfaction_region(base_params, "tau", 10.0, 10.0, 1.0)

    def test_unknown_variable_rejected(self, base_params):
        with pytest.raises(ValueError):
            satisfaction_region(base_params, "n", 1.0, 5.0, 1.0)


class TestParetoDominance:
    def test_ese_does_not_dominate_itself(self, base_params):
        ese = solve_ese(base_params)
        verdict = pareto_dominance_check(ese.p_star, ese.alpha_star, ese,
                                         base_params)
        assert not verdict.dominates

    def test_worse_source_margin_never_dominates(self, base_params):
        ese = solve_ese(base_params)
        verdict = pareto_dominance_check(0.01, 0.0, ese, base_params)
        assert verdict.source_margin_delta < 0
        assert not verdict.dominates

    def test_reward_cut_with_more_acceptance_helps_relays(self, base_params):
        # computed outcome: the forfeited-reward term dominates the relay
        # payoff at low acceptance, so cutting the reward while raising p
        # improves both sides; the binding equilibrium is grid-dominated
        ese = solve_ese(base_params)
        verdict = pareto_dominance_check(1.2 * ese.p_star, 0.8 * ese.alpha_star,
                                         ese, base_params)
        assert verdict.source_margin_delta > 0
        assert verdict.relay_utility_delta > 0
        assert verdict.dominates

    def test_relay_delta_matches_direct_expectations(self, base_params):
        ese = solve_ese(base_params)
        cand_p, cand_alpha = 0.3, 1.0
        verdict = pareto_dominance_check(cand_p, cand_alpha, ese, base_params)
        expect = (expected_relay_utility_mixed(cand_p, cand_alpha, base_params)
                  - expected_relay_utility_mixed(ese.p_star, ese.alpha_star,
                                                 base_params))
        assert verdict.relay_utility_delta == pytest.approx(expect, rel=1e-12)

    def test_grid_scan_finds_the_dominating_region(self, base_params):
        ese = solve_ese(base_params)
        dominators = pareto_grid_scan(base_params, ese, p_points=21,
                                      alpha_points=21)
        assert dominators, "reward-free high-acceptance points dominate"
        for p, alpha, verdict in dominators:
            assert verdict.dominates
            assert expected_source_utility_mixed(p, base_params) >= \
                base_params.delta - 1e-9
