import math

import numpy as np
import pytest

from dtnsat.model import (
    EXACT,
    REDUCED,
    ContactModel,
    DegenerateRateError,
    EmptyCohortError,
    CohortTooLargeError,
    EnergyModel,
    contact_probability,
    delivery_share,
    delivery_share_bruteforce,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    per_relay_success,
    reduced_cooperation_cost,
    relay_failure_probability,
    relay_payoffs,
    source_utility,
    storage_energy,
    total_energy,
)
from conftest import cohort_payoffs, make_params

# frozen with 50-digit arithmetic for lam=0.015, tau=100
P_C = 0.7768698398515702
Q_TAU = 0.22313016014842982
E_S = 1.1201756523932777e-3
ETA = 1.1601756523932778e-3


def contact(lam=0.015, tau=100.0):
    return ContactModel(lam=lam, tau=tau)


class TestContactProbability:
    def test_zero_rate_never_meets(self):
        assert contact_probability(contact(lam=0.0)) == 0.0

    def test_reference_value(self):
        assert contact_probability(contact()) == pytest.approx(P_C, rel=1e-14)

    def test_approaches_one_for_large_rate(self):
        p = contact_probability(contact(lam=0.3))  # lam*tau = 30
        assert 1.0 - 1e-12 < p < 1.0

    def test_complement_identity(self):
        for lam in (0.001, 0.015, 0.2, 3.0):
            for tau in (0.5, 10.0, 100.0, 400.0):
                c = contact(lam=lam, tau=tau)
                total = contact_probability(c) + relay_failure_probability(c)
                assert total == pytest.approx(1.0, abs=1e-15)


class TestFailureProbability:
    def test_zero_rate_certain_failure(self):
        assert relay_failure_probability(contact(lam=0.0, tau=50.0)) == 1.0

    def test_reference_value(self):
        assert relay_failure_probability(contact()) == pytest.approx(Q_TAU, rel=1e-14)


class TestStorageEnergy:
    def test_reference_value(self, base_params):
        assert storage_energy(base_params) == pytest.approx(E_S, rel=1e-12)

    def test_matches_quadrature_oracle(self, base_params):
        # independent route: trapezoid integration of e*lam*t*exp(-lam*t)
        lam, tau, e = 0.015, 100.0, 3.8e-5
        steps = 200000
        dt = tau / steps
        acc = 0.0
        for i in range(steps):
            t0, t1 = i * dt, (i + 1) * dt
            f0 = e * lam * t0 * math.exp(-lam * t0)
            f1 = e * lam * t1 * math.exp(-lam * t1)
            acc += 0.5 * (f0 + f1) * dt
        assert storage_energy(base_params) == pytest.approx(acc, rel=1e-8)

    def test_zero_store_cost(self):
        assert storage_energy(make_params(e=0.0)) == 0.0

    def test_vanishes_for_short_lifetime(self):
        assert storage_energy(make_params(tau=1e-6)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rate_rejected(self):
        with pytest.raises(DegenerateRateError):
            storage_energy(make_params(lam=0.0))

    def test_overflowing_lam_tau_holds_nothing_forever(self):
        # lam * tau = inf: the held-forever term is 0, not (1 + inf) * 0
        assert storage_energy(make_params(lam=1e308, tau=1e308)) == 3.8e-5 / 1e308


class TestTotalEnergy:
    def test_reference_value(self, base_params):
        assert total_energy(base_params) == pytest.approx(ETA, rel=1e-12)

    def test_all_zero(self):
        assert total_energy(make_params(e=0.0, e_r=0.0, e_t=0.0)) == 0.0

    def test_storage_free_case(self):
        assert total_energy(make_params(e=0.0, e_r=1.0, e_t=1.0)) == 2.0


class TestRelayPayoffs:
    @pytest.mark.parametrize("model", [EXACT, REDUCED])
    def test_arrays_match_scalar_calls_exactly(self, base_params, model):
        q = relay_failure_probability(base_params.contact)
        cohorts = range(1, base_params.n + 1)
        misses = [q ** c for c in cohorts]
        accept, reject = relay_payoffs(1.3, np.array(cohorts), np.array(misses),
                                       base_params, model)
        for i, (c, miss) in enumerate(zip(cohorts, misses)):
            assert (accept[i], reject[i]) == relay_payoffs(1.3, c, miss,
                                                           base_params, model)

    def test_unknown_model_rejected(self, base_params):
        with pytest.raises(ValueError, match="model"):
            relay_payoffs(1.0, 2, 0.5, base_params, "approximate")


class TestZeroRateLimits:
    # lam*tau = 1e-9 keeps the first-order offsets of both costs below 1e-9
    def test_total_energy(self):
        assert total_energy(make_params(lam=0.0, tau=1.0)) == 2e-5 + 2e-5
        assert total_energy(make_params(lam=0.0, tau=1.0)) == pytest.approx(
            total_energy(make_params(lam=1e-9, tau=1.0)), rel=1e-9)

    def test_reduced_cooperation_cost(self):
        assert reduced_cooperation_cost(make_params(lam=0.0, tau=1.0)) == \
            2e-5 + 2e-5 + 3.8e-5 * 1.0
        assert reduced_cooperation_cost(make_params(lam=0.0, tau=1.0)) == \
            pytest.approx(reduced_cooperation_cost(make_params(lam=1e-9, tau=1.0)),
                          rel=1e-9)


class TestDeliveryShare:
    def test_single_relay(self):
        assert delivery_share(1, 0.223130) == pytest.approx(0.776870, abs=1e-9)

    def test_reference_cohort(self):
        assert delivery_share(7, 0.223130) == pytest.approx(0.14285320909842817,
                                                            rel=1e-13)

    def test_certain_failure(self):
        for m in (1, 3, 10):
            assert delivery_share(m, 1.0) == 0.0

    def test_empty_cohort_rejected(self):
        with pytest.raises(EmptyCohortError):
            delivery_share(0, 0.5)

    def test_strictly_decreasing_in_cohort(self):
        values = [delivery_share(m, 0.3) for m in range(1, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDeliveryShareBruteforce:
    def test_single_term(self):
        assert delivery_share_bruteforce(1, 0.5) == 0.5

    def test_uniform_tie_at_zero_failure(self):
        assert delivery_share_bruteforce(3, 0.0) == pytest.approx(1 / 3, rel=1e-15)

    def test_matches_closed_form_on_grid(self):
        for m in range(1, 21):
            for i in range(11):
                q = i / 10
                closed = delivery_share(m, q)
                brute = delivery_share_bruteforce(m, q)
                assert abs(closed - brute) <= 1e-12, (m, q)

    def test_oversized_cohort_rejected(self):
        with pytest.raises(CohortTooLargeError):
            delivery_share_bruteforce(65, 0.5)


class TestRelayUtilities:
    def test_certain_win_pure_reward(self):
        # q = 0, free energy, no regrets: accepting pays exactly the reward
        params = make_params(lam=100.0, tau=10.0, sigma=0.0, gamma=0.0,
                             e=0.0, e_r=0.0, e_t=0.0, alpha_max=1.0)
        accept, reject = cohort_payoffs(1.0, 1, params)
        assert accept == pytest.approx(1.0)
        assert reject == pytest.approx(-1.0)

    def test_rewardless_cooperation_costs_energy(self, base_params):
        u = cohort_payoffs(0.0, 7, make_params(sigma=0.0))[0]
        assert u == pytest.approx(-ETA, rel=1e-12)

    def test_decline_regret_only(self, base_params):
        assert cohort_payoffs(0.0, 3, base_params)[1] == pytest.approx(-0.15)

    def test_zero_regret_zero_reward_reject(self):
        assert cohort_payoffs(0.0, 2, make_params(gamma=0.0))[1] == 0.0

    def test_near_indifference_at_solver_reward(self, base_params):
        # the closed-form solver reward balances the reduced cost model; with
        # the exact storage energy the branches differ by (e/lam)(Q - q)
        accept, reject = cohort_payoffs(0.0820332584629522, 7, base_params)
        gap = accept - reject
        assert gap == pytest.approx(8.478946086e-4, rel=1e-6)
        assert abs(gap) < 1e-3


class TestSourceUtility:
    def test_nobody_caches(self):
        assert source_utility(0, 0.3) == 0.0

    def test_single_relay(self):
        assert source_utility(1, 0.223130) == pytest.approx(0.776870, abs=1e-9)

    def test_certain_delivery(self):
        for m in (1, 4, 9):
            assert source_utility(m, 0.0) == 1.0

    def test_equals_cohort_times_share(self):
        for m in range(1, 15):
            assert source_utility(m, 0.4) == m * delivery_share(m, 0.4)

    def test_strictly_increasing_in_cohort(self):
        values = [source_utility(m, 0.6) for m in range(1, 21)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestMixedSourceUtility:
    def test_zero_acceptance(self, base_params):
        assert expected_source_utility_mixed(0.0, base_params) == 0.0

    def test_single_relay_full_acceptance(self):
        params = make_params(n=1)
        expect = (1 - Q_TAU) * P_C
        assert expected_source_utility_mixed(1.0, params) == pytest.approx(expect,
                                                                           rel=1e-12)

    def test_binding_point_value(self, base_params):
        assert expected_source_utility_mixed(0.054867, base_params) == \
            pytest.approx(0.21, abs=1e-4)

    def test_full_mixing_identity(self, base_params):
        z = per_relay_success(base_params, 1.0)
        expect = 1 - (1 - z) ** 7
        assert expected_source_utility_mixed(1.0, base_params) == pytest.approx(expect)


class TestMixedRelayUtility:
    def test_degenerate_reject_mixture(self, base_params):
        expect = cohort_payoffs(2.0, 1, base_params)[1]
        assert expected_relay_utility_mixed(0.0, 2.0, base_params) == \
            pytest.approx(expect, rel=1e-12)

    def test_degenerate_accept_mixture(self, base_params):
        expect = cohort_payoffs(2.0, 7, base_params)[0]
        assert expected_relay_utility_mixed(1.0, 2.0, base_params) == \
            pytest.approx(expect, rel=1e-12)

    def test_matches_profile_enumeration(self):
        # oracle: enumerate all opponent action profiles exhaustively
        params = make_params(n=2)
        p, alpha = 0.5, 1.0
        total = 0.0
        n_opp = params.n - 1
        for mask in range(2 ** n_opp):
            k = bin(mask).count("1")
            weight = p ** k * (1 - p) ** (n_opp - k)
            accept, reject = cohort_payoffs(alpha, k + 1, params)
            total += weight * (p * accept + (1 - p) * reject)
        got = expected_relay_utility_mixed(p, alpha, params)
        assert got == pytest.approx(total, rel=1e-12)
        assert got == pytest.approx(-0.1129812725428147, rel=1e-12)

    def test_enumeration_oracle_wider(self):
        params = make_params(n=5)
        for p in (0.2, 0.7):
            for alpha in (0.0, 1.5):
                total = 0.0
                n_opp = params.n - 1
                for mask in range(2 ** n_opp):
                    k = bin(mask).count("1")
                    weight = p ** k * (1 - p) ** (n_opp - k)
                    accept, reject = cohort_payoffs(alpha, k + 1, params)
                    total += weight * (p * accept + (1 - p) * reject)
                assert expected_relay_utility_mixed(p, alpha, params) == \
                    pytest.approx(total, rel=1e-12), (p, alpha)


class TestValidation:
    def test_contact_model_bounds(self):
        with pytest.raises(ValueError):
            ContactModel(lam=-0.1, tau=10.0)
        with pytest.raises(ValueError):
            ContactModel(lam=0.1, tau=0.0)

    def test_energy_model_bounds(self):
        with pytest.raises(ValueError):
            EnergyModel(e_store=-1e-6, e_receive=0.0, e_transmit=0.0)

    def test_game_params_bounds(self):
        for kwargs in ({"n": 0}, {"delta": 0.0}, {"delta": 1.0},
                       {"sigma": -0.1}, {"gamma": -0.1}, {"alpha_max": 0.0}):
            with pytest.raises(ValueError):
                make_params(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kwarg,field", [
        ("lam", "lam"), ("tau", "tau"), ("e", "e_store"), ("e_r", "e_receive"),
        ("e_t", "e_transmit"), ("sigma", "sigma"), ("gamma", "gamma"),
        ("delta", "delta"), ("alpha_max", "alpha_max")])
    def test_non_finite_rejected_by_name(self, kwarg, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make_params(**{kwarg: bad})


def test_operations_are_pure(base_params):
    q = relay_failure_probability(base_params.contact)
    pairs = [
        (contact_probability, (base_params.contact,)),
        (storage_energy, (base_params,)),
        (delivery_share, (5, 0.37)),
        (relay_payoffs, (1.2, 4, q ** 4, base_params)),
        (expected_relay_utility_mixed, (0.3, 1.2, base_params)),
        (expected_source_utility_mixed, (0.3, base_params)),
    ]
    for fn, args in pairs:
        assert fn(*args) == fn(*args)
