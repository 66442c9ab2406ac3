import statistics

import pytest

from dtnsat.model import (
    StrategyProfile,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    relay_utility_accept,
    relay_utility_reject,
)
from dtnsat.simulate import (
    EstimateWithCI,
    MODEL,
    PHYSICAL,
    estimate_delivery,
    episode_rng,
    estimate_relay_utility,
    simulate_episode,
)
from dtnsat.equilibrium import solve_ese
from conftest import make_params

# frozen single-relay delivery probabilities at lam=0.015, tau=100
MODEL_ONE_RELAY = 0.60352674807100429     # p_c * (1 - q)
PHYSICAL_ONE_RELAY = 0.44217459962892543  # P(source + dest contact <= tau)


class TestEpisode:
    def test_seed_determinism(self, base_params):
        probs = [0.4] * 7
        a = simulate_episode(base_params, probs, 1.0, episode_rng(9, 3))
        b = simulate_episode(base_params, probs, 1.0, episode_rng(9, 3))
        assert a == b

    def test_trials_use_independent_streams(self, base_params):
        probs = [0.5] * 7
        outcomes = {simulate_episode(base_params, probs, 1.0, episode_rng(9, t)).accepted
                    for t in range(10)}
        assert len(outcomes) > 1

    def test_winner_iff_delivered(self, base_params):
        for t in range(200):
            out = simulate_episode(base_params, [0.3] * 7, 1.0, episode_rng(17, t))
            assert out.delivered == (out.winner is not None)
            assert out.delivered == (out.delivery_time is not None)
            if out.delivered:
                assert out.delivery_time <= base_params.contact.tau
                assert out.accepted[out.winner]
                assert out.contacted_source[out.winner]

    def test_nobody_caches_when_nobody_accepts(self, base_params):
        out = simulate_episode(base_params, [0.0] * 7, 2.0, episode_rng(5, 0))
        assert not any(out.accepted)
        assert not out.delivered
        # every decliner is scored against a cohort of itself alone
        prof = StrategyProfile(n_active=1, accept_prob=0.0, reward=2.0)
        expect = relay_utility_reject(prof, base_params)
        assert all(u == pytest.approx(expect) for u in out.per_relay_utility)

    def test_zero_rate_episode(self):
        params = make_params(lam=0.0)
        out = simulate_episode(params, [1.0] * 7, 1.0, episode_rng(1, 0))
        assert not out.delivered
        assert all(out.accepted)
        # share is zero, so accepting costs the failure regret plus energy
        expect = -params.sigma - 4e-5
        assert all(u == pytest.approx(expect) for u in out.per_relay_utility)

    def test_utilities_match_cohort_convention(self, base_params):
        out = simulate_episode(base_params, [0.6] * 7, 1.3, episode_rng(23, 11))
        n_accept = sum(out.accepted)
        for i, u in enumerate(out.per_relay_utility):
            cohort = n_accept if out.accepted[i] else n_accept + 1
            prof = StrategyProfile(n_active=cohort, accept_prob=0.6, reward=1.3)
            if out.accepted[i]:
                assert u == pytest.approx(relay_utility_accept(prof, base_params))
            else:
                assert u == pytest.approx(relay_utility_reject(prof, base_params))

    def test_monotone_coupling_in_accept_prob(self, base_params):
        # identical draws, higher p: delivery can only switch off -> on
        for t in range(200):
            low = simulate_episode(base_params, [0.2] * 7, 1.0, episode_rng(31, t))
            high = simulate_episode(base_params, [0.8] * 7, 1.0, episode_rng(31, t))
            assert high.delivered >= low.delivered

    def test_bad_inputs(self, base_params):
        with pytest.raises(ValueError):
            simulate_episode(base_params, [0.5] * 6, 1.0, episode_rng(1, 0))
        with pytest.raises(ValueError):
            simulate_episode(base_params, [1.5] * 7, 1.0, episode_rng(1, 0))
        with pytest.raises(ValueError):
            simulate_episode(base_params, [0.5] * 7, 1.0, episode_rng(1, 0), mode="exact")


class TestSingleRelayFrequencies:
    def test_model_mode_matches_product_form(self):
        params = make_params(n=1)
        est = estimate_delivery(params, 1.0, 20_000, seed=3, mode=MODEL)
        assert abs(est.mean - MODEL_ONE_RELAY) <= 3 * est.stderr

    def test_physical_mode_matches_two_stage_window(self):
        # independent oracle: P(S + D <= tau) for two exponentials is the
        # two-stage arrival law 1 - (1 + lam*tau) * exp(-lam*tau)
        params = make_params(n=1)
        est = estimate_delivery(params, 1.0, 20_000, seed=3, mode=PHYSICAL)
        assert abs(est.mean - PHYSICAL_ONE_RELAY) <= 3 * est.stderr

    def test_physical_window_is_tighter(self):
        params = make_params(n=1)
        model = estimate_delivery(params, 1.0, 5_000, seed=1, mode=MODEL)
        physical = estimate_delivery(params, 1.0, 5_000, seed=1, mode=PHYSICAL)
        assert physical.mean < model.mean


class TestEstimateDelivery:
    def test_zero_acceptance(self, base_params):
        est = estimate_delivery(base_params, 0.0, 100, seed=1)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_single_trial_is_bernoulli(self, base_params):
        est = estimate_delivery(base_params, 0.5, 1, seed=4)
        assert est.mean in (0.0, 1.0)
        assert est.trials == 1

    def test_trials_required(self, base_params):
        with pytest.raises(ValueError):
            estimate_delivery(base_params, 0.5, 0, seed=1)

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_matches_closed_form(self, base_params, p):
        est = estimate_delivery(base_params, p, 20_000, seed=11)
        expect = expected_source_utility_mixed(p, base_params)
        assert abs(est.mean - expect) <= 3 * max(est.stderr, 1e-4)

    def test_monotone_in_lifetime(self):
        short = estimate_delivery(make_params(tau=50.0), 0.5, 10_000, seed=2)
        long = estimate_delivery(make_params(tau=200.0), 0.5, 10_000, seed=2)
        tol = 3 * (short.stderr + long.stderr)
        assert long.mean >= short.mean - tol

    def test_monotone_in_rate_and_fleet(self):
        slow = estimate_delivery(make_params(lam=0.005), 0.5, 5_000, seed=21)
        fast = estimate_delivery(make_params(lam=0.05), 0.5, 5_000, seed=21)
        assert fast.mean >= slow.mean - 3 * (slow.stderr + fast.stderr)
        few = estimate_delivery(make_params(n=3), 0.5, 5_000, seed=22)
        many = estimate_delivery(make_params(n=7), 0.5, 5_000, seed=22)
        assert many.mean >= few.mean - 3 * (few.stderr + many.stderr)

    @pytest.mark.parametrize("n", [1, 4, 7])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_oracle_agreement_grid(self, n, p):
        params = make_params(n=n)
        est = estimate_delivery(params, p, 5_000, seed=31)
        expect = expected_source_utility_mixed(p, params)
        assert abs(est.mean - expect) <= 3 * max(est.stderr, 2e-3), (n, p)

    def test_order_independent_trial_streams(self, base_params):
        # averaging per-trial episodes in any order reproduces the estimate
        est = estimate_delivery(base_params, 0.5, 300, seed=8)
        probs = [0.5] * 7
        hits = [simulate_episode(base_params, probs, 0.0, episode_rng(8, t)).delivered
                for t in reversed(range(300))]
        assert est.mean == pytest.approx(sum(hits) / 300)


class TestEstimateRelayUtility:
    def test_zero_everything(self):
        params = make_params(gamma=0.0)
        est = estimate_relay_utility(params, 0.0, 0.0, 500, seed=1)
        assert est.mean == 0.0

    def test_matches_mixed_expectation_at_binding_point(self, base_params):
        ese = solve_ese(base_params)
        est = estimate_relay_utility(base_params, ese.p_star, ese.alpha_star,
                                     20_000, seed=13)
        expect = expected_relay_utility_mixed(ese.p_star, ese.alpha_star,
                                              base_params)
        assert abs(est.mean - expect) <= 3 * est.stderr

    def test_order_independent_trial_streams(self, base_params):
        est = estimate_relay_utility(base_params, 0.4, 1.2, 300, seed=8)
        probs = [0.4] * 7
        values = [simulate_episode(base_params, probs, 1.2,
                                   episode_rng(8, t)).per_relay_utility[0]
                  for t in reversed(range(300))]
        assert est.mean == pytest.approx(sum(values) / 300)

    def test_deterministic_given_seed(self, base_params):
        a = estimate_relay_utility(base_params, 0.3, 1.0, 500, seed=6)
        b = estimate_relay_utility(base_params, 0.3, 1.0, 500, seed=6)
        assert a == b

    def test_lone_always_accepting_relay_earns_its_share(self):
        # share-weighted scoring: a lone accepter is paid alpha*(1-q) in
        # every episode, with zero variance
        params = make_params(n=1, sigma=0.0, gamma=0.0, e=0.0, e_r=0.0,
                             e_t=0.0)
        est = estimate_relay_utility(params, 1.0, 2.0, 300, seed=9)
        assert est.mean == pytest.approx(2.0 * (1.0 - 0.22313016014842982),
                                         rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)


class TestEstimateWithCI:
    def test_stderr_definition(self, base_params):
        est = estimate_delivery(base_params, 0.5, 400, seed=5)
        probs = [0.5] * 7
        hits = [float(simulate_episode(base_params, probs, 0.0, episode_rng(5, t)).delivered)
                for t in range(400)]
        expect = statistics.stdev(hits) / 400 ** 0.5
        assert est.stderr == pytest.approx(expect, rel=1e-12)

    def test_interval_brackets_mean(self):
        est = EstimateWithCI(mean=0.4, stderr=0.01, trials=100)
        lo, hi = est.interval()
        assert lo < 0.4 < hi
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * 0.01, rel=1e-9)
