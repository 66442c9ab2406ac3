import statistics

import numpy as np
import pytest

from dtnsat.model import (
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
)
from dtnsat.simulate import (
    MODEL,
    PHYSICAL,
    _draw,
    _race,
    _summarize,
    _window,
    estimate_delivery,
    episode_rng,
    estimate_relay_utility,
    simulate_episode,
)
from dtnsat.equilibrium import solve_ese
from conftest import cohort_payoffs, make_params

# frozen single-relay delivery probabilities at lam=0.015, tau=100
MODEL_ONE_RELAY = 0.60352674807100429     # p_c * (1 - q)
PHYSICAL_ONE_RELAY = 0.44217459962892543  # P(source + dest contact <= tau)


class TestEpisode:
    def test_seed_determinism(self, base_params):
        probs = [0.4] * 7
        a = simulate_episode(base_params, probs, 1.0, episode_rng(9, 3, 7))
        b = simulate_episode(base_params, probs, 1.0, episode_rng(9, 3, 7))
        assert (a[0].tolist(), a[1].tolist(), a[2]) == (b[0].tolist(), b[1].tolist(), b[2])

    def test_trials_use_independent_streams(self, base_params):
        probs = [0.5] * 7
        outcomes = {tuple(simulate_episode(base_params, probs, 1.0, episode_rng(9, t, 7))[0])
                    for t in range(10)}
        assert len(outcomes) > 1

    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    def test_race_success_is_an_accepted_contacted_finish(self, base_params, mode):
        tau = base_params.contact.tau
        for t in range(200):
            u = episode_rng(17, t, 7).random(_window(7))
            contacted, accepted, success, finish = _race(
                base_params, np.full(7, 0.3), *_draw(base_params, u), mode)
            delivered = simulate_episode(base_params, [0.3] * 7, 1.0,
                                         episode_rng(17, t, 7), mode)[2]
            assert delivered == success.any()
            assert (accepted & contacted & (finish <= tau))[success].all()

    def test_nobody_caches_when_nobody_accepts(self, base_params):
        accepted, utilities, delivered = simulate_episode(base_params, [0.0] * 7, 2.0,
                                                          episode_rng(5, 0, 7))
        assert not accepted.any()
        assert not delivered
        # every decliner is scored against a cohort of itself alone
        expect = cohort_payoffs(2.0, 1, base_params)[1]
        assert all(u == pytest.approx(expect) for u in utilities)

    def test_zero_rate_episode(self):
        params = make_params(lam=0.0)
        accepted, utilities, delivered = simulate_episode(params, [1.0] * 7, 1.0,
                                                          episode_rng(1, 0, 7))
        assert not delivered
        assert accepted.all()
        # share is zero, so accepting costs the failure regret plus energy
        expect = -params.sigma - 4e-5
        assert all(u == pytest.approx(expect) for u in utilities)

    def test_utilities_match_cohort_convention(self, base_params):
        accepted, utilities, _ = simulate_episode(base_params, [0.6] * 7, 1.3,
                                                  episode_rng(23, 11, 7))
        n_accept = accepted.sum()
        for acc, u in zip(accepted, utilities):
            accept, reject = cohort_payoffs(1.3, n_accept if acc else n_accept + 1,
                                            base_params)
            assert u == pytest.approx(accept if acc else reject)

    def test_monotone_coupling_in_accept_prob(self, base_params):
        # identical draws, higher p: delivery can only switch off -> on
        for t in range(200):
            low = simulate_episode(base_params, [0.2] * 7, 1.0, episode_rng(31, t, 7))
            high = simulate_episode(base_params, [0.8] * 7, 1.0, episode_rng(31, t, 7))
            assert high[2] >= low[2]

    def test_bad_inputs(self, base_params):
        with pytest.raises(ValueError):
            simulate_episode(base_params, [0.5] * 6, 1.0, episode_rng(1, 0, 7))
        with pytest.raises(ValueError):
            simulate_episode(base_params, [1.5] * 7, 1.0, episode_rng(1, 0, 7))
        with pytest.raises(ValueError):
            simulate_episode(base_params, [0.5] * 7, 1.0, episode_rng(1, 0, 7), mode="exact")


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
        hits = np.empty(300)
        for t in reversed(range(300)):
            hits[t] = simulate_episode(base_params, probs, 0.0, episode_rng(8, t, 7))[2]
        assert est.mean == pytest.approx(sum(hits) / 300)
        assert est == _summarize(hits)


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
        values = np.empty(300)
        for t in reversed(range(300)):
            values[t] = simulate_episode(base_params, probs, 1.2,
                                         episode_rng(8, t, 7))[1][0]
        assert est.mean == pytest.approx(sum(values) / 300)
        assert est == _summarize(values)

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
        hits = [float(simulate_episode(base_params, probs, 0.0, episode_rng(5, t, 7))[2])
                for t in range(400)]
        expect = statistics.stdev(hits) / 400 ** 0.5
        assert est.stderr == pytest.approx(expect, rel=1e-12)


class TestStreamContract:
    @pytest.mark.parametrize("n", [1, 3, 7, 40])
    def test_trial_window_is_a_row_of_one_stream(self, n):
        width = _window(n)
        assert width % 4 == 0 and 3 * n <= width < 3 * n + 4
        rows = episode_rng(12, 0, n).random((6, width))
        for t in range(6):
            assert np.array_equal(episode_rng(12, t, n).random(width), rows[t])

    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    def test_estimators_are_means_of_trials_in_reverse(self, mode):
        params = make_params(n=3)
        delivered, utility = np.empty((2, 200))
        for t in reversed(range(200)):
            _, utilities, hit = simulate_episode(params, [0.6] * 3, 0.9,
                                                 episode_rng(4, t, 3), mode)
            delivered[t], utility[t] = hit, utilities[0]
        assert estimate_delivery(params, 0.6, 200, 4, mode) == _summarize(delivered)
        assert estimate_relay_utility(params, 0.6, 0.9, 200, 4, mode) == _summarize(utility)

    def test_zero_rate_draws_the_whole_window(self, base_params):
        # at lambda = 0 no contact time is needed, yet trial t + 1 still reads
        # its own window: its flips match a fresh generator of trial t + 1
        zero = make_params(lam=0.0)
        rng = episode_rng(3, 0, 7)
        for t in range(20):
            walked = simulate_episode(zero, [0.5] * 7, 1.0, rng)[0]
            fresh = simulate_episode(base_params, [0.5] * 7, 1.0, episode_rng(3, t, 7))[0]
            assert np.array_equal(walked, fresh)

    def test_same_seed_same_bytes(self, base_params):
        width = _window(7)
        assert (episode_rng(5, 0, 7).random((50, width)).tobytes()
                == episode_rng(5, 0, 7).random((50, width)).tobytes())
        assert (episode_rng(5, 0, 7).random(width).tobytes()
                != episode_rng(6, 0, 7).random(width).tobytes())
        runs = [(estimate_delivery(base_params, 0.4, 300, 5),
                 estimate_relay_utility(base_params, 0.4, 1.0, 300, 5)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_inverse_cdf_contact_times(self, base_params):
        u = episode_rng(2, 0, 7).random((3, _window(7)))
        flips, source_t, dest_t = _draw(base_params, u)
        lam = base_params.contact.lam
        assert np.array_equal(flips, u[:, :7])
        assert np.array_equal(source_t, -np.log1p(-u[:, 7:14]) / lam)
        assert np.array_equal(dest_t, -np.log1p(-u[:, 14:21]) / lam)
        _, never_s, never_d = _draw(make_params(lam=0.0), u)
        assert np.isinf(never_s).all() and np.isinf(never_d).all()

    def test_subnormal_rate_overflows_times_to_inf_quietly(self):
        # lam * tau = 0.01, but -log1p(-u) / lam passes the float range
        params = make_params(n=1, lam=1e-310, tau=1e308)
        u = episode_rng(1, 0, 1).random((500, _window(1)))
        _, source_t, dest_t = _draw(params, u)
        assert np.isinf(source_t).any() and (source_t >= 0).all()
        est = estimate_delivery(params, 1.0, 500, seed=1)
        assert 0.0 <= est.mean <= 0.02

    def test_seed_outside_the_philox_key_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            episode_rng(2 ** 128, 0, 7)
