import math
import re
import statistics
import warnings

import numpy as np
import pytest

import dtnsat.learning as learning
import dtnsat.simulate as simulate
from dtnsat.model import (
    GameParams,
    delivery_share,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
)
from dtnsat.simulate import (
    MODEL,
    EstimateWithCI,
    PHYSICAL,
    _cohort_shares,
    _contacts,
    _summarize,
    _window,
    estimate_delivery,
    episode_rng,
    estimate_relay_utility,
    simulate_episode,
)
from dtnsat.equilibrium import solve_ese
from dtnsat.learning import EPISODE, FEEDS, run_coupled
from conftest import cohort_payoffs, make_params
from oracles import episode, score_relays

# frozen single-relay delivery probabilities at lam=0.015, tau=100
MODEL_ONE_RELAY = 0.60352674807100429     # p_c * (1 - q)
PHYSICAL_ONE_RELAY = 0.44217459962892543  # P(source + dest contact <= tau)


def score(params, accepted, reward):
    """Per-relay utilities of a drawn episode, as the estimator scores them."""
    return score_relays(params, _cohort_shares(params), accepted, np.count_nonzero(accepted),
                        reward)


def exponentials(params, u):
    """(flips, source draws, destination draws) of windows ``u`` of shape
    (..., W): the contact draws as unit exponentials by inverse CDF."""
    n = params.n
    exps = -np.log1p(-u[..., n:3 * n])
    return u[..., :n], exps[..., :n], exps[..., n:]


class TestEpisode:
    def test_seed_determinism(self, base_params):
        probs = 0.4
        a = simulate_episode(base_params, probs, episode_rng(9, 3, 7))
        b = simulate_episode(base_params, probs, episode_rng(9, 3, 7))
        assert (a[0].tolist(), a[1]) == (b[0].tolist(), b[1])

    def test_trials_use_independent_streams(self, base_params):
        probs = 0.5
        outcomes = {tuple(simulate_episode(base_params, probs, episode_rng(9, t, 7))[0])
                    for t in range(10)}
        assert len(outcomes) > 1

    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    def test_race_success_is_an_accepted_contacted_finish(self, base_params, mode):
        # contact times are the unit draws over lam, compared with tau
        lam, tau = base_params.lam, base_params.tau
        for t in range(200):
            u = episode_rng(17, t, 7).random(_window(7))
            _, source_e, dest_e = exponentials(base_params, u)
            flips, reach = _contacts(base_params, u, mode)
            accepted = flips < np.full(7, 0.3)
            success = accepted & reach
            delivered = simulate_episode(base_params, 0.3, episode_rng(17, t, 7), mode)[1]
            source_t, dest_t = source_e / lam, dest_e / lam
            finish = dest_t if mode == MODEL else source_t + dest_t
            assert delivered == success.any()
            assert (accepted & (source_t <= tau) & (finish <= tau))[success].all()

    def test_nobody_caches_when_nobody_accepts(self, base_params):
        accepted, delivered = simulate_episode(base_params, 0.0, episode_rng(5, 0, 7))
        utilities = score(base_params, accepted, 2.0)
        assert not accepted.any()
        assert not delivered
        # every decliner is scored against a cohort of itself alone
        expect = cohort_payoffs(2.0, 1, base_params)[1]
        assert all(u == pytest.approx(expect) for u in utilities)

    def test_zero_rate_episode(self):
        params = make_params(lam=0.0)
        accepted, delivered = simulate_episode(params, 1.0, episode_rng(1, 0, 7))
        utilities = score(params, accepted, 1.0)
        assert not delivered
        assert accepted.all()
        # share is zero, so accepting costs the failure regret plus energy
        expect = -params.sigma - 4e-5
        assert all(u == pytest.approx(expect) for u in utilities)

    def test_utilities_match_cohort_convention(self, base_params):
        accepted, _ = simulate_episode(base_params, 0.6, episode_rng(23, 11, 7))
        utilities = score(base_params, accepted, 1.3)
        n_accept = accepted.sum()
        for acc, u in zip(accepted, utilities):
            accept, reject = cohort_payoffs(1.3, n_accept if acc else n_accept + 1,
                                            base_params)
            assert u == pytest.approx(accept if acc else reject)

    def test_monotone_coupling_in_accept_prob(self, base_params):
        # identical draws, higher p: delivery can only switch off -> on
        for t in range(200):
            low = simulate_episode(base_params, 0.2, episode_rng(31, t, 7))
            high = simulate_episode(base_params, 0.8, episode_rng(31, t, 7))
            assert high[1] >= low[1]

    def test_bad_inputs(self, base_params):
        with pytest.raises(ValueError):
            simulate_episode(base_params, 1.5, episode_rng(1, 0, 7))
        with pytest.raises(ValueError):
            simulate_episode(base_params, 0.5, episode_rng(1, 0, 7), mode="exact")

    def test_nan_accept_probability_rejected(self, base_params):
        # NaN fails both ordered comparisons, so it must not pass as "in range"
        with pytest.raises(ValueError, match="got nan"):
            simulate_episode(base_params, math.nan, episode_rng(1, 0, 7))
        with pytest.raises(ValueError, match="got -0.1"):
            simulate_episode(base_params, -0.1, episode_rng(1, 0, 7))

    def test_range_check_edges(self):
        params = make_params(n=40)
        for edge in (-0.0, 1.0):
            simulate_episode(params, edge, episode_rng(1, 0, 40))
        for outside in (np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)):
            with pytest.raises(ValueError, match=f"got {outside}$"):
                simulate_episode(params, outside, episode_rng(1, 0, 40))

    @pytest.mark.parametrize("shape", [(7, 1), (1, 7), (), (7, 7)])
    def test_accept_probabilities_must_be_one_per_relay(self, base_params, shape):
        probs = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=f"got {re.escape(repr(probs))}$"):
            simulate_episode(base_params, probs, episode_rng(1, 0, 7))

    @pytest.mark.parametrize("prob", [1, 0, True, np.float32(0.5)])
    def test_only_a_python_or_numpy_double_is_a_shared_probability(self, base_params, prob):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(prob))}$"):
            simulate_episode(base_params, prob, episode_rng(1, 0, 7))

    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    @pytest.mark.parametrize("p", [0.0, -0.0, 5e-324, 0.3, 1.0])
    @pytest.mark.parametrize("form", [float, np.float64])
    def test_shared_probability_equals_one_per_relay(self, n, mode, p, form):
        """One float for every relay draws the same episodes, bit for bit,
        as the per-relay oracle episode with the list ``[p] * n``, and leaves
        the generator in the same place."""
        params = make_params(n=n)
        shared_rng, listed_rng = episode_rng(11, 0, n), episode_rng(11, 0, n)
        shared = [simulate_episode(params, form(p), shared_rng, mode) for _ in range(200)]
        listed = [episode(params, [p] * n, listed_rng, mode) for _ in range(200)]
        assert np.array_equal(np.array([a for a, _ in shared]), np.array([a for a, _ in listed]))
        assert [d for _, d in shared] == [d for _, d in listed]
        assert all(a.shape == (n,) and a.dtype == bool for a, _ in shared)
        assert shared_rng.random() == listed_rng.random()

    @pytest.mark.parametrize("p", [np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0),
                                   math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("form", [float, np.float64])
    def test_shared_probability_out_of_range_named(self, base_params, p, form):
        rng = episode_rng(1, 0, 7)
        with pytest.raises(ValueError, match=rf"must lie in \[0, 1\], got {re.escape(str(p))}$"):
            simulate_episode(base_params, form(p), rng)
        # rejected before any draw: the generator still sits at window 0
        assert rng.random() == episode_rng(1, 0, 7).random()

    @pytest.mark.parametrize("estimator", [estimate_delivery, estimate_relay_utility])
    def test_estimators_pass_one_shared_double(self, base_params, monkeypatch, estimator):
        seen = []

        def spy(params, accept_probs, rng, mode):
            seen.append(accept_probs)
            return episode(params, accept_probs, rng, mode)

        episode = simulate.simulate_episode
        monkeypatch.setattr(simulate, "simulate_episode", spy)
        args = (0.3, 1.0) if estimator is estimate_relay_utility else (0.3,)
        estimator(base_params, *args, 25, 1)
        assert len(seen) == 25 and all(type(p) is np.float64 and p == 0.3 for p in seen)

    @pytest.mark.parametrize("reward", [math.inf, -math.inf, math.nan])
    def test_non_finite_reward_rejected(self, base_params, reward):
        # every payoff of a non-finite reward is non-finite: the utility check rejects it
        with pytest.raises(ValueError, match="^realized utility must be finite, got "):
            estimate_relay_utility(base_params, 0.3, reward, 50, 1)


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
        assert est.stderr == 0.0

    def test_trials_required(self, base_params):
        with pytest.raises(ValueError):
            estimate_delivery(base_params, 0.5, 0, seed=1)

    def test_scores_no_relay(self, base_params, monkeypatch):
        # the episode kernel only draws; scoring is the relay estimator's
        def forbidden(*args):
            raise AssertionError("delivery estimate reached the payoff model")
        for name in ("delivery_share", "relay_payoffs", "_cohort_shares"):
            monkeypatch.setattr(simulate, name, forbidden)
        # a data descriptor on the class wins over a value the record keeps
        for name in ("q", "reach", "total_energy"):
            monkeypatch.setattr(GameParams, name, property(forbidden), raising=False)
        estimate_delivery(base_params, 0.4, 50, 1)
        with pytest.raises(AssertionError):
            estimate_relay_utility(base_params, 0.4, 1.0, 50, 1)

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
        probs = 0.5
        hits = np.empty(300)
        for t in reversed(range(300)):
            hits[t] = simulate_episode(base_params, probs, episode_rng(8, t, 7))[1]
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
        probs = 0.4
        values = np.empty(300)
        for t in reversed(range(300)):
            accepted = simulate_episode(base_params, probs, episode_rng(8, t, 7))[0]
            values[t] = score(base_params, accepted, 1.2)[0]
        assert est.mean == pytest.approx(sum(values) / 300)
        assert est == _summarize(values)

    def test_deterministic_given_seed(self, base_params):
        a = estimate_relay_utility(base_params, 0.3, 1.0, 500, seed=6)
        b = estimate_relay_utility(base_params, 0.3, 1.0, 500, seed=6)
        assert a == b

    def test_non_finite_payoff_names_the_utility(self):
        # e = 1e308 makes the caching cost inf, so an accepting relay earns -inf
        params = make_params(e=1e308)
        with pytest.raises(ValueError, match=r"^realized utility must be finite, got -inf$"):
            estimate_relay_utility(params, 0.5, 1.0, 50, seed=1)

    def test_lone_always_accepting_relay_earns_its_share(self):
        # share-weighted scoring: a lone accepter is paid alpha*(1-q) in
        # every episode, with zero variance
        params = make_params(n=1, sigma=0.0, gamma=0.0, e=0.0, e_r=0.0,
                             e_t=0.0)
        est = estimate_relay_utility(params, 1.0, 2.0, 300, seed=9)
        assert est.mean == pytest.approx(2.0 * (1.0 - 0.22313016014842982),
                                         rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)


class TestScoreRelays:
    """The oracle scorer, which the estimator's and learner's references
    use, pays every relay exactly what the game's payoff of its cohort gives
    it, on one episode's mask or a block of them."""

    @staticmethod
    def masks(params, n):
        rows = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        for mode in (MODEL, PHYSICAL):
            flips, _ = _contacts(params, episode_rng(3, 0, n).random((40, _window(n))), mode)
            for p in (0.1, 0.5, 0.9):
                rows.extend(flips < p)
        return np.array(rows)

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_equals_cohort_payoffs_per_relay(self, n):
        params = make_params(n=n)
        share = _cohort_shares(params)
        block = self.masks(params, n)
        counts = np.count_nonzero(block, axis=1)
        for reward in (0.0, solve_ese(params).alpha_star, params.alpha_max):
            scored = score_relays(params, share, block, counts, reward)
            assert scored.shape == block.shape
            for accepted, k, row in zip(block, counts, scored):
                want = [cohort_payoffs(reward, k, params)[0] if acc
                        else cohort_payoffs(reward, k + 1, params)[1] for acc in accepted]
                assert row.tolist() == want
                one = score_relays(params, share, accepted, np.count_nonzero(accepted), reward)
                assert one.tolist() == want

    @pytest.mark.parametrize("lam", [0.0, 1e-310, 0.015, 1e308])
    def test_share_table_passes_a_cohort_and_a_failure_probability(self, lam, monkeypatch):
        # delivery_share takes its inputs unchecked: the table must hand it
        # k = 1..n+1 and q in [0, 1] at either end of the contact rate
        params = make_params(lam=lam, n=7)
        seen = []

        def spy(k, q):
            seen.append((k, q))
            return delivery_share(k, q)

        monkeypatch.setattr(simulate, "delivery_share", spy)
        share = _cohort_shares(params)
        assert [k for k, _ in seen] == list(range(1, params.n + 2))
        assert all(0.0 <= q <= 1.0 for _, q in seen)
        assert share[0] == 0.0 and all(0.0 <= s <= 1.0 for s in share.tolist())


class TestScoringBudget:
    """Scoring does not go back to one call per trial: an estimate scores all
    its trials in one call, and a run builds its share table once and steps
    its relays through one ``_relay_update`` call per iteration."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = dict.fromkeys(("_cohort_payoffs", "delivery_share"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(simulate, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(simulate, name, counted)
        return calls

    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("trials", [10, 1000])
    def test_relay_estimate_scores_once(self, monkeypatch, n, trials):
        calls = self.count_calls(monkeypatch)
        estimate_relay_utility(make_params(n=n), 0.4, 1.0, trials, 1)
        assert calls == {"_cohort_payoffs": 1, "delivery_share": n + 1}

    @pytest.mark.parametrize("horizon", [1, 300, 1000])
    def test_learner_builds_one_share_table(self, monkeypatch, base_params, horizon):
        calls = self.count_calls(monkeypatch)
        run_coupled(base_params, horizon, 1)
        assert calls["delivery_share"] == base_params.n + 1

    @pytest.mark.parametrize("feed", FEEDS)
    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("horizon", [1, 300, 1000])
    def test_learner_steps_through_the_one_relay_kernel(self, monkeypatch, feed, n, horizon):
        # the kernel the elementwise tests check is the one each step runs
        calls = self.count_calls(monkeypatch)
        steps = []

        def counted(*args, _fn=learning._relay_update):
            steps.append(len(args[0]))
            return _fn(*args)
        monkeypatch.setattr(learning, "_relay_update", counted)
        run_coupled(make_params(n=n), horizon, 1, feed=feed)
        assert steps == [n] * horizon
        # only the episode feed pays from the share table
        assert calls["delivery_share"] == (n + 1 if feed == EPISODE else 0)


class TestEstimateWithCI:
    def test_stderr_definition(self, base_params):
        est = estimate_delivery(base_params, 0.5, 400, seed=5)
        probs = 0.5
        hits = [float(simulate_episode(base_params, probs, episode_rng(5, t, 7))[1])
                for t in range(400)]
        expect = statistics.stdev(hits) / 400 ** 0.5
        assert est.stderr == pytest.approx(expect, rel=1e-12)

    def test_stderr_keeps_its_bits_below_the_float_range(self):
        # the power-of-two scale that keeps huge samples finite is exact,
        # for the mean as for the standard error
        rng = np.random.default_rng(3)
        for samples in (rng.random(500) < 0.3, rng.normal(-0.6, 0.2, 500),
                        rng.normal(0.0, 1e150, 500), rng.normal(-7.0, 1e-9, 500)):
            samples = samples.astype(float)
            expect = float(samples.std(ddof=1) / math.sqrt(500))
            assert _summarize(samples).stderr == expect
            assert _summarize(samples).mean == float(samples.mean())
        huge = rng.normal(-1.7e301, 1e299, 500)
        assert math.isfinite(_summarize(huge).stderr) and _summarize(huge).stderr > 0

    @pytest.mark.parametrize("value", [-8.57e307, -1.7e308])
    def test_mean_of_huge_samples_stays_finite(self, value):
        # ten such samples overflow a plain sum; -1.7e308 lies beyond 2**1023,
        # where the scale 2**1024 is no float and the samples are scaled by
        # their exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = _summarize(np.full(10, value))
        assert est.mean == pytest.approx(value, rel=1e-15) and est.stderr <= 1e-15 * -value


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
            accepted, hit = simulate_episode(params, 0.6, episode_rng(4, t, 3), mode)
            delivered[t], utility[t] = hit, score(params, accepted, 0.9)[0]
        assert estimate_delivery(params, 0.6, 200, 4, mode) == _summarize(delivered)
        assert estimate_relay_utility(params, 0.6, 0.9, 200, 4, mode) == _summarize(utility)

    def test_zero_rate_draws_the_whole_window(self, base_params):
        # at lambda = 0 no contact time is needed, yet trial t + 1 still reads
        # its own window: its flips match a fresh generator of trial t + 1
        zero = make_params(lam=0.0)
        rng = episode_rng(3, 0, 7)
        for t in range(20):
            walked = simulate_episode(zero, 0.5, rng)[0]
            fresh = simulate_episode(base_params, 0.5, episode_rng(3, t, 7))[0]
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
        # physical mode races the unit exponentials -log1p(-u) of the two
        # contact slices: offered where E_s < lam*tau, reached where
        # E_s + E_d < lam*tau
        u = episode_rng(2, 0, 7).random((500, _window(7)))
        source_e, dest_e = -np.log1p(-u[:, 7:14]), -np.log1p(-u[:, 14:21])
        life = base_params.lam * base_params.tau
        flips, reach = _contacts(base_params, u, PHYSICAL)
        assert np.array_equal(flips, np.where(source_e < life, u[:, :7], np.inf))
        assert np.array_equal(reach, source_e + dest_e < life)
        assert 0 < reach.sum() < reach.size

    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    def test_zero_rate_meets_nobody_even_at_zero_draws(self, mode):
        zero = make_params(lam=0.0)
        u = np.zeros((3, _window(7)))
        flips, reach = _contacts(zero, u, mode)
        accepted = flips < np.ones(7)
        success = accepted & reach
        assert not success.any()
        # physical mode offers the file only to relays the source met
        assert accepted.all() == (mode == MODEL) and accepted.any() == (mode == MODEL)

    def test_physical_flip_is_infinite_exactly_where_the_source_missed(self, base_params):
        u = episode_rng(6, 0, 7).random((500, _window(7)))
        source_e = exponentials(base_params, u)[1]
        missed = source_e >= base_params.lam * base_params.tau
        assert 0 < missed.sum() < missed.size
        flips = _contacts(base_params, u, PHYSICAL)[0]
        assert np.array_equal(np.isinf(flips), missed)
        assert np.array_equal(flips[~missed], u[:, :7][~missed])
        # at p = 1 the accepted set is the met set
        assert np.array_equal(flips < 1.0, ~missed)
        # model mode offers the file to every relay: the flips are the window's
        assert np.array_equal(_contacts(base_params, u, MODEL)[0], u[..., :7])

    def test_subnormal_rate_overflows_times_to_inf_quietly(self):
        # lam * tau = 0.01, while a contact time -log1p(-u) / lam would pass
        # the float range; the race compares unit draws with lam * tau
        params = make_params(n=1, lam=1e-310, tau=1e308)
        u = episode_rng(1, 0, 1).random((500, _window(1)))
        _, source_e, _ = exponentials(params, u)
        assert np.isfinite(source_e).all() and (source_e >= 0).all()
        with np.errstate(over="ignore"):
            assert np.isinf(source_e / params.lam).any()
        accepted = _contacts(params, u, PHYSICAL)[0] < np.ones(1)
        assert 0 < accepted.sum() < 50
        est = estimate_delivery(params, 1.0, 500, seed=1)
        assert 0.0 <= est.mean <= 0.02

    def test_seed_outside_the_philox_key_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            episode_rng(2 ** 128, 0, 7)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7", None])
    def test_seed_must_be_an_integer(self, base_params, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            episode_rng(seed, 0, 7)
        with pytest.raises(TypeError, match="seed"):
            estimate_delivery(base_params, 0.3, 500, seed)

    @pytest.mark.parametrize("trial", [1.5, 2.0, "1", None])
    def test_trial_must_be_an_integer(self, trial):
        with pytest.raises(TypeError, match="trial must be an integer"):
            episode_rng(1, trial, 7)

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match=r"^trial must be >= 0, got -1$"):
            episode_rng(1, -1, 7)

    @pytest.mark.parametrize("trials", [2.5, 2.0, "50"])
    def test_trials_must_be_an_integer(self, base_params, trials):
        with pytest.raises(TypeError, match="trials must be an integer"):
            estimate_delivery(base_params, 0.3, trials, 1)
        with pytest.raises(TypeError, match="trials must be an integer"):
            estimate_relay_utility(base_params, 0.3, 1.0, trials, 1)

    def test_numpy_integer_trial_and_trials_pass(self, base_params):
        for trial in (np.int64(2), np.uint8(2)):
            assert np.array_equal(episode_rng(1, trial, 7).random(_window(7)),
                                  episode_rng(1, 2, 7).random(_window(7)))
        assert (estimate_delivery(base_params, 0.3, np.int64(50), 1)
                == estimate_delivery(base_params, 0.3, 50, 1))

    def test_numpy_integer_seed_keys_the_same_stream(self, base_params):
        assert (estimate_delivery(base_params, 0.3, 200, np.int64(7))
                == estimate_delivery(base_params, 0.3, 200, 7))
        assert np.array_equal(episode_rng(np.uint8(5), 2, 7).random(_window(7)),
                              episode_rng(5, 2, 7).random(_window(7)))


# the estimators at 2000 trials and seed 7, reward 1.0; pinned from the
# kernel that built the contact draws as exponentials before comparing
GOLDEN = {
    (7, 0.1, MODEL): ((0.3565, 0.010712667997647172),
                      (-0.6302810724787616, 0.009679213748813349)),
    (7, 0.1, PHYSICAL): ((0.2775, 0.010014840164064322),
                         (-0.6937308550319476, 0.008949044923092108)),
    (40, 0.02, MODEL): ((0.3945, 0.010931359582007884),
                        (-0.7082826214074582, 0.005497370790316265)),
    (40, 0.02, PHYSICAL): ((0.31, 0.010344249694921107),
                           (-0.7485166752486453, 0.005180991686382501)),
}


@pytest.mark.parametrize("n, p, mode", list(GOLDEN))
def test_estimators_golden(n, p, mode):
    params = make_params(n=n)
    (d_mean, d_se), (u_mean, u_se) = GOLDEN[n, p, mode]
    assert estimate_delivery(params, p, 2000, 7, mode) == EstimateWithCI(d_mean, d_se)
    assert estimate_relay_utility(params, p, 1.0, 2000, 7, mode) == EstimateWithCI(u_mean, u_se)


# (lam, tau, whether a draw next to -expm1(-lam*tau) has -log1p(-u) == lam*tau)
REACH_CASES = [(0.015, 100.0, False), (-math.log1p(-0.75), 1.0, True), (0.0, 100.0, True),
               (1e-310, 1.0, True), (1e-310, 1e308, True), (1e308, 1e308, False)]


@pytest.mark.parametrize("lam, tau, exact_hit", REACH_CASES)
@pytest.mark.parametrize("lead", [(), (10,), (2, 5)])
def test_model_reach_in_log_space_is_the_exponential_test(lam, tau, exact_hit, lead):
    """Model-mode reach tests log1p(-u) > -lam*tau; it must equal the
    comparison of the inverse-CDF exponentials with lam*tau, relay for
    relay, on windows of shape (W,), (T, W) and (S, T, W).  The contact
    slots pair every two of: the boundary draw -expm1(-lam*tau), its
    neighbours and the ends of [0, 1)."""
    n = 7
    params = make_params(n=n, lam=lam, tau=tau)
    life = lam * tau
    edge = -math.expm1(-life)
    below, above = np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)
    # Philox doubles lie in [0, 1)
    edges = [x for x in (edge, below, above, np.nextafter(below, 0.0),
                         np.nextafter(above, 1.0)) if 0.0 <= x < 1.0]
    values = edges + [0.0, 5e-324, np.nextafter(1.0, 0.0)]
    u = episode_rng(3, 0, n).random((*lead, _window(n)))
    u[..., n:2 * n] = np.resize(np.repeat(values, len(values)), (*lead, n))
    u[..., 2 * n:3 * n] = np.resize(np.tile(values, len(values)), (*lead, n))
    flips, source_e, dest_e = exponentials(params, u)
    got_flips, reach = _contacts(params, u, MODEL)
    assert reach.shape == flips.shape == (*lead, n)
    assert np.array_equal(got_flips, u[..., :n])
    assert np.array_equal(reach, (source_e < life) & (dest_e < life))
    exps = np.concatenate((source_e, dest_e), axis=-1)
    assert (exps == life).any() == exact_hit
    if 0.0 < life < math.inf:
        # the boundary is met: its draws fall on both sides of lam * tau
        inside = (exps < life)[np.isin(u[..., n:3 * n], edges)]
        assert inside.any() and not inside.all()
