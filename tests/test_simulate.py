import dataclasses
import math
import re
import statistics
import warnings
from itertools import chain

import numpy as np
import pytest

import dtnsat.learning as learning
import dtnsat.model as model
import dtnsat.simulate as simulate
from dtnsat.model import (
    GameParams,
    _cohort_shares,
    delivery_share,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
)
from dtnsat.simulate import (
    MODEL,
    EstimateWithCI,
    PHYSICAL,
    _contacts,
    _draw_trials,
    _summarize,
    _window,
    _windows,
    estimate_delivery,
    episode_rng,
    estimate_relay_utility,
    simulate_episode,
)
from dtnsat.equilibrium import solve_ese
from dtnsat.learning import EPISODE, FEEDS, run_coupled
from conftest import cohort_payoffs, make_params
from oracles import episode, score_relays, trial_rng, trial_window

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
        a = simulate_episode(*trial_window(base_params, 9, 3), probs)
        b = simulate_episode(*trial_window(base_params, 9, 3), probs)
        assert (a[0].tolist(), a[1]) == (b[0].tolist(), b[1])

    def test_trials_use_independent_streams(self, base_params):
        probs = 0.5
        outcomes = {tuple(simulate_episode(*trial_window(base_params, 9, t), probs)[0])
                    for t in range(10)}
        assert len(outcomes) > 1

    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    def test_race_success_is_an_accepted_contacted_finish(self, base_params, mode):
        # contact times are the unit draws over lam, compared with tau
        lam, tau = base_params.lam, base_params.tau
        for t in range(200):
            u = trial_rng(17, t, 7).random(_window(7))
            _, source_e, dest_e = exponentials(base_params, u)
            flips, reach = _contacts(base_params, u, mode)
            accepted = flips < np.full(7, 0.3)
            success = accepted & reach
            delivered = simulate_episode(*trial_window(base_params, 17, t, mode), 0.3)[1]
            source_t, dest_t = source_e / lam, dest_e / lam
            finish = dest_t if mode == MODEL else source_t + dest_t
            assert delivered == success.any()
            assert (accepted & (source_t <= tau) & (finish <= tau))[success].all()

    def test_nobody_caches_when_nobody_accepts(self, base_params):
        accepted, delivered = simulate_episode(*trial_window(base_params, 5, 0), 0.0)
        utilities = score(base_params, accepted, 2.0)
        assert not accepted.any()
        assert not delivered
        # every decliner is scored against a cohort of itself alone
        expect = cohort_payoffs(2.0, 1, base_params)[1]
        assert all(u == pytest.approx(expect) for u in utilities)

    def test_zero_rate_episode(self):
        params = make_params(lam=0.0)
        accepted, delivered = simulate_episode(*trial_window(params, 1, 0), 1.0)
        utilities = score(params, accepted, 1.0)
        assert not delivered
        assert accepted.all()
        # share is zero, so accepting costs the failure regret plus energy
        expect = -params.sigma - 4e-5
        assert all(u == pytest.approx(expect) for u in utilities)

    def test_utilities_match_cohort_convention(self, base_params):
        accepted, _ = simulate_episode(*trial_window(base_params, 23, 11), 0.6)
        utilities = score(base_params, accepted, 1.3)
        n_accept = accepted.sum()
        for acc, u in zip(accepted, utilities):
            accept, reject = cohort_payoffs(1.3, n_accept if acc else n_accept + 1,
                                            base_params)
            assert u == pytest.approx(accept if acc else reject)

    def test_monotone_coupling_in_accept_prob(self, base_params):
        # identical draws, higher p: delivery can only switch off -> on
        for t in range(200):
            low = simulate_episode(*trial_window(base_params, 31, t), 0.2)
            high = simulate_episode(*trial_window(base_params, 31, t), 0.8)
            assert high[1] >= low[1]

    def test_bad_inputs(self, base_params):
        with pytest.raises(ValueError):
            simulate_episode(*trial_window(base_params, 1, 0), 1.5)
        with pytest.raises(ValueError):
            simulate_episode(*trial_window(base_params, 1, 0, mode="exact"), 0.5)

    def test_nan_accept_probability_rejected(self, base_params):
        # NaN fails both ordered comparisons, so it must not pass as "in range"
        with pytest.raises(ValueError, match="got nan"):
            simulate_episode(*trial_window(base_params, 1, 0), math.nan)
        with pytest.raises(ValueError, match="got -0.1"):
            simulate_episode(*trial_window(base_params, 1, 0), -0.1)

    def test_range_check_edges(self):
        params = make_params(n=40)
        for edge in (-0.0, 1.0):
            simulate_episode(*trial_window(params, 1, 0), edge)
        for outside in (np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)):
            with pytest.raises(ValueError, match=f"got {outside}$"):
                simulate_episode(*trial_window(params, 1, 0), outside)

    @pytest.mark.parametrize("shape", [(7, 1), (1, 7), (), (7, 7)])
    def test_accept_probabilities_must_be_one_per_relay(self, base_params, shape):
        probs = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=f"got {re.escape(repr(probs))}$"):
            simulate_episode(*trial_window(base_params, 1, 0), probs)

    @pytest.mark.parametrize("prob", [1, 0, True, np.float32(0.5)])
    def test_only_a_python_or_numpy_double_is_a_shared_probability(self, base_params, prob):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(prob))}$"):
            simulate_episode(*trial_window(base_params, 1, 0), prob)

    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    @pytest.mark.parametrize("p", [0.0, -0.0, 5e-324, 0.3, 1.0])
    @pytest.mark.parametrize("form", [float, np.float64])
    def test_shared_probability_equals_one_per_relay(self, n, mode, p, form):
        """One float for every relay scores the same episodes, bit for bit,
        as the per-relay oracle episode with the list ``[p] * n``."""
        params = make_params(n=n)
        listed_rng = episode_rng(11)
        shared = [simulate_episode(*trial_window(params, 11, t, mode), form(p))
                  for t in range(200)]
        listed = [episode(params, [p] * n, listed_rng, mode) for _ in range(200)]
        assert np.array_equal(np.array([a for a, _ in shared]), np.array([a for a, _ in listed]))
        assert [d for _, d in shared] == [d for _, d in listed]
        assert all(a.shape == (n,) and a.dtype == bool for a, _ in shared)

    @pytest.mark.parametrize("p", [np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0),
                                   math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("form", [float, np.float64])
    def test_shared_probability_out_of_range_named(self, base_params, p, form):
        with pytest.raises(ValueError, match=rf"must lie in \[0, 1\], got {re.escape(str(p))}$"):
            simulate_episode(*trial_window(base_params, 1, 0), form(p))

    @pytest.mark.parametrize("estimator", [estimate_delivery, estimate_relay_utility])
    def test_estimators_pass_one_shared_double(self, base_params, monkeypatch, estimator):
        seen = []

        def spy(flips, reach, accept_prob):
            seen.append(accept_prob)
            return episode(flips, reach, accept_prob)

        episode = simulate.simulate_episode
        monkeypatch.setattr(simulate, "simulate_episode", spy)
        args = (0.3, 1.0) if estimator is estimate_relay_utility else (0.3,)
        estimator(base_params, *args, 25, 1)
        assert len(seen) == 25 and all(type(p) is np.float64 and p == 0.3 for p in seen)

    @pytest.mark.parametrize("estimator", [estimate_delivery, estimate_relay_utility])
    @pytest.mark.parametrize("p", [1.5, math.nan])
    def test_a_bad_probability_is_named_before_any_draw(self, base_params, monkeypatch,
                                                        estimator, p):
        # the mode is checked where the first block is mapped: a bad p with a
        # bad mode names the p, and no window is drawn
        monkeypatch.setattr(simulate, "_contacts", lambda *args: pytest.fail("drew a block"))
        args = (p, 1.0) if estimator is estimate_relay_utility else (p,)
        with pytest.raises(ValueError, match=rf"must lie in \[0, 1\], got {p}$"):
            estimator(base_params, *args, 10, 1, "exact")

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

    def test_physical_window_is_tighter(self):
        params = make_params(n=1)
        model = estimate_delivery(params, 1.0, 5_000, seed=1, mode=MODEL)
        physical = estimate_delivery(params, 1.0, 5_000, seed=1, mode=PHYSICAL)
        assert physical.mean < model.mean


def test_physical_delivery_meets_its_closed_form():
    """For independent uniforms P((1 - U_s)(1 - U_d) > q) = 1 - q + q ln q,
    which is s_phys = 1 - (1 + x) e^(-x) at x = lam*tau; a relay accepts
    with p independently of its contacts and of the other relays, so n
    relays deliver with probability 1 - (1 - p s_phys)^n.  300k windows of
    seed 3 per n, drawn as one block; the two n = 7 points share theirs."""
    windows = 300_000
    q = make_params().q
    s_phys = 1.0 - q + q * math.log(q)
    assert s_phys == pytest.approx(PHYSICAL_ONE_RELAY, rel=1e-14, abs=0)
    for n, probs in ((1, (1.0,)), (3, (0.5,)), (7, (0.3, 1.0))):
        params = make_params(n=n)
        u = episode_rng(3).random((windows, _window(n)))
        flips, reach = _contacts(params, u, PHYSICAL)
        for p in probs:
            want = 1.0 - (1.0 - p * s_phys) ** n
            got = np.count_nonzero(((flips < p) & reach).any(axis=1)) / windows
            se = math.sqrt(want * (1.0 - want) / windows)
            assert abs(got - want) <= 3 * se, (n, p, (got - want) / se)


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
        for name in ("_cohort_shares", "_cohort_payoffs"):
            monkeypatch.setattr(simulate, name, forbidden)
        # a data descriptor on the class wins over a value the record keeps
        for name in ("q", "total_energy"):
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
            hits[t] = simulate_episode(*trial_window(base_params, 8, t), probs)[1]
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
            accepted = simulate_episode(*trial_window(base_params, 8, t), probs)[0]
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
            flips, _ = _contacts(params, episode_rng(3).random((40, _window(n))), mode)
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

        monkeypatch.setattr(model, "delivery_share", spy)
        share = _cohort_shares(params)
        assert [k for k, _ in seen] == list(range(1, params.n + 2))
        assert all(0.0 <= q <= 1.0 for _, q in seen)
        assert share[0] == 0.0 and all(0.0 <= s <= 1.0 for s in share)
        assert all(type(s) is float for s in share)


class TestScoringBudget:
    """Scoring does not go back to one call per trial: an estimate scores all
    its trials in one call, and a run builds its share table once and steps
    its relays through one ``_relay_update`` call per iteration."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = dict.fromkeys(("_cohort_payoffs", "delivery_share"), 0)
        # the estimator's scorer as simulate calls it; the table's shares
        # where model builds them
        for module, name in ((simulate, "_cohort_payoffs"), (model, "delivery_share")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
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
        hits = [float(simulate_episode(*trial_window(base_params, 5, t), probs)[1])
                for t in range(400)]
        expect = statistics.stdev(hits) / 400 ** 0.5
        assert est.stderr == pytest.approx(expect, rel=1e-12, abs=0)

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
        rows = episode_rng(12).random((6, width))
        for t in range(6):
            assert np.array_equal(trial_rng(12, t, n).random(width), rows[t])

    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    def test_estimators_are_means_of_trials_in_reverse(self, mode):
        params = make_params(n=3)
        delivered, utility = np.empty((2, 200))
        for t in reversed(range(200)):
            accepted, hit = simulate_episode(*trial_window(params, 4, t, mode), 0.6)
            delivered[t], utility[t] = hit, score(params, accepted, 0.9)[0]
        assert estimate_delivery(params, 0.6, 200, 4, mode) == _summarize(delivered)
        assert estimate_relay_utility(params, 0.6, 0.9, 200, 4, mode) == _summarize(utility)

    def test_zero_rate_draws_the_whole_window(self, base_params):
        # at lambda = 0 no contact time is needed, yet trial t + 1 still reads
        # its own window: its flips match a fresh generator of trial t + 1
        zero = make_params(lam=0.0)
        rows = chain.from_iterable(zip(*block) for block in _windows(zero, 3, 20, MODEL))
        for t, (flips, reach) in enumerate(rows):
            walked = simulate_episode(flips, reach, 0.5)[0]
            fresh = simulate_episode(*trial_window(base_params, 3, t), 0.5)[0]
            assert np.array_equal(walked, fresh)

    def test_same_seed_same_bytes(self, base_params):
        width = _window(7)
        assert (episode_rng(5).random((50, width)).tobytes()
                == episode_rng(5).random((50, width)).tobytes())
        assert (episode_rng(5).random(width).tobytes()
                != episode_rng(6).random(width).tobytes())
        runs = [(estimate_delivery(base_params, 0.4, 300, 5),
                 estimate_relay_utility(base_params, 0.4, 1.0, 300, 5)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_inverse_cdf_contact_times(self, base_params):
        # physical mode offers the file where u_s < reach and delivers where
        # (1 - u_s)(1 - u_d) > q: the race of the unit exponentials
        # E = -log1p(-u), E_s < lam*tau and E_s + E_d < lam*tau, taken in the
        # uniform domain
        u = episode_rng(2).random((500, _window(7)))
        u_s, u_d = u[:, 7:14], u[:, 14:21]
        flips, reach = _contacts(base_params, u, PHYSICAL)
        assert np.array_equal(flips, np.where(u_s < base_params.reach, u[:, :7], np.inf))
        assert np.array_equal(reach, (1.0 - u_s) * (1.0 - u_d) > base_params.q)
        _, source_e, dest_e = exponentials(base_params, u)
        life = base_params.lam * base_params.tau
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
        u = episode_rng(6).random((500, _window(7)))
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
        # the float range; the race compares the draws with reach and q
        params = make_params(n=1, lam=1e-310, tau=1e308)
        u = episode_rng(1).random((500, _window(1)))
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
            episode_rng(2 ** 128)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^seed must be in \[0, 2\*\*128\) to key Philox, got -1$"):
            episode_rng(-1)

    def test_both_ends_of_the_philox_key_range_open_a_stream(self):
        for seed in (0, 2 ** 128 - 1):
            width = _window(7)
            assert np.array_equal(episode_rng(seed).random(width),
                                  trial_rng(seed, 0, 7).random(width))

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7", None])
    def test_seed_must_be_an_integer(self, base_params, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            episode_rng(seed)
        with pytest.raises(TypeError, match="seed"):
            estimate_delivery(base_params, 0.3, 500, seed)

    @pytest.mark.parametrize("trials", [2.5, 2.0, "50"])
    def test_trials_must_be_an_integer(self, base_params, trials):
        with pytest.raises(TypeError, match="trials must be an integer"):
            estimate_delivery(base_params, 0.3, trials, 1)
        with pytest.raises(TypeError, match="trials must be an integer"):
            estimate_relay_utility(base_params, 0.3, 1.0, trials, 1)

    def test_numpy_integer_trials_pass(self, base_params):
        assert (estimate_delivery(base_params, 0.3, np.int64(50), 1)
                == estimate_delivery(base_params, 0.3, 50, 1))

    def test_numpy_integer_seed_keys_the_same_stream(self, base_params):
        assert (estimate_delivery(base_params, 0.3, 200, np.int64(7))
                == estimate_delivery(base_params, 0.3, 200, 7))
        assert np.array_equal(episode_rng(np.uint8(5)).random(_window(7)),
                              episode_rng(5).random(_window(7)))



class TestBlockReader:
    """A trial's result does not depend on the block size: one window per
    block, a block that does not divide the count, and the default budget
    read the same windows and give the same arrays."""

    COUNT = 400  # more than two default blocks of n = 7 windows

    @staticmethod
    def block_sizes(n):
        return (1, 7 * _window(n), simulate._DRAWS)

    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    def test_blocks_are_the_trial_windows(self, monkeypatch, base_params, mode):
        width = _window(base_params.n)
        for draws in self.block_sizes(base_params.n):
            monkeypatch.setattr(simulate, "_DRAWS", draws)
            blocks = list(_windows(base_params, 5, self.COUNT, mode))
            assert all(len(flips) <= max(1, draws // width) for flips, _ in blocks)
            flips, reach = map(np.concatenate, zip(*blocks))
            assert flips.shape == reach.shape == (self.COUNT, base_params.n)
            for t in range(self.COUNT):
                want = trial_window(base_params, 5, t, mode)
                assert np.array_equal(flips[t], want[0]) and np.array_equal(reach[t], want[1])

    @pytest.mark.parametrize("mode", [MODEL, PHYSICAL])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, base_params, mode):
        runs = []
        for draws in self.block_sizes(base_params.n):
            monkeypatch.setattr(simulate, "_DRAWS", draws)
            trials = _draw_trials(base_params, 0.4, self.COUNT, 5, mode)
            estimates = (estimate_delivery(base_params, 0.4, self.COUNT, 5, mode),
                         estimate_relay_utility(base_params, 0.4, 1.0, self.COUNT, 5, mode))
            traj = run_coupled(base_params, self.COUNT, 5, contact_mode=mode)
            runs.append((trials, estimates, traj))
        (trials, estimates, traj), *others = runs
        for other_trials, other_estimates, other_traj in others:
            assert all(np.array_equal(a, b) for a, b in zip(trials, other_trials))
            assert other_estimates == estimates
            assert all(np.array_equal(getattr(traj, name), getattr(other_traj, name))
                       for name in ("alpha", "u_s_est", "accept_probs", "n_accept",
                                    "delivered"))


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
def test_model_reach_is_the_uniform_rule(lam, tau, exact_hit, lead):
    """Model-mode reach is u_s < reach and u_d < reach, reach =
    -expm1(-lam*tau), relay for relay, on windows of shape (W,), (T, W)
    and (S, T, W); it equals the comparison of the inverse-CDF
    exponentials with lam*tau on every draw but reach and the double below
    it.  The contact slots pair every two of: the boundary draw reach, its
    neighbours and the ends of [0, 1)."""
    n = 7
    params = make_params(n=n, lam=lam, tau=tau)
    life = lam * tau
    edge = params.reach
    below, above = np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)
    # Philox doubles lie in [0, 1)
    edges = [x for x in (edge, below, above, np.nextafter(below, 0.0),
                         np.nextafter(above, 1.0)) if 0.0 <= x < 1.0]
    values = edges + [0.0, 5e-324, np.nextafter(1.0, 0.0)]
    u = episode_rng(3).random((*lead, _window(n)))
    u[..., n:2 * n] = np.resize(np.repeat(values, len(values)), (*lead, n))
    u[..., 2 * n:3 * n] = np.resize(np.tile(values, len(values)), (*lead, n))
    flips, source_e, dest_e = exponentials(params, u)
    got_flips, reach = _contacts(params, u, MODEL)
    assert reach.shape == flips.shape == (*lead, n)
    assert np.array_equal(got_flips, u[..., :n])
    u_s, u_d = u[..., n:2 * n], u[..., 2 * n:3 * n]
    assert np.array_equal(reach, (u_s < params.reach) & (u_d < params.reach))
    off_edge = ~np.isin(u_s, (edge, below)) & ~np.isin(u_d, (edge, below))
    assert np.array_equal(reach[off_edge], ((source_e < life) & (dest_e < life))[off_edge])
    exps = np.concatenate((source_e, dest_e), axis=-1)
    assert (exps == life).any() == exact_hit
    if 0.0 < life < math.inf:
        # the boundary is met: its draws fall on both sides of lam * tau
        inside = (exps < life)[np.isin(u[..., n:3 * n], edges)]
        assert inside.any() and not inside.all()


def test_uniform_reach_agrees_with_the_exponential_test_next_to_reach():
    """For about 2000 log-uniform lam*tau in [1e-12, 316], and at lam = 0,
    a subnormal lam and lam*tau = inf, every draw within 8 ulp of reach
    is inside under model mode exactly where -log1p(-u) < lam*tau, except
    u = reach and the double below it."""
    cases = [(x, 1.0) for x in 10.0 ** np.random.default_rng(40).uniform(-12, 2.5, 2000)]
    cases += [(0.0, 100.0), (1e-310, 1.0), (1e308, 1e308)]
    checked = 0
    for lam, tau in cases:
        params = make_params(lam=lam, tau=tau)
        life, edge = lam * tau, params.reach
        below, above = [edge], [edge]
        for _ in range(8):
            below.append(np.nextafter(below[-1], -1.0))
            above.append(np.nextafter(above[-1], 2.0))
        kept = [(k, x) for k, x in [*enumerate(above), *zip(range(-1, -9, -1), below[1:])]
                if 0.0 <= x < 1.0]
        n = len(kept)
        u = np.zeros(_window(n))
        u[n:2 * n] = u[2 * n:3 * n] = [x for _, x in kept]
        reach = _contacts(dataclasses.replace(params, n=n), u, MODEL)[1]
        for (k, x), inside in zip(kept, reach.tolist()):
            if k not in (0, -1):
                assert inside == (-math.log1p(-x) < life), (lam, tau, k, x)
        checked += n
    assert checked > 30_000


def _forbid_log1p(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called numpy.log1p")
    monkeypatch.setattr(np, "log1p", forbidden)
    with pytest.raises(AssertionError, match="numpy.log1p"):
        np.log1p(0.5)


def _run_every_episode_path(params, mode):
    estimate_delivery(params, 0.4, 50, 1, mode)
    estimate_relay_utility(params, 0.4, 1.0, 50, 1, mode)
    run_coupled(params, 300, 1, feed=EPISODE, contact_mode=mode)


def test_model_mode_calls_no_numpy_log1p(monkeypatch, base_params):
    _forbid_log1p(monkeypatch)
    _run_every_episode_path(base_params, MODEL)


def test_physical_mode_calls_no_numpy_log1p(monkeypatch, base_params):
    # the uniform-domain race needs no exponentials, so its bytes do not
    # hang on how a CPU rounds log1p
    _forbid_log1p(monkeypatch)
    _run_every_episode_path(base_params, PHYSICAL)


def test_physical_rule_agrees_with_the_exponential_sum_off_its_boundary():
    """Physical delivery is (1 - u_s)(1 - u_d) > q, which in exact
    arithmetic is E_s + E_d < lam*tau for E = -log1p(-u), with boundary
    u_d* = 1 - q/(1 - u_s).  For 3000 seeded cases, lam*tau log-uniform in
    [1e-3, 10**1.5] and u_s on the Philox grid (multiples of 2**-53) below
    reach, every grid point within 6 steps of u_d* is drawn; the rule
    agrees with the numpy log1p sum at every draw more than 4 steps from
    u_d*.  Inside that band the two round differently.  Against 200-bit
    arithmetic, the product rule was wrong at 1161 of these 39000 draws, all
    within 1 step of u_d*; the numpy and math log1p sums at 360 and 363, as
    far as 3 and 4 steps below it."""
    step = 2.0 ** -53
    cases = np.random.default_rng(28)
    offsets = np.arange(-6, 7)
    far, band = np.abs(offsets) > 4, [0, 0]
    for _ in range(3000):
        params = make_params(n=len(offsets), lam=10.0 ** cases.uniform(-3, 1.5), tau=1.0)
        u_s = math.floor(cases.random() * params.reach / step) * step
        grid = (round((1.0 - params.q / (1.0 - u_s)) / step) + offsets) * step
        assert 0.0 <= grid[0] and grid[-1] < 1.0
        u = np.zeros(_window(params.n))
        u[params.n:2 * params.n], u[2 * params.n:3 * params.n] = u_s, grid
        _, source_e, dest_e = exponentials(params, u)
        flips, reach = _contacts(params, u, PHYSICAL)
        assert np.isfinite(flips).all()
        differ = reach != (source_e + dest_e < params.lam * params.tau)
        assert not differ[far].any(), (params.lam, u_s)
        band[0] += np.count_nonzero(differ[~far])
        band[1] += np.count_nonzero(~far)
    # measured: 1067 of the 27000 band draws differ (numpy's SIMD log1p, x86-64)
    assert band[1] == 27_000 and band[0] < band[1] // 10, band
