import math
import random
from dataclasses import replace

import numpy as np
import pytest

import dtnsat.learning as learning
from dtnsat.equilibrium import mixed_relay_payoffs, solve_ese
from dtnsat.experiments import emit_csv, parse_config, run_scenario
from dtnsat.learning import (
    EPISODE,
    MEAN_FIELD,
    PROB_FLOOR,
    RelayLearnerState,
    RelayRates,
    Schedules,
    SourceLearnerState,
    Trajectory,
    relay_step,
    run_coupled,
    source_step,
)
from dtnsat.simulate import MODEL, PHYSICAL, simulate_episode
from conftest import make_params


def rates(m_a=0.3, m_r=0.3, l_a=0.1, l_r=0.1):
    return RelayRates(m_accept=m_a, m_reject=m_r, l_accept=l_a, l_reject=l_r)


class TestSourceStep:
    def test_on_target_is_fixed(self):
        s = SourceLearnerState(alpha=1.0, payoff_estimate=0.21, target=0.21,
                               alpha_max=5.0)
        s2 = source_step(s, observed_payoff=0.21, epsilon_k=0.5)
        assert s2.alpha == 1.0
        assert s2.payoff_estimate == 0.21

    def test_under_target_raises_reward(self):
        s = SourceLearnerState(alpha=1.0, payoff_estimate=0.05, target=0.21,
                               alpha_max=5.0)
        s2 = source_step(s, observed_payoff=0.0, epsilon_k=0.1)
        assert s2.alpha > 1.0

    def test_over_target_lowers_reward(self):
        s = SourceLearnerState(alpha=1.0, payoff_estimate=0.9, target=0.21,
                               alpha_max=5.0)
        s2 = source_step(s, observed_payoff=1.0, epsilon_k=0.1)
        assert s2.alpha < 1.0

    def test_update_direction_tracks_remaining_gap(self):
        for est, obs in [(0.0, 0.0), (0.5, 1.0), (0.2, 0.0), (0.9, 0.2)]:
            s = SourceLearnerState(alpha=2.0, payoff_estimate=est, target=0.21,
                                   alpha_max=5.0)
            s2 = source_step(s, obs, 0.05)
            assert math.copysign(1, s2.alpha - s.alpha) == \
                math.copysign(1, s.target - s2.payoff_estimate)

    def test_clamped_to_range(self):
        lo = SourceLearnerState(alpha=0.01, payoff_estimate=1.0, target=0.0,
                                alpha_max=5.0)
        assert source_step(lo, 1.0, 1.0).alpha == 0.0
        hi = SourceLearnerState(alpha=4.99, payoff_estimate=0.0, target=1.0,
                                alpha_max=5.0)
        assert source_step(hi, 0.0, 1.0).alpha == 5.0

    def test_clamp_holds_for_any_feed(self):
        rng = random.Random(1)
        s = SourceLearnerState(alpha=2.5, payoff_estimate=0.0, target=0.21,
                               alpha_max=5.0)
        for k in range(1, 2000):
            s = source_step(s, rng.uniform(-5, 5), 1.0 / k if k > 1 else 1.0)
            assert 0.0 <= s.alpha <= 5.0

    def test_bad_rate_rejected(self):
        s = SourceLearnerState(alpha=1.0, payoff_estimate=0.0, target=0.21,
                               alpha_max=5.0)
        with pytest.raises(ValueError):
            source_step(s, 0.0, 0.0)


class TestRelayStep:
    def test_equal_estimates_keep_probability(self):
        s = RelayLearnerState(accept_prob=0.4, est_accept=-0.2, est_reject=-0.2)
        s2 = relay_step(s, -0.2, accepted=True, rates=rates())
        assert s2.accept_prob == pytest.approx(0.4)

    def test_better_accept_estimate_raises_probability(self):
        s = RelayLearnerState(accept_prob=0.4, est_accept=0.5, est_reject=-0.5)
        s2 = relay_step(s, 0.5, accepted=True, rates=rates())
        assert s2.accept_prob > 0.4

    def test_estimate_gating(self):
        s = RelayLearnerState(accept_prob=0.5, est_accept=1.0, est_reject=2.0)
        after_reject = relay_step(s, -3.0, accepted=False, rates=rates())
        assert after_reject.est_accept == 1.0
        assert after_reject.est_reject == pytest.approx(2.0 + 0.3 * (-3.0 - 2.0))
        after_accept = relay_step(s, -3.0, accepted=True, rates=rates())
        assert after_accept.est_reject == 2.0
        assert after_accept.est_accept == pytest.approx(1.0 + 0.3 * (-3.0 - 1.0))

    def test_reject_branch_uses_its_own_rate(self):
        s = RelayLearnerState(accept_prob=0.5, est_accept=0.0, est_reject=0.0)
        s2 = relay_step(s, 1.0, accepted=False, rates=rates(m_a=0.9, m_r=0.1))
        assert s2.est_reject == pytest.approx(0.1)

    def test_extreme_estimates_stay_bounded(self):
        s = RelayLearnerState(accept_prob=0.5, est_accept=1e6, est_reject=-1e6)
        s2 = relay_step(s, 1e6, accepted=True, rates=rates())
        assert 0.0 <= s2.accept_prob <= 1.0
        assert math.isfinite(s2.accept_prob)

    def test_pure_strategy_absorbs_without_floor(self):
        s = RelayLearnerState(accept_prob=1.0, est_accept=-9.0, est_reject=9.0)
        assert relay_step(s, 0.0, accepted=True, rates=rates()).accept_prob == 1.0

    def test_floor_keeps_probability_interior(self):
        s = RelayLearnerState(accept_prob=0.9, est_accept=50.0, est_reject=-50.0)
        for _ in range(200):
            s = relay_step(s, 50.0, accepted=True, rates=rates(),
                           prob_floor=1e-3)
        assert s.accept_prob == pytest.approx(1.0 - 1e-3)

    def test_probability_invariant_under_random_feeds(self):
        rng = random.Random(7)
        s = RelayLearnerState(accept_prob=0.5, est_accept=0.0, est_reject=0.0)
        for _ in range(2000):
            s = relay_step(s, rng.uniform(-3, 3), rng.random() < 0.5, rates())
            assert 0.0 <= s.accept_prob <= 1.0

    def test_estimate_tracks_noisy_mean(self):
        # constant action, iid payoffs, running-average rate 1/k
        rng = random.Random(42)
        mu, sd, steps = -0.3, 0.5, 10_000
        s = RelayLearnerState(accept_prob=0.5, est_accept=0.0, est_reject=0.0)
        for k in range(1, steps + 1):
            u = rng.gauss(mu, sd)
            s = relay_step(s, u, accepted=True,
                           rates=rates(m_a=1.0 / k, m_r=1.0 / k))
        assert abs(s.est_accept - mu) <= 3 * sd / math.sqrt(steps)

    def test_non_finite_utility_rejected(self):
        s = RelayLearnerState(accept_prob=0.5, est_accept=0.0, est_reject=0.0)
        with pytest.raises(ValueError):
            relay_step(s, float("nan"), True, rates())


class TestFixedPointConsistency:
    def test_learners_hold_the_binding_equilibrium(self, base_params):
        # zero noise: expected payoffs substituted for realizations
        ese = solve_ese(base_params)
        u_a, u_r = mixed_relay_payoffs(ese.alpha_star, ese.p_star, base_params)
        source = SourceLearnerState(alpha=ese.alpha_star,
                                    payoff_estimate=base_params.delta,
                                    target=base_params.delta, alpha_max=5.0)
        relay = RelayLearnerState(accept_prob=ese.p_star, est_accept=u_a,
                                  est_reject=u_r)
        flip = random.Random(3)
        for k in range(1, 1001):
            source = source_step(source, base_params.delta, 1.0 / (1 + k))
            accepted = flip.random() < ese.p_star
            relay = relay_step(relay, u_a if accepted else u_r, accepted,
                               rates())
            assert abs(source.alpha - ese.alpha_star) <= 1e-6
            assert abs(relay.accept_prob - ese.p_star) <= 1e-6


class TestSchedules:
    def test_defaults_valid(self):
        sch = Schedules()
        assert sch.horizon == 5000
        assert 0 < sch.epsilon(1) <= 1
        assert sch.l_accept(10) == 0.1

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Schedules(epsilon=lambda k: 1.5)
        with pytest.raises(ValueError):
            Schedules(horizon=0)

    def test_every_relay_rate_checked(self):
        with pytest.raises(ValueError, match=r"^m_accept\(3\) = 5.0 outside"):
            Schedules(m_accept=lambda k: 5.0 if k == 3 else 0.1, horizon=50)
        with pytest.raises(ValueError, match=r"^l_reject\(10\) = -0.5 outside"):
            Schedules(l_reject=lambda k: -0.5 if k == 10 else 0.1, horizon=50)

    def test_every_epsilon_checked(self):
        with pytest.raises(ValueError, match=r"^epsilon\(3\) = 0.0 outside"):
            Schedules(epsilon=lambda k: 0.0 if k == 3 else 0.1, horizon=50)

    def test_rates_past_the_horizon_not_evaluated(self):
        sch = Schedules(epsilon=lambda k: 0.1 if k <= 20 else 2.0, horizon=20)
        assert len(run_coupled(make_params(), sch, seed=1)) == 20

    def test_constant_helper(self):
        sch = Schedules.constant(epsilon=0.05, m=0.2, l=0.3, horizon=10)
        assert sch.epsilon(999) == 0.05
        assert sch.m_reject(5) == 0.2
        assert sch.l_accept(5) == 0.3


class TestRunCoupled:
    def test_determinism(self, base_params):
        sch = Schedules(horizon=300)
        a = run_coupled(base_params, sch, seed=5)
        b = run_coupled(base_params, sch, seed=5)
        assert a.alpha == b.alpha
        assert a.accept_probs == b.accept_probs
        assert a.delivered == b.delivered
        c = run_coupled(base_params, sch, seed=6)
        assert a.alpha != c.alpha or a.delivered != c.delivered

    def test_zero_rate_saturates_reward_cap(self):
        params = make_params(lam=0.0)
        sch = Schedules.constant(epsilon=0.05, horizon=1500)
        traj = run_coupled(params, sch, seed=1)
        assert not any(traj.delivered)
        assert traj.alpha[-1] == params.alpha_max
        # stays clamped once there
        first_hit = traj.alpha.index(params.alpha_max)
        assert all(a == params.alpha_max for a in traj.alpha[first_hit:])

    def test_invariants_along_trajectory(self, base_params):
        traj = run_coupled(base_params, Schedules(horizon=500), seed=2)
        assert all(0.0 <= a <= base_params.alpha_max for a in traj.alpha)
        for probs in traj.accept_probs:
            assert all(0.0 <= p <= 1.0 for p in probs)
        assert all(0 <= m <= base_params.n for m in traj.n_accept)
        assert len(traj) == 500

    def test_feeds_differ(self, base_params):
        sch = Schedules(horizon=200)
        ep = run_coupled(base_params, sch, seed=3, feed=EPISODE)
        mf = run_coupled(base_params, sch, seed=3, feed=MEAN_FIELD)
        assert ep.utilities != mf.utilities

    def test_mean_field_feed_pays_reduced_model_values(self, base_params):
        traj = run_coupled(base_params, Schedules(horizon=50), seed=4,
                           feed=MEAN_FIELD)
        k = 25
        p_bar = sum(traj.accept_probs[k]) / base_params.n
        u_a, u_r = mixed_relay_payoffs(traj.alpha[k], p_bar, base_params)
        assert set(traj.utilities[k]) <= {u_a, u_r}

    def test_unknown_feed_rejected(self, base_params):
        with pytest.raises(ValueError):
            run_coupled(base_params, Schedules(horizon=10), 1, feed="oracle")


def scalar_replay(params, schedules, seed, feed, contact_mode):
    """The coupled loop stepped one relay at a time through the public
    scalar functions: simulate_episode, relay_step per relay, source_step."""
    source = SourceLearnerState(alpha=params.alpha_max / 2.0, payoff_estimate=0.0,
                                target=params.delta, alpha_max=params.alpha_max)
    relays = [RelayLearnerState(accept_prob=0.5, est_accept=0.0, est_reject=0.0)
              for _ in range(params.n)]
    traj = Trajectory(n=params.n)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    for k in range(1, schedules.horizon + 1):
        alpha_k = source.alpha
        probs = [r.accept_prob for r in relays]
        episode = simulate_episode(params, probs, alpha_k, rng, contact_mode)
        if feed == EPISODE:
            fed = list(episode.per_relay_utility)
        else:
            pay_accept, pay_reject = mixed_relay_payoffs(
                alpha_k, sum(probs) / params.n, params)
            fed = [pay_accept if a else pay_reject for a in episode.accepted]
        rates_k = RelayRates(m_accept=schedules.m_accept(k),
                             m_reject=schedules.m_reject(k),
                             l_accept=schedules.l_accept(k),
                             l_reject=schedules.l_reject(k))
        relays = [relay_step(r, fed[i], episode.accepted[i], rates_k,
                             prob_floor=PROB_FLOOR)
                  for i, r in enumerate(relays)]
        source = source_step(source, 1.0 if episode.delivered else 0.0,
                             schedules.epsilon(k))
        traj.steps.append(k)
        traj.alpha.append(alpha_k)
        traj.u_s_est.append(source.payoff_estimate)
        traj.accept_probs.append(tuple(probs))
        traj.utilities.append(tuple(fed))
        traj.n_accept.append(sum(episode.accepted))
        traj.delivered.append(episode.delivered)
    return traj


class TestArrayStateEquivalence:
    @pytest.mark.parametrize("feed", [EPISODE, MEAN_FIELD])
    @pytest.mark.parametrize("contact_mode", [MODEL, PHYSICAL])
    @pytest.mark.parametrize("scenario", [dict(n=7), dict(n=40), dict(lam=0.0)])
    def test_run_coupled_equals_scalar_replay(self, feed, contact_mode, scenario):
        params = make_params(**scenario)
        sch = Schedules(horizon=300)
        got = run_coupled(params, sch, seed=13, feed=feed, contact_mode=contact_mode)
        want = scalar_replay(params, sch, 13, feed, contact_mode)
        for name in ("n", "steps", "alpha", "u_s_est", "accept_probs",
                     "utilities", "n_accept", "delivered"):
            assert getattr(got, name) == getattr(want, name), name
        assert [type(v) for v in got.alpha] == [type(v) for v in want.alpha]
        assert [type(v) for v in got.delivered] == [type(v) for v in want.delivered]


def ratio_rule(p, est_a, est_r, u, accepted, r, prob_floor):
    """The relay rule in plain float arithmetic, written out independently."""
    if accepted:
        est_a += r.m_accept * (u - est_a)
    else:
        est_r += r.m_reject * (u - est_r)
    if 0.0 < p < 1.0:
        def clamp(x):
            return min(max(x, -50.0), 50.0)
        t_a = clamp(est_a * math.log1p(r.l_accept))
        t_r = clamp(est_r * math.log1p(r.l_reject))
        p = 1.0 / (1.0 + (1.0 - p) / p * math.exp(clamp(t_r - t_a)))
        if prob_floor > 0.0:
            p = min(max(p, prob_floor), 1.0 - prob_floor)
    return p, est_a, est_r


class TestElementwiseRelayUpdate:
    # (accept prob, accept estimate, decline estimate, fed utility, accepted)
    CASES = [
        (0.5, 0.0, 0.0, -0.2, True),
        (0.5, 0.0, 0.0, -0.2, False),
        (0.3, 0.7, -0.4, 1.3, True),
        (0.8, -0.1, 0.9, -2.5, False),
        (0.0, 3.0, -3.0, 1.0, True),
        (1.0, -3.0, 3.0, 1.0, False),
        (0.9995, 40.0, -40.0, 40.0, True),
        (0.0005, -40.0, 40.0, -40.0, True),
        (0.5, 1e6, -1e6, 1e6, True),
        (0.5, -1e6, 1e6, 1e6, False),
        (0.999, 1e6, -1e6, -1e6, False),
        (1e-300, 0.2, 0.1, 0.3, True),
    ]

    @pytest.mark.parametrize("prob_floor", [0.0, 1e-3, 0.2])
    def test_matches_relay_step_per_element(self, prob_floor):
        r = rates(m_a=0.37, m_r=0.21, l_a=0.13, l_r=0.07)
        p, est_a, est_r, u, acc = (np.array(col) for col in zip(*self.CASES))
        got = learning._relay_update(p, est_a, est_r, u, acc, r.m_accept,
                                     r.m_reject, r.l_accept, r.l_reject, prob_floor)
        for i, (p_i, a_i, r_i, u_i, acc_i) in enumerate(self.CASES):
            step = relay_step(RelayLearnerState(p_i, a_i, r_i), u_i, acc_i, r,
                              prob_floor=prob_floor)
            want = ratio_rule(p_i, a_i, r_i, u_i, acc_i, r, prob_floor)
            assert (step.accept_prob, step.est_accept, step.est_reject) == want
            assert (got[0][i], got[1][i], got[2][i]) == want

    def test_matches_plain_float_rule_on_random_inputs(self):
        rng = np.random.default_rng(8)
        size = 2000
        p = rng.uniform(0.0, 1.0, size)
        est_a, est_r, u = (rng.uniform(-30.0, 30.0, size) for _ in range(3))
        acc = rng.random(size) < 0.5
        r = rates(m_a=0.05, m_r=0.4, l_a=0.6, l_r=0.9)
        got = learning._relay_update(p, est_a, est_r, u, acc, r.m_accept,
                                     r.m_reject, r.l_accept, r.l_reject, 1e-3)
        want = [ratio_rule(*args, r, 1e-3) for args in
                zip(p.tolist(), est_a.tolist(), est_r.tolist(), u.tolist(),
                    acc.tolist())]
        assert list(zip(*(g.tolist() for g in got))) == want

    def test_pure_strategies_absorb_without_floor(self):
        got = learning._relay_update(
            np.array([0.0, 1.0]), np.array([9.0, -9.0]), np.array([-9.0, 9.0]),
            np.array([1.0, 1.0]), np.array([True, True]), 0.3, 0.3, 0.1, 0.1, 0.0)
        assert got[0].tolist() == [0.0, 1.0]

    def test_floor_clamps_interior_only(self):
        got = learning._relay_update(
            np.array([0.0, 0.5, 0.5]), np.array([50.0, 50.0, -50.0]),
            np.array([-50.0, -50.0, 50.0]), np.array([50.0, 50.0, -50.0]),
            np.array([True, True, True]), 0.3, 0.3, 0.1, 0.1, 0.2)
        assert got[0].tolist() == [0.0, 0.8, 0.2]

    def test_non_finite_utility_rejected(self):
        with pytest.raises(ValueError, match="finite, got inf"):
            learning._relay_update(
                np.array([0.5, 0.5]), np.zeros(2), np.zeros(2),
                np.array([0.0, math.inf]), np.array([True, False]),
                0.3, 0.3, 0.1, 0.1, 0.0)

    def test_non_finite_fed_utility_stops_run_coupled(self, base_params, monkeypatch):
        monkeypatch.setattr(learning, "mixed_relay_payoffs",
                            lambda alpha, p, params: (math.nan, -0.1))
        with pytest.raises(ValueError, match="realized utility must be finite"):
            run_coupled(base_params, Schedules(horizon=20), seed=1, feed=MEAN_FIELD)


class TestTrajectoryExport:
    def test_csv_schema(self, base_params):
        traj = run_coupled(base_params, Schedules(horizon=20), seed=1)
        header = traj.csv_header()
        assert header[:3] == ["k", "alpha", "u_s_est"]
        assert header[3:10] == [f"p_{i}" for i in range(1, 8)]
        assert header[10:] == ["n_accept", "delivered"]
        rows = traj.csv_rows()
        assert len(rows) == 20
        assert all(len(r) == len(header) for r in rows)
        assert rows[0][0] == 1
        assert rows[-1][0] == 20

    def test_emit_csv_round_trips(self, base_params, tmp_path):
        traj = run_coupled(base_params, Schedules(horizon=15), seed=2)
        config = replace(parse_config("horizon = 15\nseed = 2"), mode="learn")
        path = tmp_path / "traj.csv"
        emit_csv(run_scenario(config), str(path))
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0].split(",") == traj.csv_header()
        assert len(lines) == 16
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == traj.alpha[0]
