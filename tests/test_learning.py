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
    Schedules,
    Trajectory,
    _source_update,
    run_coupled,
)
from dtnsat.model import relay_failure_probability, total_energy
from dtnsat.simulate import MODEL, PHYSICAL, _race, _score_relays
from conftest import make_params


def rates(m_a=0.3, m_r=0.3, l_a=0.1, l_r=0.1):
    """(m_accept, m_reject, l_accept, l_reject) of one relay step."""
    return m_a, m_r, l_a, l_r


def step_one(p, est_a, est_r, u, accepted, r=rates(), prob_floor=0.0):
    """``_relay_update`` on a single relay: (accept prob, est_accept, est_reject)."""
    got = learning._relay_update(*(np.array([x]) for x in (p, est_a, est_r, u, accepted)),
                                 *r, prob_floor)
    return tuple(float(g[0]) for g in got)


class TestSourceStep:
    def test_on_target_is_fixed(self):
        assert _source_update(1.0, 0.21, 0.21, 5.0, 0.21, 0.5) == (1.0, 0.21)

    def test_under_target_raises_reward(self):
        assert _source_update(1.0, 0.05, 0.21, 5.0, 0.0, 0.1)[0] > 1.0

    def test_over_target_lowers_reward(self):
        assert _source_update(1.0, 0.9, 0.21, 5.0, 1.0, 0.1)[0] < 1.0

    def test_update_direction_tracks_remaining_gap(self):
        for est, obs in [(0.0, 0.0), (0.5, 1.0), (0.2, 0.0), (0.9, 0.2)]:
            alpha, est2 = _source_update(2.0, est, 0.21, 5.0, obs, 0.05)
            assert math.copysign(1, alpha - 2.0) == math.copysign(1, 0.21 - est2)

    def test_clamped_to_range(self):
        assert _source_update(0.01, 1.0, 0.0, 5.0, 1.0, 1.0)[0] == 0.0
        assert _source_update(4.99, 0.0, 1.0, 5.0, 0.0, 1.0)[0] == 5.0

    def test_clamp_holds_for_any_feed(self):
        rng = random.Random(1)
        alpha, est = 2.5, 0.0
        for k in range(1, 2000):
            alpha, est = _source_update(alpha, est, 0.21, 5.0, rng.uniform(-5, 5),
                                        1.0 / k if k > 1 else 1.0)
            assert 0.0 <= alpha <= 5.0


class TestRelayStep:
    def test_equal_estimates_keep_probability(self):
        assert step_one(0.4, -0.2, -0.2, -0.2, True)[0] == pytest.approx(0.4)

    def test_better_accept_estimate_raises_probability(self):
        assert step_one(0.4, 0.5, -0.5, 0.5, True)[0] > 0.4

    def test_estimate_gating(self):
        _, est_a, est_r = step_one(0.5, 1.0, 2.0, -3.0, False)
        assert est_a == 1.0
        assert est_r == pytest.approx(2.0 + 0.3 * (-3.0 - 2.0))
        _, est_a, est_r = step_one(0.5, 1.0, 2.0, -3.0, True)
        assert est_r == 2.0
        assert est_a == pytest.approx(1.0 + 0.3 * (-3.0 - 1.0))

    def test_reject_branch_uses_its_own_rate(self):
        est_r = step_one(0.5, 0.0, 0.0, 1.0, False, rates(m_a=0.9, m_r=0.1))[2]
        assert est_r == pytest.approx(0.1)

    def test_extreme_estimates_stay_bounded(self):
        p = step_one(0.5, 1e6, -1e6, 1e6, True)[0]
        assert 0.0 <= p <= 1.0
        assert math.isfinite(p)

    def test_pure_strategy_absorbs_without_floor(self):
        assert step_one(1.0, -9.0, 9.0, 0.0, True)[0] == 1.0

    def test_floor_keeps_probability_interior(self):
        p, est_a, est_r = 0.9, 50.0, -50.0
        for _ in range(200):
            p, est_a, est_r = step_one(p, est_a, est_r, 50.0, True, prob_floor=1e-3)
        assert p == pytest.approx(1.0 - 1e-3)

    def test_probability_invariant_under_random_feeds(self):
        rng = random.Random(7)
        state = (0.5, 0.0, 0.0)
        for _ in range(2000):
            state = step_one(*state, rng.uniform(-3, 3), rng.random() < 0.5)
            assert 0.0 <= state[0] <= 1.0

    def test_estimate_tracks_noisy_mean(self):
        # constant action, iid payoffs, running-average rate 1/k
        rng = random.Random(42)
        mu, sd, steps = -0.3, 0.5, 10_000
        state = (0.5, 0.0, 0.0)
        for k in range(1, steps + 1):
            state = step_one(*state, rng.gauss(mu, sd), True,
                             rates(m_a=1.0 / k, m_r=1.0 / k))
        assert abs(state[1] - mu) <= 3 * sd / math.sqrt(steps)

    def test_non_finite_utility_rejected(self):
        with pytest.raises(ValueError):
            step_one(0.5, 0.0, 0.0, float("nan"), True)


class TestFixedPointConsistency:
    def test_learners_hold_the_binding_equilibrium(self, base_params):
        # zero noise: expected payoffs substituted for realizations
        ese = solve_ese(base_params)
        u_a, u_r = mixed_relay_payoffs(ese.alpha_star, ese.p_star, base_params)
        alpha, estimate = ese.alpha_star, base_params.delta
        relay = (ese.p_star, u_a, u_r)
        flip = random.Random(3)
        for k in range(1, 1001):
            alpha, estimate = _source_update(alpha, estimate, base_params.delta, 5.0,
                                             base_params.delta, 1.0 / (1 + k))
            accepted = flip.random() < ese.p_star
            relay = step_one(*relay, u_a if accepted else u_r, accepted)
            assert abs(alpha - ese.alpha_star) <= 1e-6
            assert abs(relay[0] - ese.p_star) <= 1e-6


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
        sch = Schedules(epsilon=lambda k: 0.05, m_accept=lambda k: 0.1,
                        m_reject=lambda k: 0.1, l_accept=lambda k: 0.1,
                        l_reject=lambda k: 0.1, horizon=1500)
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
    """The coupled loop in plain floats, one relay at a time: each relay
    steps by ``ratio_rule`` and the source by its own transcription."""
    alpha, estimate = params.alpha_max / 2.0, 0.0
    relays = [(0.5, 0.0, 0.0)] * params.n
    traj = Trajectory(n=params.n)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    lam, n = params.contact.lam, params.n
    q, cost = relay_failure_probability(params.contact), total_energy(params)
    for k in range(1, schedules.horizon + 1):
        probs = [r[0] for r in relays]
        # learn's own draw order: n flips, then n source and n destination
        # contact times, none at lam = 0
        flips = rng.random(n)
        if lam > 0:
            source_t = rng.exponential(1.0 / lam, size=n)
            dest_t = rng.exponential(1.0 / lam, size=n)
        else:
            source_t = dest_t = np.full(n, np.inf)
        _, accepted, success, _ = _race(params, np.array(probs), flips, source_t,
                                        dest_t, contact_mode)
        delivered = bool(success.any())
        if feed == EPISODE:
            fed = _score_relays(params, q, cost, accepted, alpha).tolist()
        else:
            pay_accept, pay_reject = mixed_relay_payoffs(alpha, sum(probs) / params.n,
                                                         params)
            fed = [pay_accept if a else pay_reject for a in accepted.tolist()]
        accepted = accepted.tolist()
        r = (schedules.m_accept(k), schedules.m_reject(k), schedules.l_accept(k),
             schedules.l_reject(k))
        relays = [ratio_rule(*relay, u, a, r, PROB_FLOOR)
                  for relay, u, a in zip(relays, fed, accepted)]
        traj.steps.append(k)
        traj.alpha.append(alpha)
        eps = schedules.epsilon(k)
        estimate += eps * (float(delivered) - estimate)
        alpha = min(max(alpha + eps * (params.delta - estimate), 0.0), params.alpha_max)
        traj.u_s_est.append(estimate)
        traj.accept_probs.append(tuple(probs))
        traj.utilities.append(tuple(fed))
        traj.n_accept.append(sum(accepted))
        traj.delivered.append(delivered)
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
    m_accept, m_reject, l_accept, l_reject = r
    if accepted:
        est_a += m_accept * (u - est_a)
    else:
        est_r += m_reject * (u - est_r)
    if 0.0 < p < 1.0:
        def clamp(x):
            return min(max(x, -50.0), 50.0)
        t_a = clamp(est_a * math.log1p(l_accept))
        t_r = clamp(est_r * math.log1p(l_reject))
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
    def test_matches_plain_float_rule_per_element(self, prob_floor):
        r = rates(m_a=0.37, m_r=0.21, l_a=0.13, l_r=0.07)
        p, est_a, est_r, u, acc = (np.array(col) for col in zip(*self.CASES))
        got = learning._relay_update(p, est_a, est_r, u, acc, *r, prob_floor)
        for i, case in enumerate(self.CASES):
            want = ratio_rule(*case, r, prob_floor)
            assert step_one(*case, r, prob_floor) == want
            assert (got[0][i], got[1][i], got[2][i]) == want

    def test_matches_plain_float_rule_on_random_inputs(self):
        rng = np.random.default_rng(8)
        size = 2000
        p = rng.uniform(0.0, 1.0, size)
        est_a, est_r, u = (rng.uniform(-30.0, 30.0, size) for _ in range(3))
        acc = rng.random(size) < 0.5
        r = rates(m_a=0.05, m_r=0.4, l_a=0.6, l_r=0.9)
        got = learning._relay_update(p, est_a, est_r, u, acc, *r, 1e-3)
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
