import math
import random
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import dtnsat.learning as learning
import dtnsat.model as model
import dtnsat.simulate as simulate
from dtnsat.equilibrium import solve_ese
from dtnsat.experiments import emit_csv, parse_config, run_scenario
from dtnsat.learning import (
    EPISODE,
    MEAN_FIELD,
    PROB_FLOOR,
    _source_update,
    run_coupled,
)
from dtnsat.model import _cohort_shares
from dtnsat.simulate import MODEL, PHYSICAL
from conftest import make_params
from oracles import episode, mixed_relay_payoffs, run_coupled_fed, score_relays, trial_rng

# a trajectory's arrays and what run_coupled_fed records beside them
ARRAYS = ("alpha", "u_s_est", "accept_probs", "accepted", "utilities", "n_accept", "delivered")


def recorded_arrays(params, horizon, seed, **kwargs):
    """A coupled run's arrays by name: the trajectory's, the ``accepted``
    actions and the fed ``utilities``."""
    traj, actions, fed = run_coupled_fed(params, horizon, seed, **kwargs)
    return SimpleNamespace(**vars(traj), accepted=actions, utilities=fed)


def step_one(p, est_a, est_r, u, accepted, m=0.3):
    """``_relay_update`` on a single relay paid ``u`` on the side it played:
    (accept prob, est_accept, est_reject)."""
    (p,), ((est_a,), (est_r,)) = learning._relay_update([p], ([est_a], [est_r]), [accepted],
                                                        (u, u), m)
    return p, est_a, est_r


def relay_update(p, est_a, est_r, u, accepted, m):
    """``step_one`` relay by relay, relay i paid ``u[i]``: (accept probs,
    est_accept, est_reject) lists."""
    return tuple(map(list, zip(*(step_one(*relay, m)
                                 for relay in zip(p, est_a, est_r, u, accepted)))))


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

    def test_extreme_estimates_stay_bounded(self):
        p = step_one(0.5, 1e6, -1e6, 1e6, True)[0]
        assert 0.0 <= p <= 1.0
        assert math.isfinite(p)

    def test_floor_keeps_probability_interior(self):
        p, est_a, est_r = 0.9, 50.0, -50.0
        for _ in range(200):
            p, est_a, est_r = step_one(p, est_a, est_r, 50.0, True)
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
            state = step_one(*state, rng.gauss(mu, sd), True, 1.0 / k)
        assert abs(state[1] - mu) <= 3 * sd / math.sqrt(steps)

    def test_non_finite_utility_rejected(self, monkeypatch):
        # the payoff pair is checked before it is fed, so a NaN on the side
        # the relay did not play stops the run too
        monkeypatch.setattr(learning, "reduced_payoffs",
                            lambda alpha, cohort, success, miss, cost, params: (-0.1, math.nan))
        with pytest.raises(ValueError, match="realized utility must be finite, got nan"):
            run_coupled(make_params(n=1), 1, seed=1, feed=MEAN_FIELD)


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


class TestRunCoupled:
    def test_determinism(self, base_params):
        a = run_coupled(base_params, 300, seed=5)
        b = run_coupled(base_params, 300, seed=5)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.accept_probs, b.accept_probs)
        assert np.array_equal(a.delivered, b.delivered)
        c = run_coupled(base_params, 300, seed=6)
        assert not (np.array_equal(a.alpha, c.alpha)
                    and np.array_equal(a.delivered, c.delivered))

    def test_non_integer_seed_rejected(self, base_params):
        # a float used to key Philox as its truncation: 2.9 replayed seed 2
        with pytest.raises(TypeError, match="seed must be an integer, got 2.9"):
            run_coupled(base_params, 50, 2.9)

    def test_zero_rate_saturates_reward_cap(self):
        params = make_params(lam=0.0, delta=0.9)
        # undelivered, the reward climbs from alpha_max / 2 by delta/(1+k) a
        # step and reaches the cap at k = 25
        traj = run_coupled(params, 1500, seed=1)
        assert not traj.delivered.any()
        assert traj.alpha[-1] == params.alpha_max
        # stays clamped once there
        first_hit = traj.alpha.tolist().index(params.alpha_max)
        assert (traj.alpha[first_hit:] == params.alpha_max).all()

    def test_invariants_along_trajectory(self, base_params):
        traj = recorded_arrays(base_params, 500, seed=2)
        assert all(0.0 <= a <= base_params.alpha_max for a in traj.alpha)
        for probs in traj.accept_probs:
            assert all(0.0 <= p <= 1.0 for p in probs)
        assert all(0 <= m <= base_params.n for m in traj.n_accept)
        n = base_params.n
        assert {name: (getattr(traj, name).shape, getattr(traj, name).dtype.kind)
                for name in ARRAYS} == {
            "alpha": ((500,), "f"), "u_s_est": ((500,), "f"),
            "accept_probs": ((500, n), "f"), "accepted": ((500, n), "b"),
            "utilities": ((500, n), "f"), "n_accept": ((500,), "i"),
            "delivered": ((500,), "b")}
        assert np.array_equal(traj.accepted.sum(axis=1), traj.n_accept)

    def test_feeds_differ(self, base_params):
        ep = recorded_arrays(base_params, 200, seed=3, feed=EPISODE)
        mf = recorded_arrays(base_params, 200, seed=3, feed=MEAN_FIELD)
        assert not np.array_equal(ep.utilities, mf.utilities)

    def test_mean_field_feed_pays_reduced_model_values(self, base_params):
        traj = recorded_arrays(base_params, 50, seed=4, feed=MEAN_FIELD)
        k = 25
        p_bar = sum(traj.accept_probs[k].tolist()) / base_params.n
        u_a, u_r = mixed_relay_payoffs(float(traj.alpha[k]), p_bar, base_params)
        assert set(traj.utilities[k].tolist()) <= {u_a, u_r}

    def test_unknown_feed_rejected(self, base_params):
        with pytest.raises(ValueError):
            run_coupled(base_params, 10, 1, feed="oracle")

    def test_unknown_contact_mode_rejected(self, base_params):
        with pytest.raises(ValueError, match="mode must be one of"):
            run_coupled(base_params, 50, 1, contact_mode="phisical")

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, base_params, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            run_coupled(base_params, horizon, 1)

    @pytest.mark.parametrize("horizon", [2.5, "5", None, 5.0])
    def test_non_integer_horizon_rejected_by_name(self, base_params, horizon):
        with pytest.raises(TypeError, match=f"horizon must be an integer, got {horizon!r}"):
            run_coupled(base_params, horizon, 1)

    def test_integer_like_horizon_accepted(self, base_params):
        assert np.array_equal(run_coupled(base_params, np.int64(30), 1).alpha,
                              run_coupled(base_params, 30, 1).alpha)


def scalar_replay(params, horizon, seed, feed, contact_mode):
    """The coupled loop in plain floats, one relay at a time, on one
    per-relay ``oracles.episode`` per iteration, scored by
    ``oracles.score_relays`` on the episode feed: each relay steps by
    ``ratio_rule`` and the source by its own transcription.  Returns the
    trajectory's arrays by name, with the per-relay actions and utilities
    fed at each step."""
    alpha, estimate = params.alpha_max / 2.0, 0.0
    share = _cohort_shares(params)
    relays = [(0.5, 0.0, 0.0)] * params.n
    rows = []
    for k in range(1, horizon + 1):
        probs = [r[0] for r in relays]
        # iteration k - 1 reads its own window, from a fresh generator
        accepted, delivered = episode(
            params, probs, trial_rng(seed, k - 1, params.n), contact_mode)
        if feed == EPISODE:
            fed = score_relays(params, share, accepted, accepted.sum(), alpha).tolist()
        else:
            pay_accept, pay_reject = mixed_relay_payoffs(alpha, sum(probs) / params.n,
                                                         params)
            fed = [pay_accept if a else pay_reject for a in accepted.tolist()]
        accepted = accepted.tolist()
        m = 1.0 / (1.0 + k) ** 0.6
        relays = [ratio_rule(*relay, u, a, m) for relay, u, a in zip(relays, fed, accepted)]
        start_alpha = alpha
        eps = 1.0 / (1.0 + k)
        estimate += eps * (float(delivered) - estimate)
        alpha = min(max(alpha + eps * (params.delta - estimate), 0.0), params.alpha_max)
        rows.append((start_alpha, estimate, probs, accepted, fed, sum(accepted), delivered))
    return SimpleNamespace(**{name: np.array(column) for name, column in zip(ARRAYS, zip(*rows))})


class TestArrayStateEquivalence:
    # regrets this large drive the estimates past +-50 / log1p(0.1) and the
    # accept probabilities onto both floors, with some exponents between the
    # clamp and the floor, where a wrong cap shows
    BINDING = dict(sigma=600.0, gamma=600.0)

    @pytest.mark.parametrize("feed", [EPISODE, MEAN_FIELD])
    @pytest.mark.parametrize("contact_mode", [MODEL, PHYSICAL])
    @pytest.mark.parametrize("scenario", [dict(n=7), dict(n=40), dict(lam=0.0), dict(lam=1e-310),
                                          dict(n=1), BINDING])
    def test_run_coupled_equals_scalar_replay(self, feed, contact_mode, scenario):
        params = make_params(**scenario)
        got = recorded_arrays(params, 300, seed=13, feed=feed, contact_mode=contact_mode)
        want = scalar_replay(params, 300, 13, feed, contact_mode)
        for name in ARRAYS:
            got_a, want_a = getattr(got, name), getattr(want, name)
            assert got_a.dtype == want_a.dtype and np.array_equal(got_a, want_a), name

    @pytest.mark.parametrize("feed", [EPISODE, MEAN_FIELD])
    @pytest.mark.parametrize("contact_mode", [MODEL, PHYSICAL])
    def test_exponent_clamp_and_floor_bind_in_the_binding_scenario(
            self, feed, contact_mode, monkeypatch):
        # the replay is run_coupled bit for bit (test above), so an exponent
        # past the cap in the replay's ratio_rule is one in the run
        exponents = []

        def recorded(*args, _rule=ratio_rule):
            got = _rule(*args)
            exponents.extend(abs(est * math.log1p(0.1)) for est in got[1:])
            return got
        monkeypatch.setitem(globals(), "ratio_rule", recorded)
        params = make_params(**self.BINDING)
        scalar_replay(params, 300, 13, feed, contact_mode)
        assert max(exponents) > 50.0
        got = run_coupled(params, 300, seed=13, feed=feed, contact_mode=contact_mode)
        assert {PROB_FLOOR, 1.0 - PROB_FLOOR} <= set(got.accept_probs.ravel().tolist())


class TestLearnStream:
    @pytest.mark.parametrize("contact_mode", [MODEL, PHYSICAL])
    @pytest.mark.parametrize("scenario", [dict(n=1), dict(n=7), dict(n=40), dict(lam=0.0)])
    def test_short_runs_are_prefixes_across_block_boundaries(self, contact_mode, scenario):
        params = make_params(**scenario)
        block = max(1, simulate._DRAWS // simulate._window(params.n))
        long = recorded_arrays(params, 3 * block + 5, seed=21, contact_mode=contact_mode)
        for horizon in (1, block - 1, block, block + 1, 3 * block):
            short = recorded_arrays(params, horizon, seed=21, contact_mode=contact_mode)
            for name in ARRAYS:
                assert np.array_equal(getattr(short, name), getattr(long, name)[:horizon]), \
                    (horizon, name)

    def test_block_memory_does_not_grow_with_n(self):
        # the memory a run holds beyond the arrays it returns is its block of
        # windows, which holds about as many doubles at n = 40 as at n = 7
        above = {}
        for n in (7, 40):
            params = make_params(n=n)
            run_coupled(params, 10, seed=3)  # one-time set-up is not the block's
            tracemalloc.start()
            try:
                traj = run_coupled(params, 1000, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above[n] = peak - sum(array.nbytes for array in vars(traj).values())
        assert above[40] < 2 * above[7], above


def ratio_rule(p, est_a, est_r, u, accepted, m):
    """The relay rule in plain float arithmetic, written out independently."""
    if accepted:
        est_a += m * (u - est_a)
    else:
        est_r += m * (u - est_r)

    def clamp(x):
        return min(max(x, -50.0), 50.0)
    t_a = clamp(est_a * math.log1p(0.1))
    t_r = clamp(est_r * math.log1p(0.1))
    p = 1.0 / (1.0 + (1.0 - p) / p * math.exp(clamp(t_r - t_a)))
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR), est_a, est_r


class TestElementwiseRelayUpdate:
    # (accept prob, accept estimate, decline estimate, fed utility, accepted)
    CASES = [
        (0.5, 0.0, 0.0, -0.2, True),
        (0.5, 0.0, 0.0, -0.2, False),
        (0.3, 0.7, -0.4, 1.3, True),
        (0.8, -0.1, 0.9, -2.5, False),
        (0.9995, 40.0, -40.0, 40.0, True),
        (0.0005, -40.0, 40.0, -40.0, True),
        (0.5, 1e6, -1e6, 1e6, True),
        (0.5, -1e6, 1e6, 1e6, False),
        (0.999, 1e6, -1e6, -1e6, False),
        (1e-300, 0.2, 0.1, 0.3, True),
    ]

    def test_matches_plain_float_rule_per_element(self):
        p, est_a, est_r, u, acc = (list(col) for col in zip(*self.CASES))
        got = relay_update(p, est_a, est_r, u, acc, 0.37)
        for i, case in enumerate(self.CASES):
            want = ratio_rule(*case, 0.37)
            assert step_one(*case, 0.37) == want
            assert (got[0][i], got[1][i], got[2][i]) == want

    def test_matches_plain_float_rule_on_random_inputs(self):
        rng = np.random.default_rng(8)
        size = 2000
        p = rng.uniform(0.0, 1.0, size).tolist()
        est_a, est_r, u = (rng.uniform(-30.0, 30.0, size).tolist() for _ in range(3))
        acc = (rng.random(size) < 0.5).tolist()
        got = relay_update(p, est_a, est_r, u, acc, 0.4)
        want = [ratio_rule(*args, 0.4) for args in zip(p, est_a, est_r, u, acc)]
        assert list(zip(*got)) == want
        # all relays in one call, paid one (accept, decline) pair as in run_coupled
        got_p, (got_a, got_r) = learning._relay_update(p, (est_a, est_r), acc, u[:2], 0.4)
        want = [ratio_rule(q, a, r, u[0] if c else u[1], c, 0.4)
                for q, a, r, c in zip(p, est_a, est_r, acc)]
        assert list(zip(got_p, got_a, got_r)) == want

    def test_floor_clamps_interior_only(self):
        got = relay_update([0.5, 0.5, 0.5], [50.0, -50.0, 0.0], [-50.0, 50.0, 0.0],
                           [50.0, -50.0, 0.0], [True, True, True], 0.3)
        assert got[0] == [1.0 - PROB_FLOOR, PROB_FLOOR, 0.5]

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_list_kernel_contract(self, n):
        # run_coupled records the p list it passes as row i, so the kernel
        # must leave its inputs as they are and return new lists of floats
        rng = random.Random(n)
        p = [rng.uniform(0.01, 0.99) for _ in range(n)]
        est = tuple([rng.uniform(-3.0, 3.0) for _ in range(n)] for _ in range(2))
        acc = [i % 3 != 1 for i in range(n)]
        before = (list(p), list(est[0]), list(est[1]), list(acc))
        pay, m = (0.7, -0.4), 0.3
        new_p, new_est = learning._relay_update(p, est, acc, pay, m)
        assert (p, est[0], est[1], acc) == before
        for i, accepted in enumerate(acc):
            played, other = (0, 1) if accepted else (1, 0)
            assert new_est[played][i] == est[played][i] + m * (pay[played] - est[played][i])
            assert new_est[played][i] != est[played][i]
            assert new_est[other][i] == est[other][i]
        for values in (new_p, *new_est):
            assert len(values) == n and all(type(x) is float for x in values)

    # The kernel does not check its utilities: run_coupled checks the
    # (accept, decline) payoff pair that every fed row is spread from.
    def test_non_finite_utility_rejected(self):
        # a decline regret this large overflows -alpha * share - gamma
        params = make_params(n=1, gamma=1.7e308, alpha_max=1e308)
        with pytest.raises(ValueError, match="realized utility must be finite, got -inf"):
            run_coupled(params, 20, seed=1)

    def test_non_finite_fed_utility_stops_run_coupled(self, base_params, monkeypatch):
        monkeypatch.setattr(learning, "reduced_payoffs",
                            lambda alpha, cohort, success, miss, cost, params: (math.nan, -0.1))
        with pytest.raises(ValueError, match="realized utility must be finite"):
            run_coupled(base_params, 20, seed=1, feed=MEAN_FIELD)

    def test_non_finite_fed_utility_stops_run_coupled_on_the_episode_feed(
            self, base_params, monkeypatch):
        monkeypatch.setattr(model, "relay_payoffs",
                            lambda alpha, share, params, forfeit=None: (-0.1, math.nan))
        with pytest.raises(ValueError, match="realized utility must be finite, got nan"):
            run_coupled(base_params, 20, seed=1, feed=EPISODE)


def learn_csv(text, tmp_path):
    """The emitted ``learn`` CSV of a config: (config, header, data rows)."""
    config = replace(parse_config(text), mode="learn")
    path = tmp_path / "learn.csv"
    emit_csv(run_scenario(config), str(path))
    header, *rows = [line.split(",") for line in path.read_text().splitlines()
                     if not line.startswith("#")]
    return config, header, rows


class TestTrajectoryExport:
    def test_csv_schema(self, tmp_path):
        _, header, rows = learn_csv("horizon = 20\nseed = 1", tmp_path)
        assert header[:3] == ["k", "alpha", "u_s_est"]
        assert header[3:10] == [f"p_{i}" for i in range(1, 8)]
        assert header[10:] == ["n_accept", "delivered"]
        assert len(rows) == 20
        assert all(len(r) == len(header) for r in rows)
        assert rows[0][0] == "1"
        assert rows[-1][0] == "20"

    @pytest.mark.parametrize("text", ["", "n = 40", "contact_mode = physical"])
    def test_emit_csv_round_trips(self, text, tmp_path):
        # every row is the arrays' row at 12 significant digits; 300 rows
        # cross a block boundary of the stream
        config, header, rows = learn_csv(f"horizon = 300\nseed = 5\n{text}", tmp_path)
        n = config.params.n
        traj = run_coupled(config.params, 300, 5, contact_mode=config.contact_mode)
        assert header == ["k", "alpha", "u_s_est", *(f"p_{i}" for i in range(1, n + 1)),
                          "n_accept", "delivered"]
        assert len(rows) == 300
        for i, row in enumerate(rows):
            floats = [traj.alpha[i], traj.u_s_est[i], *traj.accept_probs[i]]
            assert row[1:3 + n] == ["%.12g" % v for v in floats], i
            # the integer columns print as integer literals
            assert (row[0], *row[3 + n:]) == (str(i + 1), str(traj.n_accept[i]),
                                               str(int(traj.delivered[i]))), i
