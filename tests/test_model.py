import math
import struct
from dataclasses import fields, replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from dtnsat import model
from dtnsat.equilibrium import _sweep_point, solve_ese
from dtnsat.model import (
    GameParams,
    _cohort_payoffs,
    _cohort_shares,
    _payoff_pair,
    _tagged_share,
    delivery_share,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    per_relay_success,
    reduced_payoffs,
    relay_payoffs,
    storage_energy,
)
from dtnsat.simulate import MODEL, _contacts, _window, _windows, episode_rng
from conftest import cohort_payoffs, make_params
from oracles import CohortTooLargeError, OracleDomainError, delivery_share_bruteforce, \
    exact_mixed, exact_profile_delivery, exact_profile_payoffs, tagged_indifference_reward, \
    with_param

# frozen with 50-digit arithmetic for lam=0.015, tau=100
P_C = 0.7768698398515702
Q_TAU = 0.22313016014842982
E_S = 1.1201756523932777e-3
ETA = 1.1601756523932778e-3


class TestContactProbability:
    def test_zero_rate_never_meets(self):
        assert make_params(lam=0.0).reach == 0.0

    def test_reference_value(self):
        assert make_params().reach == pytest.approx(P_C, rel=1e-14, abs=0)

    def test_approaches_one_for_large_rate(self):
        p = make_params(lam=0.3).reach  # lam*tau = 30
        assert 1.0 - 1e-12 < p < 1.0

    def test_complement_identity(self):
        for lam in (0.001, 0.015, 0.2, 3.0):
            for tau in (0.5, 10.0, 100.0, 400.0):
                c = make_params(lam=lam, tau=tau)
                total = c.reach + c.q
                assert total == pytest.approx(1.0, abs=1e-15)


class TestFailureProbability:
    def test_zero_rate_certain_failure(self):
        assert make_params(lam=0.0, tau=50.0).q == 1.0

    def test_reference_value(self):
        assert make_params().q == pytest.approx(Q_TAU, rel=1e-14, abs=0)


class TestStorageEnergy:
    def test_reference_value(self, base_params):
        assert storage_energy(base_params) == pytest.approx(E_S, rel=1e-12, abs=0)

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

    def test_zero_rate_takes_its_limit(self):
        # nothing is ever handed over at lam = 0, so no storage is paid
        params = make_params(lam=0.0)
        assert storage_energy(params) == 0.0
        assert params.total_energy == params.e_receive + params.e_transmit

    def test_overflowing_lam_tau_holds_nothing_forever(self):
        # lam * tau = inf: the held-forever term is 0, not (1 + inf) * 0
        assert storage_energy(make_params(lam=1e308, tau=1e308)) == 3.8e-5 / 1e308

    @pytest.mark.parametrize("lam", [1e-7, 1e-9, 1e-12])
    def test_small_rate_matches_decimal(self, lam):
        # 1 - (1 + x)e^-x cancels to x**2/2; 50-digit reference from the
        # binary values of the inputs
        params = make_params(lam=lam)
        with localcontext() as ctx:
            ctx.prec = 50
            e, lam_d = Decimal(params.e_store), Decimal(lam)
            x = lam_d * Decimal(params.tau)
            want = e / lam_d * (1 - (1 + x) * (-x).exp())
        assert abs(storage_energy(params) / float(want) - 1.0) <= 1e-12

    def test_series_and_closed_form_meet_at_the_switch(self):
        below, above = (storage_energy(make_params(lam=lam, tau=1.0))
                        for lam in (math.nextafter(0.5, 0.0), 0.5))
        assert below == pytest.approx(above, rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam", [5e-324, 1e-320, 1e-315])
    def test_subnormal_rate_stores_nothing(self, lam):
        # e/lam overflows while the bracket rounds to 0: not inf * 0 = nan
        params = make_params(lam=lam)
        assert params.total_energy == params.e_receive + params.e_transmit


class TestTotalEnergy:
    def test_reference_value(self, base_params):
        assert base_params.total_energy == pytest.approx(ETA, rel=1e-12, abs=0)

    def test_all_zero(self):
        assert make_params(e=0.0, e_r=0.0, e_t=0.0).total_energy == 0.0

    def test_storage_free_case(self):
        assert make_params(e=0.0, e_r=1.0, e_t=1.0).total_energy == 2.0


class TestDerivedConstants:
    def test_replace_gives_the_new_points_values(self, base_params):
        kept = (base_params.q, base_params.reach, base_params.total_energy)
        moved = replace(base_params, lam=0.05)
        fresh = make_params(lam=0.05)
        assert (moved.q, moved.reach, moved.total_energy) == \
            (fresh.q, fresh.reach, fresh.total_energy)
        assert moved.q != kept[0] and moved.reach != kept[1]
        assert moved.total_energy != kept[2]

    def test_a_read_leaves_the_record_as_it_was(self):
        read, unread = make_params(), make_params()
        before = (hash(read), repr(read), fields(GameParams))
        assert read.q > 0 and read.reach > 0 and read.total_energy > 0
        assert read == unread
        assert (hash(read), repr(read), fields(GameParams)) == before
        assert [f.name for f in fields(GameParams)] == [
            "lam", "tau", "n", "delta", "sigma", "gamma", "e_store", "e_receive",
            "e_transmit", "alpha_max"]


class TestRelayPayoffs:
    def test_arrays_match_scalar_calls_exactly(self, base_params):
        shares = [delivery_share(c, base_params.q) for c in range(1, base_params.n + 1)]
        accept, reject = relay_payoffs(1.3, np.array(shares), base_params)
        for i, share in enumerate(shares):
            assert (accept[i], reject[i]) == relay_payoffs(1.3, share, base_params)


def hexes(pair):
    """The exact floats of each side of a payoff pair, as lists."""
    return [[float(v).hex() for v in np.ravel(side)] for side in pair]


class TestPayoffKernel:
    """The game's and the solvers' payoffs are the one rule of
    ``_payoff_pair``, each at its own regret and cost."""

    def test_both_payoffs_are_the_kernel(self, base_params):
        params, alpha = base_params, 1.3
        cost = _sweep_point(params, None, ())[4].item()
        cohorts = np.arange(1.0, params.n + 1)
        misses = np.array([params.q ** m for m in range(1, params.n + 1)])
        columns = (cohorts, 1.0 - misses, misses)
        # the arrays, then two points of them as Python floats
        cases = [columns] + [tuple(c[i].item() for c in columns) for i in (0, params.n - 1)]
        for cohort, success, miss in cases:
            share = success / cohort
            game = relay_payoffs(alpha, share, params)
            reduced = reduced_payoffs(alpha, cohort, success, miss, cost, params)
            assert hexes(game) == hexes(_payoff_pair(
                alpha, share, share, params.sigma * (1.0 - share), params.total_energy, params))
            assert hexes(reduced) == hexes(_payoff_pair(
                alpha, share, share, params.sigma * (params.n - 1 + miss) / cohort, cost, params))
            assert hexes(game)[1] == hexes(reduced)[1]

    def test_a_cohort_is_paid_in_one_kernel_call(self, base_params, monkeypatch):
        # each side equals relay_payoffs at its own cohort's share, bit for bit
        params, reward = base_params, 1.3
        share = _cohort_shares(params)
        counts = np.arange(params.n + 1)
        sides = [(relay_payoffs(reward, share[k], params)[0],
                  relay_payoffs(reward, share[k + 1], params)[1]) for k in counts.tolist()]
        calls = []

        def counted(*args):
            calls.append(args)
            return _payoff_pair(*args)

        monkeypatch.setattr(model, "_payoff_pair", counted)
        for k in counts.tolist():
            calls.clear()
            pair = _cohort_payoffs(params, share, k, reward)
            assert len(calls) == 1
            assert [side.hex() for side in pair] == [side.hex() for side in sides[k]]
        calls.clear()
        accept, decline = _cohort_payoffs(params, np.array(share), counts, reward)
        assert len(calls) == 1
        assert np.array_equal(accept, [a for a, _ in sides])
        assert np.array_equal(decline, [d for _, d in sides])


class TestZeroRateLimits:
    # lam*tau = 1e-9 keeps the first-order offset of the cost below 1e-9
    def test_total_energy(self):
        assert make_params(lam=0.0, tau=1.0).total_energy == 2e-5 + 2e-5
        assert make_params(lam=0.0, tau=1.0).total_energy == pytest.approx(
            make_params(lam=1e-9, tau=1.0).total_energy, rel=1e-9, abs=0)


class TestDeliveryShare:
    def test_single_relay(self):
        assert delivery_share(1, 0.223130) == pytest.approx(0.776870, abs=1e-9)

    def test_reference_cohort(self):
        assert delivery_share(7, 0.223130) == pytest.approx(0.14285320909842817,
                                                            rel=1e-13, abs=0)

    def test_certain_failure(self):
        for m in (1, 3, 10):
            assert delivery_share(m, 1.0) == 0.0

    def test_strictly_decreasing_in_cohort(self):
        values = [delivery_share(m, 0.3) for m in range(1, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDeliveryShareBruteforce:
    def test_single_term(self):
        assert delivery_share_bruteforce(1, 0.5) == 0.5

    def test_uniform_tie_at_zero_failure(self):
        assert delivery_share_bruteforce(3, 0.0) == pytest.approx(1 / 3, rel=1e-15, abs=0)

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
        assert u == pytest.approx(-ETA, rel=1e-12, abs=0)

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


class TestMixedSourceUtility:
    def test_zero_acceptance(self, base_params):
        assert expected_source_utility_mixed(0.0, base_params) == 0.0

    def test_single_relay_full_acceptance(self):
        params = make_params(n=1)
        expect = (1 - Q_TAU) * P_C
        assert expected_source_utility_mixed(1.0, params) == pytest.approx(expect,
                                                                           rel=1e-12, abs=0)

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
            pytest.approx(expect, rel=1e-12, abs=0)

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
        assert got == pytest.approx(total, rel=1e-12, abs=0)
        assert got == pytest.approx(-0.1129812725428147, rel=1e-12, abs=0)

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
                    pytest.approx(total, rel=1e-12, abs=0), (p, alpha)


def ulps_apart(a: float, b: float) -> int:
    """Representable doubles from a to b: the distance of their bit
    patterns on a line that runs through both zeros."""
    def line(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)
    return abs(line(a) - line(b))


class TestExactMixedOracle:
    # the measured worst cases were 1 and 3 at n = 7, 1 and 2 at n = 40
    DELIVERY_ULPS, RELAY_ULPS = 1, 3

    def test_ulps_apart_counts_representable_doubles(self):
        assert ulps_apart(1.0, math.nextafter(1.0, 2.0)) == 1
        assert ulps_apart(-0.0, 0.0) == 0
        assert ulps_apart(-5e-324, 5e-324) == 2
        assert ulps_apart(0.5, math.nextafter(1.0, 0.0)) == 2 ** 52 - 1

    @pytest.mark.parametrize("n", [7, 40])
    def test_mixed_closed_forms_meet_the_exact_event_model(self, n):
        # 101 accept probabilities at the reference's binding reward
        alpha = solve_ese(make_params()).alpha_star
        params = make_params(n=n)
        misses = []
        for i in range(101):
            p = i / 100
            delivery, relay = map(float, exact_mixed(params, p, alpha))
            got = expected_source_utility_mixed(p, params)
            if ulps_apart(got, delivery) > self.DELIVERY_ULPS:
                misses.append(("delivery", p, got, delivery, ulps_apart(got, delivery)))
            got = expected_relay_utility_mixed(p, alpha, params)
            if ulps_apart(got, relay) > self.RELAY_ULPS:
                misses.append(("relay utility", p, got, relay, ulps_apart(got, relay)))
        assert misses == [], f"n = {n}, alpha = {alpha!r}: (what, p, got, exact, ulps) {misses}"


class TestExactProfilePayoffs:
    """The cohort scoring under one accept probability per relay, against
    the exact Poisson-binomial oracle; a gap is accept minus decline."""

    # a spread profile, and the two near-pure ones at zero reward
    SPREAD = (0.9, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05)
    COHORT_OF_3 = (0.999,) * 3 + (0.001,) * 4
    FULL_COHORT = (0.999,) * 7

    @pytest.mark.parametrize("n, p", [(1, 0.5), (3, 0.3), (7, 0.0), (7, 0.05), (7, 0.5),
                                      (7, 0.999), (7, 1.0)])
    def test_a_symmetric_profile_mixes_to_the_exact_mixed_utility(self, n, p):
        params = make_params(n=n)
        alpha = solve_ese(make_params()).alpha_star
        delivery, utility = exact_mixed(params, p, alpha)
        for accept, decline in exact_profile_payoffs(params, [p] * n, alpha):
            assert Fraction(p) * accept + (1 - Fraction(p)) * decline == utility
        assert exact_profile_delivery(params, [p] * n) == delivery

    def test_relay_gap_meets_the_scored_windows(self):
        # relay 0 scored both ways on 100000 windows of seed 3, its
        # opponents' actions drawn from the flips of the profile
        params, alpha, windows = make_params(), 0.3, 100_000
        probs = np.array(self.SPREAD)
        accept, decline = exact_profile_payoffs(params, probs.tolist(), alpha)[0]
        exact = float(accept - decline)
        assert exact == pytest.approx(0.25559, abs=5e-6)
        flips, _ = _contacts(params, episode_rng(3).random((windows, _window(params.n))), MODEL)
        opponents = np.count_nonzero(flips[:, 1:] < probs[1:], axis=1)
        share = np.array(_cohort_shares(params))
        gaps = (_cohort_payoffs(params, share, opponents + 1, alpha)[0]
                - _cohort_payoffs(params, share, opponents, alpha)[1])
        se = gaps.std(ddof=1) / math.sqrt(windows)
        assert abs(gaps.mean() - exact) <= 3 * se, (gaps.mean(), se, exact)

    @pytest.mark.parametrize("probs, gaps", [
        # the cohort of 3: neither the three nor the four gain by switching
        (COHORT_OF_3, (0.01476,) * 3 + (-0.00127,) * 4),
        # the full cohort: each relay gains 0.0226 by declining
        (FULL_COHORT, (-0.02256,) * 7),
    ], ids=["cohort-of-3", "full-cohort"])
    def test_near_pure_profiles_at_zero_reward(self, probs, gaps):
        payoffs = exact_profile_payoffs(make_params(), probs, 0.0)
        assert [float(a - d) for a, d in payoffs] == pytest.approx(gaps, abs=5e-6)

    @pytest.mark.parametrize("probs", [SPREAD, COHORT_OF_3, FULL_COHORT],
                             ids=["spread", "cohort-of-3", "full-cohort"])
    def test_delivery_meets_the_drawn_windows(self, probs):
        # relay j accepts where its flip is below p_j on 100000 windows of
        # seed 3; an acceptance delivers where both contacts fall in time
        params, windows = make_params(), 100_000
        exact = float(exact_profile_delivery(params, probs))
        flips, reach = map(np.concatenate, zip(*_windows(params, 3, windows, MODEL)))
        got = np.count_nonzero(((flips < np.array(probs)) & reach).any(axis=1)) / windows
        se = math.sqrt(exact * (1.0 - exact) / windows)
        assert abs(got - exact) <= 3 * se, (got, exact, (got - exact) / se)

    def test_a_profile_needs_one_probability_per_relay(self):
        with pytest.raises(OracleDomainError, match="one probability per relay, got 6"):
            exact_profile_payoffs(make_params(), [0.5] * 6, 0.3)
        with pytest.raises(OracleDomainError, match="one probability per relay, got 6"):
            exact_profile_delivery(make_params(), [0.5] * 6)


def binomial_tagged_payoffs(alpha, p, params):
    """Oracle: the game's (accept, reject) payoffs mixed term by term over the
    binomial count k of accepting opponents, at cohort k+1."""
    n = params.n
    accept = reject = 0.0
    for k in range(n):
        weight = math.comb(n - 1, k) * p ** k * (1.0 - p) ** (n - 1 - k)
        u_accept, u_reject = cohort_payoffs(alpha, k + 1, params)
        accept += weight * u_accept
        reject += weight * u_reject
    return accept, reject


def binomial_mixed_utility(p, alpha, params):
    """Oracle for expected_relay_utility_mixed: the binomial-sum loop."""
    n = params.n
    total = 0.0
    for k in range(n):
        weight = math.comb(n - 1, k) * p ** k * (1.0 - p) ** (n - 1 - k)
        u_accept, u_reject = cohort_payoffs(alpha, k + 1, params)
        total += weight * (p * u_accept + (1.0 - p) * u_reject)
    return total


ORACLE_CONTACTS = [(0.0, 100.0), (1e-9, 100.0), (0.015, 100.0), (50.0, 100.0),
                   (1e308, 1e308)]


class TestTaggedShare:
    @pytest.mark.parametrize("lam,tau", ORACLE_CONTACTS)
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 64])
    def test_mixed_utility_matches_binomial_sum(self, n, lam, tau):
        params = make_params(n=n, lam=lam, tau=tau)
        for p in (0.0, 5e-324, 1e-310, 1e-9, 0.3, 0.5, 1.0):
            for alpha in (0.0, 0.7, params.alpha_max):
                want = binomial_mixed_utility(p, alpha, params)
                got = expected_relay_utility_mixed(p, alpha, params)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (p, alpha)

    @pytest.mark.parametrize("lam,tau", ORACLE_CONTACTS)
    def test_payoff_pair_matches_binomial_sums(self, lam, tau):
        params = make_params(n=40, lam=lam, tau=tau)
        for p in (0.0, 1e-310, 0.05, 0.5, 1.0):
            got = relay_payoffs(1.3, _tagged_share(p, params), params)
            want = binomial_tagged_payoffs(1.3, p, params)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), p
            # the mixed payoff mixes this very pair
            accept, reject = got
            assert expected_relay_utility_mixed(p, 1.3, params) == \
                p * accept + (1.0 - p) * reject, p

    def test_subnormal_p_keeps_the_p0_share(self, base_params):
        # a /(n p) form returns -0.85 here, against the -0.6938 of p = 0
        at_zero = expected_relay_utility_mixed(0.0, 0.7, base_params)
        assert expected_relay_utility_mixed(5e-324, 0.7, base_params) == \
            pytest.approx(at_zero, rel=1e-15, abs=0)

    @pytest.mark.parametrize("p", [1e-9, 0.0549, 0.5, 1.0])
    def test_indifference_reward_zeroes_the_binomial_gap(self, base_params, p):
        reward = tagged_indifference_reward(base_params, p)
        accept, reject = binomial_tagged_payoffs(reward, p, base_params)
        assert abs(accept - reject) <= 1e-12

    def test_indifference_reward_needs_contact(self):
        with pytest.raises(OracleDomainError):
            tagged_indifference_reward(make_params(lam=0.0), 0.5)


class TestWithParam:
    @pytest.mark.parametrize("var,value,field", [
        ("tau", 40.0, {"tau": 40.0}),
        ("lambda", 0.2, {"lam": 0.2}),
        ("n", 12.0, {"n": 12}),
        ("delta", 0.5, {"delta": 0.5})])
    def test_matches_dataclass_replace(self, base_params, var, value, field):
        assert with_param(base_params, var, value) == replace(base_params, **field)

    @pytest.mark.parametrize("var,value,name", [
        ("tau", 0.0, "tau"), ("lambda", -1.0, "lam"), ("n", 0.0, "n"),
        ("delta", 1.0, "delta"), ("tau", math.inf, "tau")])
    def test_validates_the_swept_value(self, base_params, var, value, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            with_param(base_params, var, value)

    def test_unknown_variable(self, base_params):
        with pytest.raises(ValueError, match="cannot sweep"):
            with_param(base_params, "sigma", 0.1)


class TestValidation:
    def test_contact_model_bounds(self):
        with pytest.raises(ValueError):
            make_params(lam=-0.1, tau=10.0)
        with pytest.raises(ValueError):
            make_params(lam=0.1, tau=0.0)

    def test_energy_model_bounds(self):
        with pytest.raises(ValueError):
            make_params(e=-1e-6, e_r=0.0, e_t=0.0)

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
    pairs = [
        (lambda params: [getattr(replace(params), name) for name in ("q", "reach", "total_energy")],
         (base_params,)),
        (storage_energy, (base_params,)),
        (delivery_share, (5, 0.37)),
        (relay_payoffs, (1.2, delivery_share(4, base_params.q), base_params)),
        (expected_relay_utility_mixed, (0.3, 1.2, base_params)),
        (expected_source_utility_mixed, (0.3, base_params)),
    ]
    for fn, args in pairs:
        assert fn(*args) == fn(*args)
