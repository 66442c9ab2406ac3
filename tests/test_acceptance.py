"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
appear.  Eight criteria pass.  Three fail for causes in the program that the
paper's abstract does not settle, and their messages carry the measured
numbers: criteria 5 and 10 because the mixed closed form pays a relay the
reduced share (1 - miss)/n while the simulator pays the tagged-relay share,
and criterion 8 because a relay learner's decline estimate moves only on the
rare iterations it declines, so it goes stale and the learners stay in a
cohort where declining pays more.

Criteria 8 and 9 check the learned play against the solution concept: a
satisfaction equilibrium is a profile where the source's delivery reaches
delta and every relay best-responds to the payoff the learners are fed.
"""
import math
import statistics
from collections import Counter
from typing import NamedTuple

import numpy as np

from dtnsat.equilibrium import (
    mixed_relay_payoffs,
    pareto_grid_scan,
    pure_indifference_gap,
    satisfaction_region,
    solve_ese,
    solve_mse,
    solve_pse,
)
from dtnsat.learning import Schedules, Trajectory, run_coupled
from dtnsat.model import (
    EXACT,
    delivery_share,
    delivery_share_bruteforce,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    relay_failure_probability,
    relay_payoffs,
)
from dtnsat.simulate import estimate_delivery, estimate_relay_utility
from conftest import make_params


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class Switch(NamedTuple):
    gain: float  # switch - stay
    stay: float  # payoff of the action played
    switch: float  # payoff of the other action
    verb: str  # "declining" or "accepting"


class Play(NamedTuple):
    traj: Trajectory
    alpha: float
    cohort: int
    best: Switch


def best_switch(params, alpha, cohort) -> Switch:
    """The most profitable one-relay switch from a terminal play.

    ``cohort`` relays accept and the payoff is the one the episode feed pays
    (EXACT model, miss ``q**cohort``).  The simulator scores a decliner as
    one more acceptor, so an acceptor that declines is compared at
    ``cohort`` and a decliner that accepts at ``cohort + 1``.  A gain <= 0
    means every relay best-responds.
    """
    q = relay_failure_probability(params.contact)
    options = []
    if cohort >= 1:
        accept, reject = relay_payoffs(alpha, cohort, q ** cohort, params, EXACT)
        options.append(Switch(reject - accept, accept, reject, "declining"))
    if cohort < params.n:
        accept, reject = relay_payoffs(alpha, cohort + 1, q ** (cohort + 1),
                                       params, EXACT)
        options.append(Switch(accept - reject, reject, accept, "accepting"))
    return max(options)


def learned_plays(params, schedules, seeds):
    """Terminal play of one episode-fed coupled run per seed.

    Each run gives a Play: alpha is the median reward over the last 500
    iterations, cohort the number of relays whose final accept probability
    is >= 1/2, and best the best switch there.  Delivery is estimated
    on 20000 episodes at the median over runs of the mean accept
    probability of the last 500 iterations.
    """
    runs, p_bars = [], []
    for seed in seeds:
        traj = run_coupled(params, schedules, seed)
        alpha = statistics.median(traj.alpha[-500:])
        cohort = sum(p >= 0.5 for p in traj.accept_probs[-1])
        runs.append(Play(traj, alpha, cohort, best_switch(params, alpha, cohort)))
        p_bars.append(sum(sum(p) / params.n for p in traj.accept_probs[-500:])
                      / 500)
    delivery = estimate_delivery(params, statistics.median(p_bars), 20_000,
                                 seed=900)
    return runs, delivery


def decline_estimates(traj, params, schedules):
    """Replay each relay's decline-payoff estimate over an episode-fed run.

    The episode feed pays every acceptor the EXACT accept payoff at the
    realized cohort, so a fed value that differs from it marks a decline,
    and only then does the estimate move by ``m_reject(k)``, as in
    ``_relay_update``.  Returns the estimates after the last iteration and the
    number of declines, per relay.
    """
    q = relay_failure_probability(params.contact)
    estimates = [0.0] * params.n
    declines = [0] * params.n
    for k, alpha, cohort, fed in zip(traj.steps, traj.alpha, traj.n_accept,
                                     traj.utilities):
        pay_accept = (relay_payoffs(alpha, cohort, q ** cohort, params, EXACT)[0]
                      if cohort else None)
        for i, u in enumerate(fed):
            if u != pay_accept:
                declines[i] += 1
                estimates[i] += schedules.m_reject(k) * (u - estimates[i])
    return estimates, declines


def tagged_payoffs(alpha, p, params):
    """EXACT (accept, reject) payoffs of a relay whose n-1 opponents accept with p.

    With k opponents accepting the relay holds the share of cohort k+1, the
    tagged-relay share the simulator pays; the mixed closed form pays the
    reduced share (1 - miss)/n instead.
    """
    n = params.n
    k = np.arange(n)
    weights = (np.array([math.comb(n - 1, j) for j in k])
               * p ** k * (1.0 - p) ** (n - 1 - k))
    q = relay_failure_probability(params.contact)
    accept, reject = relay_payoffs(alpha, k + 1, q ** (k + 1), params, EXACT)
    return float(weights @ accept), float(weights @ reject)


def tagged_indifference_reward(params, p):
    """Reward at which the tagged-relay accept-minus-reject gap is zero."""
    accept0, reject0 = tagged_payoffs(0.0, p, params)
    accept1, reject1 = tagged_payoffs(1.0, p, params)
    gap0 = accept0 - reject0
    return -gap0 / (accept1 - reject1 - gap0)


def test_criterion_01_closed_form_matches_bruteforce_oracle():
    worst = 0.0
    for m in range(1, 21):
        for i in range(21):
            q = i * 0.05
            gap = abs(delivery_share(m, q) - delivery_share_bruteforce(m, q))
            worst = max(worst, gap)
    report(1, worst <= 1e-12,
           f"delivery share closed form vs term-by-term sum, "
           f"worst |diff| = {worst:.3e} over n_active 1..20 x q 0..1")


def test_criterion_02_pure_equilibrium_indifference():
    params = make_params()
    sol = solve_pse(params)
    unclamped = sol.unclamped()
    worst = max(abs(pure_indifference_gap(alpha, m, params))
                for m, alpha in unclamped.items())
    ok = sol.n_a_min == 1 and len(unclamped) == 7 and worst <= 1e-9
    report(2, ok,
           f"n_a_min = {sol.n_a_min} (want 1), {len(unclamped)} unclamped "
           f"rewards, worst |U_accept - U_reject| = {worst:.3e}")


def test_criterion_03_binding_equilibrium_point():
    params = make_params()
    sol = solve_ese(params)
    p_err = abs(sol.p_star - 0.054867)
    bind_err = abs(expected_source_utility_mixed(sol.p_star, params) - 0.21)
    ok = p_err <= 1e-5 and bind_err <= 1e-9
    report(3, ok,
           f"p* = {sol.p_star:.8f} (|err| = {p_err:.2e} vs 1e-5), "
           f"|delivery(p*) - 0.21| = {bind_err:.2e} vs 1e-9")


def test_criterion_04_monte_carlo_agreement_at_binding_point():
    params = make_params()
    sol = solve_ese(params)
    trials = 100_000
    delivery = estimate_delivery(params, sol.p_star, trials, seed=104)
    d_err = abs(delivery.mean - 0.21)
    relay = estimate_relay_utility(params, sol.p_star, sol.alpha_star, trials,
                                   seed=204)
    expect = expected_relay_utility_mixed(sol.p_star, sol.alpha_star, params)
    r_err = abs(relay.mean - expect)
    ok = d_err <= 3 * delivery.stderr and r_err <= 3 * relay.stderr
    report(4, ok,
           f"delivery {delivery.mean:.5f} vs 0.21 ({d_err / delivery.stderr:.2f} se), "
           f"relay utility {relay.mean:.5f} vs {expect:.5f} "
           f"({r_err / relay.stderr:.2f} se), {trials} episodes")


def test_criterion_05_reward_and_acceptance_trends_in_lifetime_and_rate():
    lambdas = [0.005, 0.015, 0.05]
    taus = [float(t) for t in range(1, 501, 7)]
    checks = []
    # trends in tau at each lambda, over the feasible region
    for lam in lambdas:
        series = [(solve_mse(make_params(lam=lam, tau=t)), t) for t in taus]
        feas = [(sol.p_min, sol.alpha_of_p(sol.p_min))
                for sol, _ in series if sol.feasible]
        p_ok = all(a >= b - 1e-12 for (a, _), (b, _) in zip(feas, feas[1:]))
        a_ok = all(a >= b - 1e-12 for (_, a), (_, b) in zip(feas, feas[1:]))
        checks.append((f"p_min non-increasing in tau @lam={lam}", p_ok))
        checks.append((f"reward non-increasing in tau @lam={lam}", a_ok))
    # trends in lambda at a fixed feasible tau
    sols = [solve_mse(make_params(lam=lam, tau=100.0)) for lam in lambdas]
    p_seq = [s.p_min for s in sols]
    a_seq = [s.alpha_of_p(s.p_min) for s in sols]
    checks.append(("p_min non-increasing in lambda",
                   all(a >= b - 1e-12 for a, b in zip(p_seq, p_seq[1:]))))
    checks.append(("reward non-increasing in lambda",
                   all(a >= b - 1e-12 for a, b in zip(a_seq, a_seq[1:]))))
    failed = [name for name, ok in checks if not ok]
    ends = [make_params(lam=0.015, tau=t) for t in (20.0, 400.0)]
    end_sols = [solve_mse(params) for params in ends]
    shares = [(1.0 - (1.0 - s.z_star) ** params.n) / params.n
              for params, s in zip(ends, end_sols)]
    reduced = [s.alpha_of_p(s.p_min) for s in end_sols]
    tagged = [tagged_indifference_reward(params, s.p_min)
              for params, s in zip(ends, end_sols)]
    report(5, not failed,
           f"{len(checks) - len(failed)}/{len(checks)} trend checks hold"
           + (f"; violated: {failed}; at p_min the reduced share (1-miss)/n "
              f"is delta/n ({shares[0]:.4f} at tau=20, {shares[1]:.4f} at "
              f"tau=400), so the reduced reward moves only with the caching "
              f"cost: {reduced[0]:.4f} -> {reduced[1]:.4f} at lam=0.015 as tau "
              f"goes 20 -> 400; under the tagged-relay share the simulator "
              f"pays, the indifference reward falls instead: "
              f"{tagged[0]:.3f} -> {tagged[1]:.3f}"
              if failed else ""))


def test_criterion_06_acceptance_bound_decreases_with_fleet_size():
    p_mins = [solve_mse(make_params(n=n)).p_min for n in range(1, 31)]
    ok = all(a >= b - 1e-15 for a, b in zip(p_mins, p_mins[1:]))
    report(6, ok,
           f"p_min falls from {p_mins[0]:.4f} (n=1) to {p_mins[-1]:.5f} (n=30), "
           f"non-increasing over the whole range: {ok}")


def test_criterion_07_region_threshold_matches_grid_scan():
    lo, hi, points = 1.0, 500.0, 10_000
    step = (hi - lo) / (points - 1)
    worst = 0.0
    for lam in (0.005, 0.015, 0.05):
        params = make_params(lam=lam)
        bisected = satisfaction_region(params, "tau", lo, hi, fixed_p=1.0)
        grid_hit = next(
            lo + i * step for i in range(points)
            if expected_source_utility_mixed(
                1.0, make_params(lam=lam, tau=lo + i * step)) >= params.delta)
        worst = max(worst, abs(bisected - grid_hit))
    report(7, worst <= step,
           f"bisection vs 10000-point scan, worst |diff| = {worst:.4f} "
           f"(one grid step = {step:.4f})")


def test_criterion_08_coupled_learning_reaches_pure_equilibrium():
    params = make_params()
    pse = solve_pse(params)
    ese = solve_ese(params)
    schedules = Schedules(horizon=5000)
    runs, est = learned_plays(params, schedules, range(20))
    best = max(run.best for run in runs)
    settled = best.gain <= 0.0
    delivered = est.mean >= params.delta - 3 * est.stderr
    med_alpha = statistics.median(run.alpha for run in runs)
    cohort, count = Counter(run.cohort for run in runs).most_common(1)[0]
    stale, declines = [], []
    for run in runs:
        estimates, counts = decline_estimates(run.traj, params, schedules)
        stale += estimates
        declines += counts
    report(8, settled and delivered,
           f"median terminal reward {med_alpha:.4f} (closed form "
           f"{ese.alpha_star:.4f} binding / {pse.alpha_star[7]:.4f} full "
           f"cohort), cohort {cohort} in {count}/{len(runs)} runs, delivery "
           f"{est.mean:.3f} vs {params.delta}; largest switch gain "
           f"{best.gain:+.4f}: {best.verb} pays {best.switch:.4f} against "
           f"{best.stay:.4f}; the relays stay because only the played "
           f"action's estimate moves: a relay declined "
           f"{min(declines)}-{max(declines)} times in "
           f"{schedules.horizon} steps, and at the last step the decline "
           f"estimates read {min(stale):.2f} to {max(stale):.2f} (median "
           f"{statistics.median(stale):.2f})")


def test_criterion_09_coupled_learning_tracks_rising_targets():
    deltas = [0.02, 0.48, 0.65, 0.85]
    schedules = Schedules(horizon=5000)
    rows = []
    for delta in deltas:
        params = make_params(n=3, delta=delta)
        runs, est = learned_plays(params, schedules, range(5))
        rows.append((delta, runs, est))
    settled = all(run.best.gain <= 0.0 for _, runs, _ in rows for run in runs)
    delivered = all(est.mean >= delta - 3 * est.stderr
                    for delta, _, est in rows)
    summary = "; ".join(
        f"delta={d}: alpha={statistics.median(run.alpha for run in runs):.3f}, "
        f"cohort {Counter(run.cohort for run in runs).most_common(1)[0][0]}, "
        f"max switch gain {max(run.best.gain for run in runs):+.4f}, "
        f"delivery {est.mean:.3f} vs {d}"
        for d, runs, est in rows)
    report(9, settled and delivered,
           f"{summary}; every run a relay equilibrium of the episode payoff "
           f"{settled}, delivery meets target {delivered}")


def test_criterion_10_no_grid_point_dominates_binding_equilibrium():
    params = make_params()
    ese = solve_ese(params)
    dominators = pareto_grid_scan(params, ese, p_points=101, alpha_points=101)
    detail = f"{len(dominators)} dominating points on the 101x101 grid"
    if dominators:
        p, a, verdict = dominators[0]
        detail += (f"; e.g. (p={p:.2f}, alpha={a:.2f}) improves the source "
                   f"margin by {verdict.source_margin_delta:.4f} and the "
                   f"relay payoff by {verdict.relay_utility_delta:.4f}: "
                   f"cutting the reward relieves decliners of the forfeited "
                   f"share while more acceptance keeps the source satisfied")
        accept, reject = tagged_payoffs(ese.alpha_star, ese.p_star, params)
        reduced = mixed_relay_payoffs(ese.alpha_star, ese.p_star, params)
        detail += (f"; under the tagged-relay payoff this check scores, a "
                   f"relay at the binding point gains {accept - reject:.3f} "
                   f"by accepting ({accept:.3f} against {reject:.3f}), so the "
                   f"binding point is no relay equilibrium of it; solve_ese "
                   f"balances the reduced share instead ({reduced[0]:.3f} "
                   f"against {reduced[1]:.3f})")
    report(10, not dominators, detail)


def test_criterion_11_learning_output_is_reproducible(tmp_path):
    from dtnsat.experiments import emit_csv, parse_config, run_scenario
    from dataclasses import replace

    cfg = replace(parse_config("horizon = 5000\nseed = 11"), mode="learn")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_scenario(cfg), str(a))
    emit_csv(run_scenario(cfg), str(b))
    same = a.read_bytes() == b.read_bytes()
    report(11, same,
           f"learn-mode CSV with one seed, two runs: byte-identical = {same} "
           f"({a.stat().st_size} bytes)")
