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
import statistics
from collections import Counter
from typing import NamedTuple

import numpy as np

from dtnsat.equilibrium import (
    mse_columns,
    pareto_grid_scan,
    pse_columns,
    region_columns,
    solve_ese,
)
from dtnsat.model import (
    _tagged_share,
    delivery_share,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    relay_payoffs,
)
from dtnsat.simulate import estimate_delivery, estimate_relay_utility
from conftest import make_params
from oracles import delivery_share_bruteforce, mixed_relay_payoffs, pure_indifference_gap, \
    run_coupled_fed, tagged_indifference_reward


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class Switch(NamedTuple):
    gain: float  # switch - stay
    stay: float  # payoff of the action played
    switch: float  # payoff of the other action
    verb: str  # "declining" or "accepting"


class Play(NamedTuple):
    accepted: np.ndarray  # (H, n) actions the relays played
    fed: np.ndarray  # (H, n) utilities the relays were fed
    alpha: float
    cohort: int
    best: Switch


def best_switch(params, alpha, cohort) -> Switch:
    """The most profitable one-relay switch from a terminal play.

    ``cohort`` relays accept and the payoff is the one the episode feed pays
    (``relay_payoffs`` at ``delivery_share(cohort, q)``).  The simulator scores a decliner as
    one more acceptor, so an acceptor that declines is compared at
    ``cohort`` and a decliner that accepts at ``cohort + 1``.  A gain <= 0
    means every relay best-responds.
    """
    q = params.q
    options = []
    if cohort >= 1:
        accept, reject = relay_payoffs(alpha, delivery_share(cohort, q), params)
        options.append(Switch(reject - accept, accept, reject, "declining"))
    if cohort < params.n:
        accept, reject = relay_payoffs(alpha, delivery_share(cohort + 1, q), params)
        options.append(Switch(accept - reject, reject, accept, "accepting"))
    return max(options)


def learned_plays(params, horizon, seeds):
    """Terminal play of one episode-fed coupled run per seed.

    Each run gives a Play: alpha is the median reward over the last 500
    iterations, cohort the number of relays whose final accept probability
    is >= 1/2, and best the best switch there.  Delivery is estimated
    on 20000 episodes at the median over runs of the mean accept
    probability of the last 500 iterations.
    """
    runs, p_bars = [], []
    for seed in seeds:
        traj, accepted, fed = run_coupled_fed(params, horizon, seed)
        alpha = statistics.median(traj.alpha[-500:].tolist())
        cohort = sum(p >= 0.5 for p in traj.accept_probs[-1].tolist())
        runs.append(Play(accepted, fed, alpha, cohort, best_switch(params, alpha, cohort)))
        p_bars.append(sum(sum(p) / params.n for p in traj.accept_probs[-500:].tolist())
                      / 500)
    delivery = estimate_delivery(params, statistics.median(p_bars), 20_000,
                                 seed=900)
    return runs, delivery


def decline_estimates(run):
    """Replay each relay's decline-payoff estimate over a recorded run.

    The estimate moves by ``1/(1+k)**0.6`` toward the fed utility only on the
    steps where the relay declined, as in ``_relay_update``.  Returns the
    estimates after the last iteration and the number of declines, per relay.
    """
    estimates = [0.0] * run.fed.shape[1]
    declines = [0] * len(estimates)
    for k, accepted, fed in zip(range(1, len(run.fed) + 1), run.accepted.tolist(),
                                run.fed.tolist()):
        for i, (a, u) in enumerate(zip(accepted, fed)):
            if not a:
                declines[i] += 1
                estimates[i] += 1.0 / (1.0 + k) ** 0.6 * (u - estimates[i])
    return estimates, declines


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
    _, n_a, alpha_star, clamped, n_a_min, _ = pse_columns(params, None, ())
    unclamped = {int(m): a for m, a, c in zip(n_a.tolist(), alpha_star.tolist(), clamped)
                 if not c}
    worst = max(abs(pure_indifference_gap(alpha, m, params))
                for m, alpha in unclamped.items())
    n_a_min = int(n_a_min[0])
    ok = n_a_min == 1 and len(unclamped) == 7 and worst <= 1e-9
    report(2, ok,
           f"n_a_min = {n_a_min} (want 1), {len(unclamped)} unclamped "
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
        p_min, alpha, _, feasible = mse_columns(make_params(lam=lam), "tau", taus)
        feas = list(zip(p_min[feasible].tolist(), alpha[feasible].tolist()))
        p_ok = all(a >= b - 1e-12 for (a, _), (b, _) in zip(feas, feas[1:]))
        a_ok = all(a >= b - 1e-12 for (_, a), (_, b) in zip(feas, feas[1:]))
        checks.append((f"p_min non-increasing in tau @lam={lam}", p_ok))
        checks.append((f"reward non-increasing in tau @lam={lam}", a_ok))
    # trends in lambda at a fixed feasible tau
    p_seq, a_seq, _, _ = (column.tolist() for column in
                          mse_columns(make_params(tau=100.0), "lambda", lambdas))
    checks.append(("p_min non-increasing in lambda",
                   all(a >= b - 1e-12 for a, b in zip(p_seq, p_seq[1:]))))
    checks.append(("reward non-increasing in lambda",
                   all(a >= b - 1e-12 for a, b in zip(a_seq, a_seq[1:]))))
    failed = [name for name, ok in checks if not ok]
    ends = (20.0, 400.0)
    end_p, reduced, end_z, _ = (column.tolist() for column in
                                mse_columns(make_params(lam=0.015), "tau", ends))
    n = make_params().n
    shares = [(1.0 - (1.0 - z) ** n) / n for z in end_z]
    tagged = [tagged_indifference_reward(make_params(lam=0.015, tau=t), p)
              for t, p in zip(ends, end_p)]
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
    p_mins = mse_columns(make_params(), "n", range(1, 31))[0].tolist()
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
        crossing = region_columns(params, "tau", (lo, hi), 1.0)[1]
        grid_hit = next(
            lo + i * step for i in range(points)
            if expected_source_utility_mixed(
                1.0, make_params(lam=lam, tau=lo + i * step)) >= params.delta)
        worst = max(worst, abs(crossing - grid_hit))
    report(7, worst <= step,
           f"closed-form crossing vs 10000-point scan, worst |diff| = {worst:.4f} "
           f"(one grid step = {step:.4f})")


def test_criterion_08_coupled_learning_reaches_pure_equilibrium():
    params = make_params()
    _, n_a, pse_alpha, *_ = pse_columns(params, None, ())
    ese = solve_ese(params)
    horizon = 5000
    runs, est = learned_plays(params, horizon, range(20))
    best = max(run.best for run in runs)
    settled = best.gain <= 0.0
    delivered = est.mean >= params.delta - 3 * est.stderr
    med_alpha = statistics.median(run.alpha for run in runs)
    cohort, count = Counter(run.cohort for run in runs).most_common(1)[0]
    stale, declines = [], []
    for run in runs:
        estimates, counts = decline_estimates(run)
        stale += estimates
        declines += counts
    report(8, settled and delivered,
           f"median terminal reward {med_alpha:.4f} (closed form "
           f"{ese.alpha_star:.4f} binding / {pse_alpha[n_a == 7].item():.4f} full "
           f"cohort), cohort {cohort} in {count}/{len(runs)} runs, delivery "
           f"{est.mean:.3f} vs {params.delta}; largest switch gain "
           f"{best.gain:+.4f}: {best.verb} pays {best.switch:.4f} against "
           f"{best.stay:.4f}; the relays stay because only the played "
           f"action's estimate moves: a relay declined "
           f"{min(declines)}-{max(declines)} times in "
           f"{horizon} steps, and at the last step the decline "
           f"estimates read {min(stale):.2f} to {max(stale):.2f} (median "
           f"{statistics.median(stale):.2f})")


def test_criterion_09_coupled_learning_tracks_rising_targets():
    deltas = [0.02, 0.48, 0.65, 0.85]
    rows = []
    for delta in deltas:
        params = make_params(n=3, delta=delta)
        runs, est = learned_plays(params, 5000, range(5))
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
    dominators = pareto_grid_scan(params, ese)
    detail = f"{len(dominators)} dominating points on the 101x101 grid"
    if len(dominators):
        p, a, d_margin, d_relay = dominators[0].tolist()
        detail += (f"; e.g. (p={p:.2f}, alpha={a:.2f}) improves the source "
                   f"margin by {d_margin:.4f} and the "
                   f"relay payoff by {d_relay:.4f}: "
                   f"cutting the reward relieves decliners of the forfeited "
                   f"share while more acceptance keeps the source satisfied")
        accept, reject = relay_payoffs(ese.alpha_star, _tagged_share(ese.p_star, params),
                                       params)
        reduced = mixed_relay_payoffs(ese.alpha_star, ese.p_star, params)
        detail += (f"; under the tagged-relay payoff this check scores, a "
                   f"relay at the binding point gains {accept - reject:.3f} "
                   f"by accepting ({accept:.3f} against {reject:.3f}), so the "
                   f"binding point is no relay equilibrium of it; solve_ese "
                   f"balances the reduced share instead ({reduced[0]:.3f} "
                   f"against {reduced[1]:.3f})")
    report(10, len(dominators) == 0, detail)


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
