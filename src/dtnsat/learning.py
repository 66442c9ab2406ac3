"""Stochastic learners for the source reward and the relay accept policies.

The source runs a clamped stochastic-approximation update that tracks its
observed delivery rate and steers the reward so that delivery approaches
the target; at the zero clamp the reward cannot fall further, so delivery
can stay above the target.
Each relay runs an imitative payoff-and-strategy learner (Tembine,
"Distributed Strategic Learning for Wireless Engineers", CRC 2012): payoff
estimates for the two actions move only when the matching action was
played, and the accept probability follows a multiplicative ratio rule
computed in log space.  The step sizes are fixed: at step k the source
moves by 1/(1+k), a relay's estimate by 1/(1+k)**0.6 and its strategy by
0.1, and every accept probability stays in [PROB_FLOOR, 1 - PROB_FLOOR].

``run_coupled`` wires both to the episode simulator, stepping all relays
with one ``_relay_update`` call per iteration, a loop in Python floats
(up to n = 40, numpy's per-call cost outweighs the arithmetic); iteration i
reads window i of the simulator's stream.  Relay payoffs can be fed two ways:

``episode``
    Each relay is paid its realized per-episode utility on the simulator's
    episode, ``model._cohort_payoffs`` at the realized cohort.  Default.  With the
    reference constants the learned reward settles on the zero clamp with
    nearly every relay accepting.  At n = 3 that is an equilibrium of this
    payoff: in the full cohort at reward 0, accepting pays 0.0148 more than
    declining.  At n = 7 it is not: declining pays -0.1500 against -0.1726
    for accepting.  Over seeds 0-19, 139 of the 140 relays stay at accept
    probability 1 - PROB_FLOOR (the other falls to PROB_FLOOR) and rarely
    decline there (7 to 37 times in 5000 steps), so their decline estimates
    keep the low payoffs of the early high-reward iterations (-0.73 to
    -0.20 at step 5000).

``mean-field``
    Each relay is paid :func:`dtnsat.model.reduced_payoffs` of the fleet at
    the published reward and the mean accept probability p, with z = s*p,
    where s, the per-relay success at p = 1, and the reduced cost are read
    once per run from :func:`dtnsat.equilibrium._sweep_point`.  The
    coupled fixed point is then exactly the binding equilibrium returned by
    :func:`dtnsat.equilibrium.solve_ese` (see the fixed-point tests), but
    the stochastic dynamics do not settle there: at the reference scenario
    with horizon 5000, seeds 0-5 all end with the reward at the zero clamp
    and mean accept probabilities between 0.0012 and 0.999.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .equilibrium import _sweep_point
from .model import GameParams, _any_delivers, _cohort_payoffs, _cohort_shares, reduced_payoffs
from .simulate import MODEL, _index, _windows

# every accept probability stays in [PROB_FLOOR, 1 - PROB_FLOOR]
PROB_FLOOR = 1e-3
_P_HI = 1.0 - PROB_FLOOR
# log(1 + l) of the relays' strategy step l = 0.1
_LOG_STRATEGY_STEP = math.log1p(0.1)


def _source_update(alpha: float, estimate: float, target: float, alpha_max: float,
                   observed: float, epsilon_k: float) -> tuple[float, float]:
    """(reward, estimate) after one observed payoff.

    The estimate tracks the observation stream and the reward moves by the
    remaining gap to the target, clamped into [0, alpha_max].  Delivery
    sits on the target only while the reward is inside that range: at the
    zero clamp it stays above the target (n = 3, delta = 0.02: delivery
    0.937 with the reward at 0).
    """
    estimate = estimate + epsilon_k * (observed - estimate)
    alpha = alpha + epsilon_k * (target - estimate)
    return min(max(alpha, 0.0), alpha_max), estimate


def _relay_update(p: list[float], est: tuple[list[float], list[float]], accepted: list[bool],
                  pay: tuple[float, float], m: float) -> tuple[list[float], tuple]:
    """(accept probs, estimates) as new lists after one step that paid each
    relay ``pay[0]`` if it accepted, else ``pay[1]`` (checked by the caller);
    ``est`` is the pair (accept estimates, decline estimates).

    Only the played estimate moves, by step ``m``.  The accept probability
    then follows the imitative ratio rule.  Its two exponents are clamped
    to +-50, so extreme estimates cannot overflow, and the result into
    [PROB_FLOOR, 1 - PROB_FLOOR], which keeps it interior under floating
    point as exact arithmetic would.  Each clamp is a conditional
    expression: a call per value costs more than the arithmetic.
    """
    pay_accept, pay_reject = pay
    new_p, new_a, new_r = [], [], []
    for q, e_a, e_r, a in zip(p, *est, accepted):
        if a:
            e_a += m * (pay_accept - e_a)
        else:
            e_r += m * (pay_reject - e_r)
        new_a.append(e_a)
        new_r.append(e_r)
        t_a, t_r = e_a * _LOG_STRATEGY_STEP, e_r * _LOG_STRATEGY_STEP
        t_a = -50.0 if t_a < -50.0 else 50.0 if t_a > 50.0 else t_a
        t_r = -50.0 if t_r < -50.0 else 50.0 if t_r > 50.0 else t_r
        # p' = p e^{t_a} / (p e^{t_a} + (1-p) e^{t_r}), stable form
        q = 1.0 / (1.0 + (1.0 - q) / q * math.exp(t_r - t_a))
        new_p.append(PROB_FLOOR if q < PROB_FLOOR else _P_HI if q > _P_HI else q)
    return new_p, (new_a, new_r)


EPISODE = "episode"
MEAN_FIELD = "mean-field"
FEEDS = (EPISODE, MEAN_FIELD)


@dataclass(frozen=True)
class Trajectory:
    """The five arrays one coupled run fills and ``learn`` writes, row k - 1
    for step k: ``accept_probs`` of shape (H, n), ``alpha``, ``u_s_est``,
    ``n_accept`` and ``delivered`` of shape (H,)."""

    alpha: np.ndarray
    u_s_est: np.ndarray
    accept_probs: np.ndarray
    n_accept: np.ndarray
    delivered: np.ndarray


def run_coupled(params: GameParams, horizon: int, seed: int,
                feed: str = EPISODE, contact_mode: str = MODEL) -> Trajectory:
    """Drive the source and relay learners against seeded episodes for
    ``horizon`` iterations.

    Per iteration: the source publishes its reward, every relay draws an
    action, one episode realizes contacts and delivery, relay payoffs are
    fed back per the chosen feed, and the delivery indicator updates the
    source.  A step's feed is one checked (accept, decline) pair of floats,
    from the run's share table at the count in ``n_accept[i]`` (episode
    feed), spread over the relays by their actions.  The run is
    bit-identical to scoring window i of ``simulate._windows`` as one
    episode with one accept probability per relay, paying its acceptances
    the sides of ``_cohort_payoffs`` they played (episode feed), then
    stepping each relay and the source in turn.  A shorter run is a prefix
    of a longer one with the same seed.  Returns the five arrays that
    ``learn`` writes (:class:`Trajectory`); the actions and fed pairs are
    not kept.
    """
    if feed not in FEEDS:
        raise ValueError(f"feed must be one of {FEEDS}, got {feed!r}")
    horizon = _index("horizon", horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n = params.n
    windows = _windows(params, seed, horizon, contact_mode)
    alpha, estimate = params.alpha_max / 2.0, 0.0
    p, est = [0.5] * n, ([0.0] * n, [0.0] * n)
    if feed == EPISODE:
        share = _cohort_shares(params)
    else:
        ceiling, cost = (column.item() for column in _sweep_point(params, None, ())[3:])
    alphas, estimates = np.empty((2, horizon))
    probs = np.empty((horizon, n))
    n_accept = np.empty(horizon, dtype=int)
    delivered = np.empty(horizon, dtype=bool)

    # iteration i reads window i, so a block is drawn ahead of the state
    rows = chain.from_iterable(zip(flips.tolist(), reach.tolist()) for flips, reach in windows)
    for i, (flip, can_deliver) in enumerate(rows):
        k = i + 1
        alphas[i] = alpha
        probs[i] = p
        accepted = list(map(operator.lt, flip, p))
        cohort = n_accept[i] = sum(accepted)
        if feed == EPISODE:
            pay = _cohort_payoffs(params, share, cohort, alpha)
        else:
            z = ceiling * (sum(p) / n)
            pay = reduced_payoffs(alpha, n, _any_delivers(z, n), (1.0 - z) ** n, cost, params)
        if not (math.isfinite(pay[0]) and math.isfinite(pay[1])):
            bad = pay[1] if math.isfinite(pay[0]) else pay[0]
            raise ValueError(f"realized utility must be finite, got {bad}")
        p, est = _relay_update(p, est, accepted, pay, 1.0 / (1.0 + k) ** 0.6)
        hit = delivered[i] = any(map(operator.and_, accepted, can_deliver))
        alpha, estimate = _source_update(alpha, estimate, params.delta, params.alpha_max,
                                         float(hit), 1.0 / (1.0 + k))
        estimates[i] = estimate

    return Trajectory(alpha=alphas, u_s_est=estimates, accept_probs=probs, n_accept=n_accept,
                      delivered=delivered)
