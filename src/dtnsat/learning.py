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
at once with one ``_relay_update`` call on a (2, n) array of payoff
estimates; iteration i reads window i of the simulator's stream.  Relay
payoffs can be fed two ways:

``episode``
    Each relay is paid its realized per-episode utility from the simulator
    (share-weighted payoff at the realized cohort).  Default.  With the
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
    Each relay is paid the reduced-model accept/reject payoff evaluated at
    the published reward and the current mean accept probability.  The
    coupled fixed point is then exactly the binding equilibrium returned by
    :func:`dtnsat.equilibrium.solve_ese` (see the fixed-point tests), but
    the stochastic dynamics do not settle there: at the reference scenario
    with horizon 5000, seeds 0-5 all end with the reward at the zero clamp
    and mean accept probabilities between 0.0012 and 0.999.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import mixed_relay_payoffs
from .model import GameParams, total_energy
from .simulate import MODEL, _cohort_payoffs, _cohort_shares, _contacts, _index, _window, \
    episode_rng

# iterations whose stream windows are drawn at once
_BLOCK = 256
# every accept probability stays in [PROB_FLOOR, 1 - PROB_FLOOR]
PROB_FLOOR = 1e-3
# The relay update's constants as 0-d arrays, since numpy converts a Python
# float operand on every call (a fifth of the update's cost at n = 7): one,
# log(1 + l) of the strategy step l = 0.1, the |exponent| cap of the ratio
# rule, the floor.
_ONE = np.array(1.0)
_LOG_STRATEGY_STEP = np.array(math.log1p(0.1))
_EXP_LO, _EXP_HI = np.array(-50.0), np.array(50.0)
_P_LO, _P_HI = np.array(PROB_FLOOR), np.array(1.0 - PROB_FLOOR)
# xor with the accept mask gives the (2, n) mask of the estimate each relay played
_DECLINE_ROW = np.array([[False], [True]])


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


def _relay_update(p: np.ndarray, est: np.ndarray, utility: np.ndarray, accepted: np.ndarray,
                  m: float) -> tuple[np.ndarray, np.ndarray]:
    """(accept prob, estimates) after one realized payoff per relay; ``est``
    is (2, n), the accept estimates over the decline estimates.

    Only the estimate matching the played action moves, by step ``m``.  The
    accept probability is then updated by the imitative ratio rule;
    exponents are clamped so extreme estimates cannot overflow, and each is
    taken with ``math.exp``, which ``np.exp`` can miss by an ulp.  In exact
    arithmetic the ratio rule keeps an interior probability interior
    forever; the clamp into [PROB_FLOOR, 1 - PROB_FLOOR] keeps it so under
    floating point.  ``utility`` is not checked here: ``run_coupled`` checks
    the payoff pair it is built from.
    """
    est = np.where(accepted ^ _DECLINE_ROW, est + m * (utility - est), est)
    t = _clamp(est * _LOG_STRATEGY_STEP)
    ratio = np.fromiter(map(math.exp, _clamp(t[1] - t[0]).tolist()), float, len(p))
    # p' = p e^{t_a} / (p e^{t_a} + (1-p) e^{t_r}), stable form
    new_p = _ONE / (_ONE + (_ONE - p) / p * ratio)
    return np.minimum(np.maximum(new_p, _P_LO), _P_HI), est


def _clamp(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, _EXP_LO), _EXP_HI)


EPISODE = "episode"
MEAN_FIELD = "mean-field"
FEEDS = (EPISODE, MEAN_FIELD)


@dataclass(frozen=True)
class Trajectory:
    """The arrays one coupled run fills, row k - 1 for step k: (H, n) for
    ``accept_probs`` and ``utilities``, (H,) for the rest."""

    alpha: np.ndarray
    u_s_est: np.ndarray
    accept_probs: np.ndarray
    utilities: np.ndarray
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
    bit-identical to stepping ``simulate_episode`` on window i of the
    ``seed`` stream, then ``_score_relays`` on its acceptances (episode
    feed), then each relay and the source in turn.  A shorter run is a
    prefix of a longer one with the same seed.
    """
    if feed not in FEEDS:
        raise ValueError(f"feed must be one of {FEEDS}, got {feed!r}")
    horizon = _index("horizon", horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n = params.n
    rng = episode_rng(seed, 0, n)
    alpha, estimate = params.alpha_max / 2.0, 0.0
    p, est = np.full(n, 0.5), np.zeros((2, n))
    share, cost = _cohort_shares(params).tolist(), total_energy(params)
    alphas, estimates = np.empty((2, horizon))
    probs, fed = np.empty((2, horizon, n))
    n_accept = np.empty(horizon, dtype=int)
    delivered = np.empty(horizon, dtype=bool)

    for start in range(0, horizon, _BLOCK):
        # iteration i reads window i, so a block is drawn ahead of the state
        u = rng.random((min(_BLOCK, horizon - start), _window(n)))
        flips, reach = _contacts(params, u, contact_mode)
        for i, flip, can_deliver in zip(range(start, horizon), flips, reach):
            k = i + 1
            alphas[i] = alpha
            probs[i] = p
            accepted = flip < p
            cohort = n_accept[i] = np.count_nonzero(accepted)
            if feed == EPISODE:
                pay_accept, pay_reject = _cohort_payoffs(params, share, cost, cohort, alpha)
            else:
                # a sequential sum, as over a list; np.sum pairs terms and can
                # differ in the last bit from n = 8 on
                pay_accept, pay_reject = mixed_relay_payoffs(alpha, sum(p.tolist()) / n, params)
            if not (math.isfinite(pay_accept) and math.isfinite(pay_reject)):
                bad = pay_reject if math.isfinite(pay_accept) else pay_accept
                raise ValueError(f"realized utility must be finite, got {bad}")
            utility = fed[i] = np.where(accepted, pay_accept, pay_reject)
            p, est = _relay_update(p, est, utility, accepted, 1.0 / (1.0 + k) ** 0.6)
            hit = delivered[i] = np.count_nonzero(accepted & can_deliver) > 0
            alpha, estimate = _source_update(alpha, estimate, params.delta, params.alpha_max,
                                             float(hit), 1.0 / (1.0 + k))
            estimates[i] = estimate

    return Trajectory(alpha=alphas, u_s_est=estimates, accept_probs=probs,
                      utilities=fed, n_accept=n_accept, delivered=delivered)
