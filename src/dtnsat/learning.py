"""Stochastic learners for the source reward and the relay accept policies.

The source runs a clamped stochastic-approximation update that tracks its
observed delivery rate and steers the reward so that delivery approaches
the target; at the zero clamp the reward cannot fall further, so delivery
can stay above the target.
Each relay runs an imitative payoff-and-strategy learner: payoff estimates
for the two actions move only when the matching action was played, and the
accept probability follows a multiplicative ratio rule computed in log
space.

``run_coupled`` wires both to the episode simulator, stepping all relays
at once with one elementwise update.
Relay payoffs can be fed two ways:

``episode``
    Each relay is paid its realized per-episode utility from the simulator
    (share-weighted payoff at the realized cohort).  Default.  With the
    reference constants the learned reward settles on the zero clamp with
    every relay accepting.  At n = 3 that is an equilibrium of this payoff:
    in the full cohort at reward 0, accepting pays 0.0148 more than
    declining.  At n = 7 it is not: declining pays -0.1500 against -0.1726
    for accepting.  The relays stay because a relay held at accept
    probability 1 - PROB_FLOOR rarely declines (8 to 46 times in 5000 steps
    over seeds 0-19), so its decline estimate keeps the low payoffs of the
    early high-reward iterations (-0.76 to -0.19 at step 5000).

``mean-field``
    Each relay is paid the reduced-model accept/reject payoff evaluated at
    the published reward and the current mean accept probability.  The
    coupled fixed point is then exactly the binding equilibrium returned by
    :func:`dtnsat.equilibrium.solve_ese` (see the fixed-point tests), but
    the stochastic dynamics do not settle there: at the reference scenario
    with horizon 5000, seeds 0-5 all end with the reward at the zero clamp
    and mean accept probabilities between 0.57 and 0.999.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .equilibrium import mixed_relay_payoffs
from .model import GameParams, relay_failure_probability, total_energy
from .simulate import MODEL, _race, _score_relays

RateFn = Callable[[int], float]

# |exponent| cap for the multiplicative strategy rule
_EXP_CLAMP = 50.0
# run_coupled keeps every accept probability in [PROB_FLOOR, 1 - PROB_FLOOR]
PROB_FLOOR = 1e-3


def _default_epsilon(k: int) -> float:
    return 1.0 / (1.0 + k)


def _default_estimate_rate(k: int) -> float:
    return 1.0 / (1.0 + k) ** 0.6


def _default_strategy_rate(k: int) -> float:
    return 0.1


@dataclass(frozen=True)
class Schedules:
    """Step-size sequences for both learners plus the iteration horizon."""

    epsilon: RateFn = _default_epsilon
    m_accept: RateFn = _default_estimate_rate
    m_reject: RateFn = _default_estimate_rate
    l_accept: RateFn = _default_strategy_rate
    l_reject: RateFn = _default_strategy_rate
    horizon: int = 5000
    _table: dict[str, list[float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        # every rate of every step, evaluated and checked once
        table = {name: [getattr(self, name)(k) for k in range(1, self.horizon + 1)]
                 for name in ("epsilon", "m_accept", "m_reject", "l_accept", "l_reject")}
        for name, rates in table.items():
            for k, rate in enumerate(rates, start=1):
                if not 0.0 < rate <= 1.0:
                    raise ValueError(f"{name}({k}) = {rate} outside (0, 1]")
        object.__setattr__(self, "_table", table)


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


def _relay_update(p: np.ndarray, est_a: np.ndarray, est_r: np.ndarray, utility: np.ndarray,
                  accepted: np.ndarray, m_accept: float, m_reject: float, l_accept: float,
                  l_reject: float, prob_floor: float) -> tuple[np.ndarray, ...]:
    """(accept prob, accept estimate, decline estimate) arrays after one
    realized payoff per relay.

    Only the estimate matching the played action moves.  The accept
    probability is then updated by the imitative ratio rule; exponents are
    clamped so extreme estimates cannot overflow, and each is taken with
    ``math.exp``, which ``np.exp`` can miss by an ulp.  In exact arithmetic
    the ratio rule keeps an interior probability interior forever; a nonzero
    ``prob_floor`` clamps it into [prob_floor, 1 - prob_floor] so that it
    stays so under floating point.  With ``prob_floor`` 0 a probability at
    0 or 1 absorbs: it stays pure whatever the payoffs.
    """
    finite = np.isfinite(utility)
    if not finite.all():
        raise ValueError(f"realized utility must be finite, got {utility[~finite][0]}")
    if not 0.0 <= prob_floor < 0.5:
        raise ValueError(f"prob_floor must be in [0, 0.5), got {prob_floor}")
    est_a = np.where(accepted, est_a + m_accept * (utility - est_a), est_a)
    est_r = np.where(accepted, est_r, est_r + m_reject * (utility - est_r))

    interior = (p > 0.0) & (p < 1.0)
    safe_p = np.where(interior, p, 0.5)
    t_a = _clamp(est_a * math.log1p(l_accept))
    t_r = _clamp(est_r * math.log1p(l_reject))
    ratio = np.array([math.exp(x) for x in _clamp(t_r - t_a).tolist()])
    # p' = p e^{t_a} / (p e^{t_a} + (1-p) e^{t_r}), stable form
    new_p = 1.0 / (1.0 + (1.0 - safe_p) / safe_p * ratio)
    if prob_floor > 0.0:
        new_p = np.minimum(np.maximum(new_p, prob_floor), 1.0 - prob_floor)
    return np.where(interior, new_p, p), est_a, est_r


def _clamp(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, -_EXP_CLAMP), _EXP_CLAMP)


EPISODE = "episode"
MEAN_FIELD = "mean-field"
_FEEDS = (EPISODE, MEAN_FIELD)


@dataclass
class Trajectory:
    """Per-iteration record of one coupled run."""

    n: int
    steps: list[int] = field(default_factory=list)
    alpha: list[float] = field(default_factory=list)
    u_s_est: list[float] = field(default_factory=list)
    accept_probs: list[tuple[float, ...]] = field(default_factory=list)
    utilities: list[tuple[float, ...]] = field(default_factory=list)
    n_accept: list[int] = field(default_factory=list)
    delivered: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def csv_header(self) -> list[str]:
        return (["k", "alpha", "u_s_est"]
                + [f"p_{i + 1}" for i in range(self.n)]
                + ["n_accept", "delivered"])

    def csv_rows(self) -> list[list[float]]:
        rows = []
        for i, k in enumerate(self.steps):
            rows.append([k, self.alpha[i], self.u_s_est[i],
                         *self.accept_probs[i],
                         self.n_accept[i], int(self.delivered[i])])
        return rows


def run_coupled(params: GameParams, schedules: Schedules, seed: int,
                feed: str = EPISODE, contact_mode: str = MODEL,
                alpha0: Optional[float] = None) -> Trajectory:
    """Drive the source and relay learners against seeded episodes.

    Per iteration: the source publishes its reward, every relay draws an
    action, one episode realizes contacts and delivery, relay payoffs are
    fed back per the chosen feed, and the delivery indicator updates the
    source.  Relay state is three length-n arrays (accept probability and
    the two estimates), bit-identical to stepping ``simulate_episode`` and
    then each relay and the source in turn.  Identical seeds give identical
    trajectories.
    """
    if feed not in _FEEDS:
        raise ValueError(f"feed must be one of {_FEEDS}, got {feed!r}")
    if alpha0 is None:
        alpha0 = params.alpha_max / 2.0
    n, horizon = params.n, schedules.horizon
    alpha, estimate = alpha0, 0.0
    p, est_a, est_r = np.full(n, 0.5), np.zeros(n), np.zeros(n)
    q, cost = relay_failure_probability(params.contact), total_energy(params)
    lam, never = params.contact.lam, np.full((2, n), np.inf)
    alphas, estimates = np.empty((2, horizon))
    probs, fed = np.empty((2, horizon, n))
    n_accept = np.empty(horizon, dtype=int)
    delivered = np.empty(horizon, dtype=bool)
    # one sequential stream per run; each iteration draws n flips, then n
    # source and n destination contact times (none at lam = 0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))

    rates = zip(*schedules._table.values())
    for i, (epsilon, m_accept, m_reject, l_accept, l_reject) in enumerate(rates):
        alphas[i] = alpha
        probs[i] = p
        flips = rng.random(n)
        times = rng.exponential(1.0 / lam, size=(2, n)) if lam > 0 else never
        _, accepted, success, _ = _race(params, p, flips, times[0], times[1], contact_mode)
        if feed == EPISODE:
            fed[i] = _score_relays(params, q, cost, accepted, alpha)
        else:
            # a sequential sum, as over a list; np.sum pairs terms and can
            # differ in the last bit from n = 8 on
            fed[i] = np.where(accepted, *mixed_relay_payoffs(alpha, sum(p.tolist()) / n, params))
        p, est_a, est_r = _relay_update(p, est_a, est_r, fed[i], accepted, m_accept,
                                        m_reject, l_accept, l_reject, PROB_FLOOR)
        delivered[i] = success.any()
        alpha, estimate = _source_update(alpha, estimate, params.delta, params.alpha_max,
                                         float(delivered[i]), epsilon)
        estimates[i] = estimate
        n_accept[i] = accepted.sum()

    return Trajectory(n=n, steps=list(range(1, horizon + 1)),
                      alpha=alphas.tolist(), u_s_est=estimates.tolist(),
                      accept_probs=list(map(tuple, probs.tolist())),
                      utilities=list(map(tuple, fed.tolist())),
                      n_accept=n_accept.tolist(), delivered=delivered.tolist())
