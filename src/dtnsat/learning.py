"""Stochastic learners for the source reward and the relay accept policies.

The source runs a clamped stochastic-approximation update that tracks its
observed delivery rate and steers the reward until the rate sits on the
target.  Each relay runs an imitative payoff-and-strategy learner: payoff
estimates for the two actions move only when the matching action was played,
and the accept probability follows a multiplicative ratio rule computed in
log space.

``run_coupled`` wires both to the episode simulator.  Relay payoffs can be
fed two ways:

``episode``
    Each relay is paid its realized per-episode utility from the simulator
    (share-weighted payoff at the realized cohort).  Default.  Note that
    with the reference regret constants the decline regret exceeds the
    expected caching loss for small cohorts, so relays end up cooperating
    for free and the learned reward settles on the zero clamp.

``mean-field``
    Each relay is paid the reduced-model accept/reject payoff evaluated at
    the published reward and the current mean accept probability.  The
    coupled fixed point is then exactly the binding equilibrium returned by
    :func:`dtnsat.equilibrium.solve_ese` (see the fixed-point tests), but
    that point is locally unstable under the coupled stochastic dynamics,
    so trajectories orbit it rather than settling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .equilibrium import mixed_relay_payoffs
from .model import GameParams
from .simulate import MODEL, simulate_episode

RateFn = Callable[[int], float]

# |exponent| cap for the multiplicative strategy rule
_EXP_CLAMP = 50.0


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
    prob_floor: float = 1e-3

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.prob_floor < 0.5:
            raise ValueError(f"prob_floor must be in [0, 0.5), got {self.prob_floor}")
        for name in ("epsilon", "m_accept", "m_reject", "l_accept", "l_reject"):
            fn = getattr(self, name)
            for k in (1, 2, self.horizon):
                rate = fn(k)
                if not 0.0 < rate <= 1.0:
                    raise ValueError(f"{name}({k}) = {rate} outside (0, 1]")

    @staticmethod
    def constant(epsilon: float, m: float = 0.1, l: float = 0.1,
                 horizon: int = 5000) -> "Schedules":
        """Constant-rate variant, handy for tracking experiments."""
        return Schedules(epsilon=lambda k: epsilon,
                         m_accept=lambda k: m, m_reject=lambda k: m,
                         l_accept=lambda k: l, l_reject=lambda k: l,
                         horizon=horizon)


@dataclass(frozen=True)
class SourceLearnerState:
    alpha: float
    payoff_estimate: float
    target: float
    alpha_max: float
    step: int = 0


@dataclass(frozen=True)
class RelayLearnerState:
    accept_prob: float
    est_accept: float
    est_reject: float
    step: int = 0


def source_step(state: SourceLearnerState, observed_payoff: float,
                epsilon_k: float) -> SourceLearnerState:
    """One reward update from one observed payoff.

    The estimate tracks the observation stream and the reward moves by the
    remaining gap to the target, clamped into [0, alpha_max].
    """
    if not 0.0 < epsilon_k <= 1.0:
        raise ValueError(f"epsilon_k must be in (0, 1], got {epsilon_k}")
    estimate = state.payoff_estimate + epsilon_k * (observed_payoff - state.payoff_estimate)
    alpha = state.alpha + epsilon_k * (state.target - estimate)
    alpha = min(max(alpha, 0.0), state.alpha_max)
    return replace(state, alpha=alpha, payoff_estimate=estimate, step=state.step + 1)


@dataclass(frozen=True)
class RelayRates:
    m_accept: float
    m_reject: float
    l_accept: float
    l_reject: float


def relay_step(state: RelayLearnerState, realized_utility: float,
               accepted: bool, rates: RelayRates,
               prob_floor: float = 0.0) -> RelayLearnerState:
    """One estimate-and-strategy update from one realized payoff.

    Only the estimate matching the played action moves.  The accept
    probability is then updated by the imitative ratio rule; exponents are
    clamped so extreme estimates cannot overflow.  In exact arithmetic the
    ratio rule keeps an interior probability interior forever; a nonzero
    ``prob_floor`` preserves that property under floating point (with the
    default 0.0 a probability that rounds to a pure strategy stays pure).
    """
    if not math.isfinite(realized_utility):
        raise ValueError(f"realized utility must be finite, got {realized_utility}")
    if not 0.0 <= prob_floor < 0.5:
        raise ValueError(f"prob_floor must be in [0, 0.5), got {prob_floor}")
    est_a, est_r = state.est_accept, state.est_reject
    if accepted:
        est_a = est_a + rates.m_accept * (realized_utility - est_a)
    else:
        est_r = est_r + rates.m_reject * (realized_utility - est_r)

    p = state.accept_prob
    if 0.0 < p < 1.0:
        t_a = _clamp(est_a * math.log1p(rates.l_accept))
        t_r = _clamp(est_r * math.log1p(rates.l_reject))
        # p' = p e^{t_a} / (p e^{t_a} + (1-p) e^{t_r}), stable form
        p = 1.0 / (1.0 + (1.0 - p) / p * math.exp(_clamp(t_r - t_a)))
        if prob_floor > 0.0:
            p = min(max(p, prob_floor), 1.0 - prob_floor)
    return RelayLearnerState(accept_prob=p, est_accept=est_a, est_reject=est_r,
                             step=state.step + 1)


def _clamp(x: float) -> float:
    return min(max(x, -_EXP_CLAMP), _EXP_CLAMP)


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
                alpha0: Optional[float] = None, p0: float = 0.5,
                target: Optional[float] = None) -> Trajectory:
    """Drive the source and relay learners against seeded episodes.

    Per iteration: the source publishes its reward, every relay draws an
    action, one episode realizes contacts and delivery, relay payoffs are
    fed back per the chosen feed, and the delivery indicator updates the
    source.  Identical seeds give identical trajectories.
    """
    if feed not in _FEEDS:
        raise ValueError(f"feed must be one of {_FEEDS}, got {feed!r}")
    if alpha0 is None:
        alpha0 = params.alpha_max / 2.0
    source = SourceLearnerState(alpha=alpha0, payoff_estimate=0.0,
                                target=params.delta if target is None else target,
                                alpha_max=params.alpha_max)
    relays = [RelayLearnerState(accept_prob=p0, est_accept=0.0, est_reject=0.0)
              for _ in range(params.n)]
    traj = Trajectory(n=params.n)
    # one sequential stream per run; iterations consume it in order
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))

    for k in range(1, schedules.horizon + 1):
        alpha_k = source.alpha
        probs = [r.accept_prob for r in relays]
        episode = simulate_episode(params, probs, alpha_k, seed, trial=k,
                                   mode=contact_mode, rng=rng)
        if feed == EPISODE:
            fed = list(episode.per_relay_utility)
        else:
            p_bar = sum(probs) / params.n
            pay_accept, pay_reject = mixed_relay_payoffs(alpha_k, p_bar, params)
            fed = [pay_accept if a else pay_reject for a in episode.accepted]
        rates = RelayRates(m_accept=schedules.m_accept(k),
                           m_reject=schedules.m_reject(k),
                           l_accept=schedules.l_accept(k),
                           l_reject=schedules.l_reject(k))
        relays = [relay_step(r, fed[i], episode.accepted[i], rates,
                             prob_floor=schedules.prob_floor)
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
