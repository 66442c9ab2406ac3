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
at once with the elementwise rule that ``relay_step`` applies to one relay.
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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .equilibrium import mixed_relay_payoffs
from .model import GameParams, relay_failure_probability
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
    remaining gap to the target, clamped into [0, alpha_max].  Delivery
    sits on the target only while the reward is inside that range: at the
    zero clamp it stays above the target (n = 3, delta = 0.02: delivery
    0.937 with the reward at 0).
    """
    if not 0.0 < epsilon_k <= 1.0:
        raise ValueError(f"epsilon_k must be in (0, 1], got {epsilon_k}")
    alpha, estimate = _source_update(state.alpha, state.payoff_estimate, state.target,
                                     state.alpha_max, observed_payoff, epsilon_k)
    return replace(state, alpha=alpha, payoff_estimate=estimate, step=state.step + 1)


def _source_update(alpha: float, estimate: float, target: float, alpha_max: float,
                   observed: float, epsilon_k: float) -> tuple[float, float]:
    estimate = estimate + epsilon_k * (observed - estimate)
    alpha = alpha + epsilon_k * (target - estimate)
    return min(max(alpha, 0.0), alpha_max), estimate


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
    p, est_a, est_r = _relay_update(
        *(np.array([x]) for x in (state.accept_prob, state.est_accept,
                                  state.est_reject, realized_utility, accepted)),
        rates.m_accept, rates.m_reject, rates.l_accept, rates.l_reject, prob_floor)
    return RelayLearnerState(float(p[0]), float(est_a[0]), float(est_r[0]), state.step + 1)


def _relay_update(p: np.ndarray, est_a: np.ndarray, est_r: np.ndarray, utility: np.ndarray,
                  accepted: np.ndarray, m_accept: float, m_reject: float, l_accept: float,
                  l_reject: float, prob_floor: float) -> tuple[np.ndarray, ...]:
    """``relay_step`` elementwise over arrays of relays (exp per relay with
    ``math.exp``, which ``np.exp`` can miss by an ulp)."""
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
    the two estimates), bit-identical to stepping ``simulate_episode``,
    ``relay_step`` per relay and ``source_step``.  Identical seeds give
    identical trajectories.
    """
    if feed not in _FEEDS:
        raise ValueError(f"feed must be one of {_FEEDS}, got {feed!r}")
    if alpha0 is None:
        alpha0 = params.alpha_max / 2.0
    n, horizon = params.n, schedules.horizon
    alpha, estimate = alpha0, 0.0
    p, est_a, est_r = np.full(n, 0.5), np.zeros(n), np.zeros(n)
    q = relay_failure_probability(params.contact)
    alphas, estimates = np.empty((2, horizon))
    probs, fed = np.empty((2, horizon, n))
    n_accept = np.empty(horizon, dtype=int)
    delivered = np.empty(horizon, dtype=bool)
    # one sequential stream per run; iterations consume it in order
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))

    rates = zip(*schedules._table.values())
    for i, (epsilon, m_accept, m_reject, l_accept, l_reject) in enumerate(rates):
        alphas[i] = alpha
        probs[i] = p
        _, accepted, success, _ = _race(params, p, rng, contact_mode)
        if feed == EPISODE:
            fed[i] = _score_relays(params, q, accepted, alpha)
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
