"""Event-level Monte Carlo episodes of the two-hop delivery race.

One episode: relays decide whether to cache, draw exponential source and
destination contact times, and the earliest accepted relay to reach the
destination inside the lifetime wins.  Two contact modes are provided:

``model``
    Accept decisions are drawn for every relay and the destination window is
    the full lifetime; per-relay success factorizes exactly as
    contact * accept * destination-contact, which is the distribution the
    closed forms in :mod:`dtnsat.model` describe.  Default, used for all
    oracle comparisons.

``physical``
    Only relays that actually met the source face the decision, and the
    destination window is the lifetime minus the hand-over instant.

Per-trial randomness is derived from (master seed, trial index) so results
are reproducible and independent of evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .model import GameParams, relay_failure_probability, relay_payoffs

MODEL = "model"
PHYSICAL = "physical"
_MODES = (MODEL, PHYSICAL)


@dataclass(frozen=True)
class EpisodeOutcome:
    contacted_source: tuple[bool, ...]
    accepted: tuple[bool, ...]
    delivery_time: Optional[float]
    winner: Optional[int]
    per_relay_utility: tuple[float, ...]
    delivered: bool


@dataclass(frozen=True)
class EstimateWithCI:
    """Sample mean with its standard error over independent trials."""

    mean: float
    stderr: float
    trials: int

    def interval(self) -> tuple[float, float]:
        """Two-sided 95 % normal-approximation interval."""
        z = NormalDist().inv_cdf(0.975)
        return self.mean - z * self.stderr, self.mean + z * self.stderr


def episode_rng(seed: int, trial: int) -> np.random.Generator:
    """The independent random stream of trial ``trial`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def simulate_episode(params: GameParams, accept_probs: Sequence[float],
                     reward: float, rng: np.random.Generator,
                     mode: str = MODEL) -> EpisodeOutcome:
    """Run one episode on ``rng`` and score every relay.

    Utilities follow the share-weighted payoff at the realized cohort: a
    relay with k accepting opponents is scored at cohort size k+1 whether it
    accepted or declined, so the two branches stay comparable.  Estimators
    pass :func:`episode_rng` of the trial; sequential callers pass their own
    generator.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n = params.n
    if len(accept_probs) != n:
        raise ValueError(f"need {n} accept probabilities, got {len(accept_probs)}")
    probs = np.asarray(accept_probs, dtype=float)
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("accept probabilities must lie in [0, 1]")

    contacted, accepted, success, finish = _race(params, probs, rng, mode)
    delivered = bool(success.any())
    # argmin takes the lowest index on ties
    winner = int(np.argmin(np.where(success, finish, np.inf))) if delivered else None
    utilities = _score_relays(params, relay_failure_probability(params.contact),
                              accepted, reward)
    return EpisodeOutcome(contacted_source=tuple(contacted.tolist()),
                          accepted=tuple(accepted.tolist()),
                          delivery_time=float(finish[winner]) if delivered else None,
                          winner=winner,
                          per_relay_utility=tuple(utilities.tolist()),
                          delivered=delivered)


def _race(params: GameParams, probs: np.ndarray, rng: np.random.Generator,
          mode: str) -> tuple[np.ndarray, ...]:
    """(contacted, accepted, success, finish) arrays of one drawn episode."""
    n = params.n
    lam, tau = params.contact.lam, params.contact.tau
    flips = rng.random(n)
    if lam > 0:
        source_t = rng.exponential(1.0 / lam, size=n)
        dest_t = rng.exponential(1.0 / lam, size=n)
    else:
        source_t = np.full(n, np.inf)
        dest_t = np.full(n, np.inf)

    contacted = source_t <= tau
    if mode == MODEL:
        accepted = flips < probs
        success = accepted & contacted & (dest_t <= tau)
        finish = dest_t
    else:
        accepted = contacted & (flips < probs)
        finish = source_t + dest_t
        success = accepted & (finish <= tau)
    return contacted, accepted, success, finish


def _score_relays(params: GameParams, q: float, accepted: np.ndarray,
                  reward: float) -> np.ndarray:
    # acceptors share a cohort of n_accept; a decliner is scored as one more
    n_accept = int(accepted.sum())
    pay_accept = relay_payoffs(reward, n_accept, q ** n_accept, params)[0] if n_accept else 0.0
    pay_reject = relay_payoffs(reward, n_accept + 1, q ** (n_accept + 1), params)[1]
    return np.where(accepted, pay_accept, pay_reject)


def estimate_delivery(params: GameParams, accept_prob: float, trials: int,
                      seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical delivery frequency when all relays accept with one common p."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    probs = [accept_prob] * params.n
    hits = np.empty(trials)
    for t in range(trials):
        hits[t] = simulate_episode(params, probs, 0.0, episode_rng(seed, t), mode).delivered
    return _summarize(hits)


def estimate_relay_utility(params: GameParams, accept_prob: float, reward: float,
                           trials: int, seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical mean payoff of relay 0 under symmetric mixing."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    probs = [accept_prob] * params.n
    values = np.empty(trials)
    for t in range(trials):
        values[t] = simulate_episode(params, probs, reward, episode_rng(seed, t),
                                     mode).per_relay_utility[0]
    return _summarize(values)


def _summarize(samples: np.ndarray) -> EstimateWithCI:
    trials = len(samples)
    mean = float(samples.mean())
    if trials > 1:
        stderr = float(samples.std(ddof=1) / math.sqrt(trials))
    else:
        stderr = 0.0
    return EstimateWithCI(mean=mean, stderr=stderr, trials=trials)
