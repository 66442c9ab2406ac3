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
    confidence_level: float = 0.95

    def interval(self) -> tuple[float, float]:
        z = NormalDist().inv_cdf(0.5 + self.confidence_level / 2.0)
        return self.mean - z * self.stderr, self.mean + z * self.stderr


def _episode_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def simulate_episode(params: GameParams, accept_probs: Sequence[float],
                     reward: float, rng_seed: int, trial: int = 0,
                     mode: str = MODEL,
                     rng: Optional[np.random.Generator] = None) -> EpisodeOutcome:
    """Run one seeded episode and score every relay.

    Utilities follow the share-weighted payoff at the realized cohort: a
    relay with k accepting opponents is scored at cohort size k+1 whether it
    accepted or declined, so the two branches stay comparable.  By default
    the stream is derived from (rng_seed, trial); sequential callers may
    pass an explicit generator instead.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n = params.n
    if len(accept_probs) != n:
        raise ValueError(f"need {n} accept probabilities, got {len(accept_probs)}")
    probs = np.asarray(accept_probs, dtype=float)
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("accept probabilities must lie in [0, 1]")

    if rng is None:
        rng = _episode_rng(rng_seed, trial)
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

    if success.any():
        times = np.where(success, finish, np.inf)
        winner = int(np.argmin(times))  # argmin takes the lowest index on ties
        delivery_time = float(times[winner])
        delivered = True
    else:
        winner = None
        delivery_time = None
        delivered = False

    utilities = _score_relays(params, accepted, reward)
    return EpisodeOutcome(contacted_source=tuple(bool(c) for c in contacted),
                          accepted=tuple(bool(a) for a in accepted),
                          delivery_time=delivery_time,
                          winner=winner,
                          per_relay_utility=utilities,
                          delivered=delivered)


def _score_relays(params: GameParams, accepted: np.ndarray, reward: float
                  ) -> tuple[float, ...]:
    # acceptors share a cohort of n_accept; a decliner is scored as one more
    q = relay_failure_probability(params.contact)
    n_accept = int(accepted.sum())
    pay_accept = relay_payoffs(reward, n_accept, q ** n_accept, params)[0] if n_accept else None
    pay_reject = relay_payoffs(reward, n_accept + 1, q ** (n_accept + 1), params)[1]
    return tuple(pay_accept if a else pay_reject for a in accepted)


def estimate_delivery(params: GameParams, accept_prob: float, trials: int,
                      seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical delivery frequency when all relays accept with one common p."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    probs = [accept_prob] * params.n
    hits = np.empty(trials)
    for t in range(trials):
        hits[t] = simulate_episode(params, probs, 0.0, seed, t, mode).delivered
    return _summarize(hits)


def estimate_relay_utility(params: GameParams, accept_prob: float, reward: float,
                           trials: int, seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical mean payoff of relay 0 under symmetric mixing."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    probs = [accept_prob] * params.n
    values = np.empty(trials)
    for t in range(trials):
        values[t] = simulate_episode(params, probs, reward, seed, t, mode).per_relay_utility[0]
    return _summarize(values)


def _summarize(samples: np.ndarray) -> EstimateWithCI:
    trials = len(samples)
    mean = float(samples.mean())
    if trials > 1:
        stderr = float(samples.std(ddof=1) / math.sqrt(trials))
    else:
        stderr = 0.0
    return EstimateWithCI(mean=mean, stderr=stderr, trials=trials)
