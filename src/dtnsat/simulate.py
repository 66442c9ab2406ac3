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

Trial ``t`` under ``seed`` reads window ``t`` of one counter-based stream,
``Generator(Philox(key=seed))``: ``W(n)`` doubles, 3n rounded up to a whole
Philox block of 4, starting at counter ``t * W(n) / 4``.  The first n are
the accept flips, the next two n-slices become source and destination
contact times by inverse CDF, ``-log1p(-u)/lam``, so an episode draws the
same number of values at every rate (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11).  An estimator walks one generator
through the windows in trial order; a trial's result does not depend on
evaluation order, and the same seed gives the same bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import EXACT, GameParams, _payoffs, relay_failure_probability, total_energy

MODEL = "model"
PHYSICAL = "physical"
_MODES = (MODEL, PHYSICAL)
# -log1p(-u) < 37 for every double u in [0, 1), so no contact time
# overflows at this rate or above and _draw skips the np.errstate guard,
# whose entry on every episode cost 9 % of mc-oracle's wall time on a
# shared 2-vCPU host
_SAFE_RATE = 1e-300


@dataclass(frozen=True)
class EstimateWithCI:
    """Sample mean with its standard error over independent trials."""

    mean: float
    stderr: float
    trials: int


def _window(n: int) -> int:
    """W(n): doubles per trial, 3n rounded up to a multiple of 4."""
    return -(-3 * n // 4) * 4


def episode_rng(seed: int, trial: int, n: int) -> np.random.Generator:
    """Trial ``trial``'s window of the Philox stream keyed by ``seed``, for
    n relays; drawing one window leaves the generator at the next trial's."""
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be in [0, 2**128) to key Philox, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed, counter=trial * _window(n) // 4))


def simulate_episode(params: GameParams, accept_probs: Sequence[float],
                     reward: float, rng: np.random.Generator,
                     mode: str = MODEL) -> tuple[np.ndarray, np.ndarray, bool]:
    """Run one episode on the next window of ``rng``: (accepted, per-relay
    utilities, delivered).

    Utilities follow the share-weighted payoff at the realized cohort: a
    relay with k accepting opponents is scored at cohort size k+1 whether it
    accepted or declined, so the two branches stay comparable.  Exactly
    ``W(n)`` doubles are drawn, so a generator from :func:`episode_rng` of
    trial t is left at trial t + 1.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n = params.n
    if len(accept_probs) != n:
        raise ValueError(f"need {n} accept probabilities, got {len(accept_probs)}")
    probs = np.asarray(accept_probs, dtype=float)
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("accept probabilities must lie in [0, 1]")

    u = rng.random(_window(n))
    _, accepted, success, _ = _race(params, probs, *_draw(params, u), mode)
    utilities = _score_relays(params, relay_failure_probability(params.contact),
                              total_energy(params), accepted, reward)
    return accepted, utilities, bool(success.any())


def _draw(params: GameParams, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """(flips, source times, destination times) of windows ``u`` of shape
    (..., W); contact times are inverse-CDF exponentials, inf at lam = 0."""
    n, lam = params.n, params.contact.lam
    flips, rest = u[..., :n], u[..., n:3 * n]
    if lam == 0:
        times = np.full(rest.shape, np.inf)
    elif lam >= _SAFE_RATE:
        times = -np.log1p(-rest) / lam
    else:
        # a time past the float range rounds to inf, which lies past every
        # lifetime just as the exact time does
        with np.errstate(over="ignore"):
            times = -np.log1p(-rest) / lam
    return flips, times[..., :n], times[..., n:]


def _race(params: GameParams, probs: np.ndarray, flips: np.ndarray,
          source_t: np.ndarray, dest_t: np.ndarray, mode: str) -> tuple[np.ndarray, ...]:
    """(contacted, accepted, success, finish) arrays of one drawn episode."""
    tau = params.contact.tau
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


def _score_relays(params: GameParams, q: float, cost: float, accepted: np.ndarray,
                  reward: float) -> np.ndarray:
    # acceptors share a cohort of n_accept; a decliner is scored as one more
    n_accept = int(accepted.sum())
    pay_accept = (_payoffs(reward, n_accept, q ** n_accept, params, EXACT, cost)[0]
                  if n_accept else 0.0)
    pay_reject = _payoffs(reward, n_accept + 1, q ** (n_accept + 1), params, EXACT, cost)[1]
    return np.where(accepted, pay_accept, pay_reject)


def estimate_delivery(params: GameParams, accept_prob: float, trials: int,
                      seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical delivery frequency when all relays accept with one common p."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    probs = np.full(params.n, accept_prob)
    rng = episode_rng(seed, 0, params.n)
    hits = np.empty(trials)
    for t in range(trials):
        hits[t] = simulate_episode(params, probs, 0.0, rng, mode)[2]
    return _summarize(hits)


def estimate_relay_utility(params: GameParams, accept_prob: float, reward: float,
                           trials: int, seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical mean payoff of relay 0 under symmetric mixing."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    probs = np.full(params.n, accept_prob)
    rng = episode_rng(seed, 0, params.n)
    values = np.empty(trials)
    for t in range(trials):
        values[t] = simulate_episode(params, probs, reward, rng, mode)[1][0]
    return _summarize(values)


def _summarize(samples: np.ndarray) -> EstimateWithCI:
    trials = len(samples)
    mean = float(samples.mean())
    if trials > 1:
        stderr = float(samples.std(ddof=1) / math.sqrt(trials))
    else:
        stderr = 0.0
    return EstimateWithCI(mean=mean, stderr=stderr, trials=trials)
