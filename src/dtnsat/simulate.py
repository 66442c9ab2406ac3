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
unit exponentials by inverse CDF, ``-log1p(-u)``, which the race compares
with ``lambda * tau``, so an episode draws the same number of values at
every rate (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
SC'11).  Model mode makes that test in log space, ``log1p(-u) >
-lambda * tau``, and never builds the exponentials: negating a double is
exact, so the test holds exactly where ``-log1p(-u) < lambda * tau`` does.
An estimator walks one generator through the windows in trial order,
passing :func:`simulate_episode` its p as the one float that all relays
share; a trial's result does not depend on evaluation order, and the same
seed gives the same bytes.  ``learn`` shares the stream: iteration ``i`` of
:func:`dtnsat.learning.run_coupled` reads window ``i``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import GameParams, delivery_share, relay_payoffs

MODEL = "model"
PHYSICAL = "physical"
CONTACT_MODES = (MODEL, PHYSICAL)


@dataclass(frozen=True)
class EstimateWithCI:
    """Sample mean with its standard error over independent trials."""

    mean: float
    stderr: float


def _window(n: int) -> int:
    """W(n): doubles per trial, 3n rounded up to a multiple of 4."""
    return -(-3 * n // 4) * 4


def episode_rng(seed: int, trial: int, n: int) -> np.random.Generator:
    """Trial ``trial``'s window of the Philox stream keyed by the integer
    ``seed``, for n relays; drawing one window leaves the generator at the
    next trial's."""
    seed, trial = _index("seed", seed), _index("trial", trial)
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be in [0, 2**128) to key Philox, got {seed}")
    if trial < 0:
        raise ValueError(f"trial must be >= 0, got {trial}")
    return np.random.Generator(np.random.Philox(key=seed, counter=trial * _window(n) // 4))


def _index(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def simulate_episode(params: GameParams, accept_prob: float, rng: np.random.Generator,
                     mode: str = MODEL) -> tuple[np.ndarray, bool]:
    """Run one episode on the next window of ``rng``: (accepted, delivered).

    ``accept_prob`` is one double (Python or ``np.float64``) that all
    relays share.  Exactly ``W(n)`` doubles are drawn, so a generator from
    :func:`episode_rng` of trial t is left at trial t + 1.
    """
    if not isinstance(accept_prob, float):
        raise ValueError(f"accept probability must be a float or np.float64, got {accept_prob!r}")
    if not 0.0 <= accept_prob <= 1.0:  # a NaN fails both comparisons
        raise ValueError(f"accept probabilities must lie in [0, 1], got {accept_prob}")
    flips, reach = _contacts(params, rng.random(_window(params.n)), mode)
    accepted = flips < accept_prob
    return accepted, bool(np.count_nonzero(accepted & reach))


def _contacts(params: GameParams, u: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(flips, reach) of windows ``u`` of shape (..., W): a relay accepts when
    its flip is below its accept probability, and an acceptance delivers
    where ``reach`` holds.  A unit exponential E gives the contact time
    E/lam, inside the lifetime when E < lam * tau; strictly, so that lam = 0
    meets nobody even at E = 0; model mode tests it in log space.  In
    physical mode a relay the source did not meet gets an infinite flip, so
    that it accepts at no probability."""
    if mode not in CONTACT_MODES:
        raise ValueError(f"mode must be one of {CONTACT_MODES}, got {mode!r}")
    life = params.lam * params.tau
    n = params.n
    if mode == MODEL:
        inside = np.log1p(-u[..., n:3 * n]) > -life
        return u[..., :n], inside[..., :n] & inside[..., n:]
    exps = -np.log1p(-u[..., n:3 * n])
    source_e = exps[..., :n]
    return np.where(source_e < life, u[..., :n], np.inf), source_e + exps[..., n:] < life


def _cohort_shares(params: GameParams) -> np.ndarray:
    """The run's share table: entry k is ``delivery_share(k, q)`` for a
    cohort of k = 1..n+1 caching relays, and entry 0 is 0."""
    q = params.q
    return np.array([0.0] + [delivery_share(k, q) for k in range(1, params.n + 2)])


def _cohort_payoffs(params: GameParams, share: np.ndarray | list[float],
                    n_accept: int | np.ndarray, reward: float) -> tuple:
    """(accept, decline) share-weighted payoffs when ``n_accept`` relays
    accept: a relay with k accepting opponents is scored at cohort size k+1
    whether it accepted or declined, so the two stay comparable (an empty
    cohort's accept payoff is never paid).  ``share`` is the run's
    :func:`_cohort_shares` table: an array for array counts, a list for an
    int count, which gives two floats."""
    return (relay_payoffs(reward, share[n_accept], params)[0],
            relay_payoffs(reward, share[n_accept + 1], params)[1])


def estimate_delivery(params: GameParams, accept_prob: float, trials: int,
                      seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical delivery frequency when all relays accept with one common p."""
    return _summarize(_draw_trials(params, accept_prob, trials, seed, mode)[1])


def estimate_relay_utility(params: GameParams, accept_prob: float, reward: float,
                           trials: int, seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical mean payoff of relay 0 under symmetric mixing: the trials
    are drawn first, then relay 0 of all of them is paid the side of one
    :func:`_cohort_payoffs` call that it played."""
    accepted, _ = _draw_trials(params, accept_prob, trials, seed, mode)
    n_accept = np.count_nonzero(accepted, axis=1)
    with np.errstate(invalid="ignore"):  # an inf reward times a zero share: named below
        samples = np.where(accepted[:, 0], *_cohort_payoffs(
            params, _cohort_shares(params), n_accept, reward))
    finite = np.isfinite(samples)
    if not finite.all():
        raise ValueError(f"realized utility must be finite, got {samples[~finite][0]}")
    return _summarize(samples)


def _draw_trials(params: GameParams, accept_prob: float, trials: int, seed: int,
                 mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(accepted, delivered) of ``trials`` episodes, shapes (T, n) and (T,),
    trial t on window t with ``accept_prob`` as one shared ``np.float64``;
    ``delivered`` holds 1.0 or 0.0."""
    trials = _index("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    prob = np.float64(accept_prob)
    rng = episode_rng(seed, 0, params.n)
    try:
        accepted, delivered = np.empty((trials, params.n), dtype=bool), np.empty(trials)
    except ValueError:  # numpy's refusal of a shape past its size or index range
        raise MemoryError from None
    for t in range(trials):
        accepted[t], delivered[t] = simulate_episode(params, prob, rng, mode)
    return accepted, delivered


def _summarize(samples: np.ndarray) -> EstimateWithCI:
    trials = len(samples)
    # an exact power-of-two scale keeps sums and squares of huge samples finite
    exp = max(0, math.frexp(float(np.abs(samples).max()))[1])
    scaled = np.ldexp(samples, -exp)
    mean = math.ldexp(float(scaled.mean()), exp)
    stderr = math.ldexp(float(scaled.std(ddof=1)) / math.sqrt(trials), exp) if trials > 1 else 0.0
    return EstimateWithCI(mean=mean, stderr=stderr)
