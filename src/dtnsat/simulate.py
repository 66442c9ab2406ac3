"""Event-level Monte Carlo episodes of the two-hop delivery race and their
estimators; the payoff rule they score with is :mod:`dtnsat.model`'s.

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
Philox block of 4, starting at counter ``t * W(n) / 4`` (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).  The first n are
the accept flips, the next two n-slices the source and destination contact
draws u, each standing for the unit exponential ``-log1p(-u)`` that the
race compares with ``lambda * tau``.  Both modes make that test in the
uniform domain against the record: model mode meets both contacts when
``max(u_s, u_d) < reach``; physical mode offers the file when ``u_s <
reach`` and delivers when ``(1 - u_s)(1 - u_d) > q``, ``E_s + E_d < lambda
* tau`` with one rounded product.  No draw meets a transcendental function,
so an episode's bytes do not depend on the CPU, and it draws the same
number of values at every rate.  :func:`_windows` draws the windows in
trial order, in blocks of about ``_DRAWS`` doubles that hold the bits of
one draw per window, and an estimator scores each with
:func:`simulate_episode`, passing its p as the one float that all relays
share; a trial's result does not depend on block size or evaluation
order, and the same seed gives the same bytes.  ``learn`` shares the
reader: iteration ``i`` of :func:`dtnsat.learning.run_coupled` reads
window ``i``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import GameParams, _cohort_payoffs, _cohort_shares

MODEL = "model"
PHYSICAL = "physical"
CONTACT_MODES = (MODEL, PHYSICAL)
# doubles of stream windows drawn at once, whole windows per block
_DRAWS = 4096


@dataclass(frozen=True)
class EstimateWithCI:
    """Sample mean with its standard error over independent trials."""

    mean: float
    stderr: float


def _window(n: int) -> int:
    """W(n): doubles per trial, 3n rounded up to a multiple of 4."""
    return -(-3 * n // 4) * 4


def episode_rng(seed: int) -> np.random.Generator:
    """The Philox stream keyed by the integer ``seed``, at trial 0's window;
    drawing one window leaves the generator at the next trial's."""
    seed = _index("seed", seed)
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be in [0, 2**128) to key Philox, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _index(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _windows(params: GameParams, seed: int, count: int, mode: str):
    """(flips, reach) of windows 0..count-1 of ``episode_rng(seed)``, as (B,
    n) arrays per block of B whole windows, at most ``_DRAWS`` doubles or
    one window; :func:`_contacts` checks the mode once per block."""
    rng, width = episode_rng(seed), _window(params.n)
    block = max(1, _DRAWS // width)
    return (_contacts(params, rng.random((min(block, count - start), width)), mode)
            for start in range(0, count, block))


def simulate_episode(flips: np.ndarray, reach: np.ndarray,
                     accept_prob: float) -> tuple[np.ndarray, bool]:
    """(accepted, delivered) of one episode, a window's ``flips`` and
    ``reach`` rows from :func:`_windows`, scored with ``accept_prob``, one
    double (Python or ``np.float64``) that all relays share; draws nothing."""
    if not isinstance(accept_prob, float):
        raise ValueError(f"accept probability must be a float or np.float64, got {accept_prob!r}")
    if not 0.0 <= accept_prob <= 1.0:  # a NaN fails both comparisons
        raise ValueError(f"accept probabilities must lie in [0, 1], got {accept_prob}")
    accepted = flips < accept_prob
    return accepted, bool(np.count_nonzero(accepted & reach))


def _contacts(params: GameParams, u: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(flips, reach) of windows ``u`` of shape (..., W): a relay accepts when
    its flip is below its accept probability, and an acceptance delivers
    where ``reach`` holds.  A contact draw u is inside the lifetime when
    u < ``params.reach``, strictly, so that lam = 0 meets nobody even at
    u = 0.  Physical mode delivers when (1 - u_s)(1 - u_d) > ``params.q``
    and gives a relay the source did not meet an infinite flip, so that it
    accepts at no probability."""
    if mode not in CONTACT_MODES:
        raise ValueError(f"mode must be one of {CONTACT_MODES}, got {mode!r}")
    n = params.n
    flips, source, dest = u[..., :n], u[..., n:2 * n], u[..., 2 * n:3 * n]
    if mode == MODEL:
        return flips, np.maximum(source, dest) < params.reach
    return (np.where(source < params.reach, flips, np.inf),
            (1.0 - source) * (1.0 - dest) > params.q)


def estimate_delivery(params: GameParams, accept_prob: float, trials: int,
                      seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical delivery frequency when all relays accept with one common p."""
    return _summarize(_draw_trials(params, accept_prob, trials, seed, mode)[1])


def estimate_relay_utility(params: GameParams, accept_prob: float, reward: float,
                           trials: int, seed: int, mode: str = MODEL) -> EstimateWithCI:
    """Empirical mean payoff of relay 0 under symmetric mixing: the trials
    are drawn first, then relay 0 of all of them is paid the side of one
    :func:`dtnsat.model._cohort_payoffs` call that it played."""
    accepted, _ = _draw_trials(params, accept_prob, trials, seed, mode)
    n_accept = np.count_nonzero(accepted, axis=1)
    with np.errstate(invalid="ignore"):  # an inf reward times a zero share: named below
        samples = np.where(accepted[:, 0], *_cohort_payoffs(
            params, np.array(_cohort_shares(params)), n_accept, reward))
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
    windows = _windows(params, seed, trials, mode)
    try:
        accepted, delivered = np.empty((trials, params.n), dtype=bool), np.empty(trials)
    except ValueError:  # numpy's refusal of a shape past its size or index range
        raise MemoryError from None
    if not 0.0 <= prob <= 1.0:  # named before the reader draws its first block
        raise ValueError(f"accept probabilities must lie in [0, 1], got {prob}")
    for t, (flips, reach) in enumerate(chain.from_iterable(zip(*block) for block in windows)):
        accepted[t], delivered[t] = simulate_episode(flips, reach, prob)
    return accepted, delivered


def _summarize(samples: np.ndarray) -> EstimateWithCI:
    trials = len(samples)
    # an exact power-of-two scale keeps sums and squares of huge samples finite
    exp = max(0, math.frexp(float(np.abs(samples).max()))[1])
    scaled = np.ldexp(samples, -exp)
    mean = math.ldexp(float(scaled.mean()), exp)
    stderr = math.ldexp(float(scaled.std(ddof=1)) / math.sqrt(trials), exp) if trials > 1 else 0.0
    return EstimateWithCI(mean=mean, stderr=stderr)
