"""Independent oracles that only tests call: a term-by-term delivery share,
the reduced model's scalar cooperation cost and mixed payoffs, which the
solvers' cost column and the ``mean-field`` learner feed must match bit for
bit, the reduced model's indifference gaps, whose roots the solvers return,
the tagged-relay indifference reward, the root of the game's gap,
``with_param``, which builds one sweep point through the validating
constructor, the pure and mixed solvers written point by point over the
scalar model functions, one cell of the Pareto grid scan, a coupled run
that records what each relay played and was fed, a generator at a later
trial's window of the episode stream and that window's contacts, an
episode with one accept probability per relay with the scorer that pays
each relay the side of ``model._cohort_payoffs`` it played, the symmetric
mixed profile's delivery and relay utility in exact rationals, and each
relay's accept and decline payoffs and the delivery under a profile of
per-relay accept probabilities, also in exact rationals."""
import math
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np

import dtnsat.learning as learning
from dtnsat.equilibrium import (
    DOMINANCE_MARGIN,
    DegenerateContactError,
    EseSolution,
    FloatRangeError,
    reduced_payoffs,
)
from dtnsat.model import (
    GameParams,
    _any_delivers,
    _cohort_payoffs,
    _tagged_share,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    per_relay_success,
)
from dtnsat.simulate import MODEL, _contacts, _window


class OracleDomainError(ValueError):
    """Raised when an oracle's quantity is undefined at its inputs."""


class CohortTooLargeError(ValueError):
    """Raised when exact term-by-term summation would not be trustworthy."""


def delivery_share_bruteforce(n_active: int, q: float) -> float:
    """Term-by-term oracle for delivery_share.

    Sums, over the number j of relays (tagged one included) that reach the
    destination, the probability the tagged relay succeeds and wins the
    uniform j-way tie:  (1-q) * C(n-1, j-1) * (1-q)**(j-1) * q**(n-j) / j.
    Kept independent of the closed form on purpose.
    """
    if n_active < 1:
        raise OracleDomainError("delivery share needs at least one caching relay")
    if n_active > 64:
        raise CohortTooLargeError("exact summation limited to cohorts of 64")
    if not 0 <= q <= 1:
        raise OracleDomainError(f"q must be in [0, 1], got {q}")
    succeed = 1.0 - q
    total = 0.0
    for j in range(1, n_active + 1):
        ways = math.comb(n_active - 1, j - 1)
        total += ways * succeed ** (j - 1) * q ** (n_active - j) / j
    return succeed * total


def exact_mixed(params: GameParams, p: float, alpha: float) -> tuple[Fraction, Fraction]:
    """(delivery, relay 0's mixed utility) when every relay accepts with p,
    in exact rationals: the model-mode event model from its primitives.

    The record's doubles ``q``, ``reach``, ``sigma``, ``gamma`` and
    ``total_energy``, and p and alpha, are taken as the rationals they hold.
    Delivery is 1 - (1 - z)**n with z = p (1 - q) reach.  Relay 0 is paid
    the share E[delivery_share(K + 1, q)], summed term by term over the
    number K ~ Bin(n - 1, p) of its opponents that accept, and its utility
    is p times the accept payoff plus 1 - p times the decline payoff of
    ``relay_payoffs`` at that share.
    """
    q, reach, sigma, gamma, energy, p, alpha = map(Fraction, (
        params.q, params.reach, params.sigma, params.gamma, params.total_energy, p, alpha))
    n = params.n
    delivery = 1 - (1 - p * (1 - q) * reach) ** n
    share = sum(math.comb(n - 1, k) * p ** k * (1 - p) ** (n - 1 - k)
                * (1 - q ** (k + 1)) / (k + 1) for k in range(n))
    accept = alpha * share - sigma * (1 - share) - energy
    decline = -alpha * share - gamma
    return delivery, p * accept + (1 - p) * decline


def exact_profile_payoffs(params: GameParams, probs,
                          alpha: float) -> list[tuple[Fraction, Fraction]]:
    """Each relay's (accept, decline) payoffs when relay j accepts with
    ``probs[j]``, in exact rationals: the rule of ``model._cohort_payoffs``
    mixed over the opponents' actions.

    The record's doubles ``q``, ``sigma``, ``gamma`` and ``total_energy``,
    the probs and alpha are taken as the rationals they hold.  Relay i is
    paid the share E[delivery_share(K + 1, q)], where K, the number of its
    opponents that accept, has the Poisson-binomial law that a dynamic
    program sums over the other relays one at a time; each side is that of
    ``relay_payoffs`` at that share.
    """
    if len(probs) != params.n:
        raise OracleDomainError(f"a profile needs one probability per relay, got {len(probs)}")
    q, sigma, gamma, energy, alpha = map(Fraction, (
        params.q, params.sigma, params.gamma, params.total_energy, alpha))
    probs = [Fraction(p) for p in probs]
    payoffs = []
    for i in range(params.n):
        law = [Fraction(1)]  # law[k]: k of the opponents so far accept
        for p in probs[:i] + probs[i + 1:]:
            law = [(1 - p) * stay + p * step for stay, step in zip(law + [0], [0] + law)]
        share = sum(w * (1 - q ** (k + 1)) / (k + 1) for k, w in enumerate(law))
        payoffs.append((alpha * share - sigma * (1 - share) - energy, -alpha * share - gamma))
    return payoffs


def exact_profile_delivery(params: GameParams, probs) -> Fraction:
    """Model-mode delivery when relay j accepts with ``probs[j]``, in exact
    rationals: 1 - prod_j (1 - p_j s) with s = (1 - q) reach, the record's
    doubles ``q`` and ``reach`` and the probs taken as the rationals they
    hold."""
    if len(probs) != params.n:
        raise OracleDomainError(f"a profile needs one probability per relay, got {len(probs)}")
    s = (1 - Fraction(params.q)) * Fraction(params.reach)
    miss = Fraction(1)
    for p in probs:
        miss *= 1 - Fraction(p) * s
    return 1 - miss


def reduced_cooperation_cost(params: GameParams) -> float:
    """Per-relay cooperation cost under the linearized caching-energy model:
    e_r + e_t + e*(1-q)/lam, with its limit e*tau for the last term at
    lam = 0.  Where e*(1-q) is subnormal it is taken as e*tau*((1-q)/x),
    x = lam*tau, as in ``_tagged_share``, so a subnormal lam keeps it."""
    x = params.lam * params.tau
    reach = -math.expm1(-x)
    stored = params.e_store * reach
    if stored < sys.float_info.min:  # would lose its bits before the division
        stored = params.e_store * params.tau * (reach / x if x > 0 else 1.0)
    else:
        stored /= params.lam
    return params.e_receive + params.e_transmit + stored


def mixed_relay_payoffs(alpha: float, p: float, params: GameParams) -> tuple[float, float]:
    """(accept, reject) payoffs of the reduced mixed model at common p.

    The share is the delivery probability over n, which keeps its relative
    precision where 1 - (1 - z)**n rounds to 0 (a tiny delta), as the reward
    of ``_mixed_column`` does; the regret needs the miss (1 - z)**n only
    to absolute precision.
    """
    n, z = params.n, per_relay_success(params, p)
    return reduced_payoffs(alpha, n, _any_delivers(z, n), (1.0 - z) ** n,
                           reduced_cooperation_cost(params), params)


def pure_indifference_gap(alpha: float, n_active: int, params: GameParams) -> float:
    """Accept-minus-reject payoff under the reduced model, pure cohort case.

    The solver's reward for cohort n_active is the exact root of this gap.
    """
    miss = params.q ** n_active
    accept, reject = reduced_payoffs(alpha, n_active, 1.0 - miss, miss,
                                     reduced_cooperation_cost(params), params)
    return accept - reject


def mixed_indifference_gap(alpha: float, p: float, params: GameParams) -> float:
    """Accept-minus-reject payoff under the reduced model, common mixing p."""
    accept, reject = mixed_relay_payoffs(alpha, p, params)
    return accept - reject


def tagged_indifference_reward(params: GameParams, p: float) -> float:
    """Reward at which the tagged-relay gap 2*alpha*S - sigma*(1 - S) - cost
    + gamma, accept minus reject at mean share S, is zero."""
    share = _tagged_share(p, params)
    if share == 0.0:
        raise OracleDomainError("tagged indifference reward needs a relay that can deliver")
    return (params.sigma * (1.0 - share) + params.total_energy - params.gamma) / (2.0 * share)


def with_param(params: GameParams, var: str, value: float) -> GameParams:
    """Copy of params with one sweepable parameter (tau, lambda, n, delta) set,
    built by ``dataclasses.replace``, which validates every value."""
    if var not in ("tau", "lambda", "n", "delta"):
        raise ValueError(f"cannot sweep {var!r}; sweepable parameters are tau, lambda, n, delta")
    field = "lam" if var == "lambda" else var
    return replace(params, **{field: int(value) if var == "n" else value})


# The solvers point by point in Python floats, as they stood before the
# column kernels: the reference their columns and one-element cases must
# match bit for bit.

def point_pse(params: GameParams) -> list:
    """The (n_a, alpha_star, clamped, n_a_min, feasible) rows of one
    solve-pse point: one per cohort from the QoS bound up to n, or one
    marked row (nan, nan, False, n_a_min, False) when that bound exceeds n,
    with n_a_min = inf at q = 1."""
    q = params.q
    if q >= 1.0:
        return [(math.nan, math.nan, False, math.inf, False)]
    if q == 0.0:
        n_a_min = 1
    else:
        ratio = math.log(1.0 - params.delta) / math.log(q)
        nearest = round(ratio)
        if abs(ratio - nearest) < 1e-12:
            ratio = nearest
        n_a_min = max(1, math.ceil(ratio))
    rows = []
    for m in range(n_a_min, params.n + 1):
        success = 1.0 - q ** m
        reward = (params.sigma * (params.n - 1 + (1.0 - success))
                  + m * (reduced_cooperation_cost(params) - params.gamma)) / (2.0 * success)
        if not math.isfinite(reward):
            raise FloatRangeError(f"indifference reward overflows at success {success}")
        rows.append((m, reward, not 0.0 <= reward <= params.alpha_max))
    if not rows:
        return [(math.nan, math.nan, False, n_a_min, False)]
    feasible = any(not clamped for _, _, clamped in rows)
    return [(*row, n_a_min, feasible) for row in rows]


def point_mse(params: GameParams) -> tuple:
    """(p_min, z_star, feasible) of the mixed equilibria at one point."""
    ceiling = per_relay_success(params, 1.0)
    if ceiling <= 0:
        lam, tau = params.lam, params.tau
        raise DegenerateContactError(f"per-relay success is zero even at p = 1: lambda = {lam} "
                                     f"and tau = {tau} give x = lambda*tau = {lam * tau}, "
                                     "at which exp(-x) rounds to 1")
    p_min = -math.expm1(math.log1p(-params.delta) / params.n) / ceiling
    if p_min == 0.0:
        raise FloatRangeError(f"minimum accept probability underflows at delta = {params.delta}")
    return p_min, per_relay_success(params, min(p_min, 1.0)), p_min <= 1.0


def point_mse_reward(params: GameParams, p: float) -> float:
    success = expected_source_utility_mixed(p, params)
    if success <= 0:
        raise DegenerateContactError("indifference reward undefined for zero success")
    num = (params.sigma * (params.n - 1 + (1.0 - success))
           + params.n * (reduced_cooperation_cost(params) - params.gamma))
    reward = num / (2.0 * success)
    if not math.isfinite(reward):
        raise FloatRangeError(f"indifference reward overflows at success {success}")
    return reward


def point_ese(params: GameParams) -> EseSolution:
    p_min, _, feasible = point_mse(params)
    if not feasible:
        raise DegenerateContactError(
            f"QoS delta = {params.delta} is unreachable even at p = 1")
    alpha = point_mse_reward(params, p_min)
    return EseSolution(p_star=p_min,
                       alpha_star=min(max(alpha, 0.0), params.alpha_max),
                       binding_delivery=expected_source_utility_mixed(p_min, params),
                       alpha_clamped=not (0.0 <= alpha <= params.alpha_max))


def point_mse_row(params: GameParams) -> tuple:
    """(p_min, alpha_star, z_star, feasible) of one solve-mse point."""
    try:
        p_min, z_star, feasible = point_mse(params)
    except DegenerateContactError:
        return math.inf, math.nan, 0.0, False
    alpha = point_mse_reward(params, p_min) if feasible else math.nan
    return p_min, alpha, z_star, feasible


def point_ese_row(params: GameParams) -> tuple:
    """(p_star, alpha_star, binding_delivery, alpha_clamped) of one solve-ese
    point; an unreachable QoS marks its row with p_min."""
    try:
        sol = point_ese(params)
    except DegenerateContactError:
        return point_mse_row(params)[0], math.nan, math.nan, False
    return sol.p_star, sol.alpha_star, sol.binding_delivery, sol.alpha_clamped


def pareto_dominance_check(candidate_p: float, candidate_alpha: float,
                           ese: EseSolution, params: GameParams) -> tuple[float, float, bool]:
    """Does (p, alpha) weakly improve both sides and strictly improve one?

    One cell of ``pareto_grid_scan`` as it stood before the scan scored the
    source once per p row: the reference its rows must match bit for bit.
    The source is scored by its delivery margin over delta alone, the relays
    by :func:`dtnsat.model.expected_relay_utility_mixed` (tagged-relay share).
    Returns ``(source_margin_delta, relay_utility_delta, dominates)``.
    """
    margin_cand = expected_source_utility_mixed(candidate_p, params) - params.delta
    margin_ese = ese.binding_delivery - params.delta
    relay_cand = expected_relay_utility_mixed(candidate_p, candidate_alpha, params)
    relay_ese = expected_relay_utility_mixed(ese.p_star, ese.alpha_star, params)
    d_margin = margin_cand - margin_ese
    d_relay = relay_cand - relay_ese
    weakly_both = d_margin >= -DOMINANCE_MARGIN and d_relay >= -DOMINANCE_MARGIN
    strictly_one = d_margin > DOMINANCE_MARGIN or d_relay > DOMINANCE_MARGIN
    return d_margin, d_relay, weakly_both and strictly_one


def run_coupled_fed(params: GameParams, horizon: int, seed: int, **kwargs) -> tuple:
    """``run_coupled`` with ``learning._relay_update`` wrapped: the
    trajectory, the (H, n) actions the relays played and the (H, n)
    utilities they were fed, each relay its side of the step's pay pair."""
    actions, fed = [], []
    step = learning._relay_update

    def recorded(p, est, accepted, pay, m):
        actions.append(list(accepted))
        fed.append([pay[0] if a else pay[1] for a in accepted])
        return step(p, est, accepted, pay, m)
    with mock.patch.object(learning, "_relay_update", recorded):
        traj = learning.run_coupled(params, horizon, seed, **kwargs)
    return traj, np.array(actions, dtype=bool), np.array(fed, dtype=float)


def trial_rng(seed: int, t: int, n: int) -> np.random.Generator:
    """``episode_rng(seed)`` moved on to trial t's window for n relays:
    Philox counter ``t * W(n) / 4``, as README's stream contract states."""
    return np.random.Generator(np.random.Philox(key=seed, counter=t * _window(n) // 4))


def trial_window(params: GameParams, seed: int, t: int, mode: str = MODEL) -> tuple:
    """(flips, reach) of trial t's window under ``seed``, each of shape
    (n,): ``simulate._contacts`` of one window drawn from ``trial_rng``."""
    n = params.n
    return _contacts(params, trial_rng(seed, t, n).random(_window(n)), mode)


def episode(params: GameParams, probs, rng, mode: str = MODEL) -> tuple:
    """(accepted, delivered) of one episode on the next window of ``rng``,
    relay i accepting with ``probs[i]``."""
    flips, reach = _contacts(params, rng.random(_window(params.n)), mode)
    accepted = flips < np.asarray(probs, dtype=float)
    return accepted, bool(np.count_nonzero(accepted & reach))


def score_relays(params: GameParams, share, accepted, n_accept, reward: float):
    """Per-relay utilities of drawn episodes, ``accepted`` of shape (..., n)
    with the ``n_accept`` counts of shape (...): each relay is paid the side
    of ``model._cohort_payoffs`` it played, on the ``share`` table taken
    as an array."""
    pay_accept, pay_reject = _cohort_payoffs(params, np.asarray(share), n_accept, reward)
    return np.where(accepted, pay_accept[..., None], pay_reject[..., None])
