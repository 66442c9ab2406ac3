"""Independent oracles that only tests call: a term-by-term delivery share,
the reduced model's scalar cooperation cost and mixed payoffs, which the
solvers' cost column and the ``mean-field`` learner feed must match bit for
bit, the reduced model's indifference gaps, whose roots the solvers return,
the tagged-relay indifference reward, the root of the game's gap,
``with_param``, which builds one sweep point through the validating
constructor, the pure and mixed solvers written point by point over the
scalar model functions, a coupled run that records what each relay
played and was fed, and an episode with one accept probability per relay
with the scorer that pays each relay the side of the cohort payoffs it
played."""
import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np

import dtnsat.learning as learning
from dtnsat.equilibrium import (
    DegenerateContactError,
    EseSolution,
    FloatRangeError,
    reduced_payoffs,
)
from dtnsat.model import (
    GameParams,
    _any_delivers,
    _tagged_share,
    expected_source_utility_mixed,
    per_relay_success,
)
from dtnsat.simulate import MODEL, _cohort_payoffs, _contacts, _window


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


def episode(params: GameParams, probs, rng, mode: str = MODEL) -> tuple:
    """(accepted, delivered) of one episode on the next window of ``rng``,
    relay i accepting with ``probs[i]``."""
    flips, reach = _contacts(params, rng.random(_window(params.n)), mode)
    accepted = flips < np.asarray(probs, dtype=float)
    return accepted, bool(np.count_nonzero(accepted & reach))


def score_relays(params: GameParams, share, accepted, n_accept, reward: float):
    """Per-relay utilities of drawn episodes, ``accepted`` of shape (..., n)
    with the ``n_accept`` counts of shape (...): each relay is paid the side
    of ``_cohort_payoffs`` it played."""
    pay_accept, pay_reject = _cohort_payoffs(params, share, n_accept, reward)
    return np.where(accepted, pay_accept[..., None], pay_reject[..., None])
