"""Closed-form satisfaction-equilibrium solvers and efficiency checks.

The solvers invert the relay payoff of :func:`dtnsat.model.relay_payoffs`
under its REDUCED model: caching cost is linearized to e*(1-q)/lam and the
failure regret is weighted by the full fleet size n rather than by the
accepting cohort alone.  The residual of that balance is exposed
(``pure_indifference_gap`` / ``mixed_indifference_gap``) so tests can verify
each returned reward solves its own equation.  The simulator and the
per-cohort utilities in :mod:`dtnsat.model` evaluate the same kernel under
its EXACT model, where a relay with k accepting opponents holds the share of
cohort k+1.  The two models disagree by far more than rounding: at the
reference binding point (p* = 0.0549, alpha* = 0.7668) a relay's mixed
accept/reject payoffs are 0.460/-0.675 under EXACT and -0.173/-0.173 under
REDUCED, so the binding point is no relay equilibrium of the EXACT payoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .model import (
    REDUCED,
    GameParams,
    _any_delivers,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    per_relay_success,
    reduced_cooperation_cost,
    relay_failure_probability,
    relay_payoffs,
    with_param,
)


class DegenerateFailureError(ValueError):
    """Raised when relays can never reach the destination (q = 1)."""


class DegenerateContactError(ValueError):
    """Raised when the mixed game has zero per-relay success at p = 1."""


class RangeError(ValueError):
    """Raised for an empty or inverted sweep interval."""


class FloatRangeError(ValueError):
    """Raised when an equilibrium quantity over- or underflows a float."""


BISECTION_TOL = 1e-6
BISECTION_MAX_ITER = 200
# strictly-better margin for the dominance verdict, guards float noise
DOMINANCE_MARGIN = 1e-9


def pure_indifference_gap(alpha: float, n_active: int, params: GameParams) -> float:
    """Accept-minus-reject payoff under the reduced model, pure cohort case.

    The solver's reward for cohort n_active is the exact root of this gap.
    """
    q = relay_failure_probability(params.contact)
    accept, reject = relay_payoffs(alpha, n_active, q ** n_active, params, REDUCED)
    return accept - reject


def mixed_indifference_gap(alpha: float, p: float, params: GameParams) -> float:
    """Accept-minus-reject payoff under the reduced model, common mixing p."""
    accept, reject = mixed_relay_payoffs(alpha, p, params)
    return accept - reject


def mixed_relay_payoffs(alpha: float, p: float, params: GameParams) -> tuple[float, float]:
    """(accept, reject) payoffs of the reduced mixed model at common p.

    The share is the delivery probability over n, which keeps its relative
    precision where 1 - (1 - z)**n rounds to 0 (a tiny delta), as the reward
    of :func:`mse_reward` does; the regret needs the miss (1 - z)**n only to
    absolute precision.
    """
    n, z = params.n, per_relay_success(params, p)
    share = _any_delivers(z, n) / n
    regret = params.sigma * (n - 1 + (1.0 - z) ** n) / n
    return (alpha * share - regret - reduced_cooperation_cost(params),
            -alpha * share - params.gamma)


@dataclass(frozen=True)
class PseSolution:
    """Pure-strategy equilibria: one candidate reward per cohort size."""

    n_a_min: int
    alpha_star: dict[int, float]
    clamped: dict[int, bool]
    feasible: bool

    def unclamped(self) -> dict[int, float]:
        return {m: a for m, a in self.alpha_star.items() if not self.clamped[m]}


@dataclass(frozen=True)
class MseSolution:
    """Mixed-strategy equilibria: reward as a function of the accept prob."""

    p_min: float
    alpha_of_p: Callable[[float], float]
    z_star: float
    feasible: bool


@dataclass(frozen=True)
class EseSolution:
    """The equilibrium where the source's delivery constraint binds exactly."""

    p_star: float
    alpha_star: float
    binding_delivery: float
    alpha_clamped: bool = field(default=False)


def minimum_satisfying_cohort(params: GameParams) -> int:
    """Smallest integer cohort with 1 - q**m >= delta."""
    q = relay_failure_probability(params.contact)
    if q >= 1.0:
        raise DegenerateFailureError("no cohort can satisfy the source when q = 1")
    if q == 0.0:
        return 1  # exp(-lam*tau) underflowed: a single relay always delivers
    ratio = math.log(1.0 - params.delta) / math.log(q)
    # snap to the integer when float noise puts an exact bound a hair above it
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-12:
        ratio = nearest
    return max(1, math.ceil(ratio))


def _indifference_reward(params: GameParams, cohort: int, success: float) -> float:
    """Root in alpha of the reduced-model gap for a cohort that delivers
    with probability ``success``.

    Written over the cost itself, whose caching term is divided by lam, so
    the balance stays in range for every finite lam.
    """
    miss = 1.0 - success
    num = (params.sigma * (params.n - 1 + miss)
           + cohort * (reduced_cooperation_cost(params) - params.gamma))
    reward = num / (2.0 * success)
    if not math.isfinite(reward):
        raise FloatRangeError(f"indifference reward overflows at success {success}")
    return reward


def pse_reward(params: GameParams, n_active: int) -> float:
    """Reward making cohort n_active indifferent under the reduced model."""
    q = relay_failure_probability(params.contact)
    if q >= 1.0:
        raise DegenerateFailureError("indifference reward undefined for q = 1")
    return _indifference_reward(params, n_active, 1.0 - q ** n_active)


def solve_pse(params: GameParams) -> PseSolution:
    """All pure-strategy candidates: cohorts from the QoS bound up to n.

    Rewards falling outside [0, alpha_max] are reported clamped instead of
    saturated, since a saturated reward no longer balances the cohort.
    """
    n_a_min = minimum_satisfying_cohort(params)
    alpha_star: dict[int, float] = {}
    clamped: dict[int, bool] = {}
    for m in range(n_a_min, params.n + 1):
        a = pse_reward(params, m)
        alpha_star[m] = a
        clamped[m] = not (0.0 <= a <= params.alpha_max)
    feasible = n_a_min <= params.n and any(not c for c in clamped.values())
    return PseSolution(n_a_min=n_a_min, alpha_star=alpha_star, clamped=clamped,
                       feasible=feasible)


def mse_reward(params: GameParams, p: float) -> float:
    """Reward making relays indifferent when all accept with probability p."""
    success = expected_source_utility_mixed(p, params)
    if success <= 0:
        raise DegenerateContactError("indifference reward undefined for zero success")
    return _indifference_reward(params, params.n, success)


def solve_mse(params: GameParams) -> MseSolution:
    """Mixed equilibria: the minimum accept probability and the reward curve."""
    ceiling = per_relay_success(params, 1.0)
    if ceiling <= 0:
        raise DegenerateContactError("per-relay success is zero even at p = 1")
    # 1 - (1 - delta)**(1/n), which would round to 0 for a tiny delta
    p_min = -math.expm1(math.log1p(-params.delta) / params.n) / ceiling
    if p_min == 0.0:
        raise FloatRangeError(f"minimum accept probability underflows at delta = {params.delta}")
    feasible = p_min <= 1.0
    z_star = per_relay_success(params, min(p_min, 1.0))
    return MseSolution(p_min=p_min,
                       alpha_of_p=lambda p: mse_reward(params, p),
                       z_star=z_star,
                       feasible=feasible)


def solve_ese(params: GameParams) -> EseSolution:
    """Equilibrium at the binding point: smallest p meeting the QoS exactly."""
    mse = solve_mse(params)
    if not mse.feasible:
        raise DegenerateContactError(
            f"QoS delta = {params.delta} is unreachable even at p = 1")
    alpha = mse_reward(params, mse.p_min)
    clamped = not (0.0 <= alpha <= params.alpha_max)
    alpha = min(max(alpha, 0.0), params.alpha_max)
    return EseSolution(p_star=mse.p_min,
                       alpha_star=alpha,
                       binding_delivery=expected_source_utility_mixed(mse.p_min, params),
                       alpha_clamped=clamped)


def satisfaction_region(params: GameParams, sweep_var: str, lo: float, hi: float,
                        fixed_p: float) -> Optional[float]:
    """Smallest swept value at which mixed delivery reaches the threshold.

    Delivery is increasing in both tau and lambda, so the crossing is found
    by bisection to 1e-6 absolute; returns None when the bound is not
    reached anywhere in [lo, hi].
    """
    if not lo < hi:
        raise RangeError(f"need lo < hi, got [{lo}, {hi}]")
    if sweep_var not in ("tau", "lambda"):
        raise ValueError(f"sweep_var must be 'tau' or 'lambda', got {sweep_var!r}")

    def delivery(value: float) -> float:
        return expected_source_utility_mixed(fixed_p, with_param(params, sweep_var, value))

    if delivery(lo) >= params.delta:
        return lo
    if delivery(hi) < params.delta:
        return None
    a, b = lo, hi
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (a + b)
        if delivery(mid) >= params.delta:
            b = mid
        else:
            a = mid
        if b - a <= BISECTION_TOL:
            break
    return b


@dataclass(frozen=True)
class DominanceVerdict:
    """Comparison of a candidate profile against the binding equilibrium."""

    source_margin_delta: float
    relay_utility_delta: float
    dominates: bool


def pareto_dominance_check(candidate_p: float, candidate_alpha: float,
                           ese: EseSolution, params: GameParams) -> DominanceVerdict:
    """Does (p, alpha) weakly improve both sides and strictly improve one?

    The source is scored by its constraint margin (delivery minus delta) and
    the relays by their expected mixed payoff from
    :func:`dtnsat.model.expected_relay_utility_mixed`.
    """
    if not 0 <= candidate_p <= 1:
        raise ValueError(f"candidate_p must be in [0, 1], got {candidate_p}")
    if not 0 <= candidate_alpha <= params.alpha_max:
        raise ValueError(f"candidate_alpha must be in [0, alpha_max], got {candidate_alpha}")
    margin_cand = expected_source_utility_mixed(candidate_p, params) - params.delta
    margin_ese = ese.binding_delivery - params.delta
    relay_cand = expected_relay_utility_mixed(candidate_p, candidate_alpha, params)
    relay_ese = expected_relay_utility_mixed(ese.p_star, ese.alpha_star, params)
    d_margin = margin_cand - margin_ese
    d_relay = relay_cand - relay_ese
    weakly_both = d_margin >= -DOMINANCE_MARGIN and d_relay >= -DOMINANCE_MARGIN
    strictly_one = d_margin > DOMINANCE_MARGIN or d_relay > DOMINANCE_MARGIN
    return DominanceVerdict(source_margin_delta=d_margin,
                            relay_utility_delta=d_relay,
                            dominates=weakly_both and strictly_one)


def pareto_grid_scan(params: GameParams, ese: EseSolution,
                     p_points: int = 101, alpha_points: int = 101
                     ) -> list[tuple[float, float, DominanceVerdict]]:
    """Evaluate dominance on an even grid over [0,1] x [0,alpha_max].

    Returns the dominating candidates (empty means the binding equilibrium
    sits on the grid's Pareto frontier).
    """
    dominators = []
    for i in range(p_points):
        p = i / (p_points - 1)
        for j in range(alpha_points):
            a = params.alpha_max * j / (alpha_points - 1)
            verdict = pareto_dominance_check(p, a, ese, params)
            if verdict.dominates:
                dominators.append((p, a, verdict))
    return dominators
