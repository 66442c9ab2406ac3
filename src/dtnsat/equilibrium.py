"""The paper's reduced model in closed form: equilibrium solvers and efficiency checks.

The solvers invert the reduced relay payoff,
:func:`dtnsat.model.reduced_payoffs`: caching cost is linearized to
e*(1-q)/lam and the failure regret is weighted by the full fleet size n
rather than by the accepting cohort alone; each returned reward is the root
of the accept-minus-reject gap of that payoff, pure at cohort m or mixed at
common p, which :func:`dtnsat.model._indifference_reward` states, so this
module reads no payoff parameter.  The simulator and the mixed utilities
pay the game's payoff, :func:`dtnsat.model.relay_payoffs`, where a relay
with k accepting opponents holds the share of cohort k+1;
:mod:`dtnsat.model` states both through its one payoff rule.  The two
disagree by far more than rounding: at the reference binding point (p* =
0.0549, alpha* = 0.7668) a relay's mixed accept/reject payoffs are
0.460/-0.675 under the game's payoff and -0.173/-0.173 under the reduced
one, so the binding point is no relay equilibrium of the game.

The mixed solvers are one column kernel, :func:`_mixed_column`: it takes a
sweep's whole column of ``tau``, ``lambda``, ``n`` or ``delta`` values and
evaluates the minimum accept probability, its success, the binding delivery
and the indifference reward at every point at once.  The sweep columns
:func:`mse_columns`, :func:`ese_columns` and :func:`region_columns` read it
and feed the CSV modes; :func:`solve_ese` is :func:`ese_columns` at one
point.  The pure candidates are one column too, :func:`pse_columns`: each
point expands to one row per cohort from its QoS bound to n.  Both kernels
meet a sweep in one place, :func:`_sweep_point`: it sets the swept variable
and gives the fleet and QoS and, at each point, the failure probability
``q`` that :class:`dtnsat.model.GameParams` keeps, the per-relay success
s = (1 - q)*reach at p = 1, and the reduced cooperation cost, which has no
other implementation.  The ``mean-field`` learner feed reads s and that cost
at its one point and pays :func:`dtnsat.model.reduced_payoffs` with them.
The columns use numpy only for ``+ - * /``, comparisons and selection, which
IEEE rounds alike in numpy and in Python floats; ``exp``, ``expm1``,
``log1p`` and the pure ``q**m`` are Python's own, mapped over the column,
because numpy's differ from them in the last bit on a few percent of inputs.
So every point keeps the bits of the scalar functions that the columns
restate elementwise: those of :mod:`dtnsat.model`, and the scalar reduced
cost that the test oracles keep.
"""
from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import GameParams, _indifference_reward, expected_relay_utility_mixed, \
    expected_source_utility_mixed


class DegenerateContactError(ValueError):
    """Raised when the mixed game has zero per-relay success at p = 1."""


class FloatRangeError(ValueError):
    """Raised when an equilibrium quantity over- or underflows a float."""


# unused by the package: only perfbench's region check imports it
BISECTION_TOL = 1e-6
# strictly-better margin of the dominance check, guards float noise
DOMINANCE_MARGIN = 1e-9


@dataclass(frozen=True)
class EseSolution:
    """The equilibrium where the source's delivery constraint binds exactly."""

    p_star: float
    alpha_star: float
    binding_delivery: float
    alpha_clamped: bool


def _cohort_bound(q: float, delta: float):
    """Smallest integer cohort m with 1 - q**m >= delta at failure
    probability q; inf where q = 1, at which no cohort ever delivers."""
    if q >= 1.0:
        return math.inf
    if q == 0.0:
        return 1  # exp(-lam*tau) underflowed: a single relay always delivers
    ratio = math.log(1.0 - delta) / math.log(q)
    # snap to the integer when float noise puts an exact bound a hair above it
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-12:
        ratio = nearest
    return max(1, math.ceil(ratio))


def minimum_satisfying_cohort(params: GameParams):
    """Smallest integer cohort with 1 - q**m >= delta; inf where q = 1."""
    return _cohort_bound(params.q, params.delta)


def _overflow(success: float) -> FloatRangeError:
    return FloatRangeError(f"indifference reward overflows at success {success}")


def _map(fn, x) -> np.ndarray:
    """The ``math`` function ``fn`` over the elements of ``x``, a float or an
    array, as a 1-D array."""
    xs = np.ravel(x).tolist()
    return np.fromiter(map(fn, xs), float, len(xs))


def _any_delivers_column(z, n):
    """:func:`dtnsat.model._any_delivers` elementwise: 1 - (1 - z)**n, and 1
    where z = 1, at which log1p(-z) would raise."""
    below = z < 1.0
    return np.where(below, -_map(math.expm1, n * _map(math.log1p, -np.where(below, z, 0.0))),
                    1.0)


def _sweep_point(params: GameParams, var: Optional[str], values):
    """(n, delta, q, s, cost) of ``params`` with the sweepable ``var`` (None
    for none) set to the float array of ``values``: the fleet, the QoS and,
    elementwise at x = lam*tau, the failure probability q = exp(-x), the
    per-relay success s = (1 - q)*reach at p = 1, with reach = -expm1(-x)
    the contact probability, and the reduced cooperation cost."""
    point = {"lambda": params.lam, "tau": params.tau, "n": params.n, "delta": params.delta}
    if var is not None:
        point[var] = np.asarray(values, dtype=float)
    lam, tau, e = point["lambda"], point["tau"], params.e_store
    with np.errstate(all="ignore"):  # the masked-out branch divides by zero at lam = 0
        x = lam * tau
        q, reach = _map(math.exp, -x), -_map(math.expm1, -x)
        stored = e * reach
        stored = np.where(stored < sys.float_info.min,
                          e * tau * np.where(x > 0, reach / x, 1.0), stored / lam)
        cost = params.e_receive + params.e_transmit + stored
    return point["n"], point["delta"], q, (1.0 - q) * reach, cost


@dataclass(frozen=True)
class _MixedColumn:
    """The mixed closed forms at every point of a column, as 1-D arrays.

    ``p_min`` is inf where the per-relay success at p = 1 is 0 and 0 where
    it underflows; ``success`` and ``alpha`` are the delivery and the
    indifference reward at the kernel's p.
    """

    delta: np.ndarray
    p_min: np.ndarray
    z_star: np.ndarray
    success: np.ndarray
    alpha: np.ndarray


def _mixed_column(params: GameParams, var: Optional[str] = None, values=(),
                  p=None) -> _MixedColumn:
    """The mixed solvers at every point of ``params`` with the sweepable
    ``var`` (tau, lambda, n or delta; None for the one point ``params``) set
    to each of ``values``.  The reward and its success are taken at p, by
    default at min(p_min, 1).  Raises nothing: the callers check the points.
    """
    n, delta, _, ceiling, cost = _sweep_point(params, var, values)
    # the masked-out points divide by zero and overflow: numpy must not warn
    with np.errstate(all="ignore"):
        # 1 - (1 - delta)**(1/n), which would round to 0 for a tiny delta
        bound = -_map(math.expm1, _map(math.log1p, -delta) / n)
        p_min = np.where(ceiling > 0.0, bound / ceiling, math.inf)
        z_star = ceiling * np.minimum(p_min, 1.0)
        success = _any_delivers_column(z_star if p is None else ceiling * p, n)
        alpha = _indifference_reward(params, n, cost, n, success)
    return _MixedColumn(np.broadcast_to(delta, p_min.shape), p_min, z_star, success, alpha)


def _solved_column(params: GameParams, var: Optional[str] = None, values=()
                   ) -> _MixedColumn:
    """:func:`_mixed_column` at p_min.  Raises the error of the first point,
    in column order, whose p_min underflows or which, with p_min <= 1, has
    an overflowing reward; any other has a positive z*, so a positive success.
    A point whose p_min underflows is named for the underflow, which the
    point-by-point solvers met first."""
    col = _mixed_column(params, var, values)
    underflow = col.p_min == 0.0
    failed = underflow | ((col.p_min <= 1.0) & ~np.isfinite(col.alpha))
    if failed.any():
        i = int(np.argmax(failed))
        if underflow[i]:
            raise FloatRangeError("minimum accept probability underflows at "
                                  f"delta = {float(col.delta[i])}")
        raise _overflow(float(col.success[i]))
    return col


def _clamp(alpha, alpha_max: float):
    """(min(max(alpha, 0), alpha_max), whether alpha lay outside
    [0, alpha_max]), elementwise."""
    return (np.where(alpha_max < alpha, alpha_max, np.where(0.0 > alpha, 0.0, alpha)),
            ~((0.0 <= alpha) & (alpha <= alpha_max)))


def pse_columns(params: GameParams, var: Optional[str], values):
    """(point, n_a, alpha_star, clamped, n_a_min, feasible) arrays of the
    pure equilibria over the sweep of ``var`` through ``values`` (None for
    the one point ``params``): one row per cohort n_a = n_a_min..n of each
    point, whose index into ``values`` is ``point``.

    A reward outside [0, alpha_max] is flagged clamped, not saturated, since
    a saturated reward no longer balances its cohort; a point is feasible
    when some cohort's reward is unclamped.  A point with no cohort of at
    most n has one row (nan, nan, 0, n_a_min, 0), n_a_min = inf where q = 1.
    Raises the overflow of the first reward, in row order, that is not
    finite.
    """
    n, delta, q, _, cost = _sweep_point(params, var, values)
    # a float fleet, which numpy would hold as Python ints past int64
    q, cost, fleet, delta = np.broadcast_arrays(q, cost, np.asarray(n, dtype=float), delta)
    size = len(q)
    n_a_min = np.fromiter(map(_cohort_bound, q.tolist(), delta.tolist()), float, size)
    has = n_a_min <= fleet
    counts = np.where(has, fleet - n_a_min + 1, 1)
    if counts.max() >= 2.0 ** 63 or counts.sum() >= 2.0 ** 63:  # the cast would wrap
        raise OverflowError("too many cohort rows")
    counts = counts.astype(np.intp)
    point = np.repeat(np.arange(size), counts)
    first = np.cumsum(counts) - counts
    cohort = n_a_min[point] + (np.arange(len(point)) - first[point])
    marked = ~has[point]
    # 1 - q**m with Python's pow, which numpy's power may differ from
    success = 1.0 - np.fromiter(map(pow, q[point].tolist(), cohort.tolist()), float, len(point))
    with np.errstate(all="ignore"):  # the marked rows' cohort is inf or past n
        alpha = _indifference_reward(params, fleet[point], cost[point], cohort, success)
    failed = ~marked & ~np.isfinite(alpha)
    if failed.any():
        raise _overflow(float(success[np.argmax(failed)]))
    clamped = ~marked & _clamp(alpha, params.alpha_max)[1]
    feasible = np.bincount(point[~marked & ~clamped], minlength=size) > 0
    return (point, np.where(marked, math.nan, cohort), np.where(marked, math.nan, alpha),
            clamped, n_a_min[point], feasible[point])


def mse_columns(params: GameParams, var: Optional[str], values):
    """(p_min, alpha_star, z_star, feasible) arrays of the mixed equilibria,
    reward at p_min, over the sweep of ``var`` through ``values`` (None for
    the one point ``params``): the reward is nan where p_min > 1, and p_min
    is inf where no relay ever delivers."""
    col = _solved_column(params, var, values)
    feasible = col.p_min <= 1.0
    return col.p_min, np.where(feasible, col.alpha, math.nan), col.z_star, feasible


def ese_columns(params: GameParams, var: Optional[str], values):
    """(p_star, alpha_star, binding_delivery, alpha_clamped) arrays of
    :func:`solve_ese` over the sweep of ``var`` through ``values``.  Where
    the QoS is unreachable, p_star is p_min (inf where no relay ever
    delivers), the reward and delivery are nan and the clamp flag False."""
    col = _solved_column(params, var, values)
    feasible = col.p_min <= 1.0
    alpha, clamped = _clamp(col.alpha, params.alpha_max)
    return (col.p_min, np.where(feasible, alpha, math.nan),
            np.where(feasible, col.success, math.nan), feasible & clamped)


def solve_ese(params: GameParams) -> EseSolution:
    """The binding equilibrium, :func:`ese_columns` at the one point
    ``params``; p_star is inf exactly where 1 - q is 0, as it is otherwise at
    least about 1.1e-16."""
    p_star, alpha, delivery, clamped = (c.item() for c in ese_columns(params, None, ()))
    if p_star == math.inf:
        lam, tau = params.lam, params.tau
        raise DegenerateContactError(f"per-relay success is zero even at p = 1: lambda = {lam} "
                                     f"and tau = {tau} give x = lambda*tau = {lam * tau}, "
                                     "at which exp(-x) rounds to 1")
    if p_star > 1.0:
        raise DegenerateContactError(f"QoS delta = {params.delta} is unreachable even at p = 1")
    return EseSolution(p_star, alpha, delivery, clamped)


def region_columns(params: GameParams, var: str, values, p: float):
    """(delivery, threshold) over the sweep of ``var``, tau or lambda, through
    ``values`` at common p: :func:`dtnsat.model.expected_source_utility_mixed`
    at each value, and the smallest value in [min, max] at which it reaches
    delta, None where it never does.  Delivery at p reaches delta once
    p*(1 - e^-x)**2, x = lam*tau, reaches b = 1 - (1 - delta)**(1/n), so the
    crossing x* = -log1p(-sqrt(b/p)) over the fixed lam or tau is exact up to
    rounding.  One value, repeated or not, spans no range: its row decides.
    Raises nothing: the config checks the values and p."""
    delivery = _mixed_column(params, var, values, p).success
    lo, hi = min(values), max(values)
    if lo == hi:
        return delivery, lo if delivery[0] >= params.delta else None
    fixed = params.tau if var == "lambda" else params.lam
    bound = -math.expm1(math.log1p(-params.delta) / params.n)
    ratio = bound / p if p > 0 else math.inf
    if fixed == 0 or ratio >= 1.0:
        return delivery, None
    crossing = -math.log1p(-math.sqrt(ratio)) / fixed
    if crossing <= lo:
        return delivery, lo
    return delivery, crossing if crossing <= hi else None


def pareto_grid_scan(params: GameParams, ese: EseSolution) -> np.ndarray:
    """Evaluate dominance on the even 101x101 grid over [0,1] x [0,alpha_max].

    A cell dominates the binding equilibrium when, within ``DOMINANCE_MARGIN``,
    it weakly improves both sides and strictly improves one: the source by
    its delivery margin over delta, scored once per p row, the relays by
    :func:`dtnsat.model.expected_relay_utility_mixed` at the cell and at the
    binding point.  Returns the dominating cells as one ``(k, 4)`` float
    array in grid order (p outer, alpha inner), rows ``(p, alpha,
    source_margin_delta, relay_utility_delta)``; no rows means the binding
    equilibrium sits on the grid's Pareto frontier.
    """
    top = params.alpha_max
    # the reward axis ends at alpha_max exactly: the product can round one ulp
    # past it at j = 100, or overflow, where the axis divides first
    alphas = [min(top * j / 100 if top * j < math.inf else top / 100 * j, top)
              for j in range(101)]
    margin_ese = ese.binding_delivery - params.delta
    rows = array("d")
    for i in range(101):
        p = i / 100
        d_margin = expected_source_utility_mixed(p, params) - params.delta - margin_ese
        for a in alphas:
            d_relay = (expected_relay_utility_mixed(p, a, params)
                       - expected_relay_utility_mixed(ese.p_star, ese.alpha_star, params))
            if (d_margin >= -DOMINANCE_MARGIN and d_relay >= -DOMINANCE_MARGIN
                    and (d_margin > DOMINANCE_MARGIN or d_relay > DOMINANCE_MARGIN)):
                rows.extend((p, a, d_margin, d_relay))
    return np.frombuffer(rows).reshape(-1, 4)  # a view of the rows, no copy
