"""Property tests over the whole parameter box: every closed-form solver
call returns finite values, or marked ones in the sweep columns, or raises
a typed error, never a bare ValueError, ZeroDivisionError or
OverflowError, the exact cost and mixed relay payoff are finite, and the
mixed reward meets its closed identity along every tau sweep."""
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from dtnsat.equilibrium import (
    DegenerateContactError,
    EseSolution,
    FloatRangeError,
    _sweep_point,
    ese_columns,
    mse_columns,
    pse_columns,
    solve_ese,
)
from dtnsat.model import expected_relay_utility_mixed, per_relay_success
from conftest import make_params

LAMBDAS = st.floats(min_value=0.0, max_value=1e308)
TAUS = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)
DELTAS = st.one_of(st.just(1e-300),
                   st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                             exclude_max=True))
FLEETS = st.integers(min_value=1, max_value=64)
# the mixed reward's rounding, relative to the sum of its identity's term
# magnitudes: the terms can cancel to far below them, so |alpha| is no scale
IDENTITY_BOUND = 1e-13


def finite_or_typed(solve, *args):
    """The solver's result, or None when it raised a typed error."""
    try:
        return solve(*args)
    except ValueError as exc:
        # ZeroDivisionError and OverflowError are no ValueError: they propagate
        assert type(exc) is not ValueError, exc
        return None


def all_finite(*values):
    return all(math.isfinite(v) for v in values)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(lam=LAMBDAS, tau=TAUS, delta=DELTAS, n=FLEETS)
def test_solvers_are_total_over_the_box(lam, tau, delta, n):
    params = make_params(lam=lam, tau=tau, delta=delta, n=n)

    pse = finite_or_typed(pse_columns, params, None, ())
    if pse is not None:
        # marked, not finite: one row, n_a = nan, where no cohort of at most
        # n satisfies the source
        contact = per_relay_success(params, 1.0) > 0.0
        for point, n_a, alpha, clamped, n_a_min, feasible in zip(*pse):
            assert point == 0 and n_a_min >= 1
            assert math.isfinite(n_a_min) or not contact
            if math.isnan(n_a):
                assert len(pse[0]) == 1 and n_a_min > params.n
                assert math.isnan(alpha) and not clamped and not feasible
            else:
                assert n_a_min <= n_a <= params.n and math.isfinite(alpha)

    mse = finite_or_typed(mse_columns, params, None, ())
    if mse is not None:
        # marked, not finite: p_min = inf only at zero contact, and the
        # reward nan only where p_min > 1
        contact = per_relay_success(params, 1.0) > 0.0
        for p_min, alpha, z_star, feasible in zip(*mse):
            assert 0.0 < p_min and math.isfinite(z_star)
            assert math.isfinite(p_min) or (p_min == math.inf and not contact)
            assert math.isfinite(alpha) or (math.isnan(alpha) and p_min > 1.0)
            assert feasible == (p_min <= 1.0)

    ese = finite_or_typed(solve_ese, params)
    if ese is not None:
        assert all_finite(ese.p_star, ese.alpha_star, ese.binding_delivery)
        assert 0.0 <= ese.alpha_star <= params.alpha_max


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(lam=LAMBDAS, tau=TAUS, delta=DELTAS, n=FLEETS)
def test_solve_ese_is_the_column_at_one_point(lam, tau, delta, n):
    params = make_params(lam=lam, tau=tau, delta=delta, n=n)
    try:
        columns = ese_columns(params, None, ())
    except FloatRangeError as exc:
        with pytest.raises(FloatRangeError, match=f"^{re.escape(str(exc))}$"):
            solve_ese(params)
        return
    p_star, alpha, delivery, clamped = (c.item() for c in columns)
    # p_star is inf exactly where no relay delivers even at p = 1
    assert (p_star == math.inf) == (per_relay_success(params, 1.0) == 0.0)
    if p_star > 1.0:
        message = (f"per-relay success is zero even at p = 1: lambda = {lam} and tau = {tau} "
                   f"give x = lambda*tau = {lam * tau}, at which exp(-x) rounds to 1"
                   if p_star == math.inf else f"QoS delta = {delta} is unreachable even at p = 1")
        with pytest.raises(DegenerateContactError, match=f"^{re.escape(message)}$"):
            solve_ese(params)
        return
    ese = solve_ese(params)
    assert ese == EseSolution(p_star, alpha, delivery, clamped)
    assert [type(v) for v in vars(ese).values()] == [float, float, float, bool]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(lam=LAMBDAS, tau=TAUS, n=FLEETS, p=st.floats(min_value=0.0, max_value=1.0))
def test_exact_cost_is_finite_over_the_box(lam, tau, n, p):
    params = make_params(lam=lam, tau=tau, n=n)
    assert math.isfinite(params.total_energy)
    assert math.isfinite(expected_relay_utility_mixed(p, 0.5, params))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(lam=LAMBDAS, delta=DELTAS, n=FLEETS,
       taus=st.lists(TAUS, min_size=1, max_size=6, unique=True))
def test_mixed_reward_is_its_identity_and_rises_with_tau(lam, delta, n, taus):
    """At p_min the cohort delivers delta and misses 1 - delta, so the
    reduced indifference reward is alpha* = (sigma (n - delta) - n gamma +
    n c) / (2 delta), c the reduced cost of ``_sweep_point``.  It moves with
    tau only through c, which never falls with tau, so along a tau sweep
    the feasible rewards never fall by more than the rounding bound."""
    taus = sorted(taus)
    params = make_params(lam=lam, tau=taus[0], delta=delta, n=n)
    columns = finite_or_typed(mse_columns, params, "tau", taus)
    if columns is None:
        return
    _, alphas, _, feasible = columns
    costs = _sweep_point(params, "tau", taus)[4]
    rewards = []
    for alpha, cost in zip(alphas[feasible].tolist(), costs[feasible].tolist()):
        terms = (params.sigma * (n - delta), -n * params.gamma, n * cost)
        scale = sum(map(abs, terms)) / (2.0 * delta)
        assert abs(alpha - sum(terms) / (2.0 * delta)) <= IDENTITY_BOUND * scale
        rewards.append((alpha, scale))
    for (low, low_scale), (high, high_scale) in zip(rewards, rewards[1:]):
        assert high >= low - IDENTITY_BOUND * (low_scale + high_scale)
