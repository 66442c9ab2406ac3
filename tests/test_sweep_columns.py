"""The column kernels behind solve-pse, solve-mse, solve-ese and region give,
bit for bit, what the point-by-point solvers in ``oracles`` give: every
column, its one-point case and the scalar solve_ese, each model function
the kernels restate elementwise, and the first error of a sweep in sweep
order."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtnsat import equilibrium
from dtnsat.equilibrium import (
    _any_delivers_column,
    _indifference_reward,
    _mixed_column,
    _sweep_point,
    ese_columns,
    mse_columns,
    pse_columns,
    region_columns,
    solve_ese,
)
from dtnsat.model import (
    _any_delivers,
    expected_source_utility_mixed,
    per_relay_success,
    storage_energy,
)
from conftest import make_params
from oracles import (
    point_ese,
    point_ese_row,
    point_mse_reward,
    point_mse_row,
    point_pse,
    reduced_cooperation_cost,
    with_param,
)
from test_solver_properties import DELTAS, FLEETS, LAMBDAS, TAUS

SWEPT = {"tau": TAUS, "lambda": LAMBDAS, "n": FLEETS.map(float), "delta": DELTAS}
PROBS = st.floats(min_value=0.0, max_value=1.0)


def bits(values):
    """Each value's exact float, sign of zero and nan included."""
    return [float(v).hex() for v in values]


def outcome(compute):
    """The rows ``compute`` returns, as bits per column, or the type and
    message of what it raised."""
    try:
        columns = compute()
    except ValueError as exc:
        return type(exc), str(exc)
    return [bits(c) for c in columns]


def point_columns(row, params, var, values):
    """The columns of ``row`` evaluated at each point of the sweep."""
    rows = [row(with_param(params, var, v)) for v in values]
    return list(zip(*rows))


def assert_columns_match(params, var, values, p):
    assert outcome(lambda: mse_columns(params, var, values)) == \
        outcome(lambda: point_columns(point_mse_row, params, var, values))
    assert outcome(lambda: ese_columns(params, var, values)) == \
        outcome(lambda: point_columns(point_ese_row, params, var, values))
    if var in ("tau", "lambda"):
        assert bits(region_columns(params, var, values, p)[0]) == \
            bits(expected_source_utility_mixed(p, with_param(params, var, v)) for v in values)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), lam=LAMBDAS, tau=TAUS, delta=DELTAS, n=FLEETS, p=PROBS)
@pytest.mark.parametrize("var", list(SWEPT))
def test_columns_match_the_point_solvers_over_the_box(var, data, lam, tau, delta, n, p):
    values = data.draw(st.lists(SWEPT[var], min_size=1, max_size=6))
    assert_columns_match(make_params(lam=lam, tau=tau, delta=delta, n=n), var, values, p)


def point_pse_columns(params, var, values):
    """The pse_columns of ``oracles.point_pse`` evaluated point by point,
    with each row's point index leading."""
    points = [params] if var is None else [with_param(params, var, v) for v in values]
    return list(zip(*[(i, *row) for i, point in enumerate(points) for row in point_pse(point)]))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), lam=LAMBDAS, tau=TAUS, delta=DELTAS, n=FLEETS,
       alpha_max=st.sampled_from([0.014, 0.2, 5.0]))
@pytest.mark.parametrize("var", [None, *SWEPT])
def test_pure_column_matches_the_point_solver(var, data, lam, tau, delta, n, alpha_max):
    # nan compares by its bits; an overflow by its type and message
    params = make_params(lam=lam, tau=tau, delta=delta, n=n, alpha_max=alpha_max)
    values = () if var is None else data.draw(st.lists(SWEPT[var], min_size=1, max_size=6))
    assert outcome(lambda: pse_columns(params, var, values)) == \
        outcome(lambda: point_pse_columns(params, var, values))


@pytest.mark.parametrize("var,values,fixed", [
    ("lambda", [0.015, 0.0, 5e-324, 1e-320, 1e308], {}),  # q = 1, then q = 0
    ("delta", [0.21, 0.99, 0.999], {"n": 2}),  # the bound passes the fleet
    ("n", [1.0, 3.0, 7.0, 40.0], {"alpha_max": 0.2}),  # clamped rows
    # the reward overflows: at the second point, and at the first point's
    # first cohort, whose bound exceeds 1
    ("lambda", [1e-6, 1e-10, 1e-12], {"e": 1e300, "delta": 0.01, "tau": 1e10}),
    ("delta", [0.5, 1e-300], {"e": 1e300, "tau": 1e10, "lam": 1e-9}),
])
def test_pure_named_points(var, values, fixed):
    params = make_params(**fixed)
    assert outcome(lambda: pse_columns(params, var, values)) == \
        outcome(lambda: point_pse_columns(params, var, values))


def solution(compute):
    """The fields of the solution ``compute`` returns, as (type, bits)
    pairs, or the type and message of what it raised."""
    try:
        value = compute()
    except ValueError as exc:
        return type(exc), str(exc)
    fields = vars(value).values() if hasattr(value, "__dataclass_fields__") else [value]
    return [(type(v), float(v).hex()) for v in fields]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lam=LAMBDAS, tau=TAUS, delta=DELTAS, n=FLEETS, p=PROBS)
def test_one_point_solvers_match_the_point_solvers(lam, tau, delta, n, p):
    params = make_params(lam=lam, tau=tau, delta=delta, n=n)
    assert outcome(lambda: mse_columns(params, None, ())) == \
        outcome(lambda: list(zip(point_mse_row(params))))
    assert solution(lambda: solve_ese(params)) == solution(lambda: point_ese(params))
    # the kernel's reward at any p, wherever the point-by-point one is defined
    want = solution(lambda: point_mse_reward(params, p))
    if isinstance(want, list):
        assert solution(lambda: _mixed_column(params, p=p).alpha.item()) == want


@pytest.mark.parametrize("lam,tau", [
    (0.0, 100.0), (5e-324, 100.0), (1e-320, 100.0),  # q = 1: no relay ever delivers
    (1e308, 1e308),  # lambda*tau overflows to inf
    (10.0, 75.0),  # lambda*tau > 745: q underflows to 0, so z = 1 at p = 1
    (0.015, 100.0),
])
@pytest.mark.parametrize("var", ["lambda", "tau"])
def test_named_points(lam, tau, var):
    value = lam if var == "lambda" else tau
    params = make_params(lam=0.015 if var == "lambda" else lam,
                         tau=100.0 if var == "tau" else tau)
    for p in (0.0, 0.37, 1.0):
        assert_columns_match(params, var, [0.015 if var == "lambda" else 100.0, value], p)


# each model function the kernel restates, pinned to its scalar twin

@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lams=st.lists(LAMBDAS, min_size=1, max_size=8), tau=TAUS)
def test_contact_column_is_the_scalar_contact_model(lams, tau):
    points = [make_params(lam=lam, tau=tau) for lam in lams]
    _, _, q, reach, _ = _sweep_point(make_params(tau=tau), "lambda", lams)
    assert bits(q) == bits(point.q for point in points)
    assert bits(reach) == bits(point.reach for point in points)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lam=LAMBDAS, tau=TAUS)
@example(lam=0.0, tau=100.0)
@example(lam=5e-324, tau=100.0)
@example(lam=1e-3, tau=100.0)  # lam*tau = 0.1: storage_energy's series branch
@example(lam=1e308, tau=1e308)  # lam*tau overflows to inf
def test_record_constants_are_the_expressions_they_keep(lam, tau):
    params = make_params(lam=lam, tau=tau)
    want = (math.exp(-lam * tau), -math.expm1(-lam * tau),
            params.e_receive + params.e_transmit + storage_energy(params))
    assert bits((params.q, params.reach, params.total_energy)) == bits(want)
    _, _, q, reach, _ = _sweep_point(params, None, ())
    assert bits((params.q, params.reach)) == bits((q.item(), reach.item()))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(zs=st.lists(st.one_of(st.just(1.0), st.just(0.0), PROBS), min_size=1, max_size=8),
       n=FLEETS)
def test_any_delivers_column_is_the_scalar_one(zs, n):
    want = bits(_any_delivers(z, n) for z in zs)
    with np.errstate(all="ignore"):
        assert bits(_any_delivers_column(np.array(zs), n)) == want
        assert bits(_any_delivers_column(np.array(zs), np.full(len(zs), float(n)))) == want


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lams=st.lists(LAMBDAS, min_size=1, max_size=8), tau=TAUS, n=FLEETS,
       success=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_cost_and_reward_columns_are_the_scalar_ones(lams, tau, n, success):
    params = make_params(tau=tau, n=n)
    points = [with_param(params, "lambda", v) for v in lams]
    cost = _sweep_point(params, "lambda", lams)[4]
    with np.errstate(all="ignore"):
        reward = _indifference_reward(params, n, cost, n, np.full(len(lams), success))
    assert bits(cost) == bits(map(reduced_cooperation_cost, points))
    assert bits(reward) == bits(
        _indifference_reward(params, n, reduced_cooperation_cost(point), n, success)
        for point in points)
    # the one-point path the mean-field learner feed reads
    for point in points:
        _, _, q, reach, cost = _sweep_point(point, None, ())
        assert bits(cost) == bits([reduced_cooperation_cost(point)])
        assert bits((1.0 - q) * reach) == bits([per_relay_success(point, 1.0)])


# errors: the kernel raises the first failing point in sweep order

class TestFloatRangeErrors:
    UNDERFLOW = "minimum accept probability underflows at delta = 5e-324"
    OVERFLOW = "indifference reward overflows at success 5e-324"

    def test_scalar_p_min_underflow(self):
        params = make_params(delta=5e-324)  # log1p(-delta)/7 rounds to 0
        with pytest.raises(equilibrium.FloatRangeError, match=f"^{self.UNDERFLOW}$"):
            mse_columns(params, None, ())
        with pytest.raises(equilibrium.FloatRangeError, match=f"^{self.UNDERFLOW}$"):
            solve_ese(params)

    def test_scalar_reward_overflow(self):
        params = make_params(delta=5e-324, n=1)
        assert _mixed_column(params).p_min.item() > 0.0  # the bound itself is in range
        with pytest.raises(equilibrium.FloatRangeError, match=f"^{self.OVERFLOW}$"):
            mse_columns(params, None, ())
        with pytest.raises(equilibrium.FloatRangeError, match=f"^{self.OVERFLOW}$"):
            solve_ese(params)

    @pytest.mark.parametrize("columns", [mse_columns, ese_columns])
    @pytest.mark.parametrize("values,message", [((1.0, 3.0), OVERFLOW),
                                                ((3.0, 1.0), UNDERFLOW)])
    def test_first_failing_point_decides(self, columns, values, message):
        # at delta = 5e-324 the bound underflows for n >= 2 and the reward
        # overflows at n = 1: the earlier point's error is the one raised
        with pytest.raises(equilibrium.FloatRangeError, match=f"^{message}$"):
            columns(make_params(delta=5e-324), "n", values)
