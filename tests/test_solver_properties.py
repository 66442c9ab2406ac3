"""Property test of the closed-form solvers over the whole parameter box:
every call returns finite values or raises a typed error, never a bare
ValueError, ZeroDivisionError or OverflowError."""
import math

from hypothesis import given, settings, strategies as st

from dtnsat.equilibrium import solve_ese, solve_mse, solve_pse
from conftest import make_params

LAMBDAS = st.floats(min_value=0.0, max_value=1e308)
TAUS = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)
DELTAS = st.one_of(st.just(1e-300),
                   st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                             exclude_max=True))
FLEETS = st.integers(min_value=1, max_value=64)


def finite_or_typed(solve, params):
    """The solver's result, or None when it raised a typed error."""
    try:
        return solve(params)
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

    pse = finite_or_typed(solve_pse, params)
    if pse is not None:
        assert pse.n_a_min >= 1
        assert all_finite(*pse.alpha_star.values())

    mse = finite_or_typed(solve_mse, params)
    if mse is not None:
        assert all_finite(mse.p_min, mse.z_star) and 0.0 < mse.p_min
        if mse.feasible:
            alpha = finite_or_typed(mse.alpha_of_p, mse.p_min)
            assert alpha is None or math.isfinite(alpha)

    ese = finite_or_typed(solve_ese, params)
    if ese is not None:
        assert all_finite(ese.p_star, ese.alpha_star, ese.binding_delivery)
        assert 0.0 <= ese.alpha_star <= params.alpha_max
