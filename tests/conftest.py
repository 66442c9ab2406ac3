import pytest

from dtnsat.model import GameParams, delivery_share, relay_payoffs


def make_params(n=7, delta=0.21, lam=0.015, tau=100.0, sigma=0.2, gamma=0.15,
                e=3.8e-5, e_r=2e-5, e_t=2e-5, alpha_max=5.0) -> GameParams:
    return GameParams(lam=lam, tau=tau, n=n, delta=delta, sigma=sigma, gamma=gamma,
                      e_store=e, e_receive=e_r, e_transmit=e_t, alpha_max=alpha_max)


def cohort_payoffs(alpha, cohort, params):
    """The game's (accept, reject) payoffs of a relay in a caching cohort."""
    return relay_payoffs(alpha, delivery_share(cohort, params.q), params)


@pytest.fixture
def base_params() -> GameParams:
    """The reference scenario used throughout the experiments."""
    return make_params()
