import pytest

from dtnsat.model import ContactModel, EnergyModel, GameParams, relay_failure_probability, \
    relay_payoffs


def make_params(n=7, delta=0.21, lam=0.015, tau=100.0, sigma=0.2, gamma=0.15,
                e=3.8e-5, e_r=2e-5, e_t=2e-5, alpha_max=5.0) -> GameParams:
    return GameParams(contact=ContactModel(lam=lam, tau=tau),
                      energy=EnergyModel(e_store=e, e_receive=e_r, e_transmit=e_t),
                      n=n, sigma=sigma, gamma=gamma, delta=delta,
                      alpha_max=alpha_max)


def cohort_payoffs(alpha, cohort, params):
    """EXACT (accept, reject) payoffs of a relay in a caching cohort."""
    q = relay_failure_probability(params.contact)
    return relay_payoffs(alpha, cohort, q ** cohort, params)


@pytest.fixture
def base_params() -> GameParams:
    """The reference scenario used throughout the experiments."""
    return make_params()
