"""Satisfaction equilibria for reward-based content delivery in DTNs.

Closed-form pure/mixed/binding equilibrium solvers for the source-relays
caching game, the coupled stochastic learners of the source and the relays,
an episode-level Monte Carlo oracle, and a CSV experiment CLI.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ContactModel,
    EnergyModel,
    GameParams,
    contact_probability,
    delivery_share,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    relay_failure_probability,
    reduced_payoffs,
    relay_payoffs,
    storage_energy,
    tagged_indifference_reward,
    tagged_payoffs,
    total_energy,
)
from .equilibrium import (  # noqa: F401
    EseSolution,
    pareto_dominance_check,
    pareto_grid_scan,
    satisfaction_region,
    solve_ese,
)
from .learning import (  # noqa: F401
    Trajectory,
    run_coupled,
)
from .simulate import (  # noqa: F401
    EstimateWithCI,
    episode_rng,
    estimate_delivery,
    estimate_relay_utility,
    simulate_episode,
)
