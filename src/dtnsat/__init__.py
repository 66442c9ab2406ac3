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
    delivery_share_bruteforce,
    expected_relay_utility_mixed,
    expected_source_utility_mixed,
    relay_failure_probability,
    relay_payoffs,
    source_utility,
    storage_energy,
    total_energy,
)
from .equilibrium import (  # noqa: F401
    EseSolution,
    MseSolution,
    PseSolution,
    pareto_dominance_check,
    pareto_grid_scan,
    satisfaction_region,
    solve_ese,
    solve_mse,
    solve_pse,
)
from .learning import (  # noqa: F401
    Schedules,
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
