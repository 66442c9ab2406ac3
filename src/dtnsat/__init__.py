"""Satisfaction equilibria for reward-based content delivery in DTNs.

Closed-form pure/mixed/binding equilibrium solvers for the source-relays
caching game, the coupled stochastic learners of the source and the relays,
an episode-level Monte Carlo oracle, and a CSV experiment CLI.
"""

__version__ = "0.1.0"
