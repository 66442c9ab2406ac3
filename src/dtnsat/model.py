"""Closed-form contact, energy and utility formulas of the caching game that
the simulator plays; the solvers' reduced payoff is in :mod:`dtnsat.equilibrium`.

Everything here is a pure function over :class:`GameParams`, the one
immutable record of the game's inputs and the one place they are checked
(the callers keep p and alpha in range).  The record also keeps the
constants derived from its inputs alone, ``q``, ``reach`` and
``total_energy``, set once when it is built, so a caller that reads them
per grid cell or per step evaluates none of them.  Nothing here is ever
mutated, so the module is safe to use from any number of threads.
Counts are integers; probabilities and energies are plain floats in
consistent (dimensionless) units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


# each bound that a field's message states, and its test; the config holds
# an accept probability p to "in [0, 1]"
_HOLDS = {">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0, "in (0, 1)": lambda v: 0 < v < 1,
          "in [0, 1]": lambda v: 0 <= v <= 1,
          "a positive integer": lambda v: isinstance(v, int) and v >= 1}
# the fields' bounds in the order they are checked: every value of a group
# finite (n, an int, aside), then each in its bound, so the value named is
# the same whatever else is bad
_BOUNDS = ({"lam": ">= 0", "tau": "> 0"},
           {"e_store": ">= 0", "e_receive": ">= 0", "e_transmit": ">= 0"},
           {"n": "a positive integer"},
           {"sigma": ">= 0", "gamma": ">= 0", "delta": "in (0, 1)", "alpha_max": "> 0"})


@dataclass(frozen=True)
class GameParams:
    """Full configuration of the source/relays caching game.

    Poisson pairwise meetings at rate lam within the file lifetime tau; n
    relays face an accept/reject dilemma, delta is the source's
    delivery-probability threshold, sigma the regret for caching without
    delivering first and gamma the regret for declining; e_store is the
    caching energy per time unit, e_receive and e_transmit the reception
    and transmission energies, and alpha_max the reward cap.  Building the
    record also sets the constants of its inputs alone: q = exp(-lam*tau),
    the probability of zero meetings within the lifetime; reach =
    -expm1(-lam*tau), its complement; and total_energy, the per-node cost
    of cooperating, e_receive + e_transmit + :func:`storage_energy`.
    """

    lam: float
    tau: float
    n: int
    delta: float
    sigma: float
    gamma: float
    e_store: float
    e_receive: float
    e_transmit: float
    alpha_max: float

    def __post_init__(self):
        for group in _BOUNDS:
            values = {name: getattr(self, name) for name in group}
            for name, value in values.items():
                if name != "n" and not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
            for name, bound in group.items():
                if not _HOLDS[bound](values[name]):
                    raise ValueError(f"{name} must be {bound}, got {values[name]}")
        object.__setattr__(self, "q", math.exp(-self.lam * self.tau))
        object.__setattr__(self, "reach", -math.expm1(-self.lam * self.tau))
        object.__setattr__(self, "total_energy",
                           self.e_receive + self.e_transmit + storage_energy(self))


def storage_energy(params: GameParams) -> float:
    """Mean energy dissipated while caching a file until its first handover.

    Evaluates (e/lam) * (1 - (1 + lam*tau) * exp(-lam*tau)), and its analytic
    limit 0 at lam = 0.
    """
    lam, tau = params.lam, params.tau
    if lam == 0:
        return 0.0
    lam_tau = lam * tau
    if lam_tau < 0.5:  # the bracket cancels to about x**2/2: sum its series
        bracket = math.fsum((k - 1) * (-lam_tau) ** k / math.factorial(k) for k in range(2, 20))
    else:  # a product that overflows to inf would give (1 + inf) * 0 = nan
        bracket = 1.0 - ((1.0 + lam_tau) * math.exp(-lam_tau) if math.isfinite(lam_tau) else 0.0)
    scale = params.e_store / lam
    # at a subnormal lam, e/lam overflows where the bracket rounds to 0
    return scale * bracket if math.isfinite(scale) else params.e_store * (bracket / lam)


def relay_payoffs(alpha, share, params: GameParams):
    """The game's (accept, reject) payoffs of a relay holding ``share`` of the
    reward alpha: accepting earns it less the regret sigma*(1 - share) and
    the record's ``total_energy``; declining forfeits it and pays the
    regret gamma.  Numpy arrays of shares work elementwise."""
    return (alpha * share - params.sigma * (1.0 - share) - params.total_energy,
            -alpha * share - params.gamma)


def delivery_share(n_active: int, q: float) -> float:
    """Probability a tagged caching relay is first to deliver, closed form.

    Each of the n_active relays independently fails with probability q;
    the first success wins and ties are impossible in continuous time, so the
    tagged relay's share is (1 - q**n_active) / n_active.
    """
    return (1.0 - q ** n_active) / n_active


def per_relay_success(params: GameParams, p: float) -> float:
    """Probability one relay meets the source, accepts, and meets the destination."""
    return (1.0 - params.q) * params.reach * p


def expected_source_utility_mixed(p: float, params: GameParams) -> float:
    """Delivery probability when every relay accepts with probability p."""
    return _any_delivers(per_relay_success(params, p), params.n)


def _any_delivers(z: float, n: int) -> float:
    """1 - (1 - z)**n, which would round to 0 for a tiny z: the chance that
    one of n relays, each delivering with probability z, delivers."""
    return -math.expm1(n * math.log1p(-z)) if z < 1.0 else 1.0


def _tagged_share(p: float, params: GameParams) -> float:
    """Mean share S(p) = (1 - (1 - z)**n)/(n p), z = p(1 - q), of a relay
    whose n-1 opponents accept with p (README, "Payoff models").  Taken as
    reach * g(z), g(z) = (1 - (1 - z)**n)/(n z) with g(0) = 1, so a
    subnormal p keeps its precision."""
    reach = params.reach
    z = p * reach
    return reach * (_any_delivers(z, params.n) / (params.n * z) if z > 0 else 1.0)


def expected_relay_utility_mixed(p: float, alpha: float, params: GameParams) -> float:
    """Tagged relay's expected payoff when the other n-1 relays accept with p.

    p * accept + (1 - p) * reject of :func:`relay_payoffs` at the mean share
    :func:`_tagged_share`, which sums the binomial mixture over the
    opponents in closed form; the payoffs are affine in the share.
    """
    accept, reject = relay_payoffs(alpha, _tagged_share(p, params), params)
    return p * accept + (1.0 - p) * reject

