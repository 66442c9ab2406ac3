"""Closed-form contact, energy and utility formulas of the caching game that
the simulator plays; the solvers' reduced payoff is in :mod:`dtnsat.equilibrium`.

Everything here is a pure function over immutable value types, so the module
is safe to use from any number of threads.  Counts are integers; probabilities
and energies are plain floats in consistent (dimensionless) units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class DegenerateRateError(ValueError):
    """Raised when a formula needs a strictly positive meeting rate."""


class EmptyCohortError(ValueError):
    """Raised when a per-relay share is requested for an empty cohort."""


def _require_finite(obj, *names) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")


@dataclass(frozen=True)
class ContactModel:
    """Poisson pairwise meetings: rate per unit time and file lifetime."""

    lam: float
    tau: float

    def __post_init__(self):
        _require_finite(self, "lam", "tau")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class EnergyModel:
    """Per-state energy costs: caching per time unit, reception, transmission."""

    e_store: float
    e_receive: float
    e_transmit: float

    def __post_init__(self):
        _require_finite(self, "e_store", "e_receive", "e_transmit")
        for name in ("e_store", "e_receive", "e_transmit"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class GameParams:
    """Full configuration of the source/relays caching game.

    n relays face an accept/reject dilemma; sigma is the regret for caching
    without delivering first, gamma the regret for declining, delta the
    source's delivery-probability threshold and alpha_max the reward cap.
    """

    contact: ContactModel
    energy: EnergyModel
    n: int
    sigma: float
    gamma: float
    delta: float
    alpha_max: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        _require_finite(self, "sigma", "gamma", "delta", "alpha_max")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.alpha_max <= 0:
            raise ValueError(f"alpha_max must be > 0, got {self.alpha_max}")


def contact_probability(contact: ContactModel) -> float:
    """Probability that two nodes meet at least once within the lifetime."""
    return -math.expm1(-contact.lam * contact.tau)


def relay_failure_probability(contact: ContactModel) -> float:
    """Probability of zero meetings within the lifetime (complement of contact)."""
    return math.exp(-contact.lam * contact.tau)


def storage_energy(params: GameParams) -> float:
    """Mean energy dissipated while caching a file until its first handover.

    Evaluates (e/lam) * (1 - (1 + lam*tau) * exp(-lam*tau)).  The closed form
    divides by lam, so a zero rate is rejected rather than silently taking
    the analytic limit; the game is vacuous at lam = 0 anyway.
    """
    lam, tau = params.contact.lam, params.contact.tau
    if lam == 0:
        raise DegenerateRateError("storage energy is undefined for lam = 0")
    lam_tau = lam * tau
    if lam_tau < 0.5:  # the bracket cancels to about x**2/2: sum its series
        bracket = math.fsum((k - 1) * (-lam_tau) ** k / math.factorial(k) for k in range(2, 20))
    else:  # a product that overflows to inf would give (1 + inf) * 0 = nan
        bracket = 1.0 - ((1.0 + lam_tau) * math.exp(-lam_tau) if math.isfinite(lam_tau) else 0.0)
    scale = params.energy.e_store / lam
    # at a subnormal lam, e/lam overflows where the bracket rounds to 0
    return scale * bracket if math.isfinite(scale) else params.energy.e_store * (bracket / lam)


def total_energy(params: GameParams) -> float:
    """Total per-node cost of cooperating: receive + transmit + storage.

    This is the exact model's cost.  At lam = 0 the storage term takes its
    analytic limit 0, so degenerate scenarios stay evaluable.
    """
    stored = storage_energy(params) if params.contact.lam > 0 else 0.0
    return params.energy.e_receive + params.energy.e_transmit + stored


def relay_payoffs(alpha, share, cost: float, params: GameParams):
    """The game's (accept, reject) payoffs of a relay holding ``share`` of the
    reward alpha: accepting earns it less the regret sigma*(1 - share) and
    ``cost`` (the caller's :func:`total_energy`); declining forfeits it and
    pays the regret gamma.  Numpy arrays of shares work elementwise."""
    return (alpha * share - params.sigma * (1.0 - share) - cost,
            -alpha * share - params.gamma)


def delivery_share(n_active: int, q: float) -> float:
    """Probability a tagged caching relay is first to deliver, closed form.

    Each of the n_active relays independently fails with probability q;
    the first success wins and ties are impossible in continuous time, so the
    tagged relay's share is (1 - q**n_active) / n_active.
    """
    if n_active < 1:
        raise EmptyCohortError("delivery share needs at least one caching relay")
    if not 0 <= q <= 1:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return (1.0 - q ** n_active) / n_active


def per_relay_success(params: GameParams, p: float) -> float:
    """Probability one relay meets the source, accepts, and meets the destination."""
    q = relay_failure_probability(params.contact)
    return (1.0 - q) * contact_probability(params.contact) * p


def expected_source_utility_mixed(p: float, params: GameParams) -> float:
    """Delivery probability when every relay accepts with probability p."""
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
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
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    reach = contact_probability(params.contact)
    z = p * reach
    return reach * (_any_delivers(z, params.n) / (params.n * z) if z > 0 else 1.0)


def tagged_payoffs(alpha: float, p: float, params: GameParams) -> tuple[float, float]:
    """:func:`relay_payoffs` of a relay whose n-1 opponents accept with p:
    affine in the share, so taken at the mean tagged share."""
    share = _tagged_share(p, params)
    if not 0 <= alpha <= params.alpha_max:
        raise ValueError(f"alpha must be in [0, alpha_max], got {alpha}")
    return relay_payoffs(alpha, share, total_energy(params), params)


def expected_relay_utility_mixed(p: float, alpha: float, params: GameParams) -> float:
    """Tagged relay's expected payoff when the other n-1 relays accept with p.

    p * accept + (1 - p) * reject of :func:`tagged_payoffs`, whose mean
    share sums the binomial mixture over the opponents in closed form.
    """
    accept, reject = tagged_payoffs(alpha, p, params)
    return p * accept + (1.0 - p) * reject

