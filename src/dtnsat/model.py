"""Closed-form contact, energy and utility formulas of the caching game.

Everything here is a pure function over immutable value types, so the module
is safe to use from any number of threads.  Counts are integers; probabilities
and energies are plain floats in consistent (dimensionless) units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace


class DegenerateRateError(ValueError):
    """Raised when a formula needs a strictly positive meeting rate."""


class EmptyCohortError(ValueError):
    """Raised when a per-relay share is requested for an empty cohort."""


class CohortTooLargeError(ValueError):
    """Raised when exact term-by-term summation would not be trustworthy."""


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
    # a product that overflows to inf would give (1 + inf) * 0 = nan
    held_forever = (1.0 + lam_tau) * math.exp(-lam_tau) if math.isfinite(lam_tau) else 0.0
    return params.energy.e_store / lam * (1.0 - held_forever)


def total_energy(params: GameParams) -> float:
    """Total per-node cost of cooperating: receive + transmit + storage.

    This is the exact model's cost.  At lam = 0 the storage term takes its
    analytic limit 0, so degenerate scenarios stay evaluable.
    """
    stored = storage_energy(params) if params.contact.lam > 0 else 0.0
    return params.energy.e_receive + params.energy.e_transmit + stored


def reduced_cooperation_cost(params: GameParams) -> float:
    """Per-relay cooperation cost under the linearized caching-energy model.

    Returns e_r + e_t + e*(1-q)/lam; for lam = 0 the analytic limit e*tau
    is used so degenerate scenarios stay evaluable.
    """
    lam, tau = params.contact.lam, params.contact.tau
    if lam == 0:
        stored = params.energy.e_store * tau
    else:
        stored = params.energy.e_store * contact_probability(params.contact) / lam
    return params.energy.e_receive + params.energy.e_transmit + stored


# payoff models of relay_payoffs: the simulator and the per-cohort
# utilities use EXACT, the closed-form solvers and mean-field feed REDUCED
# (equilibrium.mixed_relay_payoffs writes REDUCED out, its share taken
# from the delivery probability rather than from 1 - miss)
EXACT = "exact"  # regret sigma*(1 - share), cost total_energy
REDUCED = "reduced"  # regret sigma*(n - 1 + miss)/cohort, cost reduced_cooperation_cost


def relay_payoffs(alpha, cohort, miss, params: GameParams, model: str = EXACT):
    """(accept, reject) payoffs of a relay facing a caching cohort.

    ``cohort`` relays cache, ``miss`` is the probability none of them
    delivers, and each holds share (1 - miss)/cohort of the reward alpha.
    Accepting earns the share minus the model's regret and cooperation cost;
    declining forfeits the share and pays the decline regret gamma.  Plain
    arithmetic only, so numpy arrays of cohorts and misses work elementwise.
    """
    if model == EXACT:
        cost = total_energy(params)
    elif model == REDUCED:
        cost = reduced_cooperation_cost(params)
    else:
        raise ValueError(f"model must be {EXACT!r} or {REDUCED!r}, got {model!r}")
    return _payoffs(alpha, cohort, miss, params, model, cost)


def _payoffs(alpha, cohort, miss, params: GameParams, model: str, cost: float):
    """:func:`relay_payoffs` with the model's cooperation cost already
    evaluated, for callers that score many cohorts of one scenario."""
    share = (1.0 - miss) / cohort
    if model == EXACT:
        regret = params.sigma * (1.0 - share)
    else:
        regret = params.sigma * (params.n - 1 + miss) / cohort
    return alpha * share - regret - cost, -alpha * share - params.gamma


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


def delivery_share_bruteforce(n_active: int, q: float) -> float:
    """Term-by-term oracle for delivery_share.

    Sums, over the number j of relays (tagged one included) that reach the
    destination, the probability the tagged relay succeeds and wins the
    uniform j-way tie:  (1-q) * C(n-1, j-1) * (1-q)**(j-1) * q**(n-j) / j.
    Kept independent of the closed form on purpose.
    """
    if n_active < 1:
        raise EmptyCohortError("delivery share needs at least one caching relay")
    if n_active > 64:
        raise CohortTooLargeError("exact summation limited to cohorts of 64")
    if not 0 <= q <= 1:
        raise ValueError(f"q must be in [0, 1], got {q}")
    succeed = 1.0 - q
    total = 0.0
    for j in range(1, n_active + 1):
        ways = math.comb(n_active - 1, j - 1)
        total += ways * succeed ** (j - 1) * q ** (n_active - j) / j
    return succeed * total


def source_utility(n_active: int, q: float) -> float:
    """Delivery probability with n_active caching relays: 1 - q**n_active."""
    if n_active < 0:
        raise ValueError(f"n_active must be >= 0, got {n_active}")
    if n_active == 0:
        return 0.0
    return n_active * delivery_share(n_active, q)


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


def expected_relay_utility_mixed(p: float, alpha: float, params: GameParams) -> float:
    """Tagged relay's expected payoff when the other n-1 relays accept with p.

    Mixes over the opponents' accept count k (binomial); the tagged relay is
    always counted in the cohort, so both action branches are evaluated at
    cohort size k+1.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not 0 <= alpha <= params.alpha_max:
        raise ValueError(f"alpha must be in [0, alpha_max], got {alpha}")
    n = params.n
    q = relay_failure_probability(params.contact)
    cost = total_energy(params)
    total = 0.0
    for k in range(n):
        weight = math.comb(n - 1, k) * p ** k * (1.0 - p) ** (n - 1 - k)
        u_accept, u_reject = _payoffs(alpha, k + 1, q ** (k + 1), params, EXACT, cost)
        total += weight * (p * u_accept + (1.0 - p) * u_reject)
    return total


def with_param(params: GameParams, var: str, value: float) -> GameParams:
    """Copy of params with one sweepable parameter (tau, lambda, n, delta) set."""
    if var == "tau":
        return replace(params, contact=replace(params.contact, tau=value))
    if var == "lambda":
        return replace(params, contact=replace(params.contact, lam=value))
    if var == "n":
        return replace(params, n=int(value))
    if var == "delta":
        return replace(params, delta=value)
    raise ValueError(f"cannot sweep {var!r}; sweepable parameters are tau, lambda, n, delta")
