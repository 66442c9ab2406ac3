"""Independent oracles that only tests call: a term-by-term delivery share
and the reduced model's indifference gaps, whose roots the solvers return."""
import math

from dtnsat.equilibrium import mixed_relay_payoffs
from dtnsat.model import EmptyCohortError, GameParams, reduced_payoffs, \
    relay_failure_probability


class CohortTooLargeError(ValueError):
    """Raised when exact term-by-term summation would not be trustworthy."""


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


def pure_indifference_gap(alpha: float, n_active: int, params: GameParams) -> float:
    """Accept-minus-reject payoff under the reduced model, pure cohort case.

    The solver's reward for cohort n_active is the exact root of this gap.
    """
    q = relay_failure_probability(params.contact)
    miss = q ** n_active
    accept, reject = reduced_payoffs(alpha, n_active, 1.0 - miss, miss, params)
    return accept - reject


def mixed_indifference_gap(alpha: float, p: float, params: GameParams) -> float:
    """Accept-minus-reject payoff under the reduced model, common mixing p."""
    accept, reject = mixed_relay_payoffs(alpha, p, params)
    return accept - reject
