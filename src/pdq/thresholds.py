"""Water-filling solver for per-owner valuation thresholds.

The analyst chooses one threshold per owner so that the expected total
payment exactly exhausts the budget while maximizing the expected amount
of purchased privacy.  At the optimum every owner's threshold satisfies
virtual_cost(theta_i) = eps_i / lambda for a common multiplier lambda,
clamped to the prior's support.  The uniform prior on [0, 1]
(``UniformPrior``) solves its water-filling exactly and gives lambda
directly; any other prior is solved by doubling and then bisecting
lambda.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError
from .market import RegularPrior, UniformPrior, virtual_cost_inverse

_MAX_DOUBLINGS = 200
_BISECT_ITERS = 200


@dataclass(frozen=True)
class ThresholdVector:
    """Solved thresholds plus the multiplier and spend they induce."""

    thresholds: np.ndarray
    multiplier: float
    expected_spend: float


def thresholds_at(prior: RegularPrior, eps: np.ndarray, lam: float) -> np.ndarray:
    """Threshold vector induced by a given multiplier."""
    if lam <= 0.0:
        return np.full(len(eps), prior.upper)
    return virtual_cost_inverse(prior, eps / lam)


def expected_spend(prior: RegularPrior, thresholds) -> float:
    """Expected total payment: sum of theta_i* F(theta_i*)."""
    t = np.asarray(thresholds, dtype=float)
    return float(np.sum(t * prior.cdf(t)))


def expected_purchased_privacy(prior: RegularPrior, thresholds, eps) -> float:
    """Objective value: sum of eps_i F(theta_i*)."""
    t = np.asarray(thresholds, dtype=float)
    return float(np.sum(np.asarray(eps, dtype=float) * prior.cdf(t)))


def solve_threshold_system(
    prior: RegularPrior, eps, budget: float
) -> ThresholdVector:
    """Find thresholds whose expected spend equals the budget.

    When the budget is at least the maximum possible spend, every
    threshold sits at the top of the support.  Otherwise the uniform
    prior on [0, 1] gives its multiplier in closed form, and any other
    prior is solved by bisection on lambda, which converges because
    expected spend is nonincreasing in the multiplier.  Either way the
    thresholds and their spend come from one final evaluation, checked
    against the budget.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.size == 0:
        raise InputError("need at least one privacy requirement")
    if np.any(eps <= 0.0) or not np.all(np.isfinite(eps)):
        raise InputError("privacy requirements must be finite and > 0")
    if not np.isfinite(budget) or budget <= 0.0:
        raise InputError(f"budget must be finite and > 0, got {budget}")

    tol = max(1e-9, 1e-9 * budget)
    max_spend = prior.upper * eps.size
    if budget >= max_spend - tol:
        full = np.full(eps.size, prior.upper)
        return ThresholdVector(full, 0.0, max_spend)

    if isinstance(prior, UniformPrior):
        lam = prior.budget_multiplier(eps, budget)
    else:
        lam = _bisect_multiplier(prior, eps, budget, tol)
    t = thresholds_at(prior, eps, lam)
    spend = expected_spend(prior, t)
    if abs(spend - budget) > max(1e-6, 1e-6 * budget):
        raise SolverError(
            f"threshold solver did not converge: spend {spend} vs budget {budget}"
        )
    return ThresholdVector(t, lam, spend)


def _bisect_multiplier(prior: RegularPrior, eps, budget: float, tol: float) -> float:
    """Multiplier found by doubling, then bisection, to within tol of budget."""
    lam_hi = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if expected_spend(prior, thresholds_at(prior, eps, lam_hi)) <= budget:
            break
        lam_hi *= 2.0
    else:
        raise SolverError("could not bracket the budget multiplier")

    lam_lo = 0.0
    lam = lam_hi
    spend = expected_spend(prior, thresholds_at(prior, eps, lam))
    for _ in range(_BISECT_ITERS):
        if abs(spend - budget) <= tol:
            break
        mid = 0.5 * (lam_lo + lam_hi)
        s_mid = expected_spend(prior, thresholds_at(prior, eps, mid))
        if s_mid > budget:
            lam_lo = mid
        else:
            lam_hi = mid
            lam, spend = mid, s_mid
    return lam
