"""Water-filling solver for per-owner valuation thresholds.

Valuations are uniform on [0, 1].  The paper states SMQ's threshold rule
for any regular prior; this package implements its uniform [0, 1] case,
the one its experiments use.  The analyst chooses one threshold per owner
so that the expected total payment exactly exhausts the budget while
maximizing the expected amount of purchased privacy.  At the optimum
every owner's virtual cost theta_i + F(theta_i)/f(theta_i) = 2 theta_i
equals eps_i / lambda for a common multiplier lambda, with theta_i
clamped to [0, 1], and the water-filling gives lambda in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError


@dataclass(frozen=True)
class ThresholdVector:
    """Solved thresholds plus the multiplier and spend they induce."""

    thresholds: np.ndarray
    multiplier: float
    expected_spend: float


def thresholds_at(eps: np.ndarray, lam: float) -> np.ndarray:
    """Threshold vector induced by a given multiplier."""
    if lam <= 0.0:
        return np.full(len(eps), 1.0)
    return np.clip(0.5 * (eps / lam), 0.0, 1.0)


def expected_spend(thresholds) -> float:
    """Expected total payment: sum of theta_i* F(theta_i*)."""
    t = np.asarray(thresholds, dtype=float)
    return float(np.sum(t * np.clip(t, 0.0, 1.0)))


def expected_purchased_privacy(thresholds, eps) -> float:
    """Objective value: sum of eps_i F(theta_i*)."""
    t = np.asarray(thresholds, dtype=float)
    return float(np.sum(np.asarray(eps, dtype=float) * np.clip(t, 0.0, 1.0)))


def solve_threshold_system(eps, budget: float) -> ThresholdVector:
    """Find thresholds whose expected spend equals the budget.

    When the budget is at least the maximum possible spend, every
    threshold sits at 1.  Otherwise the water-filling gives the
    multiplier in closed form, and the thresholds and their spend come
    from one final evaluation, checked against the budget.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.size == 0:
        raise InputError("need at least one privacy requirement")
    if np.any(eps <= 0.0) or not np.all(np.isfinite(eps)):
        raise InputError("privacy requirements must be finite and > 0")
    if not np.isfinite(budget) or budget <= 0.0:
        raise InputError(f"budget must be finite and > 0, got {budget}")

    tol = max(1e-9, 1e-9 * budget)
    max_spend = float(eps.size)
    if budget >= max_spend - tol:
        full = np.full(eps.size, 1.0)
        return ThresholdVector(full, 0.0, max_spend)

    ref, ratio = _uniform_budget_multiplier(eps, budget)
    lam = ref * ratio
    if lam < np.finfo(float).tiny:
        # a subnormal lambda has lost digits; divide by its factors, and
        # let requirements far above it saturate through inf
        with np.errstate(over="ignore"):
            t = np.clip(0.5 * ((eps / ref) / ratio), 0.0, 1.0)
    else:
        t = thresholds_at(eps, lam)
    spend = expected_spend(t)
    if abs(spend - budget) > max(1e-6, 1e-6 * budget):
        raise SolverError(
            f"threshold solver did not converge: spend {spend} vs budget {budget}"
        )
    return ThresholdVector(t, lam, spend)


def _uniform_budget_multiplier(eps, budget):
    """Water-filling multiplier for valuations uniform on [0, 1].

    With mu = 1/lambda and y_i = eps_i * mu, owner i's threshold is
    y_i / 2 clamped to [0, 1], and its expected spend is y_i^2 / 4 up to
    y_i = 2 and 1 beyond.  Total spend is thus nondecreasing and
    piecewise quadratic in mu, with breakpoints 2 / eps_i (owner i
    saturates) falling in eps order.  Counting the breakpoints whose
    spend reaches the budget gives the saturated owners; the quadratic
    over the owners below them gives mu exactly.

    Requirements are scaled by the largest one in play before squaring.
    Breakpoints of owners whose scaled square falls below the normal
    range are skipped; when every other owner saturates, the rest are
    solved again at their own scale.

    Returns ``(ref, ratio)`` with lambda = ref * ratio, so a caller can
    still divide by a lambda that would round to a subnormal.
    """
    tiny = np.finfo(float).tiny
    e = np.sort(eps)
    n = e.size

    def saturation(m):
        # At mu = 2 / e_j owners from j up pay 1 and those below j are
        # interior.  Returns the first usable owner below m and the first
        # owner that saturates at the solution.
        x = e[:m] / e[m - 1]
        sq = x * x
        csum = np.empty(m + 1)
        csum[0] = 0.0
        np.cumsum(sq, out=csum[1:])
        first = int(np.searchsorted(sq, tiny))
        spend = np.divide(csum[first:m], sq[first:], out=sq[first:])
        spend += np.arange(n - first, n - m, -1.0)
        # spend falls as the owner index rises
        return first, m - int(np.searchsorted(spend[::-1], budget))

    first, hi = saturation(n)
    while hi == first and first > 0:
        # every owner with a usable square saturates; solve the rest
        first, hi = saturation(first)

    rhs = 4.0 * (budget - (n - hi))
    if rhs <= 0.0:
        # the budget is within rounding of owner hi's saturation
        return float(e[hi] / 2.0), 1.0
    # mu^2 * e[hi-1]^2 * sum(r_i^2) = rhs over the interior owners
    r = e[:hi] / e[hi - 1]
    return float(e[hi - 1]), math.sqrt(float(np.dot(r, r)) / rhs)
