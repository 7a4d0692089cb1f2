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


def expected_spend(thresholds):
    """Expected total payment: sum of theta_i* F(theta_i*), a float for
    one population's thresholds and one per row of a (T, n) array."""
    t = np.asarray(thresholds, dtype=float)
    spend = np.sum(t * np.clip(t, 0.0, 1.0), axis=-1)
    return float(spend) if spend.ndim == 0 else spend


def expected_purchased_privacy(thresholds, eps) -> float:
    """Objective value: sum of eps_i F(theta_i*)."""
    t = np.asarray(thresholds, dtype=float)
    return float(np.sum(np.asarray(eps, dtype=float) * np.clip(t, 0.0, 1.0)))


def solve_threshold_system(eps, budget: float) -> ThresholdVector:
    """Find thresholds whose expected spend equals the budget.

    ``eps`` holds one population's requirements, or T populations' as
    the rows of a (T, n) array that share one budget.  Rows are solved
    together, each to the bits it would get alone, and the result then
    holds (T, n) thresholds with (T,) multipliers and spends.

    When the budget is at least the maximum possible spend, every
    threshold sits at 1.  Otherwise the water-filling gives the
    multiplier in closed form, and the thresholds and their spend come
    from one final evaluation, checked against the budget.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.ndim not in (1, 2):
        raise InputError("privacy requirements must be a vector or a (T, n) array")
    if eps.size == 0:
        raise InputError("need at least one privacy requirement")
    if np.any(eps <= 0.0) or not np.all(np.isfinite(eps)):
        raise InputError("privacy requirements must be finite and > 0")
    if not np.isfinite(budget) or budget <= 0.0:
        raise InputError(f"budget must be finite and > 0, got {budget}")

    rows = np.atleast_2d(eps)
    tol = max(1e-9, 1e-9 * budget)
    max_spend = float(rows.shape[1])
    if budget >= max_spend - tol:
        t, lam = np.full(rows.shape, 1.0), np.zeros(len(rows))
        spend = np.full(len(rows), max_spend)
    else:
        t, lam = _interior_thresholds(rows, budget)
        spend = expected_spend(t)
        miss = np.abs(spend - budget)
        worst = int(np.argmax(miss))
        if miss[worst] > max(1e-6, 1e-6 * budget):
            raise SolverError(
                "threshold solver did not converge: spend "
                f"{spend[worst]} vs budget {budget}"
            )
    if eps.ndim == 1:
        return ThresholdVector(t[0], float(lam[0]), float(spend[0]))
    return ThresholdVector(t, lam, spend)


def _interior_thresholds(eps, budget):
    """Thresholds and multipliers of the rows of ``eps`` for a budget
    below the maximum spend."""
    ref, ratio = _uniform_budget_multiplier(eps, budget)
    lam = ref * ratio
    small = lam < np.finfo(float).tiny
    # a subnormal lambda has lost digits, so divide by its factors; a
    # requirement far above lambda saturates through inf
    with np.errstate(over="ignore"):
        y = eps / np.where(small, ref, lam)[:, None]
        y[small] /= ratio[small, None]
    y *= 0.5
    return np.clip(y, 0.0, 1.0, out=y), lam


def _uniform_budget_multiplier(eps, budget):
    """Water-filling multiplier for valuations uniform on [0, 1], for
    each row of ``eps``.

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
    solved again at their own scale, one row at a time.

    Returns ``(ref, ratio)`` with lambda = ref * ratio, so a caller can
    still divide by a lambda that would round to a subnormal.
    """
    e = np.sort(eps, axis=1)
    count, n = e.shape
    first, hi = _saturation(e, n, budget)
    for r in np.flatnonzero((hi == first) & (first > 0)):
        # every owner with a usable square saturates; solve the rest
        f, h = first[r], hi[r]
        while h == f and f > 0:
            (f,), (h,) = _saturation(e[r:r + 1], f, budget)
        hi[r] = h

    rhs = 4.0 * (budget - (n - hi))
    ref = np.empty(count)
    ratio = np.ones(count)
    for r in range(count):
        h = hi[r]
        if rhs[r] <= 0.0:
            # the budget is within rounding of owner hi's saturation
            ref[r] = e[r, h] / 2.0
        else:
            # mu^2 * e[hi-1]^2 * sum(x_i^2) = rhs over the interior owners
            ref[r] = e[r, h - 1]
            x = e[r, :h] / ref[r]
            ratio[r] = math.sqrt(float(np.dot(x, x)) / rhs[r])
    return ref, ratio


def _saturation(e, m, budget):
    """At mu = 2 / e_j owners from j up pay 1 and those below j are
    interior.  For each row of the sorted ``e``, considering its owners
    below m, returns the first usable owner and the first owner that
    saturates at the solution."""
    n = e.shape[1]
    tiny = np.finfo(float).tiny
    x = e[:, :m] / e[:, m - 1:m]
    sq = x * x
    below = np.empty((len(e), m + 1))
    below[:, 0] = 0.0
    np.cumsum(sq, axis=1, out=below[:, 1:])
    # spend[:, j] for the usable owners j >= first, in x's memory; the
    # clamp only keeps the others finite
    spend = np.divide(below[:, :m], np.maximum(sq, tiny, out=x), out=x)
    spend += np.arange(n, n - m, -1.0)
    first = np.empty(len(e), dtype=np.intp)
    hi = np.empty(len(e), dtype=np.intp)
    for r, (row_sq, row_spend) in enumerate(zip(sq, spend)):
        first[r] = np.searchsorted(row_sq, tiny)
        # spend falls as the owner index rises
        hi[r] = m - np.searchsorted(row_spend[first[r]:][::-1], budget)
    return first, hi
