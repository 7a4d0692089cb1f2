"""Exact and statistical checks for the privacy and auction guarantees.

Each check runs the package's own rules (the posted-threshold auction,
the exponential mechanism's law) and compares what they give with a
property derived from first principles: exhaustive neighbour
enumeration, truthful against misreported utilities on a grid, or a
Monte-Carlo budget.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError
from .private_query import (
    OutputDistribution,
    SampledDataset,
    _feasible_softmax,
    candidate_outputs,
    modification_scores,
    output_distribution,
)
from .procurement import allocate_and_pay
from .thresholds import ThresholdVector, solve_threshold_system

_MAX_EXACT_SIZE = 8
# spacing of the valuation and bid grid that check_ic_ir searches
_IC_GRID_STEP = 0.01


@dataclass(frozen=True)
class PdpReport:
    """Achieved privacy (max log output ratio) per sampled entry."""

    per_index_max_log_ratio: np.ndarray
    required: np.ndarray
    passed: bool


@dataclass(frozen=True)
class IcIrReport:
    worst_ic_violation: float
    worst_ir_violation: float
    thresholds: ThresholdVector
    passed: bool


@dataclass(frozen=True)
class BudgetReport:
    mc_mean: float
    expected: float
    stderr: float
    exceedance_rate: float
    passed: bool


@dataclass(frozen=True)
class PacBoundReport:
    radius: float
    alpha: int
    applicable: bool
    bound: Optional[float]
    purchased_privacy: float
    passed: bool


def verify_pdp(
    sampled: SampledDataset, neighbor_domain, slack: float = 1e-9
) -> PdpReport:
    """Exhaustively check the per-entry privacy guarantee.

    For every entry i and every replacement value from neighbor_domain,
    build the neighbouring dataset, compute both exact output
    distributions over the union of their candidate answers, and record
    the worst absolute log probability ratio.  Entry i passes when that
    ratio is at most its privacy requirement.  A candidate reachable on
    one side only gets probability zero there, making the ratio infinite
    and failing the check.
    """
    k = sampled.k
    if k > _MAX_EXACT_SIZE:
        raise InputError(
            f"exact verification is limited to {_MAX_EXACT_SIZE} entries, got {k}"
        )
    alternatives = np.unique(np.asarray(neighbor_domain, dtype=float))
    base_targets, _ = candidate_outputs(sampled)
    max_ratio = np.zeros(k)
    for i in range(k):
        for x in alternatives:
            if x == sampled.values[i]:
                continue
            neighbor_values = sampled.values.copy()
            neighbor_values[i] = x
            neighbor = replace(sampled, values=neighbor_values)
            nb_targets, _ = candidate_outputs(neighbor)
            union = np.unique(np.concatenate([base_targets, nb_targets]))
            _, p_base = _feasible_softmax(modification_scores(sampled, union))
            _, p_nb = _feasible_softmax(modification_scores(neighbor, union))
            both = (p_base > 0.0) & (p_nb > 0.0)
            ratio = np.inf if np.any((p_base > 0.0) != (p_nb > 0.0)) else float(
                np.abs(np.log(p_base[both]) - np.log(p_nb[both])).max()
            )
            if ratio > max_ratio[i]:
                max_ratio[i] = ratio
    passed = bool(np.all(max_ratio <= sampled.eps + slack))
    return PdpReport(max_ratio, sampled.eps.copy(), passed)


def pac_radius(dist: OutputDistribution, truth: float, delta: float) -> float:
    """Smallest radius around the truth holding at least delta mass."""
    if not 0.0 < delta < 1.0:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    distance = np.abs(dist.reported - truth)
    order = np.argsort(distance, kind="stable")
    cum = np.cumsum(dist.probabilities[order])
    idx = int(np.searchsorted(cum, delta - 1e-12, side="left"))
    return float(distance[order][min(idx, distance.size - 1)])


def pac_privacy_lower_bound(n: int, alpha: int, delta: float) -> float:
    """Privacy mass any mechanism must buy to be (alpha, delta)-accurate.

    An answer within alpha of the truth with probability delta requires
    total purchased privacy of at least (n / 4 alpha) log(delta/(1-delta)).
    """
    if not 1 <= alpha <= n / 4:
        raise InputError(f"alpha must satisfy 1 <= alpha <= n/4, got {alpha}")
    if not 0.0 < delta < 1.0:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    return (n / (4.0 * alpha)) * (math.log(delta) - math.log(1.0 - delta))


def check_pac_privacy_bound(
    sampled: SampledDataset, truth: float, delta: float
) -> PacBoundReport:
    """Confirm the purchased privacy satisfies the accuracy lower bound.

    The exact accuracy radius is rounded up to the next integer, which
    only weakens the claimed accuracy and keeps the bound valid even
    when the radius is itself integral.  Radii beyond n/4 make the bound
    inapplicable (vacuously passing).
    """
    dist = output_distribution(sampled)
    radius = pac_radius(dist, truth, delta)
    alpha = int(math.floor(radius)) + 1
    purchased = float(sampled.eps.sum())
    if alpha > sampled.full_n / 4:
        return PacBoundReport(radius, alpha, False, None, purchased, True)
    bound = pac_privacy_lower_bound(sampled.full_n, alpha, delta)
    passed = purchased >= bound - 1e-9
    return PacBoundReport(radius, alpha, True, bound, purchased, passed)


def check_ic_ir(eps, budget: float) -> IcIrReport:
    """Grid-check that truthful bidding is optimal and never harmful.

    For every owner and every (true valuation, bid) pair on a 0.01 grid
    over [0, 1], truthful utility must dominate the misreport and be
    nonnegative.  Every utility comes from one ``allocate_and_pay`` call
    whose row r has every owner bidding the r-th grid point.
    """
    tv = solve_threshold_system(eps, budget)
    grid = np.arange(0.0, 1.0 + _IC_GRID_STEP / 2.0, _IC_GRID_STEP)
    out = allocate_and_pay(*np.broadcast_arrays(grid[:, None], tv.thresholds, eps))
    # utility[v, b, i]: owner i values the data at grid[v] and bids grid[b]
    utility = out.payments - grid[:, None, None] * out.allocation
    truthful = utility[np.arange(grid.size), np.arange(grid.size)]
    worst_ic = max(0.0, float((utility - truthful[:, None]).max()))
    worst_ir = max(0.0, float((-truthful).max()))
    passed = worst_ic <= 1e-12 and worst_ir <= 1e-12
    return IcIrReport(worst_ic, worst_ir, tv, passed)


def check_interim_budget(
    thresholds: ThresholdVector, draws: int, rng
) -> BudgetReport:
    """Monte-Carlo check that the mean realized spend hits the target.

    Valuations are drawn i.i.d. uniform on [0, 1]; each owner at or below
    her threshold is paid the threshold.  The mean total payment should
    match the analytic expected spend within 3 standard errors.  The
    fraction of draws overshooting the target is reported, not asserted:
    individual draws may legitimately exceed it.
    """
    if draws < 2:
        raise InputError("need at least 2 draws for a standard error")
    t = thresholds.thresholds
    theta = rng.random((draws, t.size))
    paid = np.where(theta <= t[None, :], t[None, :], 0.0).sum(axis=1)
    mean = float(paid.mean())
    stderr = float(paid.std(ddof=1) / math.sqrt(draws))
    expected = thresholds.expected_spend
    exceedance = float(np.mean(paid > expected + 1e-12))
    if stderr == 0.0:
        passed = abs(mean - expected) <= 1e-9
    else:
        passed = abs(mean - expected) <= 3.0 * stderr
    return BudgetReport(mean, expected, stderr, exceedance, passed)
