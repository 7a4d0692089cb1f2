"""Randomized verification batteries behind the `pdq verify` command.

Each battery draws frozen-seed instances, checks an exact property
through an independent route (grid dynamic program, brute-force
distribution comparison, misreport grids, quantile bounds), and returns
(name, passed, detail) tuples so callers can render or assert them.
"""

import numpy as np

from .private_query import COUNT, LINEAR, MEDIAN, QuerySpec, SampledDataset
from .thresholds import expected_purchased_privacy, solve_threshold_system
from .verification import check_ic_ir, check_pac_privacy_bound, verify_pdp

SUITE_SEED = 20240613
_ORACLE_THETA_STEP = 1e-3
_ORACLE_BUDGET_BINS = 50_000
_SOLVER_INSTANCES = 100
_PDP_COUNT_INSTANCES = 200
_PDP_MEDIAN_INSTANCES = 100
_PDP_LINEAR_INSTANCES = 100
_ICIR_MARKETS = 50
_LEMMA2_INSTANCES = 100
_LEMMA2_DELTAS = (0.6, 0.75, 0.9)


def grid_objective_oracle(eps, budget):
    """Best purchased privacy reachable on a discrete threshold grid.

    Independent check for the water-filling solver with valuations
    uniform on [0, 1]: thresholds are restricted to multiples of 1e-3, spends
    are rounded up onto a budget grid, and a knapsack-style dynamic
    program maximizes sum eps_i * F(theta_i).  Rounding spend up keeps
    every grid solution feasible for the continuous problem, so the
    result is a certified lower bound on the true optimum.
    """
    eps = np.asarray(eps, dtype=float)
    thetas = np.arange(0.0, 1.0 + _ORACLE_THETA_STEP / 2.0, _ORACLE_THETA_STEP)
    spends = thetas * thetas
    delta = budget / _ORACLE_BUDGET_BINS
    costs = np.ceil(spends / delta - 1e-12).astype(np.int64)
    usable = costs <= _ORACLE_BUDGET_BINS
    costs = costs[usable]
    thetas = thetas[usable]

    best = np.full(_ORACLE_BUDGET_BINS + 1, -np.inf)
    best[0] = 0.0
    for e in eps:
        gains = e * thetas
        new = best.copy()
        for c, g in zip(costs, gains):
            if c == 0:
                new = np.maximum(new, best + g)
            else:
                new[c:] = np.maximum(new[c:], best[:-c] + g)
        best = new
    return float(best.max())


def _stationarity_residual(eps, tv):
    """Worst first-order optimality violation at interior thresholds."""
    t = tv.thresholds
    interior = (t > 1e-9) & (t < 1.0 - 1e-9)
    if not interior.any():
        return 0.0
    ti = t[interior]
    # eps_i f(t_i) - lambda (F(t_i) + t_i f(t_i)) with F(t) = t, f = 1
    resid = eps[interior] - tv.multiplier * (ti + ti)
    return float(np.abs(resid).max())


def solver_battery(seed=SUITE_SEED):
    """Threshold solver vs the grid oracle, budget binding, stationarity."""
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_binding = 0.0
    worst_resid = 0.0
    negative_gap = 0.0
    for _ in range(_SOLVER_INSTANCES):
        n = int(rng.integers(1, 6))
        eps = np.maximum(rng.random(n), 1e-6)
        budget = max(float(rng.random() * n), 1e-9)
        tv = solve_threshold_system(eps, budget)
        obj = expected_purchased_privacy(tv.thresholds, eps)
        oracle = grid_objective_oracle(eps, budget)
        worst_gap = max(worst_gap, obj - oracle)
        negative_gap = min(negative_gap, obj - oracle)
        if budget < n:
            worst_binding = max(
                worst_binding,
                abs(tv.expected_spend - budget) / max(1.0, budget),
            )
        worst_resid = max(worst_resid, _stationarity_residual(eps, tv))
    return [
        (
            "solver objective matches grid oracle",
            worst_gap <= 1e-2 and negative_gap >= -1e-9,
            f"max gap {worst_gap:.3e} over {_SOLVER_INSTANCES} instances",
        ),
        (
            "budget binds below saturation",
            worst_binding <= 1e-9,
            f"max relative spend error {worst_binding:.3e}",
        ),
        (
            "stationarity at interior thresholds",
            worst_resid <= 1e-6,
            f"max first-order residual {worst_resid:.3e}",
        ),
    ]


def _pdp_samples(rng):
    """Small random (sample, neighbour values) pairs of each query kind."""
    for _ in range(_PDP_COUNT_INSTANCES):
        k = int(rng.integers(1, 6))
        values = rng.integers(0, 2, size=k).astype(float)
        eps = np.maximum(rng.random(k), 1e-3)
        sampled = SampledDataset(QuerySpec(COUNT, (0.0, 1.0)), values, eps, full_n=k)
        yield sampled, (0, 1)
    for _ in range(_PDP_MEDIAN_INSTANCES):
        k = int(rng.integers(1, 6))
        # drawn with replacement, so some samples already repeat a value
        values = rng.integers(1, 16, size=k).astype(float)
        eps = np.maximum(rng.random(k), 1e-3)
        sampled = SampledDataset(QuerySpec(MEDIAN, (1, 15)), values, eps, full_n=k)
        yield sampled, range(1, 16)
    for _ in range(_PDP_LINEAR_INSTANCES):
        k = int(rng.integers(1, 6))
        values = rng.random(k)
        # weights of either sign, bounded away from zero
        weights = rng.choice([-1.0, 1.0], size=k) * (0.1 + 0.9 * rng.random(k))
        eps = np.maximum(rng.random(k), 1e-3)
        sampled = SampledDataset(
            QuerySpec(LINEAR, (0.0, 1.0)), values, eps, full_n=k,
            weights=weights, full_weight_sum=float(weights.sum()),
        )
        yield sampled, np.linspace(0.0, 1.0, 5)


def pdp_battery(seed=SUITE_SEED):
    """Exact personalized-privacy ratio checks on random small datasets."""
    total = 0
    failures = 0
    worst_excess = -np.inf
    for sampled, neighbors in _pdp_samples(np.random.default_rng(seed)):
        report = verify_pdp(sampled, neighbor_domain=neighbors)
        excess = float(np.max(report.per_index_max_log_ratio - sampled.eps))
        worst_excess = max(worst_excess, excess)
        total += 1
        failures += 0 if report.passed else 1
    return [
        (
            "personalized privacy ratios within owner levels",
            failures == 0,
            f"{total - failures}/{total} datasets, "
            f"worst log-ratio excess {worst_excess:.3e}",
        )
    ]


def icir_battery(seed=SUITE_SEED):
    """Truthfulness and voluntary participation on misreport grids."""
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(_ICIR_MARKETS):
        n = int(rng.integers(1, 9))
        eps = np.maximum(rng.random(n), 1e-6)
        budget = max(float(rng.random() * n), 1e-9)
        reports.append(check_ic_ir(eps, budget))
    worst_ic = max(r.worst_ic_violation for r in reports)
    worst_ir = max(r.worst_ir_violation for r in reports)
    return [
        (
            "truthful bidding and voluntary participation",
            all(r.passed for r in reports),
            f"worst IC violation {worst_ic:.3e}, "
            f"worst IR violation {worst_ir:.3e} over {_ICIR_MARKETS} markets",
        )
    ]


def lemma2_battery(seed=SUITE_SEED):
    """Accuracy-implies-privacy-spend bound on exact count mechanisms."""
    rng = np.random.default_rng(seed)
    checked = 0
    applicable = 0
    failures = 0
    for _ in range(_LEMMA2_INSTANCES):
        k = int(rng.integers(1, 9))
        full_n = k * int(rng.integers(1, 5))
        full_values = rng.integers(0, 2, size=full_n).astype(float)
        idx = rng.choice(full_n, size=k, replace=False)
        # mix modest and generous privacy levels so some instances land
        # in the non-vacuous regime of the bound
        if rng.random() < 0.5:
            eps = np.maximum(rng.random(k), 1e-3)
        else:
            eps = 1.0 + 9.0 * rng.random(k)
        sampled = SampledDataset(
            QuerySpec(COUNT, (0.0, 1.0)), full_values[idx], eps, full_n=full_n
        )
        truth = float(full_values.sum())
        for delta in _LEMMA2_DELTAS:
            report = check_pac_privacy_bound(sampled, truth, delta)
            checked += 1
            applicable += 1 if report.applicable else 0
            failures += 0 if report.passed else 1
    return [
        (
            "purchased privacy covers the accuracy lower bound",
            failures == 0,
            f"{checked - failures}/{checked} checks "
            f"({applicable} in the non-vacuous regime)",
        )
    ]


SUITES = {
    "solver": solver_battery,
    "pdp": pdp_battery,
    "icir": icir_battery,
    "lemma2": lemma2_battery,
}
