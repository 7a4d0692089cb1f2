"""Brute-force reference implementations used to cross-check fast paths.

Everything here trades speed for obviousness: modification costs come
from enumerating all 2^k subsets of entries, sensitivities from scanning
every allowed replacement.  Keep these independent of the package
internals so a bug cannot hide on both sides of a comparison.
"""

import collections
import heapq
import itertools
import math

import numpy as np


def brute_count_cost(values, eps, target):
    """Cheapest subset of entries to modify so the count equals target."""
    k = len(values)
    if float(target) != int(target) or not 0 <= target <= k:
        return math.inf
    target = int(target)
    best = math.inf
    for mask in itertools.product((0, 1), repeat=k):
        kept = sum(v for v, m in zip(values, mask) if not m)
        freed = sum(mask)
        if kept <= target <= kept + freed:
            best = min(best, sum(e for e, m in zip(eps, mask) if m))
    return best


def sorted_count_cost(values, eps, target):
    """Cost of a count target as a running sum of the cheapest entries of
    the class that must flip (ones to lower the count, zeros to raise
    it), added one at a time in rising order of requirement."""
    k = len(values)
    if not (0 <= target <= k and target == math.floor(target)):
        return math.inf
    current = int(sum(values))
    flip = 1.0 if target < current else 0.0
    costs = sorted(e for v, e in zip(values, eps) if v == flip)
    total = 0.0
    for e in costs[:abs(current - int(target))]:
        total += e
    return total


def brute_median_cost(values, eps, domain, target):
    """Cheapest subset to modify so the lower median equals target.

    Modified entries may take any in-domain integers, equal to each other
    or to kept entries, so every integer target in the domain is
    reachable.  A subset is feasible when at most med kept entries lie
    below the target and the kept entries at or below it, with every
    modified entry moved onto the target, number at least med + 1.
    """
    k = len(values)
    lo, hi = int(domain[0]), int(domain[1])
    med = (k - 1) // 2
    if float(target) != int(target) or not lo <= target <= hi:
        return math.inf
    m = int(target)
    vals = [int(v) for v in values]
    best = math.inf
    for mask in itertools.product((0, 1), repeat=k):
        kept = [v for v, b in zip(vals, mask) if not b]
        below = sum(1 for v in kept if v < m)
        at_most = sum(1 for v in kept if v <= m)
        if below <= med and at_most + sum(mask) >= med + 1:
            best = min(best, sum(e for e, b in zip(eps, mask) if b))
    return best


def brute_linear_cost(values, weights, eps, domain, target):
    """Cheapest subset to modify so the weighted sum equals target.

    Modified entries range over the continuous domain, so a subset is
    feasible when the target lies in the interval its entries can span.
    Uses the same 1e-9 relative slack as the production path so exact
    boundary targets are classified identically.
    """
    k = len(values)
    lo, hi = domain
    low_end = [min(w * lo, w * hi) for w in weights]
    high_end = [max(w * lo, w * hi) for w in weights]
    contrib = [w * v for w, v in zip(weights, values)]
    span = sum(h - l for l, h in zip(low_end, high_end))
    tol = 1e-9 * max(1.0, span)
    best = math.inf
    for mask in itertools.product((0, 1), repeat=k):
        reach_lo = sum(l if b else c for l, c, b in zip(low_end, contrib, mask))
        reach_hi = sum(h if b else c for h, c, b in zip(high_end, contrib, mask))
        if reach_lo - tol <= target <= reach_hi + tol:
            best = min(best, sum(e for e, b in zip(eps, mask) if b))
    return best


def brute_fractional_linear_cost(values, weights, eps, domain, target):
    """Cheapest modification when an entry may also change in part.

    Changing a share of an entry costs that share of its requirement and
    moves its term by that share of its headroom.  This linear program's
    optimum sits at a vertex: a whole subset of entries plus at most one
    entry changed in part, so enumerating those is exact.  A whole subset
    is feasible under the same 1e-9 relative slack as
    ``brute_linear_cost``.
    """
    k = len(values)
    lo, hi = domain
    low_end = [min(w * lo, w * hi) for w in weights]
    high_end = [max(w * lo, w * hi) for w in weights]
    contrib = [w * v for w, v in zip(weights, values)]
    span = sum(h - l for l, h in zip(low_end, high_end))
    tol = 1e-9 * max(1.0, span)
    best = math.inf
    for mask in itertools.product((0, 1), repeat=k):
        whole = sum(e for e, b in zip(eps, mask) if b)
        reach_lo = sum(l if b else c for l, c, b in zip(low_end, contrib, mask))
        reach_hi = sum(h if b else c for h, c, b in zip(high_end, contrib, mask))
        if reach_lo - tol <= target <= reach_hi + tol:
            best = min(best, whole)
            continue
        for i in range(k):
            if mask[i]:
                continue
            if target > reach_hi:
                gap, room = target - reach_hi, high_end[i] - contrib[i]
            else:
                gap, room = reach_lo - target, contrib[i] - low_end[i]
            if gap <= room:
                best = min(best, whole + eps[i] * gap / room)
    return best


def thresholds_at(eps, lam):
    """Threshold vector induced by a given multiplier: the uniform
    virtual cost 2 theta_i set equal to eps_i / lam, clamped to [0, 1]."""
    if lam <= 0.0:
        return np.full(len(eps), 1.0)
    return np.clip(0.5 * (eps / lam), 0.0, 1.0)


def bisect_uniform_thresholds(eps, budget):
    """Thresholds whose expected spend meets the budget, by bisection.

    With valuations uniform on [0, 1], owner i's threshold at multiplier
    lam is clip(eps_i / (2 lam), 0, 1) and its expected payment is that
    threshold squared, so total spend falls as lam rises.  Doubles lam
    until the spend is at most the budget, then halves the bracket until
    it stops shrinking.  Returns the thresholds and spend at its top end.
    """
    eps = np.asarray(eps, dtype=float)

    def thresholds(lam):
        # when the budget is the full spend, lam shrinks towards zero
        with np.errstate(over="ignore"):
            return np.clip(eps / (2.0 * lam), 0.0, 1.0)

    def spend(lam):
        return float(np.sum(thresholds(lam) ** 2))

    lam_lo, lam_hi = 0.0, 1.0
    while spend(lam_hi) > budget:
        lam_hi *= 2.0
    while True:
        mid = 0.5 * (lam_lo + lam_hi)
        if mid in (lam_lo, lam_hi):
            break
        if spend(mid) > budget:
            lam_lo = mid
        else:
            lam_hi = mid
    return thresholds(lam_hi), spend(lam_hi)


def loop_median_values(n, value_max, rng):
    """First n distinct clipped draws of a discretized normal, one at a time.

    The per-element reference for datagen.gen_median_values: same batch
    sizes and draws, with a Python set of the values kept so far.
    """
    center = value_max / 2.0
    sd = value_max / 10.0
    seen = set()
    out = np.empty(n, dtype=float)
    filled = 0
    while filled < n:
        batch = np.rint(rng.normal(center, sd, size=max(n, 64)))
        for x in batch:
            xi = int(min(max(x, 1), value_max))
            if xi not in seen:
                seen.add(xi)
                out[filled] = xi
                filled += 1
                if filled == n:
                    break
    return out


def brute_median_sensitivity(values, domain):
    """Largest median shift from replacing one entry, by full scan."""
    lo, hi = int(domain[0]), int(domain[1])
    v = np.asarray(values, dtype=np.int64)
    k = v.size

    def median_of(arr):
        s = np.sort(arr)
        return float(s[(len(s) - 1) // 2])

    base = median_of(v)
    worst = 0.0
    for i in range(k):
        for z in range(lo, hi + 1):
            mod = v.copy()
            mod[i] = z
            worst = max(worst, abs(median_of(mod) - base))
    return worst


def loop_median_score_table(e, med):
    """The median score table as two Python loops over a heap.

    Each step pushes the next entry into the pool and adds the popped
    minimum to a running total; the fast path must match these sums bit
    for bit.
    """
    e = list(map(float, e))
    k = len(e)
    cost_up = np.empty(k - med)
    pool = e[:med]
    heapq.heapify(pool)
    total = 0.0
    for s in range(1, k - med + 1):
        total += heapq.heappushpop(pool, e[med + s - 1])
        cost_up[s - 1] = total
    cost_dn = np.empty(med + 1)
    pool = e[med + 1:]
    heapq.heapify(pool)
    total = 0.0
    for s in range(1, med + 2):
        total += heapq.heappushpop(pool, e[med - s + 1])
        cost_dn[s - 1] = total
    return cost_up, cost_dn


def searchsorted_median_costs(values, eps, domain, targets):
    """Median modification cost of each target from two rank searches.

    A target with more than med entries below it lifts the cheapest of
    that surplus up to it; one with at most med entries at or below it
    pulls the cheapest of the rest down.  Targets off the integer domain
    cost inf.  The values are sorted with numpy's default argsort, as the
    package sorts them, so tied values order their requirements alike and
    the table's sums agree to the bit.
    """
    values = np.asarray(values, dtype=float)
    eps = np.asarray(eps, dtype=float)
    targets = np.asarray(targets, dtype=float)
    lo, hi = int(domain[0]), int(domain[1])
    med = (values.size - 1) // 2
    order = np.argsort(values)
    v = values[order]
    cost_up, cost_dn = loop_median_score_table(eps[order], med)
    costs = np.zeros(targets.shape)
    below = np.searchsorted(v, targets, "left")
    rise = below > med
    costs[rise] = cost_up[below[rise] - med - 1]
    at_most = np.searchsorted(v, targets, "right")
    fall = at_most <= med
    costs[fall] = cost_dn[med - at_most[fall]]
    feasible = (targets == np.floor(targets)) & (targets >= lo) & (targets <= hi)
    costs[~feasible] = np.inf
    return costs


def full_softmax(values, eps, domain):
    """Every median slot of the sample, its exact cost from the two rank
    searches above, and its weight exp(-cost/2) over their sum.

    The slots are the distinct values and the midpoint of each gap
    between them, or between them and the domain ends, that holds an
    integer.  No cost is cut at a bound, and the weights are summed over
    every slot at once.
    """
    lo, hi = int(domain[0]), int(domain[1])
    bounds = [lo - 1] + sorted(set(int(v) for v in values)) + [hi + 1]
    slots = np.array(sorted(set(bounds[1:-1]) | {
        (a + b) // 2 for a, b in zip(bounds, bounds[1:]) if b - a >= 2
    }), dtype=float)
    costs = searchsorted_median_costs(values, eps, domain, slots)
    logits = -costs / 2.0
    weights = np.exp(logits - logits.max())
    return slots, costs, weights / weights.sum()


FqSelection = collections.namedtuple("FqSelection", "selected_indices payments level")


def loop_fq_select(valuations, eps, budget):
    """The fixed-quota selection of one population, one strike round per
    pass of a Python loop.

    Sorts the pool stably by v_i = theta_i / eps_i, takes the largest k
    below the pool size with k * v_k <= B, and strikes the selected
    owners whose requirement is at most the noise level 1/(n-k) until no
    selected owner is struck.  Sellers are listed in ratio order.  Input
    is not checked.
    """
    v = np.asarray(valuations, dtype=float) / np.asarray(eps, dtype=float)
    eps = np.asarray(eps, dtype=float)
    n = v.size
    empty = FqSelection(np.empty(0, dtype=int), np.zeros(n), 1.0 / n)
    if budget <= 0.0:
        return empty
    pool = np.arange(n)
    while pool.size >= 2:
        order = pool[np.argsort(v[pool], kind="stable")]
        vs = v[order]
        ks = np.arange(1, order.size)
        feasible = ks * vs[:-1] <= budget
        if not feasible.any():
            return empty
        k = int(ks[np.nonzero(feasible)[0][-1]])
        level = 1.0 / (n - k)
        selected = order[:k]
        violators = selected[eps[selected] <= level]
        if violators.size == 0:
            pay = np.zeros(n)
            pay[selected] = min(budget / k, vs[k] / (n - k))
            return FqSelection(selected, pay, level)
        pool = np.setdiff1d(pool, violators)
    return empty


def trial_by_trial_records(config):
    """The sweep of a synthetic-data ``config``, one trial at a time.

    Built only from the one-population calls (``solve_threshold_system``
    on a vector, ``allocate_and_pay``, ``output_distribution``,
    ``sample_output``, the fq answers, and ``loop_fq_select`` above), with
    the seed layout written out: data from (seed, 98), each population
    from (seed, 97, budget index, trial) and each mechanism's draws from
    (seed, tag, budget index, trial) with tags smq 0, fq 1 and fip 2.
    Returns the trial records in (trial, mechanism) order per fraction.
    """
    from pdq import baselines, datagen, private_query
    from pdq.errors import DegenerateScalingError
    from pdq.experiment import TrialRecord
    from pdq.procurement import allocate_and_pay
    from pdq.thresholds import solve_threshold_system

    tags = {"smq": 0, "fq": 1, "fip": 2}
    spec = config.query_spec
    lo, hi = spec.data_domain
    n = config.n
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 98]))
    weights = None
    if config.query == "count":
        values = datagen.gen_count_values(n, config.count_rate, rng)
    elif config.query == "median":
        values = datagen.gen_median_values(n, config.median_value_max, rng)
    else:
        values = datagen.gen_linear_values(n, config.value_domain, rng)
        profiles, reference = datagen.gen_profiles(n, 5, rng)
        weights = datagen.cosine_weights(profiles, reference)
    truth = float(private_query.eval_query(spec, values, weights=weights))
    if config.query == "count":
        fallback = n / 2.0
    elif config.query == "median":
        fallback = 0.5 * (lo + hi)
    else:
        fallback = float(0.5 * (lo + hi) * weights.sum())

    records = []
    for b_idx, frac in enumerate(config.budget_fractions):
        budget = frac * n
        for trial in range(config.trials):
            seq = np.random.SeedSequence([config.seed, 97, b_idx, trial])
            theta, eps = datagen.gen_correlated_uniforms(
                n, config.rho, np.random.default_rng(seq)
            )
            if config.query == "linear":
                fip_sel = baselines.fip_select_from_arrays(theta, eps, weights, budget)
                eps = baselines.fip_epsilon_assignment(weights, fip_sel.selected_indices)
            for mech in config.mechanisms:
                seq = np.random.SeedSequence([config.seed, tags[mech], b_idx, trial])
                seed_val = int(seq.generate_state(1)[0])
                mech_rng = np.random.default_rng(seq)
                if mech == "smq":
                    bought = allocate_and_pay(
                        theta, solve_threshold_system(eps, budget).thresholds, eps
                    )
                    sel = bought.selected_indices
                    k, paid = int(sel.size), bought.total_paid
                    purchased = bought.purchased_privacy
                    answer, fell = fallback, 1
                    if k:
                        linear = config.query == "linear"
                        sampled = private_query.SampledDataset(
                            spec, values[sel], eps[sel], full_n=n,
                            weights=weights[sel] if linear else None,
                            full_weight_sum=float(weights.sum()) if linear else None,
                        )
                        try:
                            dist = private_query.output_distribution(sampled)
                        except DegenerateScalingError:
                            dist = None
                        if dist is not None:
                            answer = private_query.sample_output(dist, mech_rng)
                            fell = 0
                elif mech == "fq":
                    sel = loop_fq_select(theta, eps, budget)
                    k, paid = sel.selected_indices.size, float(sel.payments.sum())
                    purchased = float(k * sel.level)
                    bought_values = values[sel.selected_indices]
                    if config.query == "count":
                        answer = baselines.fq_count_answer(bought_values, n, k, mech_rng)
                    else:
                        answer = baselines.fq_median_answer(
                            bought_values, n, k, spec.data_domain, mech_rng
                        )
                    answer, fell = float(answer), int(k == 0)
                else:
                    k = fip_sel.selected_indices.size
                    paid = float(fip_sel.payments.sum())
                    mask = np.zeros(n, dtype=bool)
                    mask[fip_sel.selected_indices] = True
                    purchased = float(eps[mask].sum())
                    answer = float(baselines.fip_answer(
                        values[mask], weights[mask], weights[~mask],
                        spec.data_domain, mech_rng,
                    ))
                    fell = int(k == 0)
                records.append(TrialRecord(
                    mechanism=mech, query=config.query, rho=config.rho,
                    budget_fraction=frac, trial=trial, answer=answer,
                    truth=truth, purchased_privacy=purchased, num_selected=k,
                    total_paid=paid, fallback=fell, seed=seed_val,
                ))
    return records


def group_by_group_summary(records):
    """Summary rows of ``records``, one (mechanism, budget fraction)
    group at a time: the group's answers, selection counts and payments
    each become their own vector, summarised with ``np.percentile``
    (numpy's default linear interpolation) and ``np.mean``.  Returns
    plain tuples in ``SUMMARY_COLUMNS`` order, sorted by group.
    """
    groups = {}
    for rec in records:
        groups.setdefault((rec.mechanism, rec.budget_fraction), []).append(rec)
    rows = []
    for key in sorted(groups):
        recs = groups[key]
        answers = np.array([r.answer for r in recs], dtype=float)
        truth = recs[0].truth
        ci_low, ci_high = np.percentile(answers, [2.5, 97.5])
        rows.append((
            key[0],
            recs[0].query,
            recs[0].rho,
            key[1],
            float(answers.mean()),
            float(ci_low),
            float(ci_high),
            float(np.sqrt(np.mean((answers - truth) ** 2))),
            float(np.mean([r.num_selected for r in recs])),
            float(np.mean([r.total_paid for r in recs])),
        ))
    return rows
