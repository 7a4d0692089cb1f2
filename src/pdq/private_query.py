"""Exponential-mechanism query answering over purchased data.

The mechanism scores each candidate answer by how cheaply the sampled
dataset could be modified to make that answer exact, where the cost of
modifying an entry is its owner's privacy requirement.  Sampling a
candidate with probability proportional to exp(score / 2) then satisfies
each owner's personal privacy requirement.
"""

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateScalingError, InputError

COUNT = "count"
MEDIAN = "median"
LINEAR = "linear"
QUERY_KINDS = (COUNT, MEDIAN, LINEAR)

# number of evenly spaced candidate answers for a linear query
_LINEAR_GRID = 201

# A median cost at or above this has weight exp(-cost/2) == 0.0 in the
# sampler: exp(-750.0) is 0.0, the largest cost with a nonzero weight is
# about 1490.27, and the median's own run costs 0, so the law's top logit
# is 0.  Such a cost may read the bound instead of its value, and no
# probability, sum or draw moves.
_ZERO_WEIGHT_COST = 1500.0


@dataclass(frozen=True)
class QuerySpec:
    """The query to answer and the range its data lie in; building one is
    the only check of a range (finite, lo < hi, integers from 1 for a
    median), which fixes the candidates and each owner's neighbours."""

    kind: str
    data_domain: tuple

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise InputError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        lo, hi = self.data_domain
        if not all(
            isinstance(b, numbers.Real) and not isinstance(b, bool) and math.isfinite(b)
            for b in (lo, hi)
        ):
            raise InputError(f"domain bounds must be finite numbers, got [{lo}, {hi}]")
        if not lo < hi:
            raise InputError(f"domain is empty: [{lo}, {hi}]")
        if self.kind == MEDIAN and not (
            lo >= 1 and float(lo).is_integer() and float(hi).is_integer()
        ):
            raise InputError(
                f"median queries need an integer domain with lower bound >= 1, "
                f"got [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class SampledDataset:
    """Data bought from the selected owners for one query.

    Building one checks the values against ``query``, so the answer
    steps never check them again.  ``full_n`` is the size of the
    population the reported answer should refer to.  ``weights`` and
    ``full_weight_sum`` are required by linear queries and unused by the
    others.
    """

    query: QuerySpec
    values: np.ndarray
    eps: np.ndarray
    full_n: int
    weights: Optional[np.ndarray] = None
    full_weight_sum: Optional[float] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        eps = np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "eps", eps)
        if values.size == 0:
            raise InputError("no owners were selected; nothing to answer from")
        if values.shape != eps.shape:
            raise InputError(
                f"{values.size} values but {eps.size} privacy requirements"
            )
        if np.any(eps <= 0.0) or not np.all(np.isfinite(eps)):
            raise InputError("privacy requirements must be finite and > 0")
        if self.full_n < values.size:
            raise InputError(
                f"population size {self.full_n} smaller than sample {values.size}"
            )
        _check_values(self.query, values)
        if self.query.kind == LINEAR and (
            self.weights is None or self.full_weight_sum is None
        ):
            raise InputError(
                "linear queries need sampled weights and the population weight sum"
            )
        if self.full_weight_sum is not None and not np.isfinite(self.full_weight_sum):
            raise InputError("the population weight sum must be finite")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "weights", w)
            if w.shape != values.shape:
                raise InputError("need one weight per sampled value")
            if not np.all(np.isfinite(w)):
                raise InputError("weights must be finite")

    @property
    def k(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class OutputDistribution:
    """Candidate answers with their sampling probabilities.

    ``candidates`` live in the raw sample-query space; ``reported`` are
    the same answers rescaled to the full population.
    """

    candidates: np.ndarray
    reported: np.ndarray
    probabilities: np.ndarray


def eval_query(query: QuerySpec, values, weights=None):
    """Exact query value on a concrete dataset (no privacy)."""
    values = np.asarray(values, dtype=float)
    _check_values(query, values)
    if query.kind == COUNT:
        return float(values.sum())
    if query.kind == MEDIAN:
        v = np.sort(values)
        return float(v[(v.size - 1) // 2])
    if weights is None:
        raise InputError("linear queries need weights")
    w = np.asarray(weights, dtype=float)
    if w.shape != values.shape:
        raise InputError("need one weight per value")
    if not np.all(np.isfinite(w)):
        raise InputError("weights must be finite")
    return float(w @ values)


def _check_values(query: QuerySpec, values):
    """Raise InputError unless ``values`` suit ``query``: 0/1 for a count,
    integers in the domain (repeats allowed) for a median, finite numbers
    in the domain for a linear query."""
    lo, hi = query.data_domain
    if query.kind == COUNT:
        if not np.all((values == 0.0) | (values == 1.0)):
            raise InputError("count queries need binary (0/1) data values")
    elif query.kind == MEDIAN:
        if np.any(values != np.floor(values)):
            raise InputError("median queries need integer data values")
        if np.any(values < lo) or np.any(values > hi):
            raise InputError(f"median data values must lie in [{lo}, {hi}]")
    else:
        if not np.all(np.isfinite(values)):
            raise InputError("linear data values must be finite")
        if np.any(values < lo) or np.any(values > hi):
            raise InputError(f"linear data values must lie in [{lo}, {hi}]")


# -- candidate answers ------------------------------------------------------


def candidate_outputs(sampled: SampledDataset):
    """Enumerate candidate answers for the sampled data.

    Returns ``(targets, reported)``: raw answers over the sample and the
    same answers scaled up to the population.  Counts scale by n/k,
    medians report as-is, and linear answers scale by the ratio of the
    population weight mass to the sampled weight mass.
    """
    query = sampled.query
    if query.kind == COUNT:
        targets = np.arange(sampled.k + 1, dtype=float)
        return targets, targets * (sampled.full_n / sampled.k)
    if query.kind == MEDIAN:
        slots, costs, *_ = _median_law(sampled.values, sampled.eps, query.data_domain)
        targets = slots[np.isfinite(costs)]
        return targets, targets
    return _linear_candidates(sampled)


def _linear_candidates(sampled):
    w_sum = float(np.sum(sampled.weights))
    w_scale = float(np.sum(np.abs(sampled.weights)))
    if abs(w_sum) <= 1e-12 * max(1.0, w_scale):
        raise DegenerateScalingError(
            "sampled weights sum to zero; the answer cannot be scaled up"
        )
    # every answer the domain allows, from the weights alone, so that
    # neighbouring datasets share one grid
    lo, hi = sampled.query.data_domain
    w = sampled.weights
    low = float(np.minimum(w * lo, w * hi).sum())
    high = float(np.maximum(w * lo, w * hi).sum())
    targets = np.linspace(low, high, _LINEAR_GRID)
    reported = targets * (sampled.full_weight_sum / w_sum)
    return targets, reported


# -- modification scores ----------------------------------------------------


def modification_scores(sampled: SampledDataset, targets):
    """Score of each target: minus the cheapest total privacy requirement
    over entries that must change for the query to return that target.

    A linear target may change part of an entry, at that share of its
    requirement (the fractional relaxation, see ``_fractional_cover``).
    Unreachable targets score -inf.  A median target outside the law's
    window, whose cost is at or past the sampler's ``_ZERO_WEIGHT_COST``,
    reads that bound; its weight exp(score/2) is 0.0 either way.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    query = sampled.query
    if query.kind == COUNT:
        keys = np.where(sampled.values == 1.0, -sampled.eps, sampled.eps)
        table = _count_cost_rows(keys[None], sampled.k)[0]
        costs = np.full(targets.shape, np.inf)
        ok = (targets == np.floor(targets)) & (targets >= 0) & (targets <= sampled.k)
        costs[ok] = table[targets[ok].astype(int)]
    elif query.kind == MEDIAN:
        # a target takes the cost of the slot that holds it: a run's value,
        # or else the gap below the first run above it, or past the last;
        # one outside the window reads the bound
        slots, slot_costs, lead, _ = _median_law(
            sampled.values, sampled.eps, query.data_domain
        )
        runs = slots[1 - lead::2]
        i = np.searchsorted(runs, targets)
        on_run = runs[np.minimum(i, runs.size - 1)] == targets
        at = 2 * i + on_run - lead
        inside = (at >= 0) & (at < slots.size)
        costs = np.full(targets.shape, _ZERO_WEIGHT_COST)
        costs[inside] = slot_costs[at[inside]]
        # moved entries may tie at the target, so every integer in the
        # domain is reachable
        lo, hi = query.data_domain
        feasible = (targets == np.floor(targets)) & (targets >= lo) & (targets <= hi)
        costs[~feasible] = np.inf
    else:
        costs = _linear_costs(
            sampled.values, sampled.weights, sampled.eps, query.data_domain, targets
        )
    return -costs


def _median_law(values, eps, domain):
    """The median law's live window of candidate slots and their
    modification costs, from one sort.

    The sorted values fall into runs of ties; ``starts`` holds each run's
    first position, then k.  In the full law, slot 2i is the midpoint of
    the gap before run i (the last slot is the gap after the last run),
    and slot 2i+1 is run i's value, so the slots rise.  Every target in
    gap i has starts[i] entries below it and as many at or below it; run
    i's value has starts[i] below and starts[i+1] at or below.  A surplus
    below the target rises to it, and a shortfall at or below it is
    pulled down.  Those ranks stop at the ends of tied runs, so the table
    entries read do not depend on how the sort ordered the ties.  A gap
    that holds no integer costs inf.

    Costs rise away from the median's run on both sides, so the slots
    that cost less than ``_ZERO_WEIGHT_COST`` form one range, the window,
    and every slot outside it weighs 0.0.  The tables hold only those
    live costs (``_median_score_table``), so the window's ends are the
    tables' lengths: a gap is live when its index falls inside the
    table it reads, and so are the runs next to the live gaps.  Only the
    window's slots and costs are built.

    Returns ``slots, costs, lead, layout``: the window, whether it opens
    on a run (``lead`` is 1) rather than on the domain's first gap, and
    how many of the full law's finite slots precede the window and how
    many it has in all, for ``_feasible_softmax``.
    """
    lo, hi = int(domain[0]), int(domain[1])
    k = values.size
    med = (k - 1) // 2
    order = np.argsort(values)
    v = values[order]
    starts = np.concatenate([[0], np.flatnonzero(v[1:] != v[:-1]) + 1, [k]])
    bounds = np.concatenate([[lo - 1], v[starts[:-1]].astype(np.int64), [hi + 1]])
    wide = bounds[1:] - bounds[:-1] >= 2

    cost_up, cost_dn = _median_score_table(eps[order], med)
    # the runs' starts rise, so the gaps up to the run j holding the
    # median pull down and the rest rise; g0..g1 are the live gaps
    j = int(np.searchsorted(starts, med, "right")) - 1
    g0 = int(np.searchsorted(starts, med - cost_dn.size, "right"))
    g1 = int(np.searchsorted(starts, med + 1 + cost_up.size)) - 1
    gap = np.empty(g1 - g0 + 1)
    split = j + 1 - g0
    gap[:split] = cost_dn[med - starts[g0:j + 1]]
    gap[split:] = cost_up[starts[j + 1:g1 + 1] - (med + 1)]

    # runs g0-1..g1 and the gaps between them, where the ends lo - 1 and
    # hi + 1 stand in for the runs before the first gap and after the last
    ends = bounds[g0:g1 + 2]
    slots = np.empty(2 * ends.size - 1)
    slots[0::2] = ends
    slots[1::2] = (ends[:-1] + ends[1:]) // 2
    costs = np.empty(slots.shape)
    costs[1::2] = gap
    # a run below the median's run pulls down what the gap after it does,
    # one above rises as the gap before it does
    run = costs[0::2]
    run[:split] = gap[:split]
    run[split] = 0.0
    run[split + 1:] = gap[split:]
    costs[1::2][~wide[g0:g1 + 1]] = np.inf

    lead = int(g0 > 0)
    window = slice(1 - lead, slots.size - (g1 == wide.size - 1))
    before = max(g0 - 1, 0) + int(np.count_nonzero(wide[:g0]))
    total = wide.size - 1 + int(np.count_nonzero(wide))
    return slots[window], costs[window], lead, (before, total)


def _median_score_table(e, med):
    """Cheapest modification cost as the target moves away from the median,
    for the live costs only: each table ends at its first entry at or
    above ``_ZERO_WEIGHT_COST``.

    cost_up[s-1]: cost for a target with med+s entries below it, which
    needs the s cheapest of them pushed up to it.  cost_dn[s-1]: cost for
    a target with med+1-s entries at or below it, which needs the s
    cheapest of the rest pulled down to it.

    Each step pushes the next entry into a fixed-size heap and pops the
    cheapest, so a table is the running sum of the popped sequence
    (replacement selection, Knuth TAOCP vol. 3 §5.4.1), from
    ``_running_pop_sums``.  ``map`` drives the heap from C, and
    ``np.cumsum`` adds left to right as a Python loop would, so the sums
    are the loop's to the last bit.

    The s-th entry of either table sums s distinct entries of the
    sample, so it is at least the sum of the sample's s smallest.
    ``steps`` is the first index at which that sum reaches the bound, up
    to the rounding of two float sums (under 1e-7 at k = 1e5), so the
    feed stops there.  The sums of positive pops never fall, so the
    entries below the bound are a prefix, and the table ends where the
    costs reach the bound.
    """
    steps = int(np.searchsorted(np.cumsum(np.sort(e)), _ZERO_WEIGHT_COST))
    cost_up = _running_pop_sums(e[:med], e[med:], steps)
    cost_dn = _running_pop_sums(e[med + 1:], e[med::-1], steps)
    return tuple(t[:np.searchsorted(t, _ZERO_WEIGHT_COST)] for t in (cost_up, cost_dn))


def _running_pop_sums(pool, feed, steps):
    """Running sums of heappushpop(pool, x) over x in feed[:steps].

    The s-th pop is at most the s-th smallest entry of the pool and
    feed[:s] together.  With the head feed[:steps], of h entries, the
    other h - s fed entries raise that entry's rank by at most h - s
    places, so every pop is at or below the cut, the h-th smallest entry
    of the pool and the head together.  Entries above it therefore leave
    the pool and enter the feed as +inf: the heap pops the same values
    in the same order, from a smaller heap.
    """
    head = feed[:steps]
    h = head.size
    if h == 0:
        return np.empty(0)
    cut = np.partition(np.concatenate((pool, head)), h - 1)[h - 1]
    heap = pool[pool <= cut].tolist()
    heapq.heapify(heap)
    fed = np.where(head <= cut, head, np.inf).tolist()
    pops = np.fromiter(map(heapq.heappushpop, itertools.repeat(heap), fed), float, h)
    return np.cumsum(pops, out=pops)


def _linear_costs(values, weights, eps, domain, targets):
    raw = float(weights @ values)
    up, down = _linear_caps(values, weights, domain)
    delta = targets - raw
    costs = np.full(targets.shape, np.inf)
    # the tolerance is absolute; an infinite or NaN delta fails it
    still = np.abs(delta) <= 1e-12
    costs[still] = 0.0
    # a NaN delta has no sign, so neither side takes it
    for sign, caps in ((1.0, up), (-1.0, down)):
        cap_total = float(caps.sum())
        side = np.flatnonzero(~still & (np.sign(delta) == sign))
        need = np.abs(delta[side])
        # written so that a NaN need, from caps that overflow, is reached
        reach = ~(cap_total - need < -1e-9 * max(1.0, cap_total))
        costs[side[reach]] = _fractional_cover(eps, caps, need[reach])
    return costs


def _linear_caps(values, weights, domain):
    """Per-entry headroom: how far w_i d_i can move up or down."""
    lo, hi = domain
    pos = weights > 0
    up = np.where(pos, weights * (hi - values), -weights * (values - lo))
    down = np.where(pos, weights * (values - lo), -weights * (hi - values))
    return up, down


def _fractional_cover(eps, caps, need):
    """Least privacy requirement whose headroom covers each ``need``.

    This is the LP relaxation of the 0/1 covering knapsack: an entry may
    be modified in part, spending that share of its requirement for the
    same share of its cap.  Taking entries whole in order of requirement
    per unit cap, then a share of the one that completes the cover, is
    optimal (Dantzig, 1957).  Entries with no cap (within a relative
    1e-12) never help; a need past the last prefix, or a NaN need from
    caps that overflow, takes every entry whole.
    """
    usable = caps > 1e-12 * max(1.0, float(caps.max(initial=0.0)))
    if not np.any(usable):
        # only needs inside the reach tolerance get here
        return np.zeros(need.shape)
    caps, eps = caps[usable], eps[usable]
    order = np.argsort(eps / caps, kind="stable")
    caps, eps = caps[order], eps[order]
    cap_prefix = np.concatenate([[0.0], np.cumsum(caps)])
    eps_prefix = np.concatenate([[0.0], np.cumsum(eps)])
    j = np.searchsorted(cap_prefix, need, "left") - 1
    j = np.clip(j, 0, caps.size - 1)
    # fmin takes a NaN share to 1
    share = np.fmin((need - cap_prefix[j]) / caps[j], 1.0)
    return eps_prefix[j] + eps[j] * share


# -- the mechanism itself ---------------------------------------------------


def output_distribution(sampled: SampledDataset) -> OutputDistribution:
    """Distribution over candidate answers, proportional to exp(score/2)."""
    query = sampled.query
    if query.kind == MEDIAN:
        # a median reports its candidates as they are, so one array serves
        slots, costs, _, layout = _median_law(
            sampled.values, sampled.eps, query.data_domain
        )
        keep, probs = _feasible_softmax(-costs, layout)
        targets = slots[keep]
        return OutputDistribution(targets, targets, probs[keep])
    targets, reported = candidate_outputs(sampled)
    keep, probs = _feasible_softmax(modification_scores(sampled, targets))
    return OutputDistribution(targets[keep], reported[keep], probs[keep])


def _feasible_softmax(scores, layout=None, prefix=None):
    """Mask of the finite scores, and each score's weight exp(score/2)
    over the sum of its row's finite weights, 0 where a score is not
    finite; for one row of scores or for (T, m) rows.

    One row may be a median law's window (``_median_law``): every finite
    slot of the law outside it weighs 0.0, and ``layout`` gives how many
    of the law's finite slots come before the window and how many there
    are in all.  The sum then runs over zeros of the law's length with
    the window's weights at their offset, so numpy's pairwise sum groups
    the same terms as over the whole law, and adding 0.0 moves no bit.

    (T, m) rows whose finite scores are each row's first ``prefix[r]``,
    as count rows' are, sum that slice: the same terms in the same order
    as the row's compacted finite weights.
    """
    keep = np.isfinite(scores)
    logits = scores / 2.0
    logits[~keep] = -np.inf
    top = logits.max(axis=-1, keepdims=True)
    if np.isneginf(top).any():
        raise InputError("every candidate answer is unreachable")
    probs = np.exp(logits - top)
    if prefix is not None:
        for p, live in zip(probs, prefix.tolist()):
            p /= p[:live].sum()
        return keep, probs
    # each row sums its own finite weights in order, as that row alone would
    for p, k in zip(np.atleast_2d(probs), np.atleast_2d(keep)):
        live = p[k]
        if layout is not None:
            before, total = layout
            live = np.pad(live, (before, total - before - live.size))
        p /= live.sum()
    return keep, probs


def output_distributions(query: QuerySpec, values, eps, selected, weights=None) -> list:
    """``output_distribution`` of T samples of one population, to the bit.

    Row r samples the owners ``selected[r]`` (a boolean row) of the
    column ``values``, and of ``weights`` for a linear query, with
    requirements ``eps[r]``; the population is the whole column.  A row
    that bought nobody gets None, and so does a linear row whose bought
    weights cannot scale the answer up.  Count rows are scored together.
    """
    if query.kind != COUNT:
        weight_sum = None if weights is None else float(weights.sum())
        return [
            _sample_distribution(query, values, e, sel, weights, weight_sum)
            for sel, e in zip(selected, eps)
        ]
    sizes = np.count_nonzero(selected, axis=1)
    width = int(sizes.max())
    keys = np.where(selected, np.where(values == 1.0, -eps, eps), np.inf)
    _, probs = _feasible_softmax(-_count_cost_rows(keys, width), prefix=sizes + 1)
    targets = np.arange(width + 1, dtype=float)
    reported = targets * (values.size / np.maximum(sizes, 1))[:, None]
    return [
        OutputDistribution(targets[:k + 1], reported[r, :k + 1], probs[r, :k + 1])
        if k else None
        for r, k in enumerate(sizes.tolist())
    ]


def _sample_distribution(query, values, eps, sel, weights, weight_sum):
    """One median or linear row of ``output_distributions``."""
    if not sel.any():
        return None
    sampled = SampledDataset(
        query, values[sel], eps[sel], full_n=values.size,
        weights=None if weights is None else weights[sel], full_weight_sum=weight_sum,
    )
    try:
        return output_distribution(sampled)
    except DegenerateScalingError:
        return None


def _count_cost_rows(keys, width):
    """Cost of the count targets 0..width for each row of signed keys,
    as a (T, width + 1) array.

    A row keys each bought one by -eps, each bought zero by +eps and
    every other owner by +inf, and buys at most ``width`` owners.  One
    sort per row puts the ones first, by falling requirement, then the
    zeros by rising requirement.  A target below the current count pays
    the ones from its position to the end of their block, one above it
    the zeros up to the position before it, so the cheapest entries of
    a class are changed first.  Running sums that add 0.0 for the other
    entries keep the bits of sums over the class alone, in rising
    requirement order.  Targets past a row's sample size sum into its
    +inf keys.
    """
    keys = np.sort(keys, axis=1)[:, :width]
    current = np.count_nonzero(keys < 0.0, axis=1)
    one = np.arange(width) < current[:, None]
    down = np.cumsum(np.where(one, -keys, 0.0)[:, ::-1], axis=1)[:, ::-1]
    costs = np.empty((len(keys), width + 1))
    costs[:, 1:] = np.cumsum(np.where(one, 0.0, keys), axis=1)
    np.copyto(costs[:, :width], down, where=one)
    costs[np.arange(len(keys)), current] = 0.0
    return costs


def sample_output(dist: OutputDistribution, rng) -> float:
    """Draw one reported answer from the distribution.

    The float CDF may end below 1.  A uniform at or past its end draws
    the first answer at which the CDF reaches it, whose probability is
    positive, so the answers after it, whose probability is 0.0, are
    never drawn and a law may leave them out.  This is a stopgap until
    the sampler draws exactly (ROADMAP item 2).
    """
    cdf = np.cumsum(dist.probabilities)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    if idx == cdf.size:
        idx = int(np.searchsorted(cdf, cdf[-1]))
    return float(dist.reported[idx])


def sample_laplace(scale: float, rng) -> float:
    if scale < 0.0:
        raise InputError(f"noise scale must be >= 0, got {scale}")
    if scale == 0.0:
        return 0.0
    return float(rng.laplace(0.0, scale))
