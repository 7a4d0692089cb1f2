"""Reference mechanisms that buy data at a uniform privacy level.

Both baselines rank owners by privacy valuation v_i = theta_i / eps_i,
pick a prefix that the budget can cover, and answer with Laplace noise
calibrated to the unselected mass.  The count/median variant (fq_*)
pays every seller the same amount; the linear variant (fip_*) pays
proportionally to query weights.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .private_query import sample_laplace


@dataclass(frozen=True)
class BaselineSelection:
    """Selection outcome: k owners, their payments, and the uniform DP
    level 1/(n-k) the noisy answer will grant (count/median only)."""

    k: int
    selected_indices: np.ndarray
    per_owner_payment: np.ndarray
    uniform_dp_level: Optional[float] = None


def _empty_selection(n: int, dp_level: Optional[float]) -> BaselineSelection:
    return BaselineSelection(
        0, np.empty(0, dtype=int), np.zeros(n), dp_level
    )


def fq_select_from_arrays(valuations, eps, budget: float) -> BaselineSelection:
    """Uniform-payment selection with the privacy-requirement filter.

    Picks the largest k cheapest-valuation owners with k * v_k <= B,
    capped at n-1 so a threshold price v_{k+1} exists.  Owners whose
    requirement eps_i would be violated by the 1/(n-k) noise level are
    struck from the candidate pool and the selection is recomputed until
    every selected owner tolerates the level.
    """
    valuations = np.asarray(valuations, dtype=float)
    eps = np.asarray(eps, dtype=float)
    n = valuations.size
    if n < 2:
        raise InputError("selection needs at least two owners")
    if eps.shape != valuations.shape:
        raise InputError("need one privacy requirement per valuation")
    if np.any(eps <= 0.0):
        raise InputError("privacy requirements must be > 0")
    if budget <= 0.0:
        return _empty_selection(n, 1.0 / n)

    v = _valuation_ratios(valuations, eps)
    pool = np.arange(n)
    while pool.size >= 2:
        order = pool[_ascending_order(v[pool])]
        vs = v[order]
        k_cap = min(order.size - 1, n - 1)
        ks = np.arange(1, k_cap + 1)
        feasible = ks * vs[:k_cap] <= budget
        if not feasible.any():
            return _empty_selection(n, 1.0 / n)
        k = int(ks[np.nonzero(feasible)[0][-1]])
        level = 1.0 / (n - k)
        selected = order[:k]
        violators = selected[eps[selected] <= level]
        if violators.size == 0:
            payment = min(budget / k, vs[k] / (n - k))
            pay = np.zeros(n)
            pay[selected] = payment
            return BaselineSelection(k, selected, pay, level)
        pool = np.setdiff1d(pool, violators)
    return _empty_selection(n, 1.0 / n)


def fq_select_rows(valuations, eps, budget: float) -> list:
    """``fq_select_from_arrays`` for each row of (T, n) arrays.

    One sort and one search for the largest feasible k serve every row
    whose ratios are distinct and whose selected owners all tolerate the
    first noise level; the other rows, and input the loop would reject,
    run ``fq_select_from_arrays`` alone.  A row served by the batch lists
    its selected owners in index order, not in ratio order.
    """
    valuations = np.asarray(valuations, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if eps.shape != valuations.shape or valuations.ndim != 2:
        raise InputError("need (T, n) valuations and privacy requirements")
    count, n = valuations.shape
    v = None
    if n >= 2 and budget > 0.0 and not np.any(eps <= 0.0):
        v = valuations / eps
    if v is None or np.isnan(v).any():
        # the loop raises, or selects nobody, as it does for one row
        return [fq_select_from_arrays(a, b, budget) for a, b in zip(valuations, eps)]

    vs = np.sort(v, axis=1)
    feasible = np.arange(1, n) * vs[:, :n - 1] <= budget
    k = np.where(feasible.any(axis=1), n - 1 - np.argmax(feasible[:, ::-1], axis=1), 0)
    rows = np.arange(count)
    # with distinct ratios the k cheapest are those up to the k-th
    cut = np.where(k > 0, vs[rows, k - 1], -np.inf)
    chosen = v <= cut[:, None]
    level = 1.0 / (n - k)
    payment = np.minimum(budget / np.maximum(k, 1), vs[rows, k] / (n - k))
    pay = chosen * payment[:, None]
    redo = (vs[:, 1:] == vs[:, :-1]).any(axis=1)
    redo |= (chosen & (eps <= level[:, None])).any(axis=1)

    selections = []
    for r in range(count):
        if redo[r]:
            selections.append(fq_select_from_arrays(valuations[r], eps[r], budget))
        elif k[r] == 0:
            selections.append(_empty_selection(n, 1.0 / n))
        else:
            selections.append(BaselineSelection(
                int(k[r]), np.flatnonzero(chosen[r]), pay[r], float(level[r])
            ))
    return selections


def _valuation_ratios(valuations, eps):
    """v_i = theta_i / eps_i, raising InputError on the first NaN."""
    v = valuations / eps
    nan = np.flatnonzero(np.isnan(v))
    if nan.size:
        raise InputError(
            f"owner {nan[0]}'s valuation / requirement ratio is NaN"
        )
    return v


def _ascending_order(keys):
    """``np.argsort(keys, kind="stable")``, sorted by numpy's faster
    default sort whenever that gives the same permutation.

    Distinct keys have exactly one sorting permutation, so any sort finds
    it; only tied keys need the stable sort to put the lower index first.
    NaN compares unequal even to itself, so callers must reject it.
    """
    order = np.argsort(keys)
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(keys, kind="stable")
    return order


def fq_count_answer(selected_values, n: int, k: int, rng) -> float:
    """Sum of bought bits, midpoint imputation for the rest, 1/(n-k)-DP noise."""
    values = np.asarray(selected_values, dtype=float)
    if values.size != k:
        raise InputError(f"expected {k} selected values, got {values.size}")
    return float(values.sum()) + (n - k) / 2.0 + sample_laplace(n - k, rng)


def median_replacement_sensitivity(values, domain) -> float:
    """Distance from the median to the nearest lower value that differs
    from it (or to the domain minimum when there is none), or to the
    nearest such higher value, whichever is larger.  On distinct values
    that is the largest shift from replacing one entry by a domain
    extreme; a run of ties with the median does not hide the shift."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise InputError("sensitivity of an empty dataset is undefined")
    return _sorted_median_sensitivity(v, domain)


def _sorted_median_sensitivity(v, domain) -> float:
    """``median_replacement_sensitivity`` of values already sorted."""
    lo, hi = domain
    med = v[(v.size - 1) // 2]
    below = np.searchsorted(v, med, "left")
    above = np.searchsorted(v, med, "right")
    down_to = v[below - 1] if below >= 1 else lo
    up_to = v[above] if above < v.size else hi
    return float(max(med - down_to, up_to - med))


def fq_median_answer(selected_values, n: int, k: int, domain, rng) -> float:
    """Median of the bought values, or the domain midpoint when there are
    none, plus Laplace noise of its sensitivity times the n - k unbought."""
    values = np.asarray(selected_values, dtype=float)
    if values.size != k:
        raise InputError(f"expected {k} selected values, got {values.size}")
    lo, hi = domain
    if k == 0:
        med, sens = 0.5 * (lo + hi), hi - lo
    else:
        v = np.sort(values)
        med = float(v[(k - 1) // 2])
        sens = _sorted_median_sensitivity(v, domain)
    return med + sample_laplace(sens * (n - k), rng)


def fip_select_from_arrays(valuations, eps, weights, budget: float) -> BaselineSelection:
    """Weight-proportional selection for linear queries.

    An owner whose |weight| strictly exceeds everyone else's combined is
    bought alone for the whole budget.  Otherwise the cheapest-valuation
    prefix is chosen, largest k with B / W_sel >= v_k / W_unsel, and paid
    proportionally to |w_i|.  Weight sums use absolute values so that
    negative similarity weights keep the ratios meaningful.
    """
    valuations = np.asarray(valuations, dtype=float)
    eps = np.asarray(eps, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = valuations.size
    if n < 2:
        raise InputError("selection needs at least two owners")
    if weights.shape != valuations.shape or eps.shape != valuations.shape:
        raise InputError("valuations, eps and weights must have equal length")
    if np.any(weights == 0.0):
        raise InputError("weights must be nonzero")
    if np.any(eps <= 0.0):
        raise InputError("privacy requirements must be > 0")

    if budget <= 0.0:
        return _empty_selection(n, None)

    v = _valuation_ratios(valuations, eps)
    aw = np.abs(weights)
    total = float(aw.sum())
    dominant = np.nonzero(aw > total - aw)[0]
    if dominant.size:
        i_star = int(dominant[0])
        pay = np.zeros(n)
        pay[i_star] = budget
        return BaselineSelection(1, np.array([i_star]), pay, None)

    order = _ascending_order(v)
    vs = v[order]
    ws = aw[order]
    sel_mass = np.cumsum(ws)[: n - 1]
    unsel_mass = total - sel_mass
    feasible = budget / sel_mass >= vs[: n - 1] / unsel_mass
    if not feasible.any():
        return _empty_selection(n, None)
    k = int(np.nonzero(feasible)[0][-1]) + 1
    rate = min(budget / sel_mass[k - 1], vs[k] / unsel_mass[k - 1])
    selected = order[:k]
    pay = np.zeros(n)
    pay[selected] = aw[selected] * rate
    return BaselineSelection(k, selected, pay, None)


def fip_epsilon_assignment(weights, selected_indices) -> np.ndarray:
    """Privacy level each owner effectively gets: |w_i| over the
    unselected |weight| mass (the noise is calibrated to that mass)."""
    aw = np.abs(np.asarray(weights, dtype=float))
    unselected = np.ones(aw.size, dtype=bool)
    unselected[np.asarray(selected_indices, dtype=int)] = False
    mass = float(aw[unselected].sum())
    if mass <= 0.0:
        raise InputError(
            "every owner is selected; the assigned privacy level is undefined"
        )
    return aw / mass


def fip_answer(selected_values, selected_weights, unselected_weights, domain, rng) -> float:
    """Weighted sum over bought data, midpoint imputation for the rest,
    Laplace noise scaled to the unselected |weight| mass."""
    lo, hi = domain
    sv = np.asarray(selected_values, dtype=float)
    sw = np.asarray(selected_weights, dtype=float)
    uw = np.asarray(unselected_weights, dtype=float)
    if sv.shape != sw.shape:
        raise InputError("need one weight per selected value")
    base = float(sw @ sv) if sv.size else 0.0
    imputed = 0.5 * (lo + hi) * float(uw.sum())
    scale = (hi - lo) * float(np.abs(uw).sum())
    return base + imputed + sample_laplace(scale, rng)
