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


def _check_budget(budget):
    """Reject a NaN or infinite budget as the threshold solver does: a
    NaN one would buy nobody and an infinite one pay finite sums, both
    silently."""
    if not np.isfinite(budget):
        raise InputError(f"budget must be finite and > 0, got {budget}")


def fq_select_from_arrays(valuations, eps, budget: float):
    """Uniform-payment selection with the privacy-requirement filter.

    Picks the largest k cheapest-valuation owners with k * v_k <= B,
    with k below the pool size so a threshold price v_{k+1} exists.
    Owners whose requirement eps_i would be violated by the 1/(n-k) noise
    level are struck from the candidate pool and the selection is
    recomputed until every selected owner tolerates the level.  Among
    owners tied at the cut, the lower indices are bought first.

    ``valuations`` and ``eps`` hold one population's vectors, which give
    one selection, or T populations' as the rows of (T, n) arrays, which
    give a list of T selections.  Sellers are listed in index order.
    """
    valuations = np.asarray(valuations, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if valuations.ndim not in (1, 2):
        raise InputError("valuations must be a vector or a (T, n) array")
    n = valuations.shape[-1]
    if n < 2:
        raise InputError("selection needs at least two owners")
    if eps.shape != valuations.shape:
        raise InputError("need one privacy requirement per valuation")
    if np.any(eps <= 0.0):
        raise InputError("privacy requirements must be > 0")
    _check_budget(budget)
    if budget <= 0.0:
        rows = valuations.size // n
        selections = [_empty_selection(n, 1.0 / n) for _ in range(rows)]
    else:
        v = _valuation_ratios(valuations, eps)
        selections = _fq_strike_rounds(np.atleast_2d(v), np.atleast_2d(eps), budget)
    return selections[0] if valuations.ndim == 1 else selections


def _fq_strike_rounds(v, eps, budget):
    """``fq_select_from_arrays`` for rows of NaN-free ratios ``v``.

    Each round sorts the pools of the rows still open and searches them
    for the largest feasible k; rows whose selection holds a violator
    strike it from their pool and go round again.
    """
    count, n = v.shape
    selections = [None] * count
    ks = np.arange(1, n)
    # the open rows, their pools' keys, requirements and sizes; a struck
    # owner's key is NaN, which no ratio is, so it sorts after every
    # ratio (inf included) and is never feasible or chosen
    rows, keys, reqs, size = np.arange(count), v, eps, np.full(count, n)
    while rows.size:
        vs = np.sort(keys, axis=1)
        feasible = ks * vs[:, :-1] <= budget
        # k = size would leave no threshold price in the pool
        short = np.flatnonzero(size < n)
        feasible[short, size[short] - 1] = False
        last = n - 1 - np.argmax(feasible[:, ::-1], axis=1)
        k = np.where(feasible.any(axis=1), last, 0)
        at = np.arange(rows.size)
        cut = vs[at, np.maximum(k - 1, 0)]
        chosen = keys <= cut[:, None]
        chosen[k == 0] = False
        for i in np.flatnonzero(np.count_nonzero(chosen, axis=1) > k):
            # ties at the cut: a stable sort buys the lower indices
            tied = np.flatnonzero(chosen[i] & (keys[i] == cut[i]))
            excess = np.count_nonzero(chosen[i]) - k[i]
            chosen[i, tied[tied.size - excess:]] = False
        level = 1.0 / (n - k)
        strike = chosen & (reqs <= level[:, None])
        struck = strike.any(axis=1)
        payment = np.minimum(budget / np.maximum(k, 1), vs[at, k] / (n - k))
        for i in np.flatnonzero(~struck & (k > 0)):
            selected = np.flatnonzero(chosen[i])
            pay = np.zeros(n)
            pay[selected] = payment[i]
            selections[rows[i]] = BaselineSelection(
                int(k[i]), selected, pay, float(level[i])
            )
        again = np.flatnonzero(struck)
        size = size[again] - np.count_nonzero(strike[again], axis=1)
        again, size = again[size >= 2], size[size >= 2]
        keys = np.where(strike[again], np.nan, keys[again])
        rows, reqs = rows[again], reqs[again]
    return [_empty_selection(n, 1.0 / n) if s is None else s for s in selections]


def _valuation_ratios(valuations, eps):
    """v_i = theta_i / eps_i, raising InputError on the first NaN, which
    it names by owner and, in (T, n) arrays, by row."""
    v = valuations / eps
    nan = np.isnan(v)
    if nan.any():
        *row, owner = np.argwhere(nan)[0]
        where = f"row {row[0]}: " if row else ""
        raise InputError(
            f"{where}owner {owner}'s valuation / requirement ratio is NaN"
        )
    return v


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
    _check_budget(budget)

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

    order = np.argsort(v, kind="stable")
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
