"""Reference mechanisms that buy data at a uniform privacy level.

Both baselines rank owners by privacy valuation v_i = theta_i / eps_i,
pick a prefix that the budget can cover, and answer with Laplace noise
calibrated to the unselected mass.  The count/median variant (fq_*)
pays every seller the same amount; the linear variant (fip_*) pays
proportionally to query weights.
"""

import math

import numpy as np

from .errors import InputError
from .private_query import sample_laplace
from .procurement import ProcurementOutcome, purchase_record


def _checked_pool(valuations, eps, budget, mismatch):
    """``valuations`` and ``eps`` as float arrays, once they hold one
    population's vectors or T populations' (T, n) rows of at least two
    owners, with requirements > 0 and ``eps`` of the same shape (else
    the error is ``mismatch``).  A NaN or infinite budget is rejected as
    the threshold solver does: a NaN one would buy nobody and an
    infinite one pay finite sums, both silently."""
    valuations = np.asarray(valuations, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if valuations.ndim not in (1, 2):
        raise InputError("valuations must be a vector or a (T, n) array")
    if valuations.shape[-1] < 2:
        raise InputError("selection needs at least two owners")
    if eps.shape != valuations.shape:
        raise InputError(mismatch)
    if (eps <= 0.0).any():
        raise InputError("privacy requirements must be > 0")
    if not math.isfinite(budget):
        raise InputError(f"budget must be finite and > 0, got {budget}")
    return valuations, eps


def fq_select_from_arrays(valuations, eps, budget: float) -> ProcurementOutcome:
    """Uniform-payment selection with the privacy-requirement filter.

    Picks the largest k cheapest-valuation owners with k * v_k <= B,
    with k below the pool size so a threshold price v_{k+1} exists.
    Owners whose requirement eps_i would be violated by the 1/(n-k) noise
    level are struck from the candidate pool and the selection is
    recomputed until every selected owner tolerates the level.  Among
    owners tied at the cut, the lower indices are bought first.

    ``valuations`` and ``eps`` hold one population's vectors, or T
    populations' as the rows of (T, n) arrays, and the record has the
    same form.  Every owner's level is the noise level 1/(n-k), and the
    purchased privacy is k * 1/(n-k).
    """
    valuations, eps = _checked_pool(
        valuations, eps, budget, "need one privacy requirement per valuation"
    )
    n = valuations.shape[-1]
    shape = np.atleast_2d(valuations).shape
    if budget <= 0.0:
        allocation = np.zeros(shape, dtype=bool)
        price, k = np.zeros(shape[0]), np.zeros(shape[0], dtype=int)
    else:
        # a ratio or a quota's cost may overflow to inf, which the strike
        # rounds rank after every finite one
        with np.errstate(over="ignore"):
            v = _valuation_ratios(valuations, eps)
            allocation, price, k = _fq_strike_rounds(
                np.atleast_2d(v), np.atleast_2d(eps), budget
            )
    level = 1.0 / (n - k)
    return purchase_record(
        allocation,
        np.where(allocation, price[:, None], 0.0),
        np.broadcast_to(level[:, None], shape),
        k * level,
        vector=valuations.ndim == 1,
    )


def _fq_strike_rounds(v, eps, budget):
    """Each row's sellers, price and quota k for ``fq_select_from_arrays``
    on rows of NaN-free ratios ``v``.

    Each round sorts the pools of the rows still open and searches them
    for the largest feasible k; rows whose selection holds a violator
    strike it from their pool and go round again.
    """
    count, n = v.shape
    allocation = np.zeros((count, n), dtype=bool)
    price = np.zeros(count)
    quota = np.zeros(count, dtype=int)
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
        done = ~struck & (k > 0)
        allocation[rows[done]] = chosen[done]
        price[rows[done]] = np.minimum(
            budget / k[done], vs[at[done], k[done]] / (n - k[done])
        )
        quota[rows[done]] = k[done]
        again = np.flatnonzero(struck)
        size = size[again] - np.count_nonzero(strike[again], axis=1)
        again, size = again[size >= 2], size[size >= 2]
        keys = np.where(strike[again], np.nan, keys[again])
        rows, reqs = rows[again], reqs[again]
    return allocation, price, quota


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


def fip_select_from_arrays(valuations, eps, weights, budget: float) -> ProcurementOutcome:
    """Weight-proportional selection for linear queries.

    An owner whose |weight| strictly exceeds everyone else's combined is
    bought alone for the whole budget.  Otherwise the cheapest-valuation
    prefix is chosen, largest k with B / W_sel >= v_k / W_unsel, and paid
    proportionally to |w_i|.  Weight sums use absolute values so that
    negative similarity weights keep the ratios meaningful.

    ``valuations`` and ``eps`` hold one population's vectors, or T
    populations' as the rows of (T, n) arrays that share the one vector
    of ``weights``, and the record has the same form.  Each owner's level
    is ``fip_epsilon_assignment`` of its row's sellers.
    """
    mismatch = "valuations, eps and weights must have equal length"
    valuations, eps = _checked_pool(valuations, eps, budget, mismatch)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != valuations.shape[-1:]:
        raise InputError(mismatch)
    if (weights == 0.0).any():
        raise InputError("weights must be nonzero")
    aw = np.abs(weights)
    total = float(aw.sum())
    # a ratio or a price may overflow to inf, which ranks after every
    # finite one and is never feasible
    with np.errstate(over="ignore"):
        v = valuations if budget <= 0.0 else _valuation_ratios(valuations, eps)
        v = v.reshape(-1, v.shape[-1])
        allocation = np.zeros(v.shape, dtype=bool)
        payments = np.zeros(v.shape)
        levels = np.empty(v.shape)
        for r, ratios in enumerate(v):
            selected, pay = _fip_row(ratios, aw, total, budget)
            allocation[r, selected] = True
            payments[r, selected] = pay
            levels[r] = fip_epsilon_assignment(weights, selected)
    return purchase_record(allocation, payments, levels, vector=valuations.ndim == 1)


def _fip_row(v, aw, total, budget):
    """The sellers that one row of ratios ``v`` buys, in ratio order,
    and each one's payment."""
    if budget <= 0.0:
        return np.empty(0, dtype=int), 0.0
    dominant = (aw > total - aw).nonzero()[0]
    if dominant.size:
        return dominant[:1], budget
    n = v.size
    order = np.argsort(v, kind="stable")
    vs = v[order]
    sel_mass = np.cumsum(aw[order])[: n - 1]
    unsel_mass = total - sel_mass
    # a k whose unsold mass rounds to 0 or below is infeasible
    left = unsel_mass > 0.0
    price = np.divide(vs[: n - 1], unsel_mass, out=np.full(n - 1, np.inf), where=left)
    feasible = (left & (budget / sel_mass >= price)).nonzero()[0]
    if not feasible.size:
        return order[:0], 0.0
    k = int(feasible[-1]) + 1
    rate = min(budget / sel_mass[k - 1], vs[k] / unsel_mass[k - 1])
    selected = order[:k]
    return selected, aw[selected] * rate


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
