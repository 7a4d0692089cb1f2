"""Posted-threshold procurement: who sells, and at what price.

Each owner reports a valuation bid.  An owner sells exactly when the bid
is at or below the owner's threshold, and every seller is paid the
threshold itself, which makes truthful bidding optimal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class ProcurementOutcome:
    """Who sold and what it cost.  For T populations at once,
    ``allocation`` and ``payments`` are (T, n), ``selected_indices`` is a
    list of each row's sellers, and the two totals are (T,) arrays."""

    allocation: np.ndarray
    payments: np.ndarray
    selected_indices: np.ndarray
    total_paid: float
    purchased_privacy: float


def allocate_and_pay(bids, thresholds, eps) -> ProcurementOutcome:
    """Apply the threshold rule to a vector of reported valuations, or to
    each row of (T, n) bids with the rows of (T, n) thresholds."""
    bids = np.asarray(bids, dtype=float)
    eps = np.asarray(eps, dtype=float)
    t = np.asarray(thresholds, dtype=float)
    if bids.shape != t.shape or eps.shape != t.shape:
        raise InputError(
            f"bids {bids.shape}, eps {eps.shape} and thresholds {t.shape} "
            "must all have one entry per owner"
        )
    allocation = bids <= t
    # thresholds are finite and >= 0, so a product needs no branch
    payments = t * allocation
    total_paid = payments.sum(axis=-1)
    if allocation.ndim == 1:
        selected = np.nonzero(allocation)[0]
        purchased = float(eps[selected].sum())
        total_paid = float(total_paid)
    else:
        selected = [np.flatnonzero(row) for row in allocation]
        # summed over each row's sellers alone, so the bits match one row
        purchased = np.array([e[s].sum() for e, s in zip(eps, selected)])
    return ProcurementOutcome(
        allocation=allocation,
        payments=payments,
        selected_indices=selected,
        total_paid=total_paid,
        purchased_privacy=purchased,
    )
