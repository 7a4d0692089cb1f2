"""Purchase records, and posted-threshold procurement.

Every mechanism's purchase is one ``ProcurementOutcome``.  Under the
posted-threshold rule an owner reports a valuation bid, sells exactly
when the bid is at or below the owner's threshold, and is paid the
threshold itself, which makes truthful bidding optimal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class ProcurementOutcome:
    """Who sold, what each owner is paid, and the privacy level each
    owner is granted if bought.  For T populations at once,
    ``allocation``, ``payments`` and ``levels`` are (T, n),
    ``selected_indices`` is a list of each row's sellers, and the two
    totals are (T,) arrays."""

    allocation: np.ndarray
    payments: np.ndarray
    levels: np.ndarray
    selected_indices: np.ndarray
    total_paid: float
    purchased_privacy: float


def purchase_record(allocation, payments, levels, purchased=None, vector=False):
    """The record of (T, n) rows of sellers, payments and levels, or with
    ``vector`` of their one row as vectors.  ``purchased`` is each row's
    purchased privacy, by default its sellers' levels summed."""
    selected = [row.nonzero()[0] for row in allocation]
    if purchased is None:
        # summed over each row's sellers alone, so the bits match one row
        purchased = np.array([e[s].sum() for e, s in zip(levels, selected)])
    record = (allocation, payments, levels, selected, payments.sum(axis=-1), purchased)
    if vector:
        record = (field[0] for field in record)
    return ProcurementOutcome(*record)


def allocate_and_pay(bids, thresholds, eps) -> ProcurementOutcome:
    """Apply the threshold rule to a vector of reported valuations, or to
    each row of (T, n) bids with the rows of (T, n) thresholds.  A seller
    is granted its requirement ``eps``."""
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
    return purchase_record(
        *np.atleast_2d(allocation, payments, eps), vector=bids.ndim == 1
    )
