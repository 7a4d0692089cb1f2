"""Posted-threshold procurement: who sells, and at what price.

Each owner reports a valuation bid.  An owner sells exactly when the bid
is at or below the owner's threshold, and every seller is paid the
threshold itself, which makes truthful bidding optimal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .thresholds import ThresholdVector


@dataclass(frozen=True)
class ProcurementOutcome:
    allocation: np.ndarray
    payments: np.ndarray
    selected_indices: np.ndarray
    total_paid: float
    purchased_privacy: float


def allocate_and_pay(bids, thresholds: ThresholdVector, eps) -> ProcurementOutcome:
    """Apply the threshold rule to a vector of reported valuations."""
    bids = np.asarray(bids, dtype=float)
    eps = np.asarray(eps, dtype=float)
    t = thresholds.thresholds
    if bids.shape != t.shape or eps.shape != t.shape:
        raise InputError(
            f"bids {bids.shape}, eps {eps.shape} and thresholds {t.shape} "
            "must all have one entry per owner"
        )
    allocation = bids <= t
    payments = np.where(allocation, t, 0.0)
    selected = np.nonzero(allocation)[0]
    return ProcurementOutcome(
        allocation=allocation,
        payments=payments,
        selected_indices=selected,
        total_paid=float(payments.sum()),
        purchased_privacy=float(eps[selected].sum()),
    )
