"""Query descriptions and linear query weights.

Owners hold one data value each, a private valuation drawn uniformly from
[0, 1], and a personal privacy requirement; callers keep each of these
per-owner quantities in its own array.  The analyst holds a budget and
wants to answer a single query.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError

COUNT = "count"
MEDIAN = "median"
LINEAR = "linear"
QUERY_KINDS = (COUNT, MEDIAN, LINEAR)


@dataclass(frozen=True)
class QuerySpec:
    """What the analyst wants to compute over the purchased data."""

    kind: str
    data_domain: tuple

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise InputError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        lo, hi = self.data_domain
        if not lo < hi:
            raise InputError(f"data domain is empty: [{lo}, {hi}]")


def cosine_weights(profiles: Sequence, reference) -> np.ndarray:
    """Cosine similarity of each profile against a reference profile.

    Used to derive linear query weights from owner metadata.  Raises if
    any profile (or the reference) has zero norm, or if some similarity
    comes out exactly zero, since zero weights make an owner's data
    irrelevant to the query.
    """
    ref = np.asarray(reference, dtype=float)
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0.0:
        raise InputError("reference profile has zero norm")
    mat = np.asarray(profiles, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != ref.size:
        raise InputError(
            f"profiles must be shaped (n, {ref.size}), got {mat.shape}"
        )
    norms = np.linalg.norm(mat, axis=1)
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise InputError(f"profile {bad[0]} has zero norm")
    weights = mat @ ref / (norms * ref_norm)
    if np.any(weights == 0.0):
        raise InputError(
            "a profile is orthogonal to the reference; its weight would be zero"
        )
    return weights
