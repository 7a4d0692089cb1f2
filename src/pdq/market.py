"""Regular valuation priors, query descriptions and linear query weights.

Owners hold one data value each, a private valuation drawn from a known
regular prior, and a personal privacy requirement; callers keep each of
these per-owner quantities in its own array.  The analyst holds a budget
and wants to answer a single query.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateProfileError,
    InputError,
    SingularPriorError,
    WeightValidityError,
)

COUNT = "count"
MEDIAN = "median"
LINEAR = "linear"
QUERY_KINDS = (COUNT, MEDIAN, LINEAR)

_VALIDATION_GRID = 10_000
_CDF_TOL = 1e-9
_MONOTONE_TOL = -1e-9


@dataclass(frozen=True)
class RegularPrior:
    """Valuation prior with nondecreasing virtual cost.

    ``cdf`` and ``pdf`` must accept numpy arrays.  ``quantile``,
    ``inverse_virtual_cost`` and ``budget_multiplier`` are optional
    closed forms; when absent the package falls back to bisection.
    ``budget_multiplier(eps, budget)`` returns the multiplier whose
    thresholds spend exactly ``budget`` in expectation, for positive
    finite ``eps`` and a budget below ``upper * eps.size``.
    """

    lower: float
    upper: float
    cdf: Callable
    pdf: Callable
    name: str = "custom"
    quantile: Optional[Callable] = None
    inverse_virtual_cost: Optional[Callable] = None
    budget_multiplier: Optional[Callable] = None

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise InputError("prior support must be finite")
        if not self.lower < self.upper:
            raise InputError(
                f"prior support is empty: [{self.lower}, {self.upper}]"
            )
        if self.lower < 0:
            raise InputError("valuations must be nonnegative")
        grid = np.linspace(self.lower, self.upper, _VALIDATION_GRID)
        cdf_vals = np.asarray(self.cdf(grid), dtype=float)
        if abs(cdf_vals[0]) > _CDF_TOL or abs(cdf_vals[-1] - 1.0) > _CDF_TOL:
            raise InputError("cdf must run from 0 at lower to 1 at upper")
        if np.any(np.diff(cdf_vals) < _MONOTONE_TOL):
            raise InputError("cdf must be nondecreasing")
        pdf_vals = np.asarray(self.pdf(grid[1:-1]), dtype=float)
        if np.any(pdf_vals <= 0.0):
            raise SingularPriorError(
                f"density of prior {self.name!r} is not strictly positive "
                "on the interior of its support"
            )
        vc = grid[1:-1] + cdf_vals[1:-1] / pdf_vals
        if np.any(np.diff(vc) < _MONOTONE_TOL):
            raise InputError(
                f"prior {self.name!r} is not regular: virtual cost "
                "decreases somewhere on the support"
            )


def virtual_cost(prior: RegularPrior, theta):
    """theta + F(theta)/f(theta), elementwise."""
    theta = np.asarray(theta, dtype=float)
    return theta + prior.cdf(theta) / prior.pdf(theta)


def virtual_cost_inverse(prior: RegularPrior, y):
    """Generalized inverse of the virtual cost, clamped to the support.

    Returns the smallest theta with virtual_cost(theta) >= y.  Uses the
    prior's closed form when available, otherwise vectorized bisection.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if prior.inverse_virtual_cost is not None:
        out = np.clip(
            np.asarray(prior.inverse_virtual_cost(y), dtype=float),
            prior.lower,
            prior.upper,
        )
        return float(out[0]) if scalar else out
    lo = np.full(y.shape, prior.lower)
    hi = np.full(y.shape, prior.upper)
    # sign(vc(theta) - y) == sign(f(theta)(theta - y) + F(theta)); the
    # latter avoids dividing by a possibly tiny density at the lower end.
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        h = prior.pdf(mid) * (mid - y) + prior.cdf(mid)
        below = h < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


def prior_quantile(prior: RegularPrior, u):
    """Inverse cdf, by closed form or bisection."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise InputError("quantile argument must lie in [0, 1]")
    if prior.quantile is not None:
        out = np.clip(
            np.asarray(prior.quantile(u), dtype=float), prior.lower, prior.upper
        )
        return float(out[0]) if scalar else out
    lo = np.full(u.shape, prior.lower)
    hi = np.full(u.shape, prior.upper)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = prior.cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


def uniform_prior(lower: float = 0.0, upper: float = 1.0) -> RegularPrior:
    """Uniform prior on [lower, upper] with exact inverses."""
    lower = float(lower)
    upper = float(upper)
    if not lower < upper:
        raise InputError(f"uniform prior needs lower < upper, got [{lower}, {upper}]")
    width = upper - lower

    def cdf(t):
        return np.clip((np.asarray(t, dtype=float) - lower) / width, 0.0, 1.0)

    def pdf(t):
        return np.full(np.shape(np.asarray(t, dtype=float)), 1.0 / width)

    def quantile(u):
        return lower + width * np.asarray(u, dtype=float)

    # vc(t) = 2t - lower, so vc^{-1}(y) = (y + lower) / 2
    def inverse_vc(y):
        return 0.5 * (np.asarray(y, dtype=float) + lower)

    def budget_multiplier(eps, budget):
        return _uniform_budget_multiplier(lower, upper, eps, budget)

    return RegularPrior(
        lower=lower,
        upper=upper,
        cdf=cdf,
        pdf=pdf,
        name=f"uniform[{lower},{upper}]",
        quantile=quantile,
        inverse_virtual_cost=inverse_vc,
        budget_multiplier=budget_multiplier,
    )


def _uniform_budget_multiplier(lower, upper, eps, budget):
    """Water-filling multiplier of a uniform prior on [lower, upper].

    With mu = 1/lambda and y_i = eps_i * mu, owner i's threshold is
    (y_i + lower) / 2 clamped to the support, and its expected spend is 0
    for y_i <= lower, (y_i^2 - lower^2) / (4 width) up to
    y_i = top = 2 upper - lower, and upper beyond.  Total spend is thus
    nondecreasing and piecewise quadratic in mu, with breakpoints
    top / eps_i (owner i saturates) and lower / eps_i (owner i leaves
    lower), each family falling in eps order.  Counting the breakpoints
    of each family whose spend reaches the budget gives the saturated
    owners and the owners at lower; the quadratic over the owners
    between them gives mu exactly.

    Requirements are scaled by the largest one in play before squaring.
    Breakpoints of owners whose scaled square falls below the normal
    range are skipped; when every other owner saturates, the rest are
    solved again at their own scale.
    """
    width = upper - lower
    top = 2.0 * upper - lower
    quad = 4.0 * width
    tiny = np.finfo(float).tiny
    e = np.sort(eps)
    n = e.size

    def scaled(k):
        # the k smallest requirements over the largest of them, their
        # squares, prefix sums of the squares and the first usable square
        x = e[:k] / e[k - 1]
        sq = x * x
        csum = np.empty(k + 1)
        csum[0] = 0.0
        np.cumsum(sq, out=csum[1:])
        return x, sq, csum, int(np.searchsorted(sq, tiny))

    def reaching(spend):
        # spend falls as the owner index rises
        return spend.size - int(np.searchsorted(spend[::-1], budget))

    def saturation(m):
        # At mu = top / e_j owners from j up pay upper and those from
        # lo_j up to j are interior.  Returns the first usable owner below
        # m and the first owner that saturates at the solution.
        x, sq, csum, first = scaled(m)
        if lower > 0.0:
            j = np.arange(first, m)
            lo_j = np.searchsorted(top * x, lower * x[first:])
            spend = (n - j) * upper + (
                top * top * (csum[first:m] - csum[lo_j]) / sq[first:]
                - (j - lo_j) * (lower * lower)
            ) / quad
        else:
            spend = np.divide(csum[first:m], sq[first:], out=sq[first:])
            spend *= top * top / quad
            paid = np.arange(n - first, n - m, -1.0)
            paid *= upper
            spend += paid
        return first, first + reaching(spend)

    first, hi = saturation(n)
    while hi == first and first > 0:
        # every owner with a usable square saturates; solve the rest
        first, hi = saturation(first)

    if lower > 0.0:
        # At mu = lower / e_j owners below j are at lower and those from
        # hi_j up pay upper.  Breakpoints below owner hi's saturation have
        # spend under the budget, and so do those of unusable owners.
        z, zsq, zc, first = scaled(hi)
        cut = hi
        if hi < n:
            cut = int(np.searchsorted(e[:hi], lower * e[hi] / top, side="right"))
        j = np.arange(first, max(first, cut))
        hi_j = np.searchsorted(lower * z, top * z[j])
        leave = (n - hi_j) * upper + (lower * lower) * (
            (zc[hi_j] - zc[j]) / zsq[j] - (hi_j - j)
        ) / quad
        # owner hi - 1 is interior: rounding must not leave the piece empty
        lo = min(first + reaching(leave), hi - 1)
        r = z[lo:hi]
    else:
        lo = 0
        r = e[:hi] / e[hi - 1]

    rhs = quad * (budget - (n - hi) * upper) + (hi - lo) * (lower * lower)
    if rhs <= 0.0:
        # the budget is within rounding of owner hi's saturation
        return float(e[hi] / top)
    # mu^2 * e[hi-1]^2 * sum(r_i^2) = rhs over the interior owners
    return float(e[hi - 1]) * math.sqrt(float(np.dot(r, r)) / rhs)


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
        raise DegenerateProfileError("reference profile has zero norm")
    mat = np.asarray(profiles, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != ref.size:
        raise InputError(
            f"profiles must be shaped (n, {ref.size}), got {mat.shape}"
        )
    norms = np.linalg.norm(mat, axis=1)
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise DegenerateProfileError(f"profile {bad[0]} has zero norm")
    weights = mat @ ref / (norms * ref_norm)
    if np.any(weights == 0.0):
        raise WeightValidityError(
            "a profile is orthogonal to the reference; its weight would be zero"
        )
    return weights
