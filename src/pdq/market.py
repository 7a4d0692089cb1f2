"""Regular valuation priors, query descriptions and linear query weights.

Owners hold one data value each, a private valuation drawn from a known
regular prior, and a personal privacy requirement; callers keep each of
these per-owner quantities in its own array.  The analyst holds a budget
and wants to answer a single query.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

COUNT = "count"
MEDIAN = "median"
LINEAR = "linear"
QUERY_KINDS = (COUNT, MEDIAN, LINEAR)

_VALIDATION_GRID = 10_000
_CDF_TOL = 1e-9
_MONOTONE_TOL = -1e-9
_BISECT_STEPS = 80


@dataclass(frozen=True)
class RegularPrior:
    """Valuation prior with nondecreasing virtual cost.

    ``cdf`` and ``pdf`` must accept numpy arrays.  The quantile and the
    inverse virtual cost are found by bisection; ``UniformPrior``, the
    prior on [0, 1], replaces both with closed forms.
    """

    lower: float
    upper: float
    cdf: Callable
    pdf: Callable
    name: str = "custom"

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
            raise InputError(
                f"density of prior {self.name!r} is not strictly positive "
                "on the interior of its support"
            )
        vc = grid[1:-1] + cdf_vals[1:-1] / pdf_vals
        if np.any(np.diff(vc) < _MONOTONE_TOL):
            raise InputError(
                f"prior {self.name!r} is not regular: virtual cost "
                "decreases somewhere on the support"
            )

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse cdf, elementwise over an array in [0, 1]."""
        return self._bisect(lambda t: self.cdf(t) < u, u.shape)

    def inverse_virtual_cost(self, y: np.ndarray) -> np.ndarray:
        """Smallest theta with virtual_cost(theta) >= y, elementwise."""
        # sign(vc(theta) - y) == sign(f(theta)(theta - y) + F(theta)); the
        # latter avoids dividing by a possibly tiny density at the lower end.
        return self._bisect(
            lambda t: self.pdf(t) * (t - y) + self.cdf(t) < 0.0, y.shape
        )

    def _bisect(self, below, shape) -> np.ndarray:
        """Where ``below`` turns false on the support, elementwise."""
        lo = np.full(shape, self.lower)
        hi = np.full(shape, self.upper)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            left = below(mid)
            lo = np.where(left, mid, lo)
            hi = np.where(left, hi, mid)
        return 0.5 * (lo + hi)


def _unit_cdf(t):
    return np.clip(np.asarray(t, dtype=float), 0.0, 1.0)


def _unit_pdf(t):
    return np.ones(np.shape(t))


class UniformPrior(RegularPrior):
    """Uniform prior on [0, 1] with exact inverses and multiplier.

    Every population draw puts valuations on [0, 1].  A uniform prior on
    another support is a ``RegularPrior`` and solves by bisection.
    """

    def __init__(self):
        super().__init__(0.0, 1.0, _unit_cdf, _unit_pdf, "uniform[0.0,1.0]")

    def quantile(self, u):
        return u

    def inverse_virtual_cost(self, y):
        # vc(t) = 2t, so vc^{-1}(y) = y / 2
        return 0.5 * y

    def budget_multiplier(self, eps, budget: float) -> float:
        """Multiplier whose thresholds spend ``budget`` < ``eps.size``."""
        return _uniform_budget_multiplier(eps, budget)


def virtual_cost(prior: RegularPrior, theta):
    """theta + F(theta)/f(theta), elementwise."""
    theta = np.asarray(theta, dtype=float)
    return theta + prior.cdf(theta) / prior.pdf(theta)


def virtual_cost_inverse(prior: RegularPrior, y):
    """Generalized inverse of the virtual cost, clamped to the support.

    Returns the smallest theta with virtual_cost(theta) >= y.
    """
    y = np.asarray(y, dtype=float)
    out = np.clip(prior.inverse_virtual_cost(y), prior.lower, prior.upper)
    return float(out) if y.ndim == 0 else out


def prior_quantile(prior: RegularPrior, u):
    """Inverse cdf, clamped to the support."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise InputError("quantile argument must lie in [0, 1]")
    out = np.clip(prior.quantile(u), prior.lower, prior.upper)
    return float(out) if u.ndim == 0 else out


def _uniform_budget_multiplier(eps, budget):
    """Water-filling multiplier of the uniform prior on [0, 1].

    With mu = 1/lambda and y_i = eps_i * mu, owner i's threshold is
    y_i / 2 clamped to [0, 1], and its expected spend is y_i^2 / 4 up to
    y_i = 2 and 1 beyond.  Total spend is thus nondecreasing and
    piecewise quadratic in mu, with breakpoints 2 / eps_i (owner i
    saturates) falling in eps order.  Counting the breakpoints whose
    spend reaches the budget gives the saturated owners; the quadratic
    over the owners below them gives mu exactly.

    Requirements are scaled by the largest one in play before squaring.
    Breakpoints of owners whose scaled square falls below the normal
    range are skipped; when every other owner saturates, the rest are
    solved again at their own scale.
    """
    tiny = np.finfo(float).tiny
    e = np.sort(eps)
    n = e.size

    def saturation(m):
        # At mu = 2 / e_j owners from j up pay 1 and those below j are
        # interior.  Returns the first usable owner below m and the first
        # owner that saturates at the solution.
        x = e[:m] / e[m - 1]
        sq = x * x
        csum = np.empty(m + 1)
        csum[0] = 0.0
        np.cumsum(sq, out=csum[1:])
        first = int(np.searchsorted(sq, tiny))
        spend = np.divide(csum[first:m], sq[first:], out=sq[first:])
        spend += np.arange(n - first, n - m, -1.0)
        # spend falls as the owner index rises
        return first, m - int(np.searchsorted(spend[::-1], budget))

    first, hi = saturation(n)
    while hi == first and first > 0:
        # every owner with a usable square saturates; solve the rest
        first, hi = saturation(first)

    rhs = 4.0 * (budget - (n - hi))
    if rhs <= 0.0:
        # the budget is within rounding of owner hi's saturation
        return float(e[hi] / 2.0)
    # mu^2 * e[hi-1]^2 * sum(r_i^2) = rhs over the interior owners
    r = e[:hi] / e[hi - 1]
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
