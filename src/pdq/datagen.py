"""Population generation and tabular data ingestion.

Valuations and privacy requirements are correlated uniforms produced by
a Gaussian copula; query columns come either from synthetic generators
or from delimiter-separated files with a declared schema, and linear
query weights are cosine similarities of owner profiles.
"""

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import InputError

# the largest size up to which every integer is an exact float: past it,
# drawn integers collide and sizes cannot be told apart
MAX_EXACT_INT = 2 ** 53


def gen_correlated_uniforms(n: int, rho: float, rng):
    """Draw n pairs (theta, eps), uniform on [0, 1], with correlation rho.

    rho = 0 gives independent draws and rho = -1 the exact complement
    eps = 1 - theta.  In between, a Gaussian copula with normal
    correlation 2 sin(pi rho / 6) yields uniforms whose Pearson
    correlation is exactly rho.
    """
    if not 1 <= n <= MAX_EXACT_INT:
        raise InputError(f"population size must lie in [1, 2**53], got {n}")
    if not -1.0 <= rho <= 0.0:
        raise InputError(
            f"correlation must lie in [-1, 0], got {rho}; positive "
            "values would mean privacy-hungry owners asking less"
        )
    if rho == 0.0:
        u = rng.random(n)
        v = rng.random(n)
    elif rho == -1.0:
        u = rng.random(n)
        v = 1.0 - u
    else:
        rho_g = 2.0 * math.sin(math.pi * rho / 6.0)
        z = rng.standard_normal((2, n))
        u = ndtr(z[0])
        v = ndtr(rho_g * z[0] + math.sqrt(1.0 - rho_g * rho_g) * z[1])
    # privacy requirements must be strictly positive
    return u, np.maximum(v, np.nextafter(0.0, 1.0))


# -- tabular ingestion -------------------------------------------------------


@dataclass(frozen=True)
class TableSchema:
    """Which columns to read and how to interpret the query column.

    transform: "float", "int" (rounded to the nearest integer, as median
    queries need; repeated values stay as they are), or
    "binarize:<threshold>" (1.0 when the value exceeds the finite
    threshold).
    """

    value_column: str
    transform: str = "float"
    profile_columns: tuple = ()
    delimiter: str = ","

    def __post_init__(self):
        for key in ("value_column", "transform", "delimiter"):
            value = getattr(self, key)
            if not isinstance(value, str) or (key == "delimiter" and len(value) != 1):
                what = "one character" if key == "delimiter" else "a string"
                raise InputError(f"{key} must be {what}, got {value!r}")
        cols = self.profile_columns
        ok = isinstance(cols, (list, tuple)) and all(isinstance(c, str) for c in cols)
        if not ok:
            raise InputError(f"profile_columns must be a list of names, got {cols!r}")
        object.__setattr__(self, "profile_columns", tuple(cols))


@dataclass(frozen=True)
class LoadedTable:
    values: np.ndarray
    profiles: Optional[np.ndarray]
    dropped_rows: int


def _parse_transform(transform: str):
    if transform in ("float", "int"):
        return transform, None
    if transform.startswith("binarize:"):
        try:
            threshold = float(transform.split(":", 1)[1])
        except ValueError:
            threshold = math.nan
        if math.isfinite(threshold):
            return "binarize", threshold
    raise InputError(
        f"unknown transform {transform!r}; expected float, int, "
        "or binarize:<finite threshold>"
    )


def read_text(path) -> str:
    """A file's text, read as UTF-8 with an optional byte-order mark and
    with its line endings as they are."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def load_tabular(path, schema: TableSchema) -> LoadedTable:
    """Read a delimited text file with a header row.

    Rows with missing cells in the needed columns are dropped and
    counted; non-numeric and non-finite (nan, inf) cells raise with the
    offending line number.
    """
    kind, threshold = _parse_transform(schema.transform)
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        needed = (schema.value_column,) + tuple(schema.profile_columns)
        indices = {}
        for name in needed:
            if name not in header:
                raise InputError(f"column {name!r} not found in {path}")
            indices[name] = header.index(name)
        values = []
        profiles = []
        dropped = 0
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            cells = []
            missing = False
            for name in needed:
                idx = indices[name]
                cell = row[idx].strip() if idx < len(row) else ""
                if not cell:
                    missing = True
                    break
                cells.append(cell)
            if missing:
                dropped += 1
                continue
            try:
                numbers = [float(c) for c in cells]
            except ValueError as exc:
                raise InputError(f"{path}, line {line_no}: {exc}") from None
            for name, number in zip(needed, numbers):
                if not math.isfinite(number):
                    raise InputError(
                        f"{path}, line {line_no}: column {name!r} holds "
                        f"the non-finite value {number}"
                    )
            values.append(numbers[0])
            profiles.append(numbers[1:])
    if not values:
        raise InputError(f"{path} contains no usable rows")

    raw = np.asarray(values, dtype=float)
    if kind == "binarize":
        out = (raw > threshold).astype(float)
    elif kind == "int":
        out = np.rint(raw)
    else:
        out = raw
    profile_arr = (
        np.asarray(profiles, dtype=float) if schema.profile_columns else None
    )
    return LoadedTable(out, profile_arr, dropped)


# -- synthetic query columns -------------------------------------------------


def gen_count_values(n: int, rate: float, rng) -> np.ndarray:
    """Binary column with the given expected rate of ones."""
    if not 0.0 <= rate <= 1.0:
        raise InputError(f"rate must be in [0, 1], got {rate}")
    return (rng.random(n) < rate).astype(float)


def gen_median_values(n: int, value_max: int, rng) -> np.ndarray:
    """Distinct positive integers concentrated around the middle.

    Draws a discretized normal (mean value_max/2, sd value_max/10) and
    keeps the first n distinct outcomes, mirroring real attributes such
    as ages, which cluster tightly relative to their declared range.
    """
    if n > value_max:
        raise InputError(
            f"cannot draw {n} distinct integers from [1, {value_max}]"
        )
    if value_max > MAX_EXACT_INT:
        raise InputError(f"value_max must be at most 2**53, got {value_max}")
    center = value_max / 2.0
    sd = value_max / 10.0
    out = np.empty(0, dtype=np.int64)
    while out.size < n:
        batch = np.rint(rng.normal(center, sd, size=max(n, 64)))
        batch = np.clip(batch, 1, value_max).astype(np.int64)
        # distinct values in order of first appearance, minus those kept:
        # the least index in each run of equal sorted values is that
        # value's first appearance, whatever order the sort left the run in
        order = np.argsort(batch)
        ranked = batch[order]
        starts = np.concatenate(([0], np.flatnonzero(ranked[1:] != ranked[:-1]) + 1))
        fresh = batch[np.sort(np.minimum.reduceat(order, starts))]
        fresh = fresh[~np.isin(fresh, out)]
        out = np.concatenate((out, fresh[: n - out.size]))
    return out.astype(float)


def gen_linear_values(n: int, domain, rng) -> np.ndarray:
    lo, hi = domain
    if not lo < hi:
        raise InputError(f"value domain is empty: [{lo}, {hi}]")
    return lo + (hi - lo) * rng.random(n)


def gen_profiles(n: int, dim: int, rng):
    """Owner profile vectors plus a reference profile for similarity."""
    if dim < 1:
        raise InputError(f"profile dimension must be >= 1, got {dim}")
    profiles = rng.standard_normal((n, dim))
    reference = rng.standard_normal(dim)
    return profiles, reference


def cosine_weights(profiles: Sequence, reference) -> np.ndarray:
    """Cosine similarity of each profile against a reference profile.

    Used to derive linear query weights from owner metadata.  Raises if
    any profile (or the reference) has zero norm or a norm that overflows,
    or if some similarity comes out exactly zero, since zero weights make
    an owner's data irrelevant to the query.
    """
    ref = np.asarray(reference, dtype=float)
    # a norm that overflows would turn a weight into 0 or NaN, so it is
    # an error rather than a warning; once both norms are finite, a
    # similarity cannot overflow (Cauchy-Schwarz)
    with np.errstate(over="ignore"):
        ref_norm = np.linalg.norm(ref)
    if ref_norm == 0.0:
        raise InputError("reference profile has zero norm")
    if not np.isfinite(ref_norm):
        raise InputError("the reference profile is too large for float arithmetic")
    mat = np.asarray(profiles, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != ref.size:
        raise InputError(
            f"profiles must be shaped (n, {ref.size}), got {mat.shape}"
        )
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=1)
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise InputError(f"profile {bad[0]} has zero norm")
    bad = np.nonzero(~np.isfinite(norms))[0]
    if bad.size:
        raise InputError(f"profile {bad[0]} is too large for float arithmetic")
    weights = mat @ ref / (norms * ref_norm)
    if np.any(weights == 0.0):
        raise InputError(
            "a profile is orthogonal to the reference; its weight would be zero"
        )
    return weights
