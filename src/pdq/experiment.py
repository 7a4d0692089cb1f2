"""Reproducible head-to-head runs of the purchase-then-answer pipeline.

A run draws one data column, sweeps budget fractions, and for every
trial draws a fresh (valuation, privacy requirement) population shared
by all mechanisms so the comparison is paired.  Every stream has its
own key, and the seed words of all of a sweep's keys are hashed in one
pass; a chunk of trials draws its populations into one pair of arrays.
Results stream into two CSV files whose bytes are fully determined by
the configuration.
"""

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .baselines import (
    fip_answer,
    fip_select_from_arrays,
    fq_count_answer,
    fq_median_answer,
    fq_select_from_arrays,
)
from .datagen import (
    MAX_EXACT_INT,
    TableSchema,
    cosine_weights,
    gen_correlated_uniforms,
    gen_count_values,
    gen_linear_values,
    gen_median_values,
    gen_profiles,
    load_tabular,
    read_text,
)
from .errors import InputError
from .private_query import (
    COUNT,
    LINEAR,
    MEDIAN,
    QUERY_KINDS,
    QuerySpec,
    eval_query,
    output_distributions,
    sample_output,
)
from .procurement import allocate_and_pay
from .thresholds import solve_threshold_system

MECH_SMQ = "smq"
MECH_FQ = "fq"
MECH_FIP = "fip"

_MECH_TAGS = {MECH_SMQ: 0, MECH_FQ: 1, MECH_FIP: 2}
_INTEGER_KEYS = ("n", "trials", "seed", "median_value_max")
# list-valued keys and the length each must have, if fixed
_LIST_KEYS = {"mechanisms": None, "budget_fractions": None, "value_domain": 2}
_POP_TAG = 97
_DATA_TAG = 98
# dimension of the synthetic profiles that give linear query weights
_PROFILE_DIM = 5
# most (trial, owner) cells a chunk of one budget fraction's trials may
# hold: 32 trials at n = 1000, one at n = 1e5, so large populations keep
# one trial's arrays and memory
_CHUNK_CELLS = 2 ** 15


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a sweep byte for byte.  Its
    ``query_spec`` holds the data range: [0, 1] for a count, [1,
    median_value_max] for a synthetic median, else ``value_domain``."""

    query: str
    mechanisms: tuple = (MECH_SMQ,)
    rho: float = 0.0
    trials: int = 100
    budget_fractions: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)
    seed: int = 0
    n: int = 100
    data_file: Optional[str] = None
    schema: Optional[TableSchema] = None
    count_rate: float = 0.5
    median_value_max: int = 10_000
    value_domain: tuple = (0.0, 1.0)
    output_dir: str = "results"
    query_spec: QuerySpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key, length in _LIST_KEYS.items():
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
                what = "a list" if length is None else f"a list of {length} numbers"
                raise InputError(f"{key} must be {what}, got {value!r}")
            object.__setattr__(self, key, tuple(value))
        for frac in self.budget_fractions:
            if not _is_real(frac):
                raise InputError(f"budget_fractions must be numbers, got {frac!r}")
        fractions = tuple(float(f) for f in self.budget_fractions)
        if len(set(fractions)) != len(fractions):
            raise InputError(f"budget_fractions must be distinct, got {fractions}")
        object.__setattr__(self, "budget_fractions", fractions)
        for key in ("rho", "count_rate"):
            value = getattr(self, key)
            if not _is_real(value):
                raise InputError(f"{key} must be a number, got {value!r}")
        if self.data_file is not None and not isinstance(self.data_file, str):
            raise InputError(f"data_file must be a path, got {self.data_file!r}")
        if not isinstance(self.output_dir, str):
            raise InputError(f"output_dir must be a path, got {self.output_dir!r}")
        if self.query not in QUERY_KINDS:
            raise InputError(
                f"unknown query kind {self.query!r}; expected one of "
                f"{sorted(QUERY_KINDS)}"
            )
        if not self.mechanisms:
            raise InputError("at least one mechanism is required")
        if not all(isinstance(mech, str) for mech in self.mechanisms):
            raise InputError(f"mechanisms must be names, got {self.mechanisms}")
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise InputError(f"mechanisms must be distinct, got {self.mechanisms}")
        for mech in self.mechanisms:
            if mech not in _MECH_TAGS:
                raise InputError(
                    f"unknown mechanism {mech!r}; expected one of "
                    f"{sorted(_MECH_TAGS)}"
                )
            if mech == MECH_FIP and self.query != LINEAR:
                raise InputError(
                    "the fixed-information-purchase baseline only answers "
                    "linear queries"
                )
            if mech == MECH_FQ and self.query == LINEAR:
                raise InputError(
                    "the fixed-quota baseline only answers count and "
                    "median queries"
                )
        for key in _INTEGER_KEYS:
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InputError(f"{key} must be an integer, got {value!r}")
            if key in ("n", "median_value_max") and value > MAX_EXACT_INT:
                raise InputError(
                    f"{key} must be at most 2**53, the largest range in which "
                    f"every integer is an exact float, got {value}"
                )
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not -1.0 <= self.rho <= 0.0:
            raise InputError(f"rho must lie in [-1, 0], got {self.rho}")
        # the CSVs print rho as a float, whichever way the config wrote it
        object.__setattr__(self, "rho", float(self.rho))
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.trials > 2 ** 32:
            # a trial index keys its streams as one 32-bit word
            raise InputError(f"trials must be at most 2**32, got {self.trials}")
        if not self.budget_fractions:
            raise InputError("at least one budget fraction is required")
        for frac in self.budget_fractions:
            if not 0.0 < frac <= 1.0:
                raise InputError(f"budget fractions must lie in (0, 1], got {frac}")
        if self.data_file is None:
            if self.n < 2:
                raise InputError(f"population size must be >= 2, got {self.n}")
        elif self.schema is None:
            raise InputError("a data_file needs a schema")
        if not 0.0 <= self.count_rate <= 1.0:
            raise InputError(f"count_rate must lie in [0, 1], got {self.count_rate}")
        if self.median_value_max < 2:
            raise InputError(
                f"median_value_max must be >= 2, got {self.median_value_max}"
            )
        synthetic = self.data_file is None
        file_median = self.query == MEDIAN and not synthetic
        for key, reads, reader in (
            ("n", synthetic, "synthetic data"),
            ("value_domain", self.query == LINEAR or file_median,
             "a linear query or a median over a data_file"),
            ("median_value_max", self.query == MEDIAN and synthetic,
             "a synthetic median"),
            ("count_rate", self.query == COUNT and synthetic, "a synthetic count"),
            ("schema", not synthetic, "a data_file"),
        ):
            value = getattr(self, key)
            if not reads and value != _DEFAULTS[key]:
                source = "synthetic data" if synthetic else "a data_file"
                shown = list(value) if isinstance(value, tuple) else value
                raise InputError(
                    f"{key} must be set only for {reader}; a {self.query} query "
                    f"over {source} never reads it, got {shown}"
                )
        if self.query == COUNT:
            domain = (0.0, 1.0)
        elif self.query == MEDIAN and synthetic:
            domain = (1, self.median_value_max)
        else:
            domain = self.value_domain
        try:
            spec = QuerySpec(self.query, domain)
        except InputError as exc:
            raise InputError(
                f"value_domain must be a valid {self.query} range: {exc}"
            ) from None
        object.__setattr__(self, "query_spec", spec)


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class TrialRecord(NamedTuple):
    mechanism: str
    query: str
    rho: float
    budget_fraction: float
    trial: int
    answer: float
    truth: float
    purchased_privacy: float
    num_selected: int
    total_paid: float
    fallback: int
    seed: int


class SummaryRow(NamedTuple):
    mechanism: str
    query: str
    rho: float
    budget_fraction: float
    mean: float
    ci_low: float
    ci_high: float
    rmse: float
    mean_selected: float
    mean_paid: float


SUMMARY_COLUMNS = SummaryRow._fields
TRIAL_COLUMNS = TrialRecord._fields


@dataclass(frozen=True)
class _PreparedData:
    n: int
    values: np.ndarray
    weights: Optional[np.ndarray]
    truth: float
    # smq's data-independent answer when it buys nobody, or cannot scale
    # the sample it bought up to the population
    fallback: float


# numpy's SeedSequence hash, a port of O'Neill's seed_seq_fe from the
# PCG work: the pool size and the hash constants of
# numpy/random/bit_generator.pyx
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _stream_words(seed: int, *key) -> np.ndarray:
    """``SeedSequence([seed, *key]).generate_state(4, np.uint64)``, to
    the bit, for every key at once.

    Every stream a sweep draws is keyed this way: the data by (seed,
    _DATA_TAG), a trial's population by (seed, _POP_TAG, budget index,
    trial) and each mechanism's answer by (seed, its tag in _MECH_TAGS,
    budget index, trial).  Each entry of ``key`` is a Python int below
    2**32, one 32-bit word, or an array of them of at least one
    dimension; the arrays broadcast together, and the result has their
    shape plus an axis of the 4 words.  The seed splits into 32-bit
    words, low first, as SeedSequence splits it; keys longer than the
    pool get its extra mixing rounds.  Each step masks to 32 bits what
    numpy's uint32 arithmetic wraps, in Python ints for the words that
    do not vary and in uint64 arrays, where no product of two words
    overflows, for those that do.
    """
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy += [e if isinstance(e, int) else np.asarray(e, dtype=np.uint64) for e in key]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(extra))

    state = np.empty(np.broadcast_shapes(*map(np.shape, pool)) + (8,), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state[..., i] = value ^ value >> 16
    # pairs of words, low first, as generate_state joins them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _StreamWords(ISeedSequence):
    """A seed sequence whose state ``_stream_words`` computed: it hands
    PCG64 the 4 words it asks for, a contiguous uint64 row."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's 4 uint64 words were computed")
        return self.words


def _generator(words) -> np.random.Generator:
    """The generator of the stream whose ``_stream_words`` are ``words``:
    the one ``default_rng(SeedSequence(key))`` gives."""
    return np.random.Generator(np.random.PCG64(_StreamWords(words)))


def _prepare_data(config: ExperimentConfig) -> _PreparedData:
    rng = _generator(_stream_words(config.seed, _DATA_TAG))
    weights = None
    if config.data_file is not None:
        table = load_tabular(config.data_file, config.schema)
        values = table.values
        if config.query == LINEAR:
            if table.profiles is None:
                raise InputError("linear queries over a data_file need profile_columns")
            # by convention the last row is the analyst's reference
            # individual; everyone else is a data owner
            if values.size < 3:
                raise InputError("need at least two owners plus a reference row")
            weights = cosine_weights(table.profiles[:-1], table.profiles[-1])
            values = values[:-1]
        n = int(values.size)
        if n < 2:
            raise InputError("need at least two data owners")
    else:
        n = config.n
        if config.query == COUNT:
            values = gen_count_values(n, config.count_rate, rng)
        elif config.query == MEDIAN:
            values = gen_median_values(n, config.median_value_max, rng)
        else:
            values = gen_linear_values(n, config.value_domain, rng)
            profiles, reference = gen_profiles(n, _PROFILE_DIM, rng)
            weights = cosine_weights(profiles, reference)

    truth = float(eval_query(config.query_spec, values, weights=weights))
    # the domain's midpoint, times n for a count and the weight sum for a
    # linear query (Python floats, so an overflow is an inf, not a warning)
    lo, hi = config.query_spec.data_domain
    scale = n if config.query == COUNT else 1.0
    if weights is not None:
        scale = float(weights.sum())
    return _PreparedData(n, values, weights, truth, 0.5 * (lo + hi) * scale)


def run_experiment(config: ExperimentConfig):
    """Execute the sweep; returns (summary rows, trial records).

    The seed words of every stream of the sweep are hashed in one pass.
    The trials of one budget fraction then run in chunks of rows: each
    row's population is drawn by its own generator into the chunk's
    arrays, the rows are solved, bought and (for counts) scored
    together, and each row then answers with its own generator, so the
    records are those of one trial at a time.
    """
    data = _prepare_data(config)
    chunk = max(1, _CHUNK_CELLS // data.n)
    # (budget index, stream, trial) words, the streams being the
    # population and then each mechanism in config order
    tags = [_POP_TAG] + [_MECH_TAGS[mech] for mech in config.mechanisms]
    words = _stream_words(
        config.seed,
        np.array(tags)[:, None],
        np.arange(len(config.budget_fractions))[:, None, None],
        np.arange(config.trials),
    )
    records = []
    for b_idx, frac in enumerate(config.budget_fractions):
        budget = frac * data.n
        for start in range(0, config.trials, chunk):
            trials = range(start, min(start + chunk, config.trials))
            records += _chunk_records(
                config, data, b_idx, budget, trials, words[b_idx, :, start:trials.stop]
            )
    return summarize(records), records


def _chunk_records(config, data, b_idx, budget, trials, words):
    """Trial records of one chunk of trials of one budget fraction, in
    (trial, mechanism) order.  ``words`` holds the seed words of the
    chunk's streams, population first.  Each row's population is drawn
    by its own generator into the chunk's (T, n) arrays, each mechanism
    buys for all the rows at once, then each row answers with its own
    generator."""
    theta, eps = gen_correlated_uniforms(
        data.n, config.rho, [_generator(w) for w in words[0]]
    )
    purchases = {}
    if config.query == LINEAR:
        # the comparison protocol lets the weight-proportional baseline
        # pick its quota from the drawn requirements, then every
        # mechanism answers under the levels that quota's noise
        # calibration grants
        fip = fip_select_from_arrays(theta, eps, data.weights, budget)
        purchases[MECH_FIP] = fip, None
        eps = fip.levels
    if MECH_SMQ in config.mechanisms:
        tv = solve_threshold_system(eps, budget)
        bought = allocate_and_pay(theta, tv.thresholds, eps)
        purchases[MECH_SMQ] = bought, output_distributions(
            config.query_spec, data.values, eps, bought.allocation, data.weights
        )
    if MECH_FQ in config.mechanisms:
        purchases[MECH_FQ] = fq_select_from_arrays(theta, eps, budget), None
    frac = config.budget_fractions[b_idx]
    mech_words = words[1:]
    # the seed column: each answer stream's first 32-bit word
    seeds = (mech_words[..., 0] & _MASK32).tolist()
    records = []
    for row, trial in enumerate(trials):
        for m, mech in enumerate(config.mechanisms):
            bought, laws = purchases[mech]
            answer, fallback = _answer(
                config, data, mech, bought, laws, row, _generator(mech_words[m, row])
            )
            rec = TrialRecord(
                mech, config.query, config.rho, frac, trial, answer, data.truth,
                float(bought.purchased_privacy[row]),
                int(bought.selected_indices[row].size), float(bought.total_paid[row]),
                fallback, seeds[m][row],
            )
            _check_finite(rec)
            records.append(rec)
    return records


def _answer(config, data, mech, bought, laws, row, rng):
    """Row ``row``'s (answer, fallback) from its mechanism's purchase,
    and smq's output laws."""
    if mech == MECH_SMQ:
        if laws[row] is None:
            return data.fallback, 1
        return sample_output(laws[row], rng), 0
    sel = bought.selected_indices[row]
    domain = config.query_spec.data_domain
    if mech == MECH_FIP:
        sold = bought.allocation[row]
        answer = fip_answer(
            data.values[sold], data.weights[sold], data.weights[~sold], domain, rng
        )
    elif config.query == COUNT:
        answer = fq_count_answer(data.values[sel], data.n, sel.size, rng)
    else:
        answer = fq_median_answer(data.values[sel], data.n, sel.size, domain, rng)
    return float(answer), int(sel.size == 0)


def summarize(records) -> list:
    """Per (mechanism, budget) means, percentile intervals, and RMSE.

    Groups with the same number of records are summarised together as
    the rows of (G, m) arrays.  Every statistic reduces along a row, over
    the same contiguous values as a group summarised alone, so each cell
    keeps the bits it would have on its own.
    """
    groups = {}
    for rec in records:
        groups.setdefault((rec.mechanism, rec.budget_fraction), []).append(rec)
    by_size = {}
    for recs in groups.values():
        by_size.setdefault(len(recs), []).append(recs)
    rows = []
    for bucket in by_size.values():
        answers = np.array([[r.answer for r in recs] for recs in bucket], dtype=float)
        selected = np.array([[r.num_selected for r in recs] for recs in bucket])
        paid = np.array([[r.total_paid for r in recs] for recs in bucket], dtype=float)
        truth = np.array([[recs[0].truth] for recs in bucket])
        ci_low, ci_high = np.percentile(answers, [2.5, 97.5], axis=1)
        stats = zip(
            answers.mean(axis=1),
            ci_low,
            ci_high,
            np.sqrt(np.mean((answers - truth) ** 2, axis=1)),
            selected.mean(axis=1),
            paid.mean(axis=1),
        )
        for recs, cells in zip(bucket, stats):
            first = recs[0]
            rows.append(
                SummaryRow(
                    first.mechanism, first.query, first.rho, first.budget_fraction,
                    *map(float, cells),
                )
            )
    rows.sort(key=lambda row: (row.mechanism, row.budget_fraction))
    for row in rows:
        _check_finite(row)
    return rows


def _check_finite(row):
    """Stop before a float that is not finite reaches a CSV cell."""
    for name, value in zip(row._fields, row):
        if isinstance(value, float) and not math.isfinite(value):
            where = f"{row.mechanism} at budget fraction {row.budget_fraction}"
            where += (
                f", trial {row.trial}" if isinstance(row, TrialRecord)
                else " (summary row)"
            )
            raise InputError(
                f"{where}: {name} is {value!r}; the values are too large "
                "for float arithmetic"
            )


def _write_csv(path, columns, rows):
    # str of a float is its shortest round-trip text, the same as repr
    lines = [",".join(columns)]
    lines += [",".join(map(str, row)) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(config: ExperimentConfig, summaries, records):
    """Write summary.csv and trials.csv under the configured directory."""
    os.makedirs(config.output_dir, exist_ok=True)
    summary_path = os.path.join(config.output_dir, "summary.csv")
    trials_path = os.path.join(config.output_dir, "trials.csv")
    _write_csv(summary_path, SUMMARY_COLUMNS, summaries)
    ordered = sorted(
        records, key=lambda r: (r.mechanism, r.budget_fraction, r.trial)
    )
    _write_csv(trials_path, TRIAL_COLUMNS, ordered)
    return summary_path, trials_path


_SCHEMA_KEYS = {f.name for f in dataclasses.fields(TableSchema)}
_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}


def config_from_file(path) -> ExperimentConfig:
    """Load an ExperimentConfig from a JSON file.

    A relative ``data_file`` is read from the config file's directory; a
    relative ``output_dir`` stays relative to the working directory.
    """
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"{path} must contain a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    if raw.get("schema") is not None:
        sch = raw["schema"]
        if not isinstance(sch, dict):
            raise InputError("schema must be a JSON object")
        unknown = sorted(set(sch) - _SCHEMA_KEYS)
        if unknown:
            raise InputError(f"unknown schema keys: {', '.join(unknown)}")
        if "value_column" not in sch:
            raise InputError("schema needs a value_column")
        raw = dict(raw)
        raw["schema"] = TableSchema(**sch)
    data_file = raw.get("data_file")
    if isinstance(data_file, str) and not os.path.isabs(data_file):
        raw = dict(raw, data_file=os.path.join(os.path.dirname(path), data_file))
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise InputError(f"bad config: {exc}") from None
