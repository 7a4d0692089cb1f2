"""Time `pdq run` sweeps in one fresh interpreter; started by run.py.

usage: python3 perfbench/worker.py --root DIR --seconds S --trace 0|1
                                   [--spans FILE] [--setup-only] CONFIG...

Each sweep is what `pdq run` does with one config file: run_experiment,
then write_outputs, timed together.  With ``--trace 0`` the worker
sweeps the configs in turn, from the first again when it runs out; with
``--trace 1`` it alternates untraced and traced sweeps of the first
config.  Every sweep's trials.csv is checked.  The last line on stdout
is one JSON object.

A fixed pure-Python reference loop runs before the first sweep and
after every sweep.  The speed of a shared virtual CPU drifts by up to
1.7x over seconds to minutes, and the loop slows down with it, so each
sweep's rate is also given at reference speed: the rate as measured
times loop_ms / REFERENCE_MS, where loop_ms is the mean of the loop's
times before and after the sweep.
"""

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# The reference loop's time at reference speed.  Any constant would do:
# it only sets the scale of the normalised figures.  20 ms is about the
# loop's time on the 2-core x86-64 VM (Python 3.11) this was written on.
REFERENCE_MS = 20.0
_REFERENCE_LOOPS = 60_000
_REFERENCE_CHUNKS = 5


def _loop_ms() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(_REFERENCE_LOOPS):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def reference_ms() -> float:
    """Time of the reference loop, 300000 integer multiply-adds, in ms.

    It runs as five chunks and reports five times their median, so that
    a chunk the scheduler interrupted does not count.
    """
    return _REFERENCE_CHUNKS * statistics.median(_loop_ms() for _ in range(_REFERENCE_CHUNKS))


class Tally:
    """Attempted and failed trial records, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, records, reason):
        self.failed += records
        self.errors.append(reason)


def expected_records(config) -> int:
    return len(config.budget_fractions) * config.trials * len(config.mechanisms)


def smq_range(config):
    """Inclusive range smq answers must lie in, or None when the range
    depends on which owners were bought (linear answers are scaled by the
    population's weight mass over the bought weight mass)."""
    if config.query == "count":
        return 0.0, float(config.n)
    if config.query == "median":
        return 1.0, float(config.median_value_max)
    return None


def check_trials(path, config) -> list:
    """Problems found in one sweep's trials.csv; empty when it is sound."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != expected_records(config):
        problems.append(f"{len(rows)} rows, expected {expected_records(config)}")
    keys = {(r["mechanism"], r["budget_fraction"], r["trial"]) for r in rows}
    if len(keys) != len(rows):
        problems.append("repeated (mechanism, budget_fraction, trial) rows")
    bounds = smq_range(config)
    for line, row in enumerate(rows, start=2):
        answer, truth = float(row["answer"]), float(row["truth"])
        where = f"line {line}"
        if not (math.isfinite(answer) and math.isfinite(truth)):
            problems.append(f"{where}: answer {answer} or truth {truth} not finite")
        if not 0 <= int(row["num_selected"]) <= config.n:
            problems.append(f"{where}: num_selected {row['num_selected']} not in [0, n]")
        if row["fallback"] not in ("0", "1"):
            problems.append(f"{where}: fallback {row['fallback']!r} not 0 or 1")
        if row["mechanism"] == "smq" and bounds is not None:
            if not bounds[0] <= answer <= bounds[1]:
                problems.append(f"{where}: smq answer {answer} outside {bounds}")
    return problems


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Sweeper:
    """Runs one timed sweep at a time and checks what it wrote."""

    def __init__(self, experiment, tally):
        self.experiment = experiment
        self.tally = tally
        self.hashes = {}
        self.loop_ms = []  # before the first sweep, then after each

    def sweep(self, config):
        """(records, wall seconds) of one checked sweep, or None if it failed."""
        expected = expected_records(config)
        self.tally.attempted += expected
        label = f"seed {config.seed}"
        if not self.loop_ms:
            self.loop_ms.append(reference_ms())
        try:
            start = time.perf_counter()
            summaries, records = self.experiment.run_experiment(config)
            _, trials_path = self.experiment.write_outputs(config, summaries, records)
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.tally.fail(expected, f"{label}: the sweep raised")
            return None
        self.loop_ms.append(reference_ms())
        problems = check_trials(trials_path, config)
        digest = _sha256(trials_path)
        if self.hashes.setdefault(config.seed, digest) != digest:
            problems.append("trials.csv differs from an earlier sweep with this seed")
        if problems:
            self.tally.fail(expected, f"{label}: " + "; ".join(problems[:5]))
            return None
        return len(records), wall

    def to_reference(self) -> float:
        """Factor that takes the last sweep's rate to reference speed."""
        return (self.loop_ms[-2] + self.loop_ms[-1]) / 2.0 / REFERENCE_MS


def untraced_sweeps(sweeper, configs, seconds):
    """Throughput of each timed sweep, at reference speed and as measured.

    One untimed sweep of the first config warms caches and lazy imports,
    and its trials.csv is the one the first timed sweep must repeat.  At
    least two sweeps are timed; after that a sweep starts only if one
    more as long as the last still ends within ``seconds``.
    """
    rates, raw_rates = [], []
    start = time.perf_counter()
    if sweeper.sweep(configs[0]) is None:
        return rates, raw_rates
    last = 0.0
    while len(rates) < 2 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        result = sweeper.sweep(configs[len(rates) % len(configs)])
        if result is None:
            break
        raw_rates.append(result[0] / result[1])
        rates.append(raw_rates[-1] * sweeper.to_reference())
        last = time.perf_counter() - began
    return rates, raw_rates


def traced_sweeps(sweeper, tracer, config, seconds):
    """Alternate untraced and traced sweeps of one config, stopping as
    ``untraced_sweeps`` does.

    Returns untraced and traced rates at reference speed, and traced
    wall times as measured.
    """
    untraced, traced, walls = [], [], []
    start = time.perf_counter()
    last = 0.0
    while len(traced) < 2 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        result = sweeper.sweep(config)
        if result is None:
            break
        untraced.append(result[0] / result[1] * sweeper.to_reference())
        tracer.begin_run()
        try:
            result = sweeper.sweep(config)
        finally:
            tracer.end_run()
        if result is None:
            break
        traced.append(result[0] / result[1] * sweeper.to_reference())
        walls.append(result[1])
        last = time.perf_counter() - began
    return untraced, traced, walls


def layer_metrics(tracer, untraced, traced, walls):
    """Per-layer metrics as {name: (value, unit)}, plus the names of the
    counts that did not repeat exactly across traced sweeps.

    Counts and calls are per sweep; times are medians over traced sweeps
    of per-sweep sums; call percentiles pool every traced call.
    """
    import numpy as np

    from tracing import NAMES, tail_percentile

    calls, busy, own, dur, name_idx = tracer.per_run()
    counts = tracer.counts
    unsteady = [n for i, n in enumerate(NAMES) if np.any(calls[:, i] != calls[0, i])]
    keys = sorted(set().union(*counts))
    unsteady += [k for k in keys if any(c[k] != counts[0][k] for c in counts)]

    metrics = {}
    for i, name in enumerate(NAMES):
        metrics[f"{name}.calls"] = (int(calls[0, i]), "count")
        metrics[f"{name}.busy_s"] = (float(np.median(busy[:, i])), "s")
        metrics[f"{name}.self_s"] = (float(np.median(own[:, i])), "s")
        samples = dur[name_idx == i] * 1e3
        pct = tail_percentile(samples.size)
        p50, tail = np.percentile(samples, [50.0, pct]) if samples.size else (0.0, 0.0)
        metrics[f"{name}.call_ms_p50"] = (float(p50), "ms")
        metrics[f"{name}.call_ms_tail"] = (float(tail), "ms")
        metrics[f"{name}.tail_pct"] = (pct, "percentile")

    first = counts[0]
    solves = metrics["thresholds.solve_threshold_system.calls"][0]
    spends = metrics["thresholds.expected_spend.calls"][0]
    candidates = first["private_query.candidates"]
    metrics["thresholds.spend_evals_per_solve"] = (spends / max(solves, 1), "ratio")
    metrics["private_query.candidates"] = (candidates, "count")
    metrics["private_query.kept_share"] = (
        first["private_query.kept"] / max(candidates, 1), "ratio")
    metrics["procurement.selected_share"] = (
        first["procurement.selected"] / max(first["procurement.owners"], 1), "ratio")
    metrics["experiment.write_outputs.bytes"] = (
        first["experiment.write_outputs.bytes"], "B")

    walls = np.asarray(walls)
    metrics["trace.traced_wall_s"] = (float(np.median(walls)), "s")
    metrics["trace.accounted_share"] = (float(np.median(own.sum(axis=1) / walls)), "ratio")
    untraced_rate = float(np.median(untraced))
    traced_rate = float(np.median(traced))
    metrics["trace.untraced_trials_per_s"] = (untraced_rate, "trials/s")
    metrics["trace.traced_trials_per_s"] = (traced_rate, "trials/s")
    metrics["trace.overhead_share"] = (1.0 - traced_rate / untraced_rate, "ratio")
    return metrics, unsteady


def environment(pdq):
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "pdq": pdq.__version__,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in os.environ.items() if "THREADS" in k},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import pdq
    from pdq import experiment

    configs = [experiment.config_from_file(args.configs[0])]
    setup_s = time.perf_counter() - start
    if not os.path.abspath(pdq.__file__).startswith(src + os.sep):
        print(f"error: imported pdq from {pdq.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        loop_ms = (reference_ms() + reference_ms()) / 2.0
        print(json.dumps({"setup_s": setup_s, "loop_ms": loop_ms}))
        return 0

    configs += [experiment.config_from_file(p) for p in args.configs[1:]]
    tally = Tally()
    sweeper = Sweeper(experiment, tally)
    result = {"env": environment(pdq)}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(pdq)
        untraced, traced, walls = traced_sweeps(sweeper, tracer, configs[0], args.seconds)
        if traced and not tally.failed:
            metrics, unsteady = layer_metrics(tracer, untraced, traced, walls)
            result["traced_sweeps"] = len(traced)
            if unsteady:
                tally.errors.append(
                    "counts differ between traced sweeps of one seed: " + ", ".join(unsteady))
            else:
                result["layers"] = metrics
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        result["sweep_rates"], result["raw_sweep_rates"] = untraced_sweeps(
            sweeper, configs, args.seconds)
    result["loop_ms"] = sweeper.loop_ms
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
