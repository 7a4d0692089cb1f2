"""Spans around pdq's public functions, recorded from outside the package.

Each traced function is replaced by a wrapper that records one span
(name, start, end, parent span, run id) per call and, for a few
functions, counts read off the result.  ``pdq.experiment`` imports most
of these functions by name, so each is patched in its defining module and
also where ``pdq.experiment`` binds it.  Spans stay in memory until
``write_spans``.
"""

import collections
import functools
import importlib
import os
import time
from array import array

import numpy as np

# The `pdq run` sweep path, one (module, function) per layer boundary.
# verification, suites and cli are not on it.
TRACED = (
    ("experiment", "run_experiment"),
    ("experiment", "summarize"),
    ("experiment", "write_outputs"),
    ("datagen", "gen_correlated_uniforms"),
    ("datagen", "gen_count_values"),
    ("datagen", "gen_median_values"),
    ("datagen", "gen_linear_values"),
    ("datagen", "gen_profiles"),
    ("thresholds", "solve_threshold_system"),
    ("thresholds", "expected_spend"),
    ("procurement", "allocate_and_pay"),
    ("private_query", "output_distribution"),
    ("private_query", "candidate_outputs"),
    ("private_query", "modification_scores"),
    ("private_query", "sample_output"),
    ("baselines", "fq_select_from_arrays"),
    ("baselines", "fq_count_answer"),
    ("baselines", "fq_median_answer"),
    ("baselines", "fip_select_from_arrays"),
    ("baselines", "fip_epsilon_assignment"),
    ("baselines", "fip_answer"),
)

NAMES = tuple(f"{module}.{func}" for module, func in TRACED)

# Counts read off a call's result, keyed by traced name.
COUNTERS = {
    "private_query.candidate_outputs": lambda result: {
        "private_query.candidates": len(result[0]),
    },
    "private_query.output_distribution": lambda result: {
        "private_query.kept": len(result.candidates),
    },
    "procurement.allocate_and_pay": lambda result: {
        "procurement.selected": len(result.selected_indices),
        "procurement.owners": len(result.allocation),
    },
    "experiment.write_outputs": lambda result: {
        "experiment.write_outputs.bytes": sum(os.path.getsize(p) for p in result),
    },
}

_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Span recorder for the traced functions of one process."""

    def __init__(self, pdq_package):
        self.name_idx = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = []  # one Counter per run
        self._stack = [-1]
        self._patches = []
        experiment = importlib.import_module(f"{pdq_package.__name__}.experiment")
        for idx, (module_name, func) in enumerate(TRACED):
            module = importlib.import_module(f"{pdq_package.__name__}.{module_name}")
            original = getattr(module, func)
            wrapper = self._wrap(idx, original)
            targets = [module]
            if module is not experiment and getattr(experiment, func, None) is original:
                targets.append(experiment)
            for target in targets:
                self._patches.append((target, func, original, wrapper))

    def _wrap(self, idx, fn):
        tracer = self
        counter = COUNTERS.get(NAMES[idx])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(tracer.start)
            tracer.name_idx.append(idx)
            tracer.parent.append(tracer._stack[-1])
            tracer.run.append(len(tracer.counts) - 1)
            tracer.end.append(0.0)
            tracer._stack.append(span)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = clock()
                tracer._stack.pop()
            if counter is not None:
                tracer.counts[-1].update(counter(result))
            return result

        return traced

    def begin_run(self):
        """Open a new run id and patch the wrappers in."""
        self.counts.append(collections.Counter())
        for target, func, _, wrapper in self._patches:
            setattr(target, func, wrapper)

    def end_run(self):
        """Restore the original functions."""
        for target, func, original, _ in self._patches:
            setattr(target, func, original)

    def per_run(self):
        """Per-run (calls, busy, self) arrays shaped (runs, len(NAMES)),
        plus every span's duration and name index.

        A span's self time is its duration minus the durations of its
        direct child spans.
        """
        runs = len(self.counts)
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        run = np.frombuffer(self.run, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        key = run * len(NAMES) + names
        size = runs * len(NAMES)
        shape = (runs, len(NAMES))
        calls = np.bincount(key, minlength=size).reshape(shape)
        busy = np.bincount(key, weights=dur, minlength=size).reshape(shape)
        own = np.bincount(key, weights=dur - child, minlength=size).reshape(shape)
        return calls, busy, own, dur, names

    def write_spans(self, path):
        """Write every span as CSV: span, name, start_s, end_s, parent, run."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,run\n")
            for span, (idx, start, end, parent, run) in enumerate(
                zip(self.name_idx, self.start, self.end, self.parent, self.run)
            ):
                fh.write(f"{span},{NAMES[idx]},{start!r},{end!r},{parent},{run}\n")


def tail_percentile(samples: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for pct in _TAIL_LADDER:
        if samples * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0
