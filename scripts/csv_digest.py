#!/usr/bin/env python3
"""Digest the CSVs of the byte-identity gate sweeps.

usage: python3 scripts/csv_digest.py

Runs, into a temporary directory, every ``configs/*.json``, the
``count_n1k`` and ``median_n100k`` benchmark workloads at seeds 1-2 and
``linear_n100`` at seeds 30-35, and prints ``name file sha256`` for each
summary.csv and trials.csv, then ``verify sha256`` of what ``pdq verify``
prints, then one combined digest of the CSV lines.  The package is
imported from this checkout's ``src``, so running the script in two
checkouts and diffing the output shows whether a change moved any byte
of a sweep or of the verifier's report.  BLAS and OpenMP run on one
thread, so the digests do not depend on the core count.  The exit code
is that of ``pdq verify``.
"""

import contextlib
import dataclasses
import glob
import hashlib
import io
import os
import sys
import tempfile

# One BLAS and OpenMP thread, as perfbench pins them, set before numpy
# loads: threaded OpenBLAS sums a long dot product (the threshold
# solver's, past ~10k owners) in another order than one thread does, so
# the median sweeps' bytes would depend on the machine's core count.
for name in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from pdq.cli import main as pdq_main  # noqa: E402
from pdq.experiment import (  # noqa: E402
    ExperimentConfig,
    config_from_file,
    run_experiment,
    write_outputs,
)
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_SEEDS = {
    "count_n1k": (1, 2),
    "median_n100k": (1, 2),
    "linear_n100": tuple(range(30, 36)),
}


def gate_configs():
    """(name, config) of every gate sweep, output directories unset."""
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        yield os.path.splitext(os.path.basename(path))[0], config_from_file(path)
    for workload, seeds in WORKLOAD_SEEDS.items():
        for seed in seeds:
            config = ExperimentConfig(**WORKLOADS[workload]["config"], seed=seed)
            yield f"{workload}_seed{seed}", config


def main() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in gate_configs():
            config = dataclasses.replace(config, output_dir=os.path.join(tmp, name))
            summaries, records = run_experiment(config)
            for path in write_outputs(config, summaries, records):
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                lines.append(f"{name} {os.path.basename(path)} {digest}")
    for line in lines:
        print(line)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        status = pdq_main(["verify"])
    print(f"verify {hashlib.sha256(report.getvalue().encode()).hexdigest()}")
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"combined {combined}")
    return status


if __name__ == "__main__":
    sys.exit(main())
