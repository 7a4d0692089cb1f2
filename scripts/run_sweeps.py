#!/usr/bin/env python3
"""Run the full head-to-head sweeps and drop CSVs under an output root.

Covers three setups: a count query against the fixed-quota baseline for
each correlation level, a median query, and a weighted linear query
against the proportional-payment baseline.  All of them use the same
population size, trials and budget fractions.  For a fast smoke pass,
pass --trials 20 --n 100.
"""

import argparse
import os
import sys
import time

from pdq.experiment import ExperimentConfig, run_experiment, write_outputs

FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# (output directory, query, mechanisms, rho), in the order they run
SWEEPS = (
    *((f"count_rho{rho:g}", "count", ("smq", "fq"), rho) for rho in (0.0, -0.5, -1.0)),
    ("median_rho-0.5", "median", ("smq", "fq"), -0.5),
    ("linear_rho-0.5", "linear", ("smq", "fip"), -0.5),
)


def rmse_table(summaries):
    mechs = sorted({row.mechanism for row in summaries})
    fracs = sorted({row.budget_fraction for row in summaries})
    by_key = {(r.mechanism, r.budget_fraction): r.rmse for r in summaries}
    lines = ["fraction  " + "  ".join(f"{m:>12}" for m in mechs)]
    for frac in fracs:
        cells = "  ".join(f"{by_key[(m, frac)]:12.3f}" for m in mechs)
        lines.append(f"{frac:8.1f}  {cells}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument(
        "--trials", type=int, default=500, help="trials per budget fraction"
    )
    parser.add_argument(
        "--n", type=int, default=1000, help="population size"
    )
    args = parser.parse_args(argv)

    for name, query, mechanisms, rho in SWEEPS:
        config = ExperimentConfig(
            query=query,
            mechanisms=mechanisms,
            rho=rho,
            trials=args.trials,
            budget_fractions=FRACTIONS,
            seed=args.seed,
            n=args.n,
            output_dir=os.path.join(args.out, name),
        )
        start = time.perf_counter()
        summaries, records = run_experiment(config)
        summary_path, trials_path = write_outputs(config, summaries, records)
        elapsed = time.perf_counter() - start
        print(f"== {name} ({elapsed:.1f}s, {len(records)} trials)")
        print(rmse_table(summaries))
        print(f"   wrote {summary_path} and {trials_path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
