#!/usr/bin/env python3
"""Run the full head-to-head sweeps and drop CSVs under an output root.

Covers three setups: a count query against the fixed-quota baseline for
each correlation level, a median query, and a weighted linear query
against the proportional-payment baseline.  All three use
the same population size, trials and budget fractions.  Use --quick for
a fast smoke pass.
"""

import argparse
import dataclasses
import os
import sys
import time

from pdq.experiment import ExperimentConfig, run_experiment, write_outputs

COUNT_RHOS = (0.0, -0.5, -1.0)
FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def rmse_table(summaries):
    mechs = sorted({row.mechanism for row in summaries})
    fracs = sorted({row.budget_fraction for row in summaries})
    by_key = {(r.mechanism, r.budget_fraction): r.rmse for r in summaries}
    lines = ["fraction  " + "  ".join(f"{m:>12}" for m in mechs)]
    for frac in fracs:
        cells = "  ".join(f"{by_key[(m, frac)]:12.3f}" for m in mechs)
        lines.append(f"{frac:8.1f}  {cells}")
    return "\n".join(lines)


def run_one(name, config, out_root):
    config = dataclasses.replace(config, output_dir=os.path.join(out_root, name))
    start = time.perf_counter()
    summaries, records = run_experiment(config)
    summary_path, trials_path = write_outputs(config, summaries, records)
    elapsed = time.perf_counter() - start
    print(f"== {name} ({elapsed:.1f}s, {len(records)} trials)")
    print(rmse_table(summaries))
    print(f"   wrote {summary_path} and {trials_path}\n")


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
    parser.add_argument(
        "--quick", action="store_true", help="small populations and few trials"
    )
    args = parser.parse_args(argv)

    trials = 20 if args.quick else args.trials
    n = 100 if args.quick else args.n

    for rho in COUNT_RHOS:
        run_one(
            f"count_rho{rho:g}",
            ExperimentConfig(
                query="count",
                mechanisms=("smq", "fq"),
                rho=rho,
                trials=trials,
                budget_fractions=FRACTIONS,
                seed=args.seed,
                n=n,
            ),
            args.out,
        )

    run_one(
        "median_rho-0.5",
        ExperimentConfig(
            query="median",
            mechanisms=("smq", "fq"),
            rho=-0.5,
            trials=trials,
            budget_fractions=FRACTIONS,
            seed=args.seed,
            n=n,
            median_value_max=10_000,
        ),
        args.out,
    )

    run_one(
        "linear_rho-0.5",
        ExperimentConfig(
            query="linear",
            mechanisms=("smq", "fip"),
            rho=-0.5,
            trials=trials,
            budget_fractions=FRACTIONS,
            seed=args.seed,
            n=n,
        ),
        args.out,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
