"""Command-line interface: run sweeps, verify guarantees, generate data."""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .datagen import gen_correlated_uniforms
from .errors import InputError, PdqError
from .experiment import config_from_file, run_experiment, write_outputs
from .suites import SUITES


def _cmd_run(args) -> int:
    config = config_from_file(args.config)
    env_seed = os.environ.get("PDQ_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise InputError(f"PDQ_SEED must be an integer, got {env_seed!r}") from None
        config = dataclasses.replace(config, seed=seed)
    summaries, records = run_experiment(config)
    summary_path, trials_path = write_outputs(config, summaries, records)
    print(f"wrote {summary_path} ({len(summaries)} rows)")
    print(f"wrote {trials_path} ({len(records)} rows)")
    return 0


def _cmd_verify(args) -> int:
    names = [args.suite] if args.suite else sorted(SUITES)
    all_passed = True
    for name in names:
        for check, passed, detail in SUITES[name]():
            tag = "PASS" if passed else "FAIL"
            print(f"[{tag}] {name}: {check} ({detail})")
            all_passed = all_passed and passed
    return 0 if all_passed else 1


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise InputError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    theta, eps = gen_correlated_uniforms(args.n, args.rho, rng)
    print("theta,eps")
    for t, e in zip(theta, eps):
        print(f"{float(t)!r},{float(e)!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdq",
        description=(
            "Budget-feasible purchase of personalized privacy guarantees "
            "and private query answering over the bought data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment sweep")
    run_p.add_argument("--config", required=True, help="path to a JSON config file")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the verification batteries")
    verify_p.add_argument(
        "--suite",
        choices=sorted(SUITES),
        help="run a single battery (default: all of them)",
    )
    verify_p.set_defaults(func=_cmd_verify)

    gen_p = sub.add_parser(
        "gen", help="print a correlated (theta, eps) population as CSV"
    )
    gen_p.add_argument("--n", type=int, required=True, help="population size")
    gen_p.add_argument(
        "--rho", type=float, required=True, help="Pearson correlation in [-1, 0]"
    )
    gen_p.add_argument("--seed", type=int, required=True, help="RNG seed")
    gen_p.set_defaults(func=_cmd_gen)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader stopped early; send the final flush to devnull so
        # the interpreter's exit prints nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (PdqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: not enough memory for this run{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
