"""Sweep benchmark for pdq: trials per second, set-up time and peak memory.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--tiny]

Run it from anywhere inside a pdq checkout; the package is imported from
the checkout's src/ and everything it writes goes under .bench_out/.

--trace 0 times `pdq run` sweeps (config_from_file, run_experiment,
write_outputs) with nothing patched, and reports the end-to-end metrics
listed in BENCHMARK.json.  --trace 1 alternates untraced sweeps with
sweeps in which every public function on the sweep path is wrapped in a
span, and reports the per-layer metrics.  --tiny shrinks every workload
for the smoke test.

Times are reported at reference speed: each sweep's and each set-up's
wall time is scaled by REFERENCE_MS over the time of a fixed pure-Python
loop run next to it (see worker.py), so that the drifting speed of a
shared virtual CPU cancels out.  The report also prints the figures as
measured.

The report goes to stdout; its last line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only
when every sweep ran and every output check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import REFERENCE_MS
from workloads import WORKLOADS, dataset_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

SETUP_PROBES = 5
DEADLINE_S = 170.0

# One thread per BLAS/OpenMP pool, so the process never runs more
# threads than the machine has cores.
PINNED_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def fail(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def git_commit(root) -> str:
    """HEAD's commit read straight from .git: "none" outside a repository,
    "unknown" when HEAD names a ref that is not a loose file."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "none"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref_path = os.path.join(root, ".git", head[len("ref: "):])
    if not os.path.isfile(ref_path):
        return "unknown"
    with open(ref_path) as fh:
        return fh.read().strip()


def write_configs(workload, seed, tiny, out_dir) -> list:
    spec = WORKLOADS[workload]
    paths = []
    for data_seed in dataset_seeds(workload, seed):
        run_dir = os.path.join(out_dir, f"data{data_seed}")
        os.makedirs(run_dir, exist_ok=True)
        config = dict(spec["config"], seed=data_seed, output_dir=run_dir)
        if tiny:
            config.update(spec["tiny"])
        path = os.path.join(run_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=1)
        paths.append(path)
    return paths


def run_worker(args, env, timeout):
    """Run worker.py to completion; its parsed JSON line, or None."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=max(timeout, 1.0),
            text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(result, setup_probes):
    """End-to-end metrics as {name: (value, unit, note)}; a run that
    failed before its first timed sweep has no trials_per_s.  Times are at
    reference speed; the notes give them as measured too."""
    attempted = result["attempted"]
    metrics = {}
    rates = result["sweep_rates"]
    if rates:
        q1, q3 = quartiles(rates)
        measured = statistics.median(result["raw_sweep_rates"])
        metrics["trials_per_s"] = (
            statistics.median(rates), "trials/s",
            f"median of {len(rates)} sweeps; q1 {q1:.6g}, q3 {q3:.6g}, "
            f"slowest {min(rates):.6g}; as measured {measured:.6g}, "
            f"reference loop median {statistics.median(result['loop_ms']):.4g} ms",
        )
    setups = [p["setup_s"] * REFERENCE_MS / p["loop_ms"] for p in setup_probes]
    metrics["setup_s"] = (
        statistics.median(setups), "s",
        f"median of {len(setups)} fresh interpreters; max {max(setups):.4g}; "
        f"as measured {statistics.median(p['setup_s'] for p in setup_probes):.4g}",
    )
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB", "1 workload process")
    metrics["failed_share"] = (
        result["failed"] / max(attempted, 1), "ratio",
        f"{result['failed']} of {attempted} trial records",
    )
    return metrics


_CALL_STATS = ("calls", "busy_s", "self_s", "call_ms_p50", "call_ms_tail", "tail_pct")


def print_layer_table(layers):
    """One line per traced function that ran: calls, busy and self time,
    self time as a share of the traced sweep, and call-time percentiles."""
    wall = layers["trace.traced_wall_s"][0]
    print(f"{'function':42s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s} "
          f"{'self%':>6s} {'p50_ms':>10s} {'tail_ms':>10s}")
    functions = dict.fromkeys(n.rsplit(".", 1)[0] for n in layers if n.endswith(".tail_pct"))
    for fn in functions:
        calls, busy, own, p50, tail, pct = (layers[f"{fn}.{stat}"][0] for stat in _CALL_STATS)
        if calls:
            print(f"{fn:42s} {calls:8d} {busy:10.4g} {own:10.4g} {100 * own / wall:6.2f} "
                  f"{p50:10.4g} {tail:10.4g} p{pct:g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "pdq", "__init__.py")):
        return fail(f"no pdq sources under {os.path.join(ROOT, 'src')}")
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        return fail(f"no {bench_path}")
    with open(bench_path) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    out_dir = os.path.join(ROOT, ".bench_out", tag)
    configs = write_configs(args.workload, args.seed, args.tiny, out_dir)
    # A fixed hash seed gives every run the same set and dict layouts.
    env = dict(os.environ, **PINNED_ENV, PYTHONHASHSEED="0")
    common = ["--root", ROOT, "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setup_probes = []

    def remaining():
        return DEADLINE_S - (time.perf_counter() - began)

    def probe_setup(count):
        for _ in range(count):
            probe = run_worker([*common, "--setup-only", configs[0]], env, min(60.0, remaining()))
            if probe is None:
                return False
            setup_probes.append(probe)
        return True

    # Set-up probes go both before and after the sweeps so that a slow
    # spell of the machine does not land on all of them.
    if not args.trace and not probe_setup(SETUP_PROBES // 2):
        return 1
    spans = os.path.join(out_dir, "spans.csv")
    result = run_worker([*common, "--spans", spans, *configs], env, remaining())
    if result is None:
        return 1
    if not args.trace and not probe_setup(SETUP_PROBES - SETUP_PROBES // 2):
        return 1

    env_info = dict(result["env"], commit=git_commit(ROOT), seed=args.seed,
                    datasets=dataset_seeds(args.workload, args.seed))
    print(f"perfbench {tag} seconds={args.seconds}")
    print("env " + json.dumps(env_info, sort_keys=True))
    for error in result["errors"]:
        print(f"FAILED: {error}")
    if args.trace:
        layers = result.get("layers", {})
        metrics = {name: (value, unit, "") for name, (value, unit) in layers.items()}
        print(f"spans: {os.path.relpath(spans, ROOT)}; traced sweeps: "
              f"{result.get('traced_sweeps', 0)}; counts are per sweep, times are "
              "medians of per-sweep sums")
        if layers:
            print_layer_table(layers)
        shown = {n for n in metrics if n.rsplit(".", 1)[-1] not in _CALL_STATS}
    else:
        metrics = end_to_end(result, setup_probes)
        shown = set(metrics)
    for name, (value, unit, note) in metrics.items():
        if name in shown:
            print(f"{name:42s} {value:>14.6g} {unit:<10s} {note}".rstrip())

    correct = result["failed"] == 0 and not result["errors"]
    selected = {}
    for metric in wanted:
        name = metric["name"]
        if name not in metrics:
            print(f"FAILED: metric {name} was not measured")
            correct = False
            continue
        value, unit = metrics[name][:2]
        if unit != metric["unit"]:
            print(f"FAILED: metric {name} measured in {unit}, declared in {metric['unit']}")
            correct = False
        selected[name] = {"value": value, "unit": metric["unit"]}

    record = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": selected,
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(dict(record, env=env_info, worker=result, setup_probes=setup_probes),
                  fh, indent=1)
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
