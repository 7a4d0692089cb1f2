"""Smoke test of the sweep benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import worker
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in _bench()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _bench()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert set(printed) == {"value", "unit"}
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_check_trials_flags_bad_rows(tmp_path):
    config = types.SimpleNamespace(
        query="count", n=10, trials=1, budget_fractions=(0.5,), mechanisms=("smq", "fq"),
    )
    path = tmp_path / "trials.csv"
    header = "mechanism,query,rho,budget_fraction,trial,answer,truth,num_selected,fallback\n"
    path.write_text(header + "smq,count,-0.5,0.5,0,4.0,5.0,3,0\nfq,count,-0.5,0.5,0,2.0,5.0,3,1\n")
    assert worker.check_trials(path, config) == []
    path.write_text(header + "smq,count,-0.5,0.5,0,nan,5.0,11,2\n")
    problems = " | ".join(worker.check_trials(path, config))
    for text in ("1 rows, expected 2", "not finite", "num_selected", "fallback"):
        assert text in problems
    path.write_text(header + "smq,count,-0.5,0.5,0,12.0,5.0,3,0\nfq,count,-0.5,0.5,0,2.0,5.0,3,1\n")
    assert "outside" in " ".join(worker.check_trials(path, config))


def test_a_failed_check_counts_the_sweep_as_failed(tmp_path):
    config = types.SimpleNamespace(
        query="count", n=10, trials=1, budget_fractions=(0.5,), mechanisms=("smq",), seed=0,
    )

    def write_outputs(config, summaries, records):
        path = tmp_path / "trials.csv"
        path.write_text("mechanism,budget_fraction,trial,answer,truth,num_selected,fallback\n"
                        "smq,0.5,0,inf,5.0,3,0\n")
        return None, path

    experiment = types.SimpleNamespace(
        run_experiment=lambda config: ([], [object()]), write_outputs=write_outputs,
    )
    tally = worker.Tally()
    assert worker.Sweeper(experiment, tally).sweep(config) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "count_n1k", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_loop_ignores_one_interrupted_chunk(monkeypatch):
    chunks = iter([4.0, 4.0, 50.0, 4.0, 4.0])
    monkeypatch.setattr(worker, "_loop_ms", lambda: next(chunks))
    assert worker.reference_ms() == 20.0
    sweeper = worker.Sweeper(experiment=None, tally=worker.Tally())
    sweeper.loop_ms = [10.0, 20.0, 40.0]
    assert sweeper.to_reference() == 30.0 / worker.REFERENCE_MS
