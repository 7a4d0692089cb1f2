"""The headline sweep script runs end to end at a tiny scale."""

import csv
import importlib.util
import os

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "run_sweeps.py",
)

# output directory -> (mechanisms, rho), in the order the script runs them
EXPECTED = {
    "count_rho0": ({"smq", "fq"}, 0.0),
    "count_rho-0.5": ({"smq", "fq"}, -0.5),
    "count_rho-1": ({"smq", "fq"}, -1.0),
    "median_rho-0.5": ({"smq", "fq"}, -0.5),
    "linear_rho-0.5": ({"smq", "fip"}, -0.5),
}


@pytest.fixture(scope="module")
def run_sweeps():
    spec = importlib.util.spec_from_file_location("run_sweeps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_five_sweeps_write_both_csvs(run_sweeps, tmp_path, capsys):
    out = tmp_path / "sweeps"
    assert run_sweeps.main(["--trials", "2", "--n", "20", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(EXPECTED)
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("== ")]
    assert [line.split()[1] for line in printed] == list(EXPECTED)
    for name, (mechanisms, rho) in EXPECTED.items():
        # 2 trials x 9 budget fractions x 2 mechanisms
        assert len(read_rows(out / name / "trials.csv")) == 36
        summary = read_rows(out / name / "summary.csv")
        assert {row["mechanism"] for row in summary} == mechanisms
        assert {float(row["rho"]) for row in summary} == {rho}
        assert len(summary) == 18
