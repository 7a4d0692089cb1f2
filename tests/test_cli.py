import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pdq
from pdq import experiment, thresholds
from pdq.cli import main
from pdq.experiment import SUMMARY_COLUMNS, TRIAL_COLUMNS


def write_config(tmp_path, name="config.json", **overrides):
    cfg = dict(
        query="count",
        mechanisms=["smq", "fq"],
        rho=-0.5,
        trials=2,
        budget_fractions=[0.4],
        seed=4,
        n=10,
        output_dir=str(tmp_path / "out"),
    )
    if "data_file" in overrides:
        # the data file sets the population size, so n is never read
        del cfg["n"]
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_creates_outputs_with_exact_headers(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "summary.csv" in out and "trials.csv" in out
        with open(tmp_path / "out" / "summary.csv") as fh:
            assert fh.readline().rstrip("\n") == ",".join(SUMMARY_COLUMNS)
        with open(tmp_path / "out" / "trials.csv") as fh:
            assert fh.readline().rstrip("\n") == ",".join(TRIAL_COLUMNS)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"query": "count", "trials": -1}))
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_value_domain_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            query="linear",
            mechanisms=["smq", "fip"],
            value_domain=[0.0, float("inf")],
        )
        assert "Infinity" in cfg.read_text()
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "value_domain" in err
        assert not (tmp_path / "out").exists()

    def test_schema_without_data_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, schema={"value_column": "v"})
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: schema must be set only for a data_file; ")
        assert not (tmp_path / "out").exists()

    def test_removed_median_domain_exits_2(self, tmp_path, capsys):
        # a median over a data_file takes its range from value_domain
        cfg = write_config(
            tmp_path, query="median", data_file="data.csv",
            schema={"value_column": "v", "transform": "int"},
            median_domain=[1, 120],
        )
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown config keys: median_domain\n"

    @pytest.mark.parametrize("by_path", ["absolute", "relative"])
    def test_data_file_is_found_beside_its_config(
        self, tmp_path, monkeypatch, capsys, by_path
    ):
        # a relative data_file names a file beside the config, from any
        # working directory; a relative output_dir stays under the working
        # directory
        conf, work = tmp_path / "conf", tmp_path / "work"
        conf.mkdir()
        work.mkdir()
        (conf / "data.csv").write_text("v\n1\n0\n1\n1\n0\n1\n")
        cfg = write_config(
            conf, data_file="data.csv", schema={"value_column": "v"},
            output_dir="out",
        )
        monkeypatch.chdir(work)
        relative = os.path.join("..", "conf", cfg.name)
        path = str(cfg) if by_path == "absolute" else relative
        assert main(["run", "--config", path]) == 0, capsys.readouterr().err
        assert (work / "out" / "trials.csv").is_file()
        assert not (conf / "out").exists()

    def test_seed_env_override_changes_bytes(self, tmp_path, monkeypatch, capsys):
        cfg_a = write_config(tmp_path, "a.json", output_dir=str(tmp_path / "a"))
        monkeypatch.delenv("PDQ_SEED", raising=False)
        assert main(["run", "--config", str(cfg_a)]) == 0
        cfg_b = write_config(tmp_path, "b.json", output_dir=str(tmp_path / "b"))
        monkeypatch.setenv("PDQ_SEED", "12345")
        assert main(["run", "--config", str(cfg_b)]) == 0
        capsys.readouterr()
        assert not filecmp.cmp(
            tmp_path / "a" / "trials.csv", tmp_path / "b" / "trials.csv",
            shallow=False,
        )

    def test_seed_env_same_value_reproduces_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PDQ_SEED", "777")
        cfg_a = write_config(tmp_path, "a.json", output_dir=str(tmp_path / "a"), seed=1)
        cfg_b = write_config(tmp_path, "b.json", output_dir=str(tmp_path / "b"), seed=2)
        assert main(["run", "--config", str(cfg_a)]) == 0
        assert main(["run", "--config", str(cfg_b)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(
            tmp_path / "a" / "trials.csv", tmp_path / "b" / "trials.csv",
            shallow=False,
        )

    def test_solver_error_exits_2(self, tmp_path, monkeypatch, capsys):
        # a multiplier that misses the budget stands in for a solver bug
        exact = thresholds._uniform_budget_multiplier
        monkeypatch.setattr(
            thresholds, "_uniform_budget_multiplier",
            lambda eps, budget: (2.0 * exact(eps, budget)[0], exact(eps, budget)[1]),
        )
        assert main(["run", "--config", str(write_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: threshold solver did not converge: spend ")
        assert not (tmp_path / "out").exists()

    def test_invalid_seed_env_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("PDQ_SEED", "not-a-number")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "PDQ_SEED" in capsys.readouterr().err


class TestIntegerSettings:
    """Integer config keys and seeds that are not integers, or a negative
    seed, stop with exit 2 and name the setting instead of crashing."""

    @pytest.mark.parametrize("overrides, key", [
        ({"n": 1e3}, "n"),
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"n": "10"}, "n"),
        ({"query": "median", "median_value_max": 2000.0}, "median_value_max"),
        # a trial index keys its streams as one 32-bit word
        ({"trials": 2 ** 32 + 1}, "trials"),
    ])
    def test_config_value_exits_2(self, tmp_path, capsys, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_env_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("PDQ_SEED", "-3")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert not (tmp_path / "out").exists()

    def test_negative_gen_seed_exits_2(self, capsys):
        assert main(["gen", "--n", "3", "--rho", "0", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed must be >= 0")
        assert captured.out == ""


class TestMalformedSettings:
    """A config value of the wrong type or shape stops with exit 2 and
    names its key before any trial runs; it never crashes, reads stdin or
    splits a string into characters."""

    DATA = {"data_file": "data.csv", "schema": {"value_column": "v"}}

    @pytest.mark.parametrize("overrides, key", [
        ({"budget_fractions": ["a"]}, "budget_fractions"),
        ({"budget_fractions": 0.5}, "budget_fractions"),
        ({"mechanisms": "smq"}, "mechanisms"),
        ({"rho": "x"}, "rho"),
        ({"query": "linear", "mechanisms": ["smq", "fip"],
          "value_domain": [0.0, 1.0, 2.0]}, "value_domain"),
        ({**DATA, "query": "median", "value_domain": [5]}, "value_domain"),
        ({"output_dir": 5}, "output_dir"),
        ({**DATA, "data_file": 7}, "data_file"),
        ({**DATA, "data_file": 0}, "data_file"),
        ({**DATA, "schema": {"value_column": "v", "transform": 5}}, "transform"),
        ({**DATA, "schema": {"value_column": "v", "delimiter": ";;"}},
         "delimiter"),
        ({**DATA, "query": "linear", "mechanisms": ["smq", "fip"],
          "schema": {"value_column": "v", "profile_columns": "ab"}},
         "profile_columns"),
        # a repeated fraction or mechanism would merge or double rows
        ({"budget_fractions": [0.5, 0.5]}, "budget_fractions"),
        ({"mechanisms": ["smq", "smq"]}, "mechanisms"),
        ({"mechanisms": [["smq"]]}, "mechanisms"),
        # a median over a data_file needs an integer range from 1 up; a
        # synthetic median draws from [1, median_value_max]
        ({**DATA, "query": "median", "value_domain": [0, 5]}, "value_domain"),
        ({"query": "median", "value_domain": [1, 5]}, "value_domain"),
        # each setting is read only by the one kind of data it describes
        ({"value_domain": [0, 5]}, "value_domain"),
        ({"median_value_max": 7}, "median_value_max"),
        ({"query": "median", "count_rate": 0.9}, "count_rate"),
        ({**DATA, "query": "median", "value_domain": [1, 5],
          "median_value_max": 7}, "median_value_max"),
        ({**DATA, "count_rate": 0.9}, "count_rate"),
        ({**DATA, "n": 50000}, "n"),
        # a threshold that is not finite would turn every value into 0
        ({**DATA, "schema": {"value_column": "v", "transform": "binarize:nan"}},
         "unknown transform"),
        ({**DATA, "schema": ["v"]}, "schema"),
    ])
    def test_config_value_exits_2(self, tmp_path, monkeypatch, capsys,
                                  overrides, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("v,a,b\n0.2,1,0\n0.7,0,1\n0.5,1,2\n")
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        expected = key if key.startswith("unknown ") else f"{key} must be"
        assert err.startswith(f"error: {expected} ")
        assert not (tmp_path / "out").exists()


class TestNonFiniteInputCells:
    """A nan or inf cell in a data_file stops the run with exit 2; it never
    turns into a NaN CSV or a silent 0."""

    @staticmethod
    def run_data_file(tmp_path, capsys, rows, **overrides):
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path, trials=1, data_file=str(data), **overrides
        )
        code = main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        return code, err

    def test_nan_value_in_linear_data_file(self, tmp_path, capsys):
        code, err = self.run_data_file(
            tmp_path, capsys,
            ["v,a,b", "0.2,1,0", "nan,1,1", "0.7,0,1", "0.5,1,2"],
            query="linear", mechanisms=["smq", "fip"],
            schema={"value_column": "v", "profile_columns": ["a", "b"]},
        )
        assert code == 2
        assert err.startswith("error: ") and "line 3" in err

    def test_nan_cell_under_binarize(self, tmp_path, capsys):
        code, err = self.run_data_file(
            tmp_path, capsys,
            ["v", "0.2", "0.9", "nan", "0.7"],
            schema={"value_column": "v", "transform": "binarize:0.5"},
        )
        assert code == 2
        assert err.startswith("error: ") and "line 4" in err

    def test_nan_profile_cell(self, tmp_path, capsys):
        code, err = self.run_data_file(
            tmp_path, capsys,
            ["v,a,b", "0.2,1,0", "0.4,nan,1", "0.7,0,1", "0.5,1,2"],
            query="linear", mechanisms=["smq", "fip"],
            schema={"value_column": "v", "profile_columns": ["a", "b"]},
        )
        assert code == 2
        assert err.startswith("error: ") and "line 3" in err and "'a'" in err


class TestInputEncoding:
    """A config or data file that is not UTF-8 stops with exit 2 and names
    the file; it never ends in a UnicodeDecodeError traceback."""

    def test_latin1_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"query": "count", "n": 10, "output_dir": "Jos\xe9"}')
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg} is not UTF-8 text")

    def test_latin1_data_file_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"v,name\n0,Jos\xe9\n1,Ann\n")
        cfg = write_config(
            tmp_path, trials=1, data_file=str(data), schema={"value_column": "v"}
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {data} is not UTF-8 text")
        assert not (tmp_path / "out").exists()


class TestSizesPastExactFloats:
    """A size past 2**53, where integers stop being exact floats, stops
    with exit 2 and names the setting; it never hangs or crashes."""

    @pytest.mark.parametrize("overrides, key", [
        ({"n": 10 ** 20}, "n"),
        ({"query": "median", "median_value_max": 10 ** 30}, "median_value_max"),
    ])
    def test_config_value_exits_2(self, tmp_path, monkeypatch, capsys, overrides, key):
        def refuse(*args):
            raise AssertionError("drew a column the config should have refused")

        # a synthetic median past 2**53 used to draw forever
        monkeypatch.setattr(experiment, "gen_median_values", refuse)
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be at most 2**53")
        assert not (tmp_path / "out").exists()

    def test_gen_exits_2(self, capsys):
        assert main(["gen", "--n", str(10 ** 20), "--rho", "0", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: population size must lie in [1, 2**53]")
        assert captured.out == ""


class TestFileSystemErrors:
    """A config, data file or output directory the file system refuses
    stops with exit 2 and `error: ...`; it never ends in a traceback."""

    DATA = {"schema": {"value_column": "v"}}

    @pytest.mark.parametrize("overrides, reason", [
        # no overrides: the config file itself is missing
        (None, "No such file or directory: 'absent.json'"),
        ({**DATA, "data_file": "absent.csv"}, "No such file or directory"),
        ({**DATA, "data_file": "."}, "Is a directory"),
        ({"output_dir": "taken"}, "File exists: 'taken'"),
    ])
    def test_exits_2(self, tmp_path, monkeypatch, capsys, overrides, reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        if overrides is None:
            cfg = "absent.json"
        else:
            cfg = str(write_config(tmp_path, **overrides))
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert not (tmp_path / "out").exists()


class TestNonFiniteOutputs:
    """A float that overflows stops the run with exit 2, naming where it
    arose, before any CSV is written; it never becomes an inf cell."""

    @pytest.mark.parametrize("domain, where", [
        # the answers themselves overflow
        ([0.0, 1e308], "smq at budget fraction 0.4, trial 1: answer is "),
        # every answer is finite, but their squared errors overflow
        ([-1e300, 1e300], "fip at budget fraction 0.4 (summary row): rmse is "),
    ])
    def test_overflowing_value_domain_exits_2(self, tmp_path, capsys,
                                              domain, where):
        cfg = write_config(
            tmp_path, query="linear", mechanisms=["smq", "fip"],
            value_domain=domain,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")
        assert not (tmp_path / "out").exists()


class TestMemoryError:
    def test_run_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # raised by a stand-in: a real allocation this large could fill
        # the memory of a host that overcommits
        def exhausted(config):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr("pdq.cli.run_experiment", exhausted)
        assert main(["run", "--config", str(write_config(tmp_path))]) == 2
        assert capsys.readouterr().err == (
            "error: not enough memory for this run: Unable to allocate 745. GiB\n"
        )
        assert not (tmp_path / "out").exists()


class TestVerifyCommand:
    def test_icir_suite_passes(self, capsys):
        assert main(["verify", "--suite", "icir"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] icir:" in out
        assert "[FAIL]" not in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])


class TestGenCommand:
    def test_prints_header_and_rows(self, capsys):
        assert main(["gen", "--n", "5", "--rho", "-0.5", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "theta,eps"
        assert len(lines) == 6
        for line in lines[1:]:
            t, e = line.split(",")
            assert 0.0 <= float(t) <= 1.0
            assert 0.0 < float(e) <= 1.0

    def test_deterministic_per_seed(self, capsys):
        main(["gen", "--n", "4", "--rho", "-1.0", "--seed", "9"])
        first = capsys.readouterr().out
        main(["gen", "--n", "4", "--rho", "-1.0", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_bad_rho_exits_2(self, capsys):
        assert main(["gen", "--n", "5", "--rho", "0.7", "--seed", "1"]) == 2
        assert "error:" in capsys.readouterr().err


def _env_importing_pdq():
    # the child interpreter imports the same pdq as this one, also when
    # it is found through pytest's pythonpath setting and not PYTHONPATH
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(pdq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


class TestEntryPoint:
    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pdq.cli", "gen", "--n", "2", "--rho", "0",
             "--seed", "1"],
            capture_output=True,
            text=True,
            env=_env_importing_pdq(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("theta,eps")

    def test_reader_closing_the_pipe_ends_quietly(self):
        # as in `pdq gen ... | head -1`: the output is far larger than a
        # pipe buffer, so the writer meets the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "pdq.cli", "gen", "--n", "200000", "--rho",
             "0", "--seed", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_env_importing_pdq(),
        )
        assert proc.stdout.readline() == b"theta,eps\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    def test_overflowing_profile_exits_2_under_warnings_as_errors(self, tmp_path):
        # the CI demo step turns RuntimeWarnings into errors; an
        # overflowing profile norm must still end in `error: ...`
        rows = [f"0.{i + 1},{1e200 if i == 2 else 1},{i % 3 + 1}" for i in range(9)]
        (tmp_path / "data.csv").write_text("\n".join(["v,a,b", *rows]) + "\n")
        cfg = write_config(
            tmp_path, query="linear", mechanisms=["smq", "fip"], trials=1,
            data_file="data.csv",
            schema={"value_column": "v", "profile_columns": ["a", "b"]},
        )
        env = _env_importing_pdq()
        env["PYTHONWARNINGS"] = "error::RuntimeWarning"
        proc = subprocess.run(
            [sys.executable, "-m", "pdq.cli", "run", "--config", str(cfg)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: profile 2 is too large for float arithmetic\n"
        assert not (tmp_path / "out").exists()

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])
