import dataclasses
import filecmp
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from oracles import group_by_group_summary, trial_by_trial_records

from pdq import experiment
from pdq.datagen import TableSchema, cosine_weights
from pdq.errors import InputError
from pdq.experiment import (
    SUMMARY_COLUMNS,
    TRIAL_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    config_from_file,
    run_experiment,
    summarize,
    write_outputs,
)
from pdq.private_query import QuerySpec


def count_config(**overrides):
    base = dict(
        query="count",
        mechanisms=("smq", "fq"),
        rho=-0.5,
        trials=3,
        budget_fractions=(0.3, 0.6),
        seed=5,
        n=12,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def file_median_config(**overrides):
    base = dict(
        query="median",
        mechanisms=("smq",),
        data_file="missing.csv",
        schema=TableSchema("age", transform="int"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_query(self):
        with pytest.raises(InputError, match="unknown query kind 'mode'"):
            count_config(query="mode")

    def test_mechanism_checks(self):
        with pytest.raises(InputError, match="at least one mechanism is required"):
            count_config(mechanisms=())
        with pytest.raises(InputError, match="unknown mechanism 'dp'"):
            count_config(mechanisms=("smq", "dp"))
        with pytest.raises(InputError, match="information-purchase baseline only"):
            count_config(mechanisms=("fip",))
        with pytest.raises(InputError, match="fixed-quota baseline only answers count"):
            ExperimentConfig(query="linear", mechanisms=("fq",))

    def test_scalar_ranges(self):
        with pytest.raises(InputError, match="rho must lie in"):
            count_config(rho=0.1)
        with pytest.raises(InputError, match="rho must lie in"):
            count_config(rho=-1.1)
        with pytest.raises(InputError, match="trials must be >= 1"):
            count_config(trials=0)
        with pytest.raises(InputError, match="at least one budget fraction is"):
            count_config(budget_fractions=())
        with pytest.raises(InputError, match="budget fractions must lie in"):
            count_config(budget_fractions=(0.0,))
        with pytest.raises(InputError, match="budget fractions must lie in"):
            count_config(budget_fractions=(1.2,))
        with pytest.raises(InputError, match="population size must be >= 2"):
            count_config(n=1)
        with pytest.raises(InputError, match="count_rate must lie in"):
            count_config(count_rate=1.5)

    def test_median_settings(self):
        with pytest.raises(InputError, match="median_value_max must be >= 2"):
            count_config(query="median", median_value_max=1)
        # a median over a data_file takes its range from value_domain
        need = "value_domain must be a valid median range: median queries need an "
        for bounds in ((0, 5), (2.5, 7), (1, 7.5)):
            with pytest.raises(InputError, match=need + "integer domain"):
                file_median_config(value_domain=bounds)
        with pytest.raises(InputError, match="value_domain must .* domain is empty"):
            file_median_config(value_domain=(5, 5))
        assert file_median_config(value_domain=(1, 120)).query_spec == QuerySpec(
            "median", (1, 120)
        )
        # a synthetic median draws from [1, median_value_max]
        assert count_config(query="median", median_value_max=50).query_spec == (
            QuerySpec("median", (1, 50))
        )

    def test_data_file_needs_schema(self):
        with pytest.raises(InputError, match="a data_file needs a schema"):
            count_config(data_file="data.csv")

    def test_schema_needs_data_file(self):
        # synthetic data never reads a schema, so setting one is an error
        with pytest.raises(InputError, match="^schema must be set only for a data"):
            ExperimentConfig(query="count", schema=TableSchema("x"))

    def test_value_domain(self):
        with pytest.raises(InputError, match="value_domain must .* domain is empty"):
            ExperimentConfig(query="linear", value_domain=(1.0, 1.0))
        # a count's range is always [0, 1]
        with pytest.raises(InputError, match="value_domain must be set only for"):
            count_config(value_domain=(1.0, 1.0))
        assert count_config().query_spec == QuerySpec("count", (0.0, 1.0))

    def test_value_domain_must_be_finite(self, tmp_path):
        for bounds in ((0.0, float("inf")), (-float("inf"), 1.0), ("a", "b")):
            with pytest.raises(InputError, match="value_domain .* must be finite"):
                count_config(query="linear", mechanisms=("smq",), value_domain=bounds)
        # JSON Infinity parses to a float; the file path gets the same check
        path = tmp_path / "inf.json"
        path.write_text('{"query": "linear", "value_domain": [0.0, Infinity]}')
        with pytest.raises(InputError, match="value_domain .* must be finite"):
            config_from_file(path)

    def test_value_domain_rejects_booleans(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"query": "linear", "value_domain": [false, true]}')
        with pytest.raises(InputError, match="value_domain .* must be finite"):
            config_from_file(path)

    def test_sizes_end_at_exact_floats(self):
        assert count_config(n=2 ** 53).n == 2 ** 53
        median = ExperimentConfig(query="median", median_value_max=2 ** 53)
        assert median.query_spec.data_domain == (1, 2 ** 53)
        for key, query in (("n", "count"), ("median_value_max", "median")):
            with pytest.raises(InputError, match=f"^{key} must be at most 2"):
                ExperimentConfig(query=query, **{key: 2 ** 53 + 1})

    def test_fractions_normalized_to_floats(self):
        cfg = count_config(budget_fractions=[0.5])
        assert cfg.budget_fractions == (0.5,)
        assert isinstance(cfg.budget_fractions, tuple)


class TestConfigFromFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "query": "count",
                    "mechanisms": ["smq", "fq"],
                    "rho": -0.5,
                    "trials": 3,
                    "budget_fractions": [0.2, 0.5],
                    "seed": 9,
                    "n": 12,
                }
            )
        )
        cfg = config_from_file(path)
        assert cfg.query == "count"
        assert cfg.mechanisms == ("smq", "fq")
        assert cfg.rho == -0.5
        assert cfg.budget_fractions == (0.2, 0.5)
        assert cfg.seed == 9

    def test_nested_schema(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "query": "median",
                    "mechanisms": ["smq"],
                    "data_file": "values.csv",
                    "schema": {"value_column": "age", "transform": "int"},
                    "value_domain": [1, 100],
                }
            )
        )
        cfg = config_from_file(path)
        assert isinstance(cfg.schema, TableSchema)
        assert cfg.schema.value_column == "age"
        assert cfg.schema.transform == "int"
        assert cfg.schema.delimiter == ","

    def test_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        # the last three were settings with one value in use; they are
        # constants now
        for key in ("bogus", "fix_population", "lp_grid", "profile_dim"):
            path.write_text(json.dumps({"query": "count", key: 1}))
            with pytest.raises(InputError, match=f"unknown config keys: {key}"):
                config_from_file(path)

    def test_shipped_configs_load(self):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert paths
        for path in paths:
            assert isinstance(config_from_file(path), ExperimentConfig)

    def test_unknown_schema_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "query": "median",
                    "data_file": "x.csv",
                    "schema": {"value_column": "a", "sep": ";"},
                }
            )
        )
        with pytest.raises(InputError, match="unknown schema keys: sep"):
            config_from_file(path)

    def test_schema_needs_value_column(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"query": "median", "data_file": "x.csv", "schema": {}}
            )
        )
        with pytest.raises(InputError, match="schema needs a value_column"):
            config_from_file(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="is not valid JSON"):
            config_from_file(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(InputError, match="must contain a JSON object"):
            config_from_file(path)

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 5}))
        with pytest.raises(InputError, match="bad config: .*required .*'query'"):
            config_from_file(path)


class TestRunExperiment:
    def test_record_shape_and_invariants(self):
        cfg = count_config()
        summaries, records = run_experiment(cfg)
        assert len(records) == 2 * 2 * 3
        assert len(summaries) == 2 * 2
        truth = records[0].truth
        n = cfg.n
        for rec in records:
            assert rec.truth == truth
            assert rec.query == "count"
            assert rec.rho == -0.5
            assert 0 <= rec.num_selected <= n
            # realized spend may overshoot: the auction binds the budget
            # in expectation over valuation draws, not per draw
            assert rec.total_paid >= 0.0
            assert rec.purchased_privacy >= 0.0
            assert rec.fallback in (0, 1)
            assert rec.seed >= 0
        assert truth == float(int(truth)) and 0 <= truth <= n

    def test_rerun_is_identical(self):
        cfg = count_config()
        s1, r1 = run_experiment(cfg)
        s2, r2 = run_experiment(cfg)
        assert r1 == r2
        assert s1 == s2

    def test_different_seed_changes_records(self):
        _, r1 = run_experiment(count_config())
        _, r2 = run_experiment(count_config(seed=6))
        assert r1 != r2

    def test_smq_fallback_when_nothing_bought(self, tmp_path):
        # two owners and a budget of 2e-6 buy nobody at seed 0, so each
        # answer is the data-independent fallback
        data = tmp_path / "vals.csv"
        data.write_text("v,a,b\n0.2,1,0\n0.7,1,1\n0.5,1,0\n")
        # the last row is the reference profile the weights compare to
        weight_sum = float(cosine_weights([[1, 0], [1, 1]], [1, 0]).sum())
        cases = [
            # half the population
            (dict(query="count", mechanisms=("smq", "fq"), n=2), 1.0),
            # the midpoint of the domain [1, median_value_max]
            (dict(query="median", mechanisms=("smq", "fq"), n=2), 5000.5),
            # the value domain's midpoint times the population weight sum
            (
                dict(
                    query="linear",
                    data_file=str(data),
                    schema=TableSchema("v", profile_columns=("a", "b")),
                ),
                0.5 * weight_sum,
            ),
        ]
        for overrides, smq_answer in cases:
            cfg = ExperimentConfig(
                **{
                    "mechanisms": ("smq",),
                    "trials": 1,
                    "budget_fractions": (1e-6,),
                    "seed": 0,
                    **overrides,
                }
            )
            _, records = run_experiment(cfg)
            assert {rec.mechanism for rec in records} == set(cfg.mechanisms)
            for rec in records:
                assert rec.fallback == 1
                assert rec.num_selected == 0
                assert rec.total_paid == 0.0
                assert rec.purchased_privacy == 0.0
                if rec.mechanism == "smq":
                    assert rec.answer == smq_answer

    def test_median_file_round_trip(self, tmp_path):
        data = tmp_path / "ages.csv"
        data.write_text("age\n30\n25\n30\n41\n")
        cfg = ExperimentConfig(
            query="median",
            mechanisms=("smq",),
            trials=4,
            budget_fractions=(0.9,),
            seed=3,
            data_file=str(data),
            schema=TableSchema("age", transform="int"),
            value_domain=(1, 100),
        )
        summaries, records = run_experiment(cfg)
        # the lower median of 25, 30, 30, 41
        assert records[0].truth == 30.0
        for rec in records:
            if rec.fallback == 0:
                assert rec.answer == float(int(rec.answer))
                assert 1 <= rec.answer <= 100

    def test_median_file_needs_domain(self, tmp_path):
        # the default [0, 1] is no integer range, and building the config
        # says so before anything opens the file
        with pytest.raises(InputError, match="value_domain must be a valid median"):
            ExperimentConfig(
                query="median",
                mechanisms=("smq",),
                data_file=str(tmp_path / "missing.csv"),
                schema=TableSchema("age", transform="int"),
            )

    def test_linear_file_needs_profiles(self, tmp_path):
        data = tmp_path / "vals.csv"
        data.write_text("x\n0.5\n0.2\n0.8\n")
        cfg = ExperimentConfig(
            query="linear",
            mechanisms=("smq",),
            data_file=str(data),
            schema=TableSchema("x"),
        )
        with pytest.raises(InputError, match="over a data_file need profile_columns"):
            run_experiment(cfg)

    @pytest.mark.parametrize("query, rows, message", [
        # the last row is the reference, so two rows leave one owner
        ("linear", ["x,a", "0.5,1", "0.2,0"], "two owners plus a reference row"),
        ("count", ["x", "1"], "at least two data owners"),
    ])
    def test_data_file_needs_two_owners(self, tmp_path, query, rows, message):
        data = tmp_path / "vals.csv"
        data.write_text("\n".join(rows) + "\n")
        profiles = ("a",) if query == "linear" else ()
        cfg = ExperimentConfig(
            query=query,
            mechanisms=("smq",),
            data_file=str(data),
            schema=TableSchema("x", profile_columns=profiles),
        )
        with pytest.raises(InputError, match=message):
            run_experiment(cfg)

    def test_full_budget_buys_everyone_and_centers_on_truth(self):
        # with B = n the threshold system saturates, every owner is
        # selected, and the truth is the modal candidate answer
        cfg = ExperimentConfig(
            query="median",
            mechanisms=("smq",),
            trials=3,
            budget_fractions=(1.0,),
            seed=2,
            n=15,
            median_value_max=50,
        )
        _, records = run_experiment(cfg)
        for rec in records:
            assert rec.num_selected == 15
            assert rec.fallback == 0

        from pdq.private_query import MEDIAN, QuerySpec
        from pdq.private_query import SampledDataset, output_distribution
        from pdq.procurement import allocate_and_pay
        from pdq.thresholds import solve_threshold_system

        rng = np.random.default_rng(0)
        values = np.sort(rng.choice(50, size=15, replace=False) + 1).astype(float)
        eps = 0.2 + 0.8 * rng.random(15)
        theta = rng.random(15)
        tv = solve_threshold_system(eps, budget=15.0)
        outcome = allocate_and_pay(theta, tv.thresholds, eps)
        assert outcome.selected_indices.size == 15
        sampled = SampledDataset(QuerySpec(MEDIAN, (1, 50)), values, eps, 15)
        dist = output_distribution(sampled)
        best = dist.reported[np.argmax(dist.probabilities)]
        assert best == np.sort(values)[7]

    def test_linear_run_with_both_mechanisms(self):
        cfg = ExperimentConfig(
            query="linear",
            mechanisms=("smq", "fip"),
            trials=2,
            budget_fractions=(0.5,),
            seed=8,
            n=6,
        )
        summaries, records = run_experiment(cfg)
        assert len(records) == 4
        assert {rec.mechanism for rec in records} == {"smq", "fip"}
        for rec in records:
            assert np.isfinite(rec.answer)
            assert np.isfinite(rec.truth)


class TestMechanismIndependence:
    """A mechanism's rows do not depend on which other mechanisms the
    config runs beside it, nor on their order: every trial draws its
    population and each mechanism's generator from their own seeds."""

    @pytest.mark.parametrize(
        "query, pair, extra",
        [
            ("count", ("smq", "fq"), {}),
            ("median", ("smq", "fq"), {"median_value_max": 500}),
            ("linear", ("smq", "fip"), {}),
        ],
    )
    def test_alone_writes_the_pairs_bytes(self, tmp_path, query, pair, extra):
        base = ExperimentConfig(
            query=query, mechanisms=pair, rho=-0.5, trials=4, n=40,
            budget_fractions=(0.2, 0.7), seed=13, **extra,
        )
        for mech in pair:
            written = []
            for name, mechanisms in (
                ("alone", (mech,)), ("paired", pair), ("swapped", pair[::-1]),
            ):
                cfg = dataclasses.replace(
                    base, mechanisms=mechanisms, output_dir=str(tmp_path / mech / name)
                )
                summaries, records = run_experiment(cfg)
                kept = [rec for rec in records if rec.mechanism == mech]
                rows = [row for row in summaries if row.mechanism == mech]
                assert len(kept) == cfg.trials * len(cfg.budget_fractions)
                paths = write_outputs(cfg, rows, kept)
                written.append([Path(path).read_bytes() for path in paths])
            assert written[0] == written[1] == written[2]


class TestSummarize:
    def test_recompute_by_hand(self):
        def rec(mech, frac, trial, answer, k, paid):
            return TrialRecord(
                mechanism=mech,
                query="count",
                rho=0.0,
                budget_fraction=frac,
                trial=trial,
                answer=answer,
                truth=2.0,
                purchased_privacy=0.0,
                num_selected=k,
                total_paid=paid,
                fallback=0,
                seed=1,
            )

        records = [
            rec("smq", 0.5, 0, 1.0, 2, 0.3),
            rec("smq", 0.5, 1, 3.0, 4, 0.5),
            rec("smq", 0.2, 0, 2.0, 1, 0.1),
            rec("fq", 0.5, 0, 6.0, 3, 0.2),
        ]
        rows = summarize(records)
        keys = [(r.mechanism, r.budget_fraction) for r in rows]
        assert keys == [("fq", 0.5), ("smq", 0.2), ("smq", 0.5)]
        smq_half = rows[2]
        assert smq_half.mean == pytest.approx(2.0)
        assert smq_half.ci_low == pytest.approx(1.05)
        assert smq_half.ci_high == pytest.approx(2.95)
        assert smq_half.rmse == pytest.approx(1.0)
        assert smq_half.mean_selected == pytest.approx(3.0)
        assert smq_half.mean_paid == pytest.approx(0.4)
        fq_row = rows[0]
        assert fq_row.rmse == pytest.approx(4.0)

    def test_constant_answers(self):
        records = [
            TrialRecord("smq", "count", 0.0, 0.5, t, 3.0, 3.0, 0.0, 1, 0.0, 0, 0)
            for t in range(3)
        ]
        row = summarize(records)[0]
        assert row.mean == 3.0
        assert (row.ci_low, row.ci_high) == (3.0, 3.0)
        assert row.rmse == 0.0

    def test_two_answers(self):
        records = [
            TrialRecord("smq", "count", 0.0, 0.5, t, a, 3.0, 0.0, 1, 0.0, 0, 0)
            for t, a in enumerate((2.0, 4.0))
        ]
        row = summarize(records)[0]
        assert row.mean == pytest.approx(3.0)
        assert row.rmse == pytest.approx(1.0)

    def test_gaussian_answers_match_normal_quantiles(self):
        rng = np.random.default_rng(20240401)
        answers = rng.standard_normal(10_000)
        records = [
            TrialRecord("smq", "linear", 0.0, 0.5, t, float(a), 0.0, 0.0, 1,
                        0.0, 0, 0)
            for t, a in enumerate(answers)
        ]
        row = summarize(records)[0]
        assert row.ci_low == pytest.approx(-1.96, abs=0.05)
        assert row.ci_high == pytest.approx(1.96, abs=0.05)
        assert row.rmse == pytest.approx(1.0, abs=0.02)


class TestSummarizeMatchesGroupByGroup:
    """Groups of equal size are summarised together; every cell must be
    the one its group gets summarised alone."""

    SIZES = (1, 2, 3, 100, 10_000, 3, 1)

    @pytest.mark.parametrize("tied", [False, True])
    def test_cells_equal_reference(self, rng, tied):
        records = []
        for g, size in enumerate(self.SIZES):
            mech, frac = ("smq", "fq", "fip")[g % 3], (0.1, 0.3, 0.5, 0.7)[g % 4]
            if tied:
                answers = rng.integers(0, 3, size) * 0.1
            else:
                answers = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 6)
            truth = float(rng.normal(0.0, 10.0))
            selected = rng.integers(0, 1000, size)
            paid = rng.random(size) * 50.0
            records += [
                TrialRecord(mech, "median", -0.5, frac, t, float(answers[t]),
                            truth, 1.5, int(selected[t]), float(paid[t]), 0, 7)
                for t in range(size)
            ]
        records = [records[i] for i in rng.permutation(len(records))]
        rows = summarize(records)
        assert [tuple(row) for row in rows] == group_by_group_summary(records)
        assert len(rows) == len(self.SIZES)
        # counts are integers, their means floats
        assert all(isinstance(row.mean_selected, float) for row in rows)

    def test_overflow_names_first_group_in_sorted_order(self):
        # both groups' squared errors overflow; the group that sorts first
        # is listed last and has a different number of records
        def rec(mech, frac, trial, answer):
            return TrialRecord(mech, "linear", 0.0, frac, trial, answer, 0.0,
                               0.0, 1, 0.0, 0, 0)

        records = [rec("smq", 0.2, t, a) for t, a in enumerate((-1e300, 0.0, 1e300))]
        records += [rec("fip", 0.4, t, a) for t, a in enumerate((-1e300, 1e300))]
        with np.errstate(over="ignore"):
            with pytest.raises(
                InputError, match=r"^fip at budget fraction 0\.4 \(summary row\): rmse is inf"
            ):
                summarize(records)


class TestWriteOutputs:
    def test_headers_and_determinism(self, tmp_path):
        cfg = count_config(output_dir=str(tmp_path / "a"))
        summaries, records = run_experiment(cfg)
        s_path, t_path = write_outputs(cfg, summaries, records)
        # the written headers are part of the file format; every other
        # test compares against the column constants derived from the rows
        with open(s_path) as fh:
            assert fh.readline() == (
                "mechanism,query,rho,budget_fraction,mean,ci_low,ci_high,"
                "rmse,mean_selected,mean_paid\n"
            )
        with open(t_path) as fh:
            assert fh.readline() == (
                "mechanism,query,rho,budget_fraction,trial,answer,truth,"
                "purchased_privacy,num_selected,total_paid,fallback,seed\n"
            )

        cfg2 = count_config(output_dir=str(tmp_path / "b"))
        summaries2, records2 = run_experiment(cfg2)
        s2, t2 = write_outputs(cfg2, summaries2, records2)
        assert filecmp.cmp(s_path, s2, shallow=False)
        assert filecmp.cmp(t_path, t2, shallow=False)

    def test_numpy_float_cells_write_numbers(self, tmp_path):
        cfg = count_config(output_dir=str(tmp_path))
        rec = TrialRecord("smq", "count", 0.0, 0.5, 0, np.float64(0.1), 2.0,
                          0.0, 1, 0.25, 0, 3)
        _, t_path = write_outputs(cfg, [], [rec])
        assert Path(t_path).read_text().splitlines()[1] == (
            "smq,count,0.0,0.5,0,0.1,2.0,0.0,1,0.25,0,3"
        )

    def test_linear_outputs_repeat_byte_for_byte(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            cfg = ExperimentConfig(
                query="linear",
                mechanisms=("smq", "fip"),
                trials=3,
                budget_fractions=(0.3, 0.7),
                seed=21,
                n=12,
                output_dir=str(tmp_path / run),
            )
            summaries, records = run_experiment(cfg)
            assert sum(rec.mechanism == "smq" and not rec.fallback
                       for rec in records) > 0
            paths.append(write_outputs(cfg, summaries, records))
        for first, second in zip(*paths):
            assert filecmp.cmp(first, second, shallow=False)

    @pytest.mark.parametrize("whole, real", [(0, 0.0), (-1, -1.0)])
    def test_integer_rho_writes_the_same_bytes(self, tmp_path, whole, real):
        paths = []
        for rho in (whole, real):
            cfg = count_config(rho=rho, n=20, trials=2,
                               output_dir=str(tmp_path / repr(rho)))
            paths.append(write_outputs(cfg, *run_experiment(cfg)))
        for first, second in zip(*paths):
            assert Path(first).read_bytes() == Path(second).read_bytes()

    def test_trials_sorted_by_mechanism_fraction_trial(self, tmp_path):
        cfg = count_config(output_dir=str(tmp_path))
        summaries, records = run_experiment(cfg)
        _, t_path = write_outputs(cfg, summaries, records)
        with open(t_path) as fh:
            fh.readline()
            rows = [line.split(",") for line in fh]
        keys = [(r[0], float(r[3]), int(r[4])) for r in rows]
        assert keys == sorted(keys)

    def test_float_cells_round_trip_exactly(self, tmp_path):
        cfg = count_config(output_dir=str(tmp_path))
        summaries, records = run_experiment(cfg)
        _, t_path = write_outputs(cfg, summaries, records)
        ordered = sorted(
            records, key=lambda r: (r.mechanism, r.budget_fraction, r.trial)
        )
        with open(t_path) as fh:
            fh.readline()
            for rec, line in zip(ordered, fh):
                cells = line.rstrip("\n").split(",")
                assert float(cells[5]) == rec.answer
                assert float(cells[9]) == rec.total_paid


class TestChunkedTrials:
    """A budget fraction's trials run as chunks of rows; every CSV byte
    must be what running them one trial at a time writes."""

    @pytest.mark.parametrize("rho", [0.0, -0.5, -1.0])
    @pytest.mark.parametrize(
        "query, mechanisms, extra",
        [
            ("count", ("smq", "fq"), {}),
            ("median", ("smq", "fq"), {"median_value_max": 5000}),
            ("linear", ("smq", "fip"), {}),
        ],
    )
    def test_csvs_match_trial_by_trial(self, tmp_path, query, mechanisms, extra, rho):
        # 1000 owners make 32-trial chunks, so 33 trials cross a boundary;
        # the full budget saturates every threshold.  A seed past 2**32
        # is two words, so its keys take SeedSequence's extra mixing.
        for seed in (11, 2 ** 40 + 11):
            cfg = ExperimentConfig(
                query=query, mechanisms=mechanisms, rho=rho, trials=33, n=1000,
                budget_fractions=(0.1, 0.6, 1.0), seed=seed, **extra,
            )
            assert cfg.trials > experiment._CHUNK_CELLS // cfg.n
            paths = []
            for side, records in (
                ("chunked", run_experiment(cfg)[1]),
                ("one_by_one", trial_by_trial_records(cfg)),
            ):
                out = dataclasses.replace(cfg, output_dir=str(tmp_path / f"{side}{seed}"))
                paths.append(write_outputs(out, summarize(records), records))
            for chunked, one_by_one in zip(*paths):
                assert Path(chunked).read_bytes() == Path(one_by_one).read_bytes()


class TestStreamWords:
    """``_stream_words`` restates numpy's SeedSequence hash; its words
    must be SeedSequence's, bit for bit, for every key a sweep uses."""

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 200])
    def test_words_match_seed_sequence(self, seed):
        tags, budgets, trials = [0, 1, 2, 97], range(9), [0, 1, 31, 32, 33, 63, 64]
        words = experiment._stream_words(
            seed, np.array(tags)[:, None, None], np.array(budgets)[:, None],
            np.array(trials),
        )
        assert words.shape == (len(tags), len(budgets), len(trials), 4)
        for (t, tag), (b, budget), (r, trial) in itertools.product(
            enumerate(tags), enumerate(budgets), enumerate(trials)
        ):
            seq = np.random.SeedSequence([seed, tag, budget, trial])
            got = words[t, b, r]
            assert got.tobytes() == seq.generate_state(4, np.uint64).tobytes()
            # the seed column
            assert int(got[0]) & 0xFFFFFFFF == int(seq.generate_state(1)[0])
        data = experiment._stream_words(seed, 98)
        want = np.random.SeedSequence([seed, 98]).generate_state(4, np.uint64)
        assert data.tobytes() == want.tobytes()

    def test_generator_draws_the_seed_sequence_stream(self):
        words = experiment._stream_words(2 ** 40 + 11, 97, 3, np.arange(2))
        for trial, row in enumerate(words):
            seq = np.random.SeedSequence([2 ** 40 + 11, 97, 3, trial])
            want = np.random.default_rng(seq).random(8)
            assert experiment._generator(row).random(8).tobytes() == want.tobytes()

    def test_trials_up_to_one_word_accepted(self):
        # the last trial index, 2**32 - 1, is still one word
        assert count_config(trials=2 ** 32).trials == 2 ** 32
