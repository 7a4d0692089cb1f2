import numpy as np
import pytest

from oracles import copula_uniforms, loop_median_values
from pdq.datagen import (
    TableSchema,
    gen_correlated_uniforms,
    gen_count_values,
    gen_linear_values,
    gen_median_values,
    cosine_weights,
    gen_profiles,
    load_tabular,
)
from pdq.errors import InputError


class TestPopulationSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            gen_correlated_uniforms(0, 0.0, np.random.default_rng(0))
        with pytest.raises(InputError):
            gen_correlated_uniforms(10, 0.5, np.random.default_rng(0))
        with pytest.raises(InputError):
            gen_correlated_uniforms(10, -1.5, np.random.default_rng(0))

    def test_size_past_exact_floats(self):
        # checked before any draw, which could not hold that many values
        with pytest.raises(InputError, match=r"must lie in \[1, 2\*\*53\]"):
            gen_correlated_uniforms(2 ** 53 + 1, 0.0, None)


class TestCorrelatedUniforms:
    def test_reproducible(self):
        t1, e1 = gen_correlated_uniforms(100, -0.5, np.random.default_rng(7))
        t2, e2 = gen_correlated_uniforms(100, -0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(e1, e2)

    def test_full_anticorrelation_is_exact_complement(self):
        theta, eps = gen_correlated_uniforms(1000, -1.0, np.random.default_rng(3))
        np.testing.assert_allclose(theta + eps, 1.0, atol=1e-12)

    def test_independent_case(self):
        theta, eps = gen_correlated_uniforms(200_000, 0.0, np.random.default_rng(5))
        corr = np.corrcoef(theta, eps)[0, 1]
        assert abs(corr) < 0.01

    def test_copula_hits_target_correlation(self):
        theta, eps = gen_correlated_uniforms(200_000, -0.5, np.random.default_rng(11))
        corr = np.corrcoef(theta, eps)[0, 1]
        assert corr == pytest.approx(-0.5, abs=0.01)

    def test_marginals_stay_uniform(self):
        theta, eps = gen_correlated_uniforms(200_000, -0.5, np.random.default_rng(13))
        for arr in (theta, eps):
            assert np.mean(arr) == pytest.approx(0.5, abs=0.005)
            assert np.var(arr) == pytest.approx(1.0 / 12.0, abs=0.002)
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_requirements_strictly_positive(self):
        _, eps = gen_correlated_uniforms(50_000, -1.0, np.random.default_rng(2))
        assert np.all(eps > 0.0)

    @pytest.mark.parametrize("rho", [0.0, -0.3, -0.5, -1.0])
    def test_rows_match_one_population_calls(self, rho):
        # a chunk draws each row with its own generator into its (T, n)
        # arrays; row r must be generator r's population, bit for bit
        theta, eps = gen_correlated_uniforms(
            257, rho, [np.random.default_rng(seed) for seed in range(5)]
        )
        assert theta.shape == eps.shape == (5, 257)
        for row in range(5):
            for draw in (gen_correlated_uniforms, copula_uniforms):
                t, e = draw(257, rho, np.random.default_rng(row))
                assert t.tobytes() == theta[row].tobytes()
                assert e.tobytes() == eps[row].tobytes()


class TestLoadTabular:
    def write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_happy_path_with_profiles(self, tmp_path):
        p = self.write(
            tmp_path,
            "age;income;score\n30;1.5;0.2\n25;2.5;0.4\n",
        )
        schema = TableSchema(
            "age", transform="int", profile_columns=("income", "score"),
            delimiter=";",
        )
        table = load_tabular(p, schema)
        np.testing.assert_array_equal(table.values, [30.0, 25.0])
        np.testing.assert_allclose(table.profiles, [[1.5, 0.2], [2.5, 0.4]])
        assert table.dropped_rows == 0

    def test_missing_column(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(InputError, match="column 'missing' not found in "):
            load_tabular(p, TableSchema("missing"))

    def test_bad_cell_reports_line(self, tmp_path):
        p = self.write(tmp_path, "a\n1\nnot_a_number\n")
        with pytest.raises(InputError, match="line 3: could not convert string"):
            load_tabular(p, TableSchema("a"))

    def test_non_finite_cell_reports_line_and_column(self, tmp_path):
        schema = TableSchema("a", profile_columns=("b",))
        for cell in ("nan", "inf", "-Infinity"):
            p = self.write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
            with pytest.raises(InputError, match="line 3: column 'b' holds"):
                load_tabular(p, schema)
            p = self.write(tmp_path, f"a,b\n{cell},2\n3,4\n")
            with pytest.raises(InputError, match="line 2: column 'a' holds"):
                load_tabular(p, schema)

    def test_missing_cells_dropped_and_counted(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n,3\n4,\n\n5,6\n")
        schema = TableSchema("a", profile_columns=("b",))
        table = load_tabular(p, schema)
        np.testing.assert_array_equal(table.values, [1.0, 5.0])
        assert table.dropped_rows == 2

    def test_empty_file(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(InputError, match="is empty"):
            load_tabular(p, TableSchema("a"))

    def test_header_only(self, tmp_path):
        p = self.write(tmp_path, "a,b\n")
        with pytest.raises(InputError, match="contains no usable rows"):
            load_tabular(p, TableSchema("a"))

    def test_binarize(self, tmp_path):
        p = self.write(tmp_path, "x\n1.0\n2.5\n3.0\n")
        table = load_tabular(p, TableSchema("x", transform="binarize:2.5"))
        np.testing.assert_array_equal(table.values, [0.0, 0.0, 1.0])

    def test_int_keeps_repeats(self, tmp_path):
        p = self.write(tmp_path, "x\n30\n25\n30\n41\n")
        table = load_tabular(p, TableSchema("x", transform="int"))
        np.testing.assert_array_equal(table.values, [30.0, 25.0, 30.0, 41.0])

    def test_int_rounds_to_nearest(self, tmp_path):
        p = self.write(tmp_path, "x\n30.4\n24.6\n41\n")
        table = load_tabular(p, TableSchema("x", transform="int"))
        np.testing.assert_array_equal(table.values, [30.0, 25.0, 41.0])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes("age,name\n30,Jos\u00e9\n25,Ann\n".encode("utf-8-sig"))
        table = load_tabular(p, TableSchema("age", transform="int"))
        np.testing.assert_array_equal(table.values, [30.0, 25.0])

    def test_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes(b"age,name\n30,Jos\xe9\n")
        with pytest.raises(InputError, match="data.csv is not UTF-8 text"):
            load_tabular(p, TableSchema("age"))

    def test_unknown_transform(self, tmp_path):
        p = self.write(tmp_path, "x\n1\n")
        # a threshold that is not finite would give every row the same bit
        for transform in ("log", "distinct_int", "binarize:", "binarize:x",
                          "binarize:nan", "binarize:inf", "binarize:-inf"):
            with pytest.raises(InputError, match="unknown transform"):
                load_tabular(p, TableSchema("x", transform=transform))


class TestSyntheticColumns:
    def test_count_values(self, rng):
        vals = gen_count_values(500, 0.3, rng)
        assert set(np.unique(vals)) <= {0.0, 1.0}
        assert np.mean(vals) == pytest.approx(0.3, abs=0.08)
        assert np.all(gen_count_values(50, 0.0, rng) == 0.0)
        assert np.all(gen_count_values(50, 1.0, rng) == 1.0)
        with pytest.raises(InputError):
            gen_count_values(10, 1.5, rng)

    def test_median_values(self, rng):
        vals = gen_median_values(200, 10_000, rng)
        assert vals.size == 200
        assert np.unique(vals).size == 200
        assert np.all(vals == np.floor(vals))
        assert vals.min() >= 1 and vals.max() <= 10_000
        # concentration: far tighter than the declared range
        assert np.std(vals) < 10_000 / 5

    def test_median_values_exhausts_small_domain(self, rng):
        vals = gen_median_values(5, 5, rng)
        np.testing.assert_array_equal(np.sort(vals), [1, 2, 3, 4, 5])

    def test_median_values_rejects_impossible(self, rng):
        with pytest.raises(InputError):
            gen_median_values(10, 9, rng)

    def test_median_values_rejects_inexact_range(self):
        # past 2**53 the draws would collapse onto few floats and the
        # search for n distinct ones would never end
        class NoDraws:
            def normal(self, *args, **kwargs):
                raise AssertionError("drew before checking the range")

        with pytest.raises(InputError, match="at most 2\\*\\*53"):
            gen_median_values(3, 10 ** 30, NoDraws())
        with pytest.raises(InputError, match="at most 2\\*\\*53"):
            gen_median_values(3, 2 ** 53 + 1, NoDraws())

    @pytest.mark.parametrize(
        "n, value_max, seed",
        [
            (1, 2, 0),
            (5, 5, 1),
            (64, 70, 2),
            (200, 10_000, 3),
            (900, 1000, 4),
            (3000, 20_000, 5),
            (100_000, 10_000_000, 6),
        ],
    )
    def test_median_values_match_loop(self, n, value_max, seed):
        # same values, in the same order, from the same draws
        rng_fast = np.random.default_rng(seed)
        rng_slow = np.random.default_rng(seed)
        fast = gen_median_values(n, value_max, rng_fast)
        slow = loop_median_values(n, value_max, rng_slow)
        assert fast.dtype == slow.dtype
        assert fast.tobytes() == slow.tobytes()
        assert rng_fast.random() == rng_slow.random()

    def test_linear_values(self, rng):
        vals = gen_linear_values(1000, (-2.0, 3.0), rng)
        assert vals.min() >= -2.0 and vals.max() <= 3.0
        with pytest.raises(InputError):
            gen_linear_values(10, (1.0, 1.0), rng)

    def test_profiles(self, rng):
        profiles, reference = gen_profiles(7, 3, rng)
        assert profiles.shape == (7, 3)
        assert reference.shape == (3,)
        with pytest.raises(InputError):
            gen_profiles(5, 0, rng)

    @pytest.mark.parametrize("profiles, reference, culprit", [
        # an overflowing norm used to read as orthogonality
        ([[1.0, 1.0], [1e200, 1.0]], [1.0, 1.0], "profile 1"),
        ([[1.0, 1.0], [1.0, 2.0]], [1e200, 1.0], "the reference profile"),
        # and one whose similarity overflows too used to give a NaN weight
        ([[1.0, 1.0], [1e160, 1.0]], [1e160, 1.0], "the reference profile"),
    ])
    def test_cosine_weights_out_of_float_range(self, profiles, reference, culprit):
        with pytest.raises(
            InputError, match=f"^{culprit} is too large for float arithmetic"
        ):
            cosine_weights(profiles, reference)
