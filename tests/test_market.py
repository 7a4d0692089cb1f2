"""The data-market model's pieces outside the auction: the query and its
data range (``pdq.private_query.QuerySpec``), linear query weights from
owner profiles (``pdq.datagen.cosine_weights``) and the uniform virtual
cost behind the threshold solver."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import thresholds_at

from pdq.errors import InputError
from pdq.datagen import cosine_weights
from pdq.private_query import COUNT, LINEAR, MEDIAN, QuerySpec, SampledDataset
from pdq.thresholds import solve_threshold_system


class TestQuerySpec:
    def test_kinds(self):
        QuerySpec(COUNT, (0.0, 1.0))
        QuerySpec(MEDIAN, (1, 100))
        QuerySpec(LINEAR, (0.0, 1.0))
        with pytest.raises(InputError):
            QuerySpec("mode", (0.0, 1.0))

    def test_empty_domain(self):
        with pytest.raises(InputError):
            QuerySpec(COUNT, (1.0, 1.0))

    def test_domain_rules(self):
        # the one check of a data range: finite bounds, lo < hi, and
        # integer bounds from 1 up for a median
        for bounds in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), ("a", "b")):
            with pytest.raises(InputError, match="bounds must be finite numbers"):
                QuerySpec(LINEAR, bounds)
        with pytest.raises(InputError, match="domain is empty"):
            QuerySpec(LINEAR, (2.0, 1.0))
        for bounds in ((0, 10), (1.5, 10), (1, 10.5)):
            with pytest.raises(InputError, match="integer domain with lower bound >= 1"):
                QuerySpec(MEDIAN, bounds)
        QuerySpec(MEDIAN, (1.0, 10.0))
        QuerySpec(LINEAR, (-3.0, -1.0))

    @pytest.mark.parametrize("bounds", [(False, True), (0.0, True), (False, 1.0)])
    def test_bool_bounds_rejected(self, bounds):
        # a bool is a numbers.Real, but [false, true] is no data range
        with pytest.raises(InputError, match="bounds must be finite numbers"):
            QuerySpec(LINEAR, bounds)

    def test_linear_weight_rules(self):
        # a linear query's weights live with the sampled data, one per
        # entry, never in the query description
        with pytest.raises(TypeError):
            QuerySpec(LINEAR, (0.0, 1.0), weights=(0.5, -1.0))
        values = np.array([0.5, 0.5])
        eps = np.array([0.3, 0.6])
        for bad in ((np.nan, 1.0), (np.inf, 1.0), (1.0,)):
            with pytest.raises(InputError):
                SampledDataset(
                    QuerySpec(LINEAR, (0.0, 1.0)), values, eps, 2,
                    weights=np.array(bad), full_weight_sum=1.0,
                )


class TestCosineWeights:
    def test_worked_example(self):
        w = cosine_weights([(1.0, 1.0), (2.0, 0.0)], (1.0, 0.0))
        np.testing.assert_allclose(w, [1.0 / np.sqrt(2.0), 1.0])

    def test_negative_similarity(self):
        w = cosine_weights([(-1.0, 0.0)], (1.0, 0.0))
        np.testing.assert_allclose(w, [-1.0])

    def test_orthogonal_profile_rejected(self):
        with pytest.raises(InputError, match="orthogonal to the reference"):
            cosine_weights([(0.0, 1.0)], (1.0, 0.0))

    def test_zero_norm_rejected(self):
        with pytest.raises(InputError, match="profile 0 has zero norm"):
            cosine_weights([(0.0, 0.0)], (1.0, 0.0))
        with pytest.raises(InputError, match="reference profile has zero norm"):
            cosine_weights([(1.0, 0.0)], (0.0, 0.0))

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            cosine_weights([(1.0, 0.0, 0.0)], (1.0, 0.0))

    @given(
        st.lists(
            st.tuples(
                st.floats(-5, 5).filter(lambda x: abs(x) > 1e-3),
                st.floats(-5, 5).filter(lambda x: abs(x) > 1e-3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_weights_bounded_by_one(self, profiles):
        try:
            w = cosine_weights(profiles, (1.0, 1.0))
        except InputError as exc:
            assert "orthogonal" in str(exc)
            return
        assert np.all(np.abs(w) <= 1.0 + 1e-12)


class TestVirtualCost:
    """The uniform virtual cost t + F(t)/f(t) = 2t and its clamped inverse."""

    def test_uniform_values(self):
        # at the solved thresholds each virtual cost 2 theta_i equals eps_i / lambda
        tv = solve_threshold_system(np.array([0.5, 1.0]), 0.3125)
        np.testing.assert_allclose(tv.thresholds, [0.25, 0.5], atol=1e-6)
        np.testing.assert_allclose(
            2.0 * tv.thresholds * tv.multiplier, [0.5, 1.0], atol=1e-6
        )
        assert thresholds_at(np.array([0.0]), 1.0)[0] == pytest.approx(0.0)

    def test_inverse_closed_form(self):
        t = thresholds_at(np.array([0.5, 1.2, 5.0]), 1.0)
        np.testing.assert_allclose(t, [0.25, 0.6, 1.0])
