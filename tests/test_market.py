import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdq.errors import InputError
from pdq.market import (
    COUNT,
    LINEAR,
    MEDIAN,
    QuerySpec,
    RegularPrior,
    UniformPrior,
    cosine_weights,
    prior_quantile,
    virtual_cost,
    virtual_cost_inverse,
)
from pdq.private_query import SampledDataset
from pdq.thresholds import solve_threshold_system


def square_prior():
    """F(t) = t^2 on [0, 1]; no closed-form inverses supplied."""
    return RegularPrior(
        lower=0.0,
        upper=1.0,
        cdf=lambda t: np.asarray(t, dtype=float) ** 2,
        pdf=lambda t: 2.0 * np.asarray(t, dtype=float),
        name="square",
    )


class TestRegularPrior:
    def test_uniform_cdf_pdf(self):
        p = UniformPrior()
        assert p.cdf(0.25) == pytest.approx(0.25)
        assert p.pdf(0.7) == pytest.approx(1.0)

    def test_shifted_uniform(self):
        # a uniform prior off [0, 1] is a RegularPrior and solves by
        # bisection; vc(t) = 2t - 1 gives its thresholds in closed form
        p = RegularPrior(
            1.0,
            3.0,
            cdf=lambda t: np.clip((np.asarray(t, dtype=float) - 1.0) / 2.0, 0.0, 1.0),
            pdf=lambda t: np.full(np.shape(t), 0.5),
        )
        assert p.cdf(2.0) == pytest.approx(0.5)
        assert p.pdf(2.0) == pytest.approx(0.5)
        eps = np.array([0.1, 0.1, 0.8])
        budget = 0.9 * p.upper * eps.size
        tv = solve_threshold_system(p, eps, budget)
        assert abs(tv.expected_spend - budget) <= 1e-9 * budget
        np.testing.assert_allclose(
            tv.thresholds,
            np.clip(0.5 * (eps / tv.multiplier + 1.0), 1.0, 3.0),
            rtol=0.0,
            atol=1e-9,
        )

    def test_rejects_empty_support(self):
        with pytest.raises(InputError):
            RegularPrior(1.0, 1.0, lambda t: t, lambda t: np.ones_like(t))

    def test_takes_no_closed_form_fields(self):
        # a closed form is a property of the prior's type, so it cannot
        # be set to something that disagrees with the cdf
        with pytest.raises(TypeError):
            RegularPrior(
                0.0,
                1.0,
                cdf=lambda t: np.asarray(t, dtype=float),
                pdf=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                quantile=lambda u: np.sqrt(u),
            )

    def test_uniform_is_a_regular_prior(self):
        p = UniformPrior()
        assert isinstance(p, RegularPrior)
        assert (p.lower, p.upper, p.name) == (0.0, 1.0, "uniform[0.0,1.0]")
        # the support is fixed
        with pytest.raises(TypeError):
            UniformPrior(1.0, 3.0)

    def test_rejects_negative_support(self):
        with pytest.raises(InputError):
            RegularPrior(-0.5, 1.0, lambda t: t, lambda t: np.ones_like(t))

    def test_rejects_infinite_support(self):
        with pytest.raises(InputError):
            RegularPrior(0.0, np.inf, lambda t: t, lambda t: np.ones_like(t))

    def test_rejects_bad_cdf_endpoints(self):
        with pytest.raises(InputError):
            RegularPrior(
                0.0,
                1.0,
                cdf=lambda t: 0.5 * np.asarray(t, dtype=float),
                pdf=lambda t: np.full(np.shape(t), 0.5),
            )

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(InputError):
            RegularPrior(
                0.0,
                1.0,
                cdf=lambda t: np.sin(3.5 * np.asarray(t, dtype=float))
                / np.sin(3.5),
                pdf=lambda t: np.full(np.shape(t), 1.0),
            )

    def test_rejects_vanishing_density(self):
        with pytest.raises(InputError, match="is not strictly positive"):
            RegularPrior(
                0.0,
                1.0,
                cdf=lambda t: np.asarray(t, dtype=float),
                pdf=lambda t: np.where(np.asarray(t) < 0.5, 1.0, 0.0),
            )

    def test_rejects_non_regular_prior(self):
        # a thin flat density with a sharp spike after t = 0.8 makes
        # t + F/f drop at the spike: 1.6 just before, ~0.96 just after
        def cdf(t):
            t = np.asarray(t, dtype=float)
            return 0.1 * t + 22.5 * np.maximum(t - 0.8, 0.0) ** 2

        def pdf(t):
            t = np.asarray(t, dtype=float)
            return 0.1 + 45.0 * np.maximum(t - 0.8, 0.0)

        with pytest.raises(InputError, match="regular"):
            RegularPrior(0.0, 1.0, cdf=cdf, pdf=pdf)


class TestVirtualCost:
    def test_uniform_values(self):
        p = UniformPrior()
        assert virtual_cost(p, 0.25) == pytest.approx(0.5)
        assert virtual_cost(p, 0.0) == pytest.approx(0.0)

    def test_square_prior_value(self):
        # t + t^2/(2t) = 1.5 t
        assert virtual_cost(square_prior(), 0.5) == pytest.approx(0.75)

    def test_square_prior_matches_numeric_differentiation(self):
        p = square_prior()
        t = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        f_numeric = (p.cdf(t + h) - p.cdf(t - h)) / (2 * h)
        np.testing.assert_allclose(
            virtual_cost(p, t), t + p.cdf(t) / f_numeric, rtol=1e-6
        )

    def test_inverse_closed_form(self):
        p = UniformPrior()
        assert virtual_cost_inverse(p, 0.5) == pytest.approx(0.25)
        assert virtual_cost_inverse(p, 1.2) == pytest.approx(0.6)
        assert virtual_cost_inverse(p, 5.0) == pytest.approx(1.0)

    def test_inverse_by_bisection_matches_closed_form(self):
        bisected = square_prior()
        y = np.linspace(0.0, 1.5, 31)
        # vc(t) = 1.5 t for the square prior, so the true inverse is y/1.5
        np.testing.assert_allclose(
            virtual_cost_inverse(bisected, y),
            np.clip(y / 1.5, 0.0, 1.0),
            atol=1e-9,
        )

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_inverse_roundtrip_uniform(self, theta):
        p = UniformPrior()
        assert virtual_cost_inverse(p, virtual_cost(p, theta)) == pytest.approx(
            theta, abs=1e-9
        )

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    def test_inverse_roundtrip_bisection(self, theta):
        p = square_prior()
        assert virtual_cost_inverse(p, virtual_cost(p, theta)) == pytest.approx(
            theta, abs=1e-9
        )

    def test_quantile(self):
        p = UniformPrior()
        assert prior_quantile(p, 0.25) == pytest.approx(0.25)
        grid = np.array([[0.0, 0.5], [1.0, 0.1]])
        np.testing.assert_allclose(prior_quantile(p, grid), grid)
        with pytest.raises(InputError):
            prior_quantile(p, 1.5)

    def test_uniform_closed_forms_match_bisection(self):
        p = UniformPrior()
        twin = RegularPrior(p.lower, p.upper, p.cdf, p.pdf)
        u = np.linspace(0.0, 1.0, 21)
        y = np.linspace(0.0, 3.0, 31)
        np.testing.assert_allclose(
            prior_quantile(p, u), prior_quantile(twin, u), atol=1e-9
        )
        np.testing.assert_allclose(
            virtual_cost_inverse(p, y), virtual_cost_inverse(twin, y), atol=1e-9
        )

    def test_quantile_bisection(self):
        p = square_prior()
        u = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(prior_quantile(p, u), np.sqrt(u), atol=1e-9)


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
