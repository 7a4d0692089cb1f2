import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bisect_uniform_thresholds, thresholds_at

from pdq import thresholds
from pdq.errors import InputError, SolverError
from pdq.thresholds import (
    expected_purchased_privacy,
    expected_spend,
    solve_threshold_system,
)

eps_arrays = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=6
).map(np.array)

# a few distinct requirements, each possibly held by several owners
tied_eps_arrays = (
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=3)
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    .map(np.array)
)

# requirements spread over 300 decades
wide_eps_arrays = st.lists(
    st.floats(min_value=-300.0, max_value=0.0), min_size=1, max_size=8
).map(lambda powers: 10.0 ** np.array(powers))


class TestThresholdsAt:
    def test_uniform_closed_form(self):
        t = thresholds_at(np.array([0.5]), 1.0)
        assert t[0] == pytest.approx(0.25)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_inverse_roundtrip_uniform(self, theta):
        t = thresholds_at(np.array([2.0 * theta]), 1.0)
        assert t[0] == pytest.approx(theta, abs=1e-9)

    def test_clamped_at_upper(self):
        t = thresholds_at(np.array([3.0]), 1.0)
        assert t[0] == pytest.approx(1.0)

    def test_lambda_zero_gives_upper(self):
        t = thresholds_at(np.array([0.5, 1.0]), 0.0)
        np.testing.assert_allclose(t, [1.0, 1.0])

    @given(eps_arrays, st.floats(min_value=0.01, max_value=100.0))
    def test_monotone_in_eps(self, eps, lam):
        t = thresholds_at(np.sort(eps), lam)
        assert np.all(np.diff(t) >= -1e-12)

    @given(eps_arrays)
    def test_antitone_in_lambda(self, eps):
        t1 = thresholds_at(eps, 0.5)
        t2 = thresholds_at(eps, 2.0)
        assert np.all(t2 <= t1 + 1e-12)


class TestExpectedSpend:
    def test_worked_example(self):
        t = thresholds_at(np.array([0.5, 1.0]), 1.0)
        np.testing.assert_allclose(t, [0.25, 0.5])
        assert expected_spend(t) == pytest.approx(0.3125)

    def test_uniform_cdf_pdf(self):
        # F(t) = t on [0, 1]: owner i pays t_i with probability t_i
        assert expected_purchased_privacy([0.25], [1.0]) == pytest.approx(0.25)
        assert expected_purchased_privacy([0.7], [2.0]) == pytest.approx(1.4)
        assert expected_spend([0.7]) == pytest.approx(0.49)

    def test_saturated(self):
        assert expected_spend(np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_near_zero_lambda_cap(self):
        t = thresholds_at(np.array([0.5, 1.0]), 1e6)
        assert expected_spend(t) == pytest.approx(0.0, abs=1e-6)


class TestSolve:
    def test_two_owner_worked_example(self):
        tv = solve_threshold_system(np.array([0.5, 1.0]), 0.3125)
        np.testing.assert_allclose(tv.thresholds, [0.25, 0.5], atol=1e-6)
        assert tv.multiplier == pytest.approx(1.0, abs=1e-6)
        assert tv.expected_spend == pytest.approx(0.3125, abs=1e-9)

    def test_single_owner_sqrt_budget(self):
        tv = solve_threshold_system(np.array([0.8]), 0.09)
        assert tv.thresholds[0] == pytest.approx(0.3, abs=1e-6)

    def test_budget_saturation(self):
        # budget at or above the maximum spend puts every threshold at
        # the top of the support with a zero multiplier
        for budget in (2.0, 2.5):
            tv = solve_threshold_system(np.array([0.5, 1.0]), budget)
            np.testing.assert_allclose(tv.thresholds, [1.0, 1.0])
            assert tv.multiplier == 0.0
            assert tv.expected_spend == pytest.approx(2.0)

    def test_three_owner_full_budget(self):
        tv = solve_threshold_system(np.array([0.2, 0.5, 0.9]), 3.0)
        np.testing.assert_allclose(tv.thresholds, [1.0, 1.0, 1.0])

    def test_input_validation(self):
        with pytest.raises(InputError):
            solve_threshold_system(np.array([0.5]), 0.0)
        with pytest.raises(InputError):
            solve_threshold_system(np.array([0.5]), -1.0)
        with pytest.raises(InputError):
            solve_threshold_system(np.array([0.0, 0.5]), 0.3)
        with pytest.raises(InputError):
            solve_threshold_system(np.array([]), 0.3)

    def test_wrong_multiplier_raises_solver_error(self, monkeypatch):
        # a doubled lambda halves every interior threshold, so the spend
        # falls to a quarter of the budget
        exact = thresholds._uniform_budget_multiplier
        monkeypatch.setattr(
            thresholds, "_uniform_budget_multiplier",
            lambda eps, budget: (2.0 * exact(eps, budget)[0], exact(eps, budget)[1]),
        )
        with pytest.raises(SolverError, match="did not converge: spend 0.07"):
            solve_threshold_system(np.array([0.5, 1.0]), 0.3)

    @given(
        eps_arrays,
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_budget_binds(self, eps, frac):
        budget = frac * eps.size
        tv = solve_threshold_system(eps, budget)
        if budget < eps.size:
            assert abs(tv.expected_spend - budget) <= 1e-9 * max(1.0, budget)

    @given(eps_arrays, st.floats(min_value=0.05, max_value=0.9))
    def test_more_budget_never_lowers_thresholds(self, eps, frac):
        b1 = frac * eps.size
        b2 = min(1.1 * b1, eps.size)
        t1 = solve_threshold_system(eps, b1).thresholds
        t2 = solve_threshold_system(eps, b2).thresholds
        assert np.all(t2 >= t1 - 1e-7)

    @given(eps_arrays, st.floats(min_value=0.05, max_value=0.9))
    def test_higher_requirement_gets_higher_threshold(self, eps, frac):
        tv = solve_threshold_system(eps, frac * eps.size)
        order = np.argsort(eps)
        assert np.all(np.diff(tv.thresholds[order]) >= -1e-9)

    def test_complementary_slackness(self):
        eps = np.array([0.01, 0.5, 0.99])
        tv = solve_threshold_system(eps, 0.4)
        lam = tv.multiplier
        for e, t in zip(eps, tv.thresholds):
            if t >= 1.0 - 1e-9:
                assert e / lam >= 2.0 * 1.0 - 1e-9  # vc(upper) = 2
            elif t <= 1e-9:
                assert e / lam <= 0.0 + 1e-9  # vc(lower) = 0
            else:
                assert e / lam == pytest.approx(2.0 * t, abs=1e-7)

    def test_objective_matches_exhaustive_grid(self):
        # tiny independent check: two owners, all threshold pairs on a grid
        eps = np.array([0.4, 0.9])
        budget = 0.2
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        spend = grid * grid
        best = -np.inf
        for i, s1 in enumerate(spend):
            room = budget - s1
            if room < 0.0:
                break
            j = int(np.searchsorted(spend, room + 1e-15, side="right")) - 1
            best = max(best, eps[0] * grid[i] + eps[1] * grid[j])
        tv = solve_threshold_system(eps, budget)
        obj = expected_purchased_privacy(tv.thresholds, eps)
        assert obj >= best - 1e-9
        assert obj <= best + 1e-2

    def test_market_wrapper(self):
        # a market held as per-owner (data, valuation, eps) rows: the
        # solver takes the eps column as a plain sequence, in owner order
        owners = ((1.0, 0.2, 0.5), (0.0, 0.6, 1.0))
        tv = solve_threshold_system([o[2] for o in owners], 0.3125)
        np.testing.assert_allclose(tv.thresholds, [0.25, 0.5], atol=1e-6)


class TestExactSolve:
    def test_one_spend_evaluation_per_solve(self, monkeypatch):
        # the closed form evaluates the spend only for the final check,
        # on all three thresholds
        calls = []

        def counting(t):
            calls.append(np.size(t))
            return expected_spend(t)

        monkeypatch.setattr(thresholds, "expected_spend", counting)
        solve_threshold_system(np.array([0.2, 0.5, 0.9]), 0.4)
        assert calls == [3]

    @settings(deadline=None)
    @given(
        st.one_of(eps_arrays, tied_eps_arrays),
        st.floats(min_value=0.01, max_value=1.0),
    )
    # budgets at which some owners saturate and others stay interior
    @example(np.array([0.05, 1.0, 1.0]), 0.9)
    @example(np.array([0.2, 0.2, 0.7, 0.7]), 0.8)
    @example(np.array([0.1, 0.1, 0.8]), 0.9)
    def test_matches_bisection(self, eps, frac):
        budget = frac * eps.size
        exact = solve_threshold_system(eps, budget)
        if budget < eps.size:
            assert abs(exact.expected_spend - budget) <= 1e-9 * max(1.0, budget)
        ref_thresholds, ref_spend = bisect_uniform_thresholds(eps, budget)
        # The bisection's spend can sit a few ulps off the budget, which
        # can move a small interior threshold by more than 1e-8.  Solving
        # exactly for the spend it reached compares the two routes on the
        # same point of the water-filling curve.
        at_ref = solve_threshold_system(eps, ref_spend)
        np.testing.assert_allclose(
            at_ref.thresholds, ref_thresholds, rtol=0.0, atol=1e-8
        )

    @given(wide_eps_arrays, st.floats(min_value=0.001, max_value=0.999))
    def test_budget_binds_over_wide_requirements(self, eps, frac):
        budget = frac * eps.size
        tv = solve_threshold_system(eps, budget)
        assert abs(tv.expected_spend - budget) <= 1e-9 * max(1.0, budget)
        assert np.all(np.diff(tv.thresholds[np.argsort(eps)]) >= 0.0)


class TestTinyRequirements:
    def test_tiny_equal_requirements(self):
        tv = solve_threshold_system([1e-200, 1e-200], 0.3)
        np.testing.assert_allclose(tv.thresholds, [np.sqrt(0.15)] * 2, rtol=1e-12)
        assert tv.expected_spend == pytest.approx(0.3, rel=1e-12)

    def test_lambda_below_the_normal_range(self):
        # lambda = 5e-324 / sqrt(2) is below the smallest normal float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tv = solve_threshold_system([1.0, 5e-324], 1.5)
        np.testing.assert_allclose(tv.thresholds, [1.0, np.sqrt(0.5)], rtol=1e-12)
        assert tv.expected_spend == pytest.approx(1.5, rel=1e-12)

    def test_smallest_positive_requirement(self):
        # the population draw clamps requirements to 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tv = solve_threshold_system([5e-324, 1.0], 0.5)
        assert np.all(np.isfinite(tv.thresholds))
        assert tv.thresholds[1] == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert tv.expected_spend == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("eps", [[1e-200, 1e200], [1e-300, 1e308]])
    def test_requirements_past_the_float_range_of_lambda(self, eps):
        # lambda is normal, but eps[1] / lambda overflows and saturates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tv = solve_threshold_system(eps, 1.5)
        np.testing.assert_allclose(tv.thresholds, [np.sqrt(0.5), 1.0], rtol=1e-12)
        assert tv.expected_spend == pytest.approx(1.5, rel=1e-12)


class TestRows:
    """T populations solved as the rows of one (T, n) array."""

    @staticmethod
    def assert_rows_match_vectors(eps, budget):
        rows = solve_threshold_system(eps, budget)
        assert rows.thresholds.shape == eps.shape
        for r, row_eps in enumerate(eps):
            alone = solve_threshold_system(row_eps, budget)
            assert np.array_equal(rows.thresholds[r], alone.thresholds)
            assert rows.multiplier[r] == alone.multiplier
            assert rows.expected_spend[r] == alone.expected_spend

    @pytest.mark.parametrize("frac", [0.01, 0.1, 0.5, 0.9, 0.999, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 50, 1000])
    def test_random_rows(self, rng, n, frac):
        self.assert_rows_match_vectors(rng.random((6, n)), frac * n)

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.75, 0.9])
    def test_tiny_tied_and_wide_rows(self, rng, frac):
        n = 8
        eps = rng.random((6, n))
        eps[0, 0] = 5e-324
        eps[1] = 1e-200
        eps[2, : n // 2] = 5e-324
        eps[3] = np.repeat([0.2, 0.7], n // 2)
        eps[4] = 10.0 ** rng.uniform(-300.0, 0.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_rows_match_vectors(eps, frac * n)

    def test_two_owner_rows(self):
        eps = np.array([[1.0, 5e-324], [1e-200, 1e-200], [0.5, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_rows_match_vectors(eps, 1.5)
            self.assert_rows_match_vectors(eps, 0.3)

    def test_saturated_rows(self):
        tv = solve_threshold_system(np.full((3, 4), 0.5), 4.0)
        np.testing.assert_array_equal(tv.thresholds, np.ones((3, 4)))
        np.testing.assert_array_equal(tv.multiplier, np.zeros(3))
        np.testing.assert_array_equal(tv.expected_spend, np.full(3, 4.0))

    def test_one_spend_evaluation_per_batch(self, monkeypatch):
        calls = []

        def counting(t):
            calls.append(np.shape(t))
            return expected_spend(t)

        monkeypatch.setattr(thresholds, "expected_spend", counting)
        solve_threshold_system(np.array([[0.2, 0.5, 0.9], [0.3, 0.3, 0.1]]), 0.4)
        assert calls == [(2, 3)]

    def test_rejects_more_than_two_axes(self):
        with pytest.raises(InputError, match=r"\(T, n\)"):
            solve_threshold_system(np.full((2, 2, 2), 0.5), 1.0)
