import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdq import thresholds
from pdq.errors import InputError
from pdq.market import RegularPrior, UniformPrior
from pdq.thresholds import (
    expected_purchased_privacy,
    expected_spend,
    solve_threshold_system,
    thresholds_at,
)

PRIOR = UniformPrior()

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


def bisection_twin(prior):
    """The same cdf and pdf without closed forms, so the solver bisects."""
    return RegularPrior(
        prior.lower, prior.upper, prior.cdf, prior.pdf, name="bisection twin"
    )


def square_cdf_prior():
    """F(t) = t^2 on [0, 1]: vc(t) = 1.5 t, so t_i = min(eps_i / (1.5 lam), 1)."""
    return RegularPrior(
        0.0,
        1.0,
        cdf=lambda t: np.clip(np.asarray(t, dtype=float), 0.0, 1.0) ** 2,
        pdf=lambda t: 2.0 * np.asarray(t, dtype=float),
        name="square cdf",
    )


class TestThresholdsAt:
    def test_uniform_closed_form(self):
        t = thresholds_at(PRIOR, np.array([0.5]), 1.0)
        assert t[0] == pytest.approx(0.25)

    def test_clamped_at_upper(self):
        t = thresholds_at(PRIOR, np.array([3.0]), 1.0)
        assert t[0] == pytest.approx(1.0)

    def test_lambda_zero_gives_upper(self):
        t = thresholds_at(PRIOR, np.array([0.5, 1.0]), 0.0)
        np.testing.assert_allclose(t, [1.0, 1.0])

    @given(eps_arrays, st.floats(min_value=0.01, max_value=100.0))
    def test_monotone_in_eps(self, eps, lam):
        t = thresholds_at(PRIOR, np.sort(eps), lam)
        assert np.all(np.diff(t) >= -1e-12)

    @given(eps_arrays)
    def test_antitone_in_lambda(self, eps):
        t1 = thresholds_at(PRIOR, eps, 0.5)
        t2 = thresholds_at(PRIOR, eps, 2.0)
        assert np.all(t2 <= t1 + 1e-12)


class TestExpectedSpend:
    def test_worked_example(self):
        t = thresholds_at(PRIOR, np.array([0.5, 1.0]), 1.0)
        np.testing.assert_allclose(t, [0.25, 0.5])
        assert expected_spend(PRIOR, t) == pytest.approx(0.3125)

    def test_saturated(self):
        assert expected_spend(PRIOR, np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_near_zero_lambda_cap(self):
        t = thresholds_at(PRIOR, np.array([0.5, 1.0]), 1e6)
        assert expected_spend(PRIOR, t) == pytest.approx(0.0, abs=1e-6)


class TestSolve:
    def test_two_owner_worked_example(self):
        tv = solve_threshold_system(PRIOR, np.array([0.5, 1.0]), 0.3125)
        np.testing.assert_allclose(tv.thresholds, [0.25, 0.5], atol=1e-6)
        assert tv.multiplier == pytest.approx(1.0, abs=1e-6)
        assert tv.expected_spend == pytest.approx(0.3125, abs=1e-9)

    def test_single_owner_sqrt_budget(self):
        tv = solve_threshold_system(PRIOR, np.array([0.8]), 0.09)
        assert tv.thresholds[0] == pytest.approx(0.3, abs=1e-6)

    def test_budget_saturation(self):
        # budget at or above the maximum spend puts every threshold at
        # the top of the support with a zero multiplier
        for budget in (2.0, 2.5):
            tv = solve_threshold_system(PRIOR, np.array([0.5, 1.0]), budget)
            np.testing.assert_allclose(tv.thresholds, [1.0, 1.0])
            assert tv.multiplier == 0.0
            assert tv.expected_spend == pytest.approx(2.0)

    def test_three_owner_full_budget(self):
        tv = solve_threshold_system(PRIOR, np.array([0.2, 0.5, 0.9]), 3.0)
        np.testing.assert_allclose(tv.thresholds, [1.0, 1.0, 1.0])

    def test_input_validation(self):
        with pytest.raises(InputError):
            solve_threshold_system(PRIOR, np.array([0.5]), 0.0)
        with pytest.raises(InputError):
            solve_threshold_system(PRIOR, np.array([0.5]), -1.0)
        with pytest.raises(InputError):
            solve_threshold_system(PRIOR, np.array([0.0, 0.5]), 0.3)
        with pytest.raises(InputError):
            solve_threshold_system(PRIOR, np.array([]), 0.3)

    @given(
        eps_arrays,
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_budget_binds(self, eps, frac):
        budget = frac * eps.size
        tv = solve_threshold_system(PRIOR, eps, budget)
        if budget < eps.size:
            assert abs(tv.expected_spend - budget) <= 1e-9 * max(1.0, budget)

    @given(eps_arrays, st.floats(min_value=0.05, max_value=0.9))
    def test_more_budget_never_lowers_thresholds(self, eps, frac):
        b1 = frac * eps.size
        b2 = min(1.1 * b1, eps.size)
        t1 = solve_threshold_system(PRIOR, eps, b1).thresholds
        t2 = solve_threshold_system(PRIOR, eps, b2).thresholds
        assert np.all(t2 >= t1 - 1e-7)

    @given(eps_arrays, st.floats(min_value=0.05, max_value=0.9))
    def test_higher_requirement_gets_higher_threshold(self, eps, frac):
        tv = solve_threshold_system(PRIOR, eps, frac * eps.size)
        order = np.argsort(eps)
        assert np.all(np.diff(tv.thresholds[order]) >= -1e-9)

    def test_complementary_slackness(self):
        eps = np.array([0.01, 0.5, 0.99])
        tv = solve_threshold_system(PRIOR, eps, 0.4)
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
        tv = solve_threshold_system(PRIOR, eps, budget)
        obj = expected_purchased_privacy(PRIOR, tv.thresholds, eps)
        assert obj >= best - 1e-9
        assert obj <= best + 1e-2

    def test_market_wrapper(self):
        # a market held as per-owner (data, valuation, eps) rows: the
        # solver takes the eps column as a plain sequence, in owner order
        owners = ((1.0, 0.2, 0.5), (0.0, 0.6, 1.0))
        tv = solve_threshold_system(PRIOR, [o[2] for o in owners], 0.3125)
        np.testing.assert_allclose(tv.thresholds, [0.25, 0.5], atol=1e-6)


class TestExactSolve:
    def test_path_follows_the_prior(self, monkeypatch):
        # the uniform prior's closed form evaluates the spend once; the
        # same cdf and pdf without it bisect
        calls = []

        def counting(prior, t):
            calls.append(prior.name)
            return expected_spend(prior, t)

        monkeypatch.setattr(thresholds, "expected_spend", counting)
        eps = np.array([0.2, 0.5, 0.9])
        assert isinstance(PRIOR, UniformPrior)
        solve_threshold_system(PRIOR, eps, 0.4)
        assert len(calls) == 1
        calls.clear()
        twin = bisection_twin(PRIOR)
        assert type(twin) is RegularPrior
        solve_threshold_system(twin, eps, 0.4)
        assert len(calls) > 1

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
        exact = solve_threshold_system(PRIOR, eps, budget)
        if budget < eps.size:
            assert abs(exact.expected_spend - budget) <= 1e-9 * max(1.0, budget)
        ref = solve_threshold_system(bisection_twin(PRIOR), eps, budget)
        # The bisection stops once its spend is within 1e-9 of the
        # budget, which can move a small interior threshold by more than
        # 1e-8.  Solving exactly for the spend it reached compares the
        # two paths on the same point of the water-filling curve.
        at_ref = solve_threshold_system(PRIOR, eps, ref.expected_spend)
        np.testing.assert_allclose(
            at_ref.thresholds, ref.thresholds, rtol=0.0, atol=1e-8
        )

    @given(wide_eps_arrays, st.floats(min_value=0.001, max_value=0.999))
    def test_budget_binds_over_wide_requirements(self, eps, frac):
        budget = frac * eps.size
        tv = solve_threshold_system(PRIOR, eps, budget)
        assert abs(tv.expected_spend - budget) <= 1e-9 * max(1.0, budget)
        assert np.all(np.diff(tv.thresholds[np.argsort(eps)]) >= 0.0)


class TestTinyRequirements:
    def test_tiny_equal_requirements(self):
        tv = solve_threshold_system(PRIOR, [1e-200, 1e-200], 0.3)
        np.testing.assert_allclose(tv.thresholds, [np.sqrt(0.15)] * 2, rtol=1e-12)
        assert tv.expected_spend == pytest.approx(0.3, rel=1e-12)

    def test_smallest_positive_requirement(self):
        # the population draw clamps requirements to 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tv = solve_threshold_system(PRIOR, [5e-324, 1.0], 0.5)
        assert np.all(np.isfinite(tv.thresholds))
        assert tv.thresholds[1] == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert tv.expected_spend == pytest.approx(0.5, rel=1e-12)


class TestBisectionPath:
    """A prior with no closed form: F(t) = t^2 on [0, 1], spend sum t^3."""

    @pytest.mark.parametrize(
        "eps, budget",
        [
            ([0.2, 0.5, 1.0], 0.05),
            ([0.3, 0.6, 3.0], 1.243),
            ([0.4, 0.4, 0.9, 5.0], 1.5),
            ([0.7], 0.2),
        ],
    )
    def test_budget_binds_at_the_closed_form(self, eps, budget):
        prior = square_cdf_prior()
        assert type(prior) is RegularPrior
        eps = np.array(eps)
        tv = solve_threshold_system(prior, eps, budget)
        assert abs(tv.expected_spend - budget) <= 1e-9 * max(1.0, budget)
        np.testing.assert_allclose(
            tv.thresholds,
            np.minimum(eps / (1.5 * tv.multiplier), 1.0),
            rtol=0.0,
            atol=1e-9,
        )

    def test_known_thresholds(self):
        prior = square_cdf_prior()
        # nobody saturates: t = c eps with c^3 sum(eps^3) = budget
        eps = np.array([0.2, 0.5, 1.0])
        c = (0.05 / np.sum(eps**3)) ** (1.0 / 3.0)
        tv = solve_threshold_system(prior, eps, 0.05)
        np.testing.assert_allclose(tv.thresholds, c * eps, rtol=0.0, atol=1e-8)
        # the third owner saturates: 1 + 0.3^3 + 0.6^3 = 1.243 at lam = 2/3
        tv = solve_threshold_system(prior, [0.3, 0.6, 3.0], 1.243)
        np.testing.assert_allclose(tv.thresholds, [0.3, 0.6, 1.0], rtol=0.0, atol=1e-8)
        assert tv.multiplier == pytest.approx(2.0 / 3.0, rel=1e-8)
