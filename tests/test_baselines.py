import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_median_sensitivity, loop_fq_select
from pdq.baselines import (
    fip_answer,
    fip_epsilon_assignment,
    fip_select_from_arrays,
    fq_count_answer,
    fq_median_answer,
    fq_select_from_arrays,
    median_replacement_sensitivity,
)
from pdq.errors import InputError
from pdq.procurement import ProcurementOutcome


def record_row(record, r):
    """Row r of a purchase record of rows, in the vector form."""
    return ProcurementOutcome(
        *(getattr(record, f.name)[r] for f in dataclasses.fields(record))
    )


class TestFqSelect:
    def test_plain_prefix(self):
        sel = fq_select_from_arrays(
            [0.1, 0.2, 0.3, 0.9], [2.0, 2.0, 2.0, 2.0], 0.5
        )
        assert sel.selected_indices.size == 3
        np.testing.assert_array_equal(np.sort(sel.selected_indices), [0, 1, 2])
        assert sel.levels == pytest.approx(1.0, abs=1e-12)
        # budget binds before the threshold price 0.45 / 1
        assert sel.payments[0] == pytest.approx(0.5 / 3, abs=1e-12)
        np.testing.assert_allclose(
            sel.payments, [0.5 / 3, 0.5 / 3, 0.5 / 3, 0.0]
        )

    def test_requirement_filter_shrinks_selection(self):
        # owner 0 is cheapest but tolerates far less than the 1/(n-k)
        # level the first pass would grant, so it is struck and the
        # selection recomputed over the remaining pool
        sel = fq_select_from_arrays(
            [0.001, 0.2, 0.3], [0.1, 2.0, 2.0], 0.25
        )
        assert sel.selected_indices.size == 1
        np.testing.assert_array_equal(sel.selected_indices, [1])
        assert sel.levels == pytest.approx(0.5, abs=1e-12)
        assert sel.payments[1] == pytest.approx(0.075, abs=1e-12)
        assert sel.payments[0] == 0.0
        assert sel.payments[2] == 0.0

    def test_empty_when_budget_too_small(self):
        sel = fq_select_from_arrays([5.0, 6.0], [1.0, 1.0], 0.1)
        assert sel.selected_indices.size == 0
        assert sel.selected_indices.size == 0
        assert sel.levels == pytest.approx(0.5)
        assert np.all(sel.payments == 0.0)

    def test_empty_on_zero_budget(self):
        sel = fq_select_from_arrays([0.1, 0.2], [1.0, 1.0], 0.0)
        assert sel.selected_indices.size == 0
        assert sel.levels == pytest.approx(0.5)

    def test_input_validation(self):
        with pytest.raises(InputError):
            fq_select_from_arrays([0.5], [1.0], 1.0)
        with pytest.raises(InputError):
            fq_select_from_arrays([0.5, 0.5], [1.0], 1.0)
        with pytest.raises(InputError):
            fq_select_from_arrays([0.5, 0.5], [1.0, 0.0], 1.0)

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf])
    def test_non_finite_budget_rejected(self, budget):
        # a NaN budget used to buy nobody, and an infinite one five of the
        # six owners for 1.5 in all
        valuations = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        with pytest.raises(InputError, match="budget must be finite"):
            fq_select_from_arrays(valuations, [2.0] * 6, budget)
        with pytest.raises(InputError, match="budget must be finite"):
            fq_select_from_arrays([valuations] * 2, [[2.0] * 6] * 2, budget)

    def test_tied_ratios_select_lower_index_first(self):
        # ratios (1/4, 1/8, 1/8, 1/8, 1/2), exact in binary: three owners
        # tie at 1/8 and the budget buys two of them, which must be the
        # two lowest indices, as the stable sort orders them
        sel = fq_select_from_arrays(
            [0.5, 0.125, 0.25, 0.375, 1.0], [2.0, 1.0, 2.0, 3.0, 2.0], 0.25
        )
        assert sel.selected_indices.size == 2
        np.testing.assert_array_equal(sel.selected_indices, [1, 2])

    @pytest.mark.parametrize("bad", [0, 2])
    def test_nan_valuation_rejected(self, bad):
        valuations = [0.1, 0.2, 0.3]
        valuations[bad] = float("nan")
        with pytest.raises(InputError, match=f"owner {bad}"):
            fq_select_from_arrays(valuations, [1.0, 1.0, 1.0], 1.0)

    def test_three_owner_trace(self):
        # v = (1/30, 1/15, 0.3); k = 2 is the cap n-1, at level 1/(3-2)
        # = 1, which every requirement of 3 tolerates; the price
        # v_3 / 1 = 0.3 exceeds B/k = 0.25, so the budget binds
        sel = fq_select_from_arrays([0.1, 0.2, 0.9], [3.0] * 3, 0.5)
        assert sel.selected_indices.size == 2
        np.testing.assert_array_equal(sel.selected_indices, [0, 1])
        assert sel.levels == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sel.payments, [0.25, 0.25, 0.0])

    @given(
        st.integers(2, 7),
        st.floats(0.05, 3.0),
        st.randoms(use_true_random=False),
    )
    def test_selected_owners_tolerate_level_and_budget_holds(
        self, n, budget, pyrandom
    ):
        valuations = [pyrandom.uniform(0.01, 1.0) for _ in range(n)]
        eps = [pyrandom.uniform(0.05, 3.0) for _ in range(n)]
        sel = fq_select_from_arrays(valuations, eps, budget)
        assert 0 <= sel.selected_indices.size <= n - 1
        assert sel.payments.sum() <= budget + 1e-9
        if sel.selected_indices.size:
            level = sel.levels[sel.selected_indices]
            assert np.all(np.asarray(eps)[sel.selected_indices] > level)


class TestFqSelectRows:
    @staticmethod
    def assert_rows_match_loop(theta, eps, budget):
        rows = fq_select_from_arrays(theta, eps, budget)
        assert len(rows.selected_indices) == len(theta)
        for r, (t, e) in enumerate(zip(theta, eps)):
            sel = record_row(rows, r)
            alone = loop_fq_select(t, e, budget)
            assert sel.selected_indices.size == alone.selected_indices.size
            # sellers are listed in index order, the loop's in ratio order
            np.testing.assert_array_equal(
                sel.selected_indices, np.sort(alone.selected_indices)
            )
            assert np.array_equal(sel.payments, alone.payments)
            assert np.all(sel.levels == alone.level)
            # a one-population call is the T = 1 case
            one = fq_select_from_arrays(t, e, budget)
            np.testing.assert_array_equal(one.selected_indices, sel.selected_indices)
            assert np.array_equal(one.payments, sel.payments)

    @pytest.mark.parametrize("frac", [0.001, 0.05, 0.3, 0.9, 2.0])
    def test_random_rows(self, rng, frac):
        n = 60
        self.assert_rows_match_loop(rng.random((8, n)), rng.random((8, n)), frac * n)

    @pytest.mark.parametrize("budget", [0.5, 3.0, 20.0])
    def test_rows_with_violators_and_ties(self, rng, budget):
        n = 30
        theta, eps = rng.random((6, n)), rng.random((6, n))
        # cheap owners whose requirement no noise level tolerates
        theta[0, :3], eps[0, :3] = 1e-6, 1e-3
        theta[1, ::4], eps[1, ::4] = 1e-4, 0.02
        # tied ratios, among the cheapest and throughout
        theta[2, :4], eps[2, :4] = 0.01, 0.5
        theta[3], eps[3] = np.repeat([0.1, 0.3, 0.2], n // 3), 0.5
        # both at once
        theta[4, :6], eps[4, :6] = 1e-5, np.array([1e-3, 1e-3, 0.9, 0.9, 0.9, 0.9])
        self.assert_rows_match_loop(theta, eps, budget)

    def test_two_owner_rows(self):
        theta = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]])
        eps = np.array([[3.0, 3.0], [1.0, 1.0], [0.5, 2.0]])
        for budget in (0.05, 0.5, 5.0):
            self.assert_rows_match_loop(theta, eps, budget)

    def test_infinite_ratios(self):
        # eps = 5e-324 makes theta / eps inf, a legitimate ratio that the
        # pool must keep apart from struck owners
        with np.errstate(over="ignore"):
            theta = np.array([
                [0.1, 0.5, 0.2, 0.3],  # inf is the threshold price
                [0.1, 0.5, 0.2, 0.3],  # two infs tie at the cut
                [0.5, 0.5, 0.5, 0.5],  # every ratio inf
                [1e-6, 0.5, 0.2, 0.3],  # a violator, then an inf price
            ])
            eps = np.array([
                [2.0, 5e-324, 2.0, 2.0],
                [2.0, 5e-324, 5e-324, 2.0],
                [5e-324] * 4,
                [1e-3, 5e-324, 2.0, 2.0],
            ])
            for budget in (0.2, 1.0, 3.0):
                self.assert_rows_match_loop(theta, eps, budget)
            inf_price = fq_select_from_arrays(theta[0], eps[0], 3.0)
            assert inf_price.selected_indices.size == 3
            # the price v_4 / 1 is inf, so the budget sets the payment
            assert inf_price.payments[0] == 1.0
        # infinite valuations make ratios of inf that the level tolerates;
        # the budget buys owners 3 and 0, owner 0 is struck, and the
        # second round, with an inf price, buys owner 3 alone
        theta = np.array([[0.1, np.inf, np.inf, 0.05]])
        eps = np.array([[1e-3, 2.0, 2.0, 2.0]])
        sel = fq_select_from_arrays(theta[0], eps[0], 200.0)
        np.testing.assert_array_equal(sel.selected_indices, [3])
        assert np.all(sel.levels == 1.0 / 3.0)
        self.assert_rows_match_loop(theta, eps, 200.0)

    def test_two_strike_rounds(self):
        # ratios (0.01, 0.02, 0.03, 1): the budget buys one owner, and
        # level 1/3 strikes owner 0, then owner 1, before owner 2 holds
        theta = np.array([[0.001, 0.002, 0.03, 1.0], [0.1, 0.2, 0.3, 0.9]])
        eps = np.array([[0.1, 0.1, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
        sel = fq_select_from_arrays(theta[0], eps[0], 0.035)
        assert sel.selected_indices.size == 1
        np.testing.assert_array_equal(sel.selected_indices, [2])
        assert np.all(sel.levels == 1.0 / 3.0)
        np.testing.assert_array_equal(sel.payments, [0.0, 0.0, 0.035, 0.0])
        # rows that need different numbers of rounds, side by side
        self.assert_rows_match_loop(theta, eps, 0.035)

    def test_rows_follow_the_loop_on_bad_input(self):
        theta = np.array([[0.1, 0.2, 0.3], [0.1, np.nan, 0.3]])
        with pytest.raises(InputError, match="row 1: owner 1's"):
            fq_select_from_arrays(theta, np.ones((2, 3)), 1.0)
        rows = fq_select_from_arrays(np.ones((2, 3)), np.ones((2, 3)), 0.0)
        assert [sel.size for sel in rows.selected_indices] == [0, 0]
        with pytest.raises(InputError, match=r"\(T, n\)"):
            fq_select_from_arrays(np.ones((2, 2, 3)), np.ones((2, 2, 3)), 1.0)
        with pytest.raises(InputError, match="one privacy requirement"):
            fq_select_from_arrays(np.ones((2, 3)), np.ones(3), 1.0)


class TestFqAnswers:
    def test_count_zero_noise(self, zero_noise_rng):
        got = fq_count_answer([1.0, 0.0, 1.0], 10, 3, zero_noise_rng)
        assert got == pytest.approx(2.0 + 3.5, abs=1e-12)

    def test_count_empty_selection(self, zero_noise_rng):
        assert fq_count_answer([], 10, 0, zero_noise_rng) == pytest.approx(5.0)

    def test_count_shape_mismatch(self, zero_noise_rng):
        with pytest.raises(InputError):
            fq_count_answer([1.0], 10, 2, zero_noise_rng)

    def test_count_noise_scale(self):
        rng = np.random.default_rng(7)
        draws = np.array(
            [fq_count_answer([1.0, 0.0], 12, 2, rng) for _ in range(8000)]
        )
        assert np.mean(draws) == pytest.approx(1.0 + 5.0, abs=0.5)
        assert np.std(draws) == pytest.approx(10.0 * np.sqrt(2.0), rel=0.08)

    def test_median_zero_noise(self, zero_noise_rng):
        got = fq_median_answer([3.0, 7.0, 9.0], 5, 3, (1, 20), zero_noise_rng)
        assert got == pytest.approx(7.0, abs=1e-12)

    def test_median_shape_mismatch(self, zero_noise_rng):
        with pytest.raises(InputError, match="expected 2 selected values, got 1"):
            fq_median_answer([3.0], 5, 2, (1, 20), zero_noise_rng)

    def test_median_without_data_is_midpoint(self, zero_noise_rng):
        assert fq_median_answer([], 5, 0, (1, 20), zero_noise_rng) == 10.5

    def test_median_without_data_noise_spans_domain(self):
        # nothing bought: noise for a median anywhere in [1, 20], n times
        got = fq_median_answer([], 5, 0, (1, 20), np.random.default_rng(3))
        want = 10.5 + np.random.default_rng(3).laplace(0.0, 19 * 5)
        assert got == want


class TestMedianSensitivity:
    def test_worked_example(self):
        assert median_replacement_sensitivity([3.0, 7.0, 9.0], (1, 20)) == 4.0

    def test_single_value(self):
        assert median_replacement_sensitivity([5.0], (1, 100)) == 95.0

    def test_ties_measure_to_nearest_other_value(self):
        # no value below 30 differs from it, so the shift runs to the
        # domain minimum; a single replacement would not move the median
        assert median_replacement_sensitivity([30, 30, 30, 40], (1, 120)) == 29.0
        assert median_replacement_sensitivity([10, 30, 30, 30], (1, 120)) == 90.0
        assert median_replacement_sensitivity([30, 30, 30, 30], (1, 120)) == 90.0

    def test_empty(self):
        with pytest.raises(InputError, match="of an empty dataset is undefined"):
            median_replacement_sensitivity([], (1, 10))

    @given(st.sets(st.integers(1, 12), min_size=1, max_size=5))
    def test_matches_full_scan(self, values):
        vals = sorted(values)
        got = median_replacement_sensitivity(vals, (1, 12))
        want = brute_median_sensitivity(vals, (1, 12))
        assert got == want

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    def test_ties_bound_full_scan(self, values):
        got = median_replacement_sensitivity(values, (1, 12))
        assert got >= brute_median_sensitivity(values, (1, 12))
        assert got > 0.0


class TestFipSelect:
    def test_prefix_trace(self):
        sel = fip_select_from_arrays(
            [0.3, 0.6, 0.9], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0], 0.25
        )
        assert sel.selected_indices.size == 1
        np.testing.assert_array_equal(sel.selected_indices, [0])
        # threshold rate 0.6 / 3 binds before the budget rate 0.25 / 1
        assert sel.payments[0] == pytest.approx(0.2, abs=1e-12)
        # the level each owner is granted is |w_i| over the unsold mass 3
        np.testing.assert_array_equal(
            sel.levels, fip_epsilon_assignment([1.0, 1.0, 2.0], [0])
        )

    def test_tied_ratios_select_lower_index_first(self):
        # ratios (1/2, 1/4, 1/4, 1/4, 1), exact in binary, and unit
        # weights: the budget buys two of the three owners tied at 1/4,
        # which must be the two lowest indices, as the stable sort orders
        # them
        sel = fip_select_from_arrays(
            [0.5, 0.25, 0.5, 0.75, 1.0], [1.0, 1.0, 2.0, 3.0, 1.0],
            np.ones(5), 0.2,
        )
        assert sel.selected_indices.size == 2
        np.testing.assert_array_equal(sel.selected_indices, [1, 2])

    def test_dominant_weight_bought_alone(self):
        sel = fip_select_from_arrays(
            [0.9, 0.1, 0.1], [1.0, 1.0, 1.0], [10.0, 1.0, 1.0], 0.5
        )
        assert sel.selected_indices.size == 1
        np.testing.assert_array_equal(sel.selected_indices, [0])
        assert sel.payments[0] == 0.5

    def test_dominant_weight_not_bought_without_budget(self):
        # no budget buys nothing, also when one owner's weight dominates;
        # a negative budget must never turn into a negative payment
        for budget in (0.0, -1.0):
            sel = fip_select_from_arrays(
                [0.9, 0.1, 0.1], [1.0, 1.0, 1.0], [10.0, 1.0, 1.0], budget
            )
            assert sel.selected_indices.size == 0
            assert sel.selected_indices.size == 0
            assert np.all(sel.payments == 0.0)

    def test_empty_when_too_expensive(self):
        sel = fip_select_from_arrays([5.0, 6.0], [1.0, 1.0], [1.0, 1.0], 0.1)
        assert sel.selected_indices.size == 0
        assert np.all(sel.payments == 0.0)

    def test_negative_weights_use_magnitudes(self):
        sel = fip_select_from_arrays(
            [0.3, 0.6, 0.9], [1.0, 1.0, 1.0], [-1.0, 1.0, -2.0], 0.25
        )
        assert sel.selected_indices.size == 1
        np.testing.assert_array_equal(sel.selected_indices, [0])
        assert sel.payments[0] == pytest.approx(0.2, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(InputError, match="at least two owners"):
            fip_select_from_arrays([0.1], [1.0], [1.0], 1.0)
        with pytest.raises(InputError, match="equal length"):
            fip_select_from_arrays([0.1, 0.2], [1.0], [1.0, 1.0], 1.0)
        with pytest.raises(InputError, match="equal length"):
            fip_select_from_arrays([0.1, 0.2], [1.0, 1.0], [1.0], 1.0)
        with pytest.raises(InputError, match="must be > 0"):
            fip_select_from_arrays([0.1, 0.2], [1.0, 0.0], [1.0, 1.0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # they used to give NaN levels
        with pytest.raises(InputError, match="weights must be finite"):
            fip_select_from_arrays([0.2, 0.5, 0.3], [0.5] * 3, [bad, 1.0, 0.5], 1.0)

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf])
    def test_non_finite_budget_rejected(self, budget):
        # a NaN budget used to buy nobody, and an infinite one five of the
        # six owners for 3.0 in all
        with pytest.raises(InputError, match="budget must be finite"):
            fip_select_from_arrays(
                [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [1.0] * 6, [1.0] * 6, budget
            )

    def test_zero_weight_rejected(self):
        with pytest.raises(InputError):
            fip_select_from_arrays([0.1, 0.2], [1.0, 1.0], [0.0, 1.0], 1.0)

    @pytest.mark.parametrize("column", ["valuations", "eps"])
    def test_nan_ratio_rejected(self, column):
        # a NaN ratio would sort last and leave owner 1 silently unbought
        cells = {"valuations": [0.1, 0.2, 0.3, 0.2], "eps": [1.0] * 4}
        cells[column][1] = float("nan")
        with pytest.raises(InputError, match="owner 1"):
            fip_select_from_arrays(cells["valuations"], cells["eps"], [1.0] * 4, 1.0)

    def test_two_owner_budget_below_price(self):
        # buying owner 0 alone costs at least v_1 W_sel / W_unsel = 0.3,
        # more than the budget of 0.25, so nobody is bought
        sel = fip_select_from_arrays([0.3, 0.6], [1.0, 1.0], [1.0, 1.0], 0.25)
        assert sel.selected_indices.size == 0
        assert sel.selected_indices.size == 0
        assert np.all(sel.payments == 0.0)

    @pytest.mark.parametrize("valuations, weights, budget, bought", [
        # the unsold mass after three owners rounds below 0
        ([0.38, 0.81, 0.33, 0.23], [0.7, 1e-17, 0.5, 0.6], 1.5, [2, 3]),
        # and here to exactly 0
        ([0.1, 0.1, 0.1, 0.9], [0.5, 0.3, 0.2, 1e-17], 3.0, [0, 1]),
    ])
    def test_unsold_mass_below_the_total_rounding(
        self, valuations, weights, budget, bought
    ):
        # selling every owner but a 1e-17 weight leaves a true price of
        # v / 1e-17, which no budget here meets; a computed mass of 0 or
        # below used to pay negative amounts or divide by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sel = fip_select_from_arrays(valuations, [1.0] * 4, weights, budget)
        np.testing.assert_array_equal(sel.selected_indices, bought)
        assert np.all(sel.payments >= 0.0)
        assert sel.payments.sum() <= budget

    @given(
        st.integers(2, 7),
        st.floats(0.05, 3.0),
        st.randoms(use_true_random=False),
    )
    def test_payments_within_budget(self, n, budget, pyrandom):
        valuations = [pyrandom.uniform(0.01, 1.0) for _ in range(n)]
        eps = [pyrandom.uniform(0.05, 3.0) for _ in range(n)]
        weights = [
            pyrandom.uniform(0.1, 2.0) * pyrandom.choice([-1, 1])
            for _ in range(n)
        ]
        sel = fip_select_from_arrays(valuations, eps, weights, budget)
        assert sel.payments.sum() <= budget + 1e-9
        assert np.all(sel.payments >= 0.0)
        unselected = np.setdiff1d(np.arange(n), sel.selected_indices)
        assert np.all(sel.payments[unselected] == 0.0)


def test_overflowing_ratios_are_values_not_warnings():
    # a requirement near the float floor makes theta / eps, k * v_k or a
    # fip price overflow to inf, which both selections rank after every
    # finite ratio, so they buy as if the owner were out of reach
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        divide = fq_select_from_arrays([0.5, 0.2, 0.3], [1e-310, 1.0, 0.5], 1.0)
        multiply = fq_select_from_arrays([1.0, 1.0, 1.0], [1e-308, 1e-308, 1.0], 1.0)
        fip_divide = fip_select_from_arrays(
            [0.5, 0.2, 0.3], [1e-310, 1.0, 0.5], [1.0, 0.5, -0.7], 1.0
        )
        fip_price = fip_select_from_arrays(
            [1.0, 1.0, 0.5], [1e-308, 1e-308, 1.0], [0.45, 0.45, 0.1], 1.0
        )
    np.testing.assert_array_equal(divide.selected_indices, [1])
    np.testing.assert_array_equal(divide.payments, [0.0, 0.3, 0.0])
    np.testing.assert_array_equal(multiply.selected_indices, [2])
    np.testing.assert_array_equal(multiply.payments, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(fip_divide.selected_indices, [1, 2])
    np.testing.assert_allclose(fip_divide.payments, [0.0, 0.5 / 1.2, 0.7 / 1.2])
    np.testing.assert_array_equal(fip_price.selected_indices, [2])
    np.testing.assert_array_equal(fip_price.payments, [0.0, 0.0, 1.0])


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: floats that agree to the last bit."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFipSelectRows:
    # exact binary ratios from few values, so rows hold tied ratios
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.sampled_from([0.125, 0.25, 0.5, 0.75]),
                             min_size=n, max_size=n),
                    min_size=1, max_size=4,
                ),
                st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n),
                st.lists(st.sampled_from([-2.0, -0.5, 0.25, 1.0, 3.0]),
                         min_size=n, max_size=n),
                st.integers(-1, n - 1),
            )
        ),
        st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0]),
    )
    def test_rows_match_one_population_calls(self, cells, budget):
        theta, eps_row, weights, dominant = cells
        theta = np.array(theta)
        # every row shares the weights; rows differ in their requirements
        eps = np.array([np.roll(eps_row, r) for r in range(len(theta))])
        weights = np.array(weights)
        if dominant >= 0:
            weights[dominant] = 100.0 * np.sign(weights[dominant])
        rows = fip_select_from_arrays(theta, eps, weights, budget)
        assert len(rows.selected_indices) == len(theta)
        for r in range(len(theta)):
            got = record_row(rows, r)
            one = fip_select_from_arrays(theta[r], eps[r], weights, budget)
            for field in dataclasses.fields(one):
                name = field.name
                assert same_bits(getattr(got, name), getattr(one, name)), name

    def test_nan_ratio_named_by_row_and_owner(self):
        theta = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, np.nan]])
        with pytest.raises(InputError, match="row 1: owner 2's"):
            fip_select_from_arrays(theta, np.ones((2, 3)), np.ones(3), 1.0)
        cube = np.ones((2, 2, 3))
        with pytest.raises(InputError, match=r"\(T, n\)"):
            fip_select_from_arrays(cube, cube, np.ones(3), 1.0)
        # the rows share one vector of weights
        with pytest.raises(InputError, match="equal length"):
            fip_select_from_arrays(cube[0], cube[0], cube[0], 1.0)


class TestFipAssignmentAndAnswer:
    def test_assignment_worked_example(self):
        got = fip_epsilon_assignment([0.5, 0.3, 0.2], [0])
        np.testing.assert_array_equal(got, [1.0, 0.6, 0.4])

    def test_assignment_negative_weights(self):
        got = fip_epsilon_assignment([-0.5, 0.3, -0.2], [0])
        np.testing.assert_array_equal(got, [1.0, 0.6, 0.4])

    def test_assignment_needs_unselected_mass(self):
        with pytest.raises(InputError):
            fip_epsilon_assignment([0.5, 0.5], [0, 1])

    def test_answer_zero_noise(self, zero_noise_rng):
        got = fip_answer([1.0, 2.0], [0.5, -1.0], [2.0], (0.0, 4.0), zero_noise_rng)
        assert got == pytest.approx(-1.5 + 4.0, abs=1e-12)

    def test_answer_empty_selection(self, zero_noise_rng):
        got = fip_answer([], [], [1.0, 1.0], (0.0, 2.0), zero_noise_rng)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_answer_shape_mismatch(self, zero_noise_rng):
        with pytest.raises(InputError):
            fip_answer([1.0], [0.5, 0.5], [1.0], (0.0, 1.0), zero_noise_rng)

    def test_answer_noise_scale(self):
        rng = np.random.default_rng(11)
        draws = np.array(
            [
                fip_answer([1.0], [1.0], [0.5], (0.0, 2.0), rng)
                for _ in range(8000)
            ]
        )
        assert np.mean(draws) == pytest.approx(1.0 + 0.5, abs=0.05)
        assert np.std(draws) == pytest.approx(1.0 * np.sqrt(2.0), rel=0.08)
