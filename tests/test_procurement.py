import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdq.errors import InputError
from pdq.procurement import allocate_and_pay
from pdq.thresholds import expected_spend, solve_threshold_system


def _utility(bid, valuation, threshold):
    """An owner's realized utility from one posted-threshold round."""
    out = allocate_and_pay(np.array([bid]), np.array([threshold]), np.array([1.0]))
    return float(out.payments[0] - valuation * out.allocation[0])


class TestAllocateAndPay:
    def test_worked_example(self):
        out = allocate_and_pay(
            np.array([0.3, 0.7]), np.array([0.5, 0.5]), np.array([0.4, 0.9])
        )
        np.testing.assert_array_equal(out.allocation, [True, False])
        np.testing.assert_allclose(out.payments, [0.5, 0.0])
        np.testing.assert_array_equal(out.selected_indices, [0])
        assert out.total_paid == pytest.approx(0.5)
        assert out.purchased_privacy == pytest.approx(0.4)

    def test_tie_is_selected(self):
        out = allocate_and_pay(np.array([0.5]), np.array([0.5]), np.array([1.0]))
        assert out.allocation[0]
        assert out.payments[0] == pytest.approx(0.5)

    def test_nobody_selected(self):
        out = allocate_and_pay(np.array([0.9]), np.array([0.2]), np.array([1.0]))
        assert out.selected_indices.size == 0
        assert out.total_paid == 0.0
        assert out.purchased_privacy == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            allocate_and_pay(np.array([0.1, 0.2]), np.array([0.5]), np.array([1.0]))
        with pytest.raises(InputError):
            allocate_and_pay(np.array([0.1]), np.array([0.5]), np.array([1.0, 2.0]))

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.floats(0.0, 1.0),
    )
    def test_payment_iff_selected(self, bids, threshold):
        bids = np.array(bids)
        out = allocate_and_pay(bids, np.full(bids.size, threshold), np.ones(bids.size))
        assert np.all((out.payments > 0.0) == (out.allocation & (threshold > 0)))
        assert np.all(out.payments[out.allocation] == threshold)


class TestAllocateRows:
    def test_rows_match_one_population_at_a_time(self, rng):
        bids, eps = rng.random((5, 40)), rng.random((5, 40))
        tv = solve_threshold_system(eps, 12.0)
        rows = allocate_and_pay(bids, tv.thresholds, eps)
        for r in range(5):
            alone = allocate_and_pay(
                bids[r], solve_threshold_system(eps[r], 12.0).thresholds, eps[r]
            )
            np.testing.assert_array_equal(rows.allocation[r], alone.allocation)
            assert np.array_equal(rows.payments[r], alone.payments)
            np.testing.assert_array_equal(
                rows.selected_indices[r], alone.selected_indices
            )
            assert rows.total_paid[r] == alone.total_paid
            assert rows.purchased_privacy[r] == alone.purchased_privacy


class TestExpectedPayment:
    def test_uniform(self):
        assert expected_spend([0.5]) == pytest.approx(0.25)
        assert expected_spend([0.0]) == pytest.approx(0.0)

    def test_interim_payment_sums_to_budget(self):
        eps = np.array([0.3, 0.6, 0.9])
        budget = 0.7
        tv = solve_threshold_system(eps, budget)
        total = expected_spend(tv.thresholds)
        assert total == pytest.approx(budget, abs=1e-8)


class TestExpectedUtility:
    def test_worked_example(self):
        assert _utility(0.4, 0.6, 0.5) == pytest.approx(-0.1)

    def test_truthful_nonnegative(self):
        assert _utility(0.3, 0.3, 0.5) == pytest.approx(0.2)
        assert _utility(0.8, 0.8, 0.5) == 0.0

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_truthful_dominates_misreport(self, theta, psi, threshold):
        truthful = _utility(theta, theta, threshold)
        assert truthful >= _utility(psi, theta, threshold) - 1e-12
        assert truthful >= 0.0
