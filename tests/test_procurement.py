import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdq.baselines import (
    fip_epsilon_assignment,
    fip_select_from_arrays,
    fq_select_from_arrays,
)
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


class TestPurchaseRecord:
    """Invariants every mechanism's record keeps, on vectors and on rows."""

    @staticmethod
    def purchases(rng, n, rows, budget):
        theta, eps = rng.random((rows, n)), 0.05 + rng.random((rows, n))
        weights = rng.uniform(-1.0, 1.0, n)
        thresholds = solve_threshold_system(eps, budget).thresholds
        records = {
            "smq": allocate_and_pay(theta, thresholds, eps),
            "fq": fq_select_from_arrays(theta, eps, budget),
            "fip": fip_select_from_arrays(theta, eps, weights, budget),
        }
        vectors = {
            "smq": allocate_and_pay(theta[0], thresholds[0], eps[0]),
            "fq": fq_select_from_arrays(theta[0], eps[0], budget),
            "fip": fip_select_from_arrays(theta[0], eps[0], weights, budget),
        }
        return records, vectors

    @staticmethod
    def check_row(mech, allocation, payments, levels, sel, total, purchased):
        n = allocation.size
        np.testing.assert_array_equal(sel, np.flatnonzero(allocation))
        assert np.all(payments[~allocation] == 0.0)
        assert float(total).hex() == float(payments.sum()).hex()
        if mech == "fq":
            level = 1.0 / (n - sel.size)
            assert np.all(levels == level)
            assert float(purchased).hex() == float(sel.size * level).hex()
        else:
            assert float(purchased).hex() == float(levels[sel].sum()).hex()

    @pytest.mark.parametrize("frac", [0.02, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [2, 7, 60])
    def test_invariants(self, rng, n, frac):
        records, vectors = self.purchases(rng, n, 5, frac * n)
        for mech, rec in records.items():
            assert rec.allocation.shape == rec.payments.shape == (5, n)
            assert rec.levels.shape == (5, n)
            for row in zip(
                rec.allocation, rec.payments, rec.levels, rec.selected_indices,
                rec.total_paid, rec.purchased_privacy,
            ):
                self.check_row(mech, *row)
        for mech, rec in vectors.items():
            assert rec.allocation.shape == rec.levels.shape == (n,)
            self.check_row(
                mech, rec.allocation, rec.payments, rec.levels,
                rec.selected_indices, rec.total_paid, rec.purchased_privacy,
            )

    def test_levels(self):
        # smq grants each owner its requirement; fq's levels are one
        # read-only view of 1/(n-k); fip's are its noise calibration
        theta = np.array([[0.1, 0.2, 0.9, 0.8]])
        eps = np.array([[0.5, 1.0, 2.0, 1.0]])
        weights = np.array([0.5, -0.25, 1.0, 0.5])
        smq = allocate_and_pay(theta, np.full((1, 4), 0.5), eps)
        np.testing.assert_array_equal(smq.levels, eps)
        fq = fq_select_from_arrays(theta, eps, 1.0)
        assert not fq.levels.flags.writeable
        assert np.all(fq.levels == 1.0 / (4 - fq.selected_indices[0].size))
        fip = fip_select_from_arrays(theta, eps, weights, 0.4)
        np.testing.assert_array_equal(
            fip.levels[0], fip_epsilon_assignment(weights, fip.selected_indices[0])
        )
