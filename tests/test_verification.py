import dataclasses
import math

import numpy as np
import pytest

from pdq import verification
from pdq.errors import InputError
from pdq.private_query import (
    COUNT,
    LINEAR,
    MEDIAN,
    OutputDistribution,
    QuerySpec,
    SampledDataset,
    _feasible_softmax,
)
from pdq.procurement import allocate_and_pay
from pdq.suites import SUITE_SEED, _pdp_samples, icir_battery
from pdq.thresholds import solve_threshold_system
from pdq.verification import (
    check_ic_ir,
    check_interim_budget,
    check_pac_privacy_bound,
    pac_privacy_lower_bound,
    pac_radius,
    verify_pdp,
)

COUNT_Q = QuerySpec(COUNT, (0.0, 1.0))


class TestVerifyPdp:
    def test_single_entry_ratio(self):
        s = SampledDataset(COUNT_Q, np.array([1.0]), np.array([0.5]), 1)
        report = verify_pdp(s, [0.0, 1.0])
        assert report.per_index_max_log_ratio[0] == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_array_equal(report.required, [0.5])
        assert report.passed

    def test_requirement_scales_with_eps(self):
        # the score function uses the entry's own requirement, so a
        # tighter requirement also tightens the achieved ratio
        tighter = SampledDataset(COUNT_Q, np.array([1.0]), np.array([0.1]), 1)
        report = verify_pdp(tighter, [0.0, 1.0])
        assert report.per_index_max_log_ratio[0] == pytest.approx(0.05, abs=1e-12)
        assert report.passed

    def test_negative_slack_can_fail_the_comparison(self):
        s = SampledDataset(COUNT_Q, np.array([1.0]), np.array([0.5]), 1)
        assert verify_pdp(s, [0.0, 1.0], slack=-0.2).passed
        assert not verify_pdp(s, [0.0, 1.0], slack=-0.3).passed

    def test_count_pair(self):
        s = SampledDataset(COUNT_Q, np.array([1.0, 0.0]), np.array([0.5, 1.0]), 2)
        report = verify_pdp(s, [0.0, 1.0])
        assert report.passed
        assert np.all(report.per_index_max_log_ratio > 0.0)
        assert np.all(report.per_index_max_log_ratio <= s.eps + 1e-9)

    def test_median_checks_neighbors_that_tie(self):
        # the only replacement value, 5, makes entry 0 a copy of entry 1,
        # so every ratio entry 0 records comes from a tied neighbour
        q = QuerySpec(MEDIAN, (1, 9))
        s = SampledDataset(q, np.array([1.0, 5.0]), np.array([0.4, 0.4]), 2)
        report = verify_pdp(s, [5.0])
        assert report.per_index_max_log_ratio[0] > 0.0
        assert report.passed
        # a sample that already repeats a value, against every neighbour
        tied = SampledDataset(
            q, np.array([5.0, 2.0, 5.0]), np.array([0.3, 0.6, 0.4]), 3
        )
        report = verify_pdp(tied, np.arange(1, 10))
        assert np.all(report.per_index_max_log_ratio > 0.0)
        assert report.passed

    def test_domain_that_compares_nothing_is_rejected(self):
        # no neighbour at all, or only neighbours equal to every entry,
        # would leave every ratio 0 and the check passed vacuously
        median = SampledDataset(
            QuerySpec(MEDIAN, (1, 15)), np.array([2.0, 7.0, 12.0]), np.full(3, 0.5), 3
        )
        ones = SampledDataset(COUNT_Q, np.ones(3), np.full(3, 0.5), 3)
        for sampled, domain in ((median, []), (ones, [1]), (ones, [1.0, 1.0])):
            with pytest.raises(InputError, match="^neighbor_domain must hold a value"):
                verify_pdp(sampled, domain)
        # a second value gives every entry a neighbour to compare with
        assert verify_pdp(ones, [0, 1]).passed

    def test_size_cap(self):
        s = SampledDataset(COUNT_Q, np.ones(9), np.full(9, 0.5), 9)
        with pytest.raises(InputError):
            verify_pdp(s, [0.0, 1.0])

    def test_half_softmax_rejects_all_infeasible(self):
        # the verifier normalises with the sampler's own step
        with pytest.raises(InputError, match="every candidate answer is unreachable"):
            _feasible_softmax(np.array([-np.inf, -np.inf]))


def _flagged_kinds():
    """Query kinds with at least one pdp battery sample that verify_pdp
    fails; a kind is not checked again once one of its samples fails."""
    flagged = set()
    for sampled, neighbors in _pdp_samples(np.random.default_rng(SUITE_SEED)):
        kind = sampled.query.kind
        if kind not in flagged and not verify_pdp(sampled, neighbors).passed:
            flagged.add(kind)
    return flagged


class TestVerifyPdpNegativeControls:
    """Known-broken samplers, patched into the names verify_pdp scores
    with, must fail on the pdp battery's own samples of every kind."""

    def test_weights_exp_score_are_flagged(self, monkeypatch):
        # exp(score) instead of exp(score/2) doubles every log-ratio
        monkeypatch.setattr(
            verification, "_feasible_softmax", lambda s: _feasible_softmax(2.0 * s)
        )
        assert _flagged_kinds() == {COUNT, MEDIAN, LINEAR}

    def test_tripled_scores_are_flagged(self, monkeypatch):
        scores = verification.modification_scores
        monkeypatch.setattr(
            verification, "modification_scores", lambda s, t: 3.0 * scores(s, t)
        )
        assert _flagged_kinds() == {COUNT, MEDIAN, LINEAR}


def _pay_the_bid(bids, thresholds, eps):
    bought = allocate_and_pay(bids, thresholds, eps)
    return dataclasses.replace(bought, payments=bids * bought.allocation)


def _pay_half_the_threshold(bids, thresholds, eps):
    bought = allocate_and_pay(bids, thresholds, eps)
    return dataclasses.replace(bought, payments=bought.payments / 2.0)


class TestIcIrNegativeControls:
    """Broken posted-price rules, patched into the name check_ic_ir buys
    with, must fail it and the icir battery; the shipped rule passes."""

    def test_paying_the_bid_is_flagged(self, monkeypatch):
        assert check_ic_ir([0.5, 1.0], 0.3).passed
        monkeypatch.setattr(verification, "allocate_and_pay", _pay_the_bid)
        report = check_ic_ir([0.5, 1.0], 0.3)
        # the owner with threshold 0.4899 who values the data at 0 gains
        # most by bidding the highest grid point that still sells, 0.48
        assert report.worst_ic_violation == pytest.approx(0.48, abs=1e-12)
        assert report.worst_ir_violation <= 1e-12
        assert not report.passed
        assert not icir_battery()[0][1]

    def test_paying_half_the_threshold_is_flagged(self, monkeypatch):
        assert check_ic_ir([0.5, 1.0], 0.3).passed
        monkeypatch.setattr(verification, "allocate_and_pay", _pay_half_the_threshold)
        report = check_ic_ir([0.5, 1.0], 0.3)
        # a seller valuing the data at 0.48 is paid 0.4899 / 2
        assert report.worst_ir_violation == pytest.approx(
            0.48 - report.thresholds.thresholds[1] / 2.0, abs=1e-12
        )
        assert not report.passed
        assert not icir_battery()[0][1]


def three_point_dist():
    reported = np.array([0.0, 1.0, 2.0])
    return OutputDistribution(
        candidates=reported.copy(),
        reported=reported,
        probabilities=np.array([0.5, 0.3, 0.2]),
    )


class TestPacRadius:
    def test_worked_example(self):
        dist = three_point_dist()
        assert pac_radius(dist, 0.0, 0.6) == 1.0
        assert pac_radius(dist, 0.0, 0.5) == 0.0
        assert pac_radius(dist, 0.0, 0.9) == 2.0

    def test_truth_between_candidates(self):
        dist = three_point_dist()
        # distances from 0.9: [0.9, 0.1, 1.1]; nearest mass 0.3, then 0.8
        assert pac_radius(dist, 0.9, 0.7) == pytest.approx(0.9)

    def test_delta_validation(self):
        dist = three_point_dist()
        with pytest.raises(InputError):
            pac_radius(dist, 0.0, 0.0)
        with pytest.raises(InputError):
            pac_radius(dist, 0.0, 1.0)


class TestPacLowerBound:
    def test_worked_example(self):
        got = pac_privacy_lower_bound(100, 25, 0.9)
        assert got == pytest.approx(math.log(9.0), abs=1e-12)

    def test_scaling_in_alpha(self):
        assert pac_privacy_lower_bound(100, 5, 0.75) == pytest.approx(
            5.0 * pac_privacy_lower_bound(100, 25, 0.75)
        )

    def test_preconditions(self):
        with pytest.raises(InputError):
            pac_privacy_lower_bound(100, 0, 0.9)
        with pytest.raises(InputError):
            pac_privacy_lower_bound(100, 26, 0.9)
        with pytest.raises(InputError):
            pac_privacy_lower_bound(100, 25, 1.0)


class TestPacBoundCheck:
    def test_vacuous_for_tiny_population(self):
        s = SampledDataset(COUNT_Q, np.array([1.0]), np.array([0.5]), 1)
        report = check_pac_privacy_bound(s, truth=1.0, delta=0.9)
        assert not report.applicable
        assert report.bound is None
        assert report.passed

    def test_applicable_case(self):
        s = SampledDataset(COUNT_Q, np.ones(5), np.full(5, 3.0), 40)
        report = check_pac_privacy_bound(s, truth=40.0, delta=0.9)
        assert report.applicable
        assert report.radius == pytest.approx(8.0)
        assert report.alpha == 9
        assert report.bound == pytest.approx((40.0 / 36.0) * math.log(9.0))
        assert report.purchased_privacy == pytest.approx(15.0)
        assert report.passed


class TestIcIr:
    def test_uniform_market_clean(self):
        report = check_ic_ir([0.5, 1.0], 0.3)
        assert report.worst_ic_violation <= 1e-12
        assert report.worst_ir_violation <= 1e-12
        assert report.passed
        assert report.thresholds.thresholds.shape == (2,)


class TestInterimBudget:
    def test_seeded_pass(self):
        tv = solve_threshold_system([0.5, 1.0], 0.3)
        rng = np.random.default_rng(20240601)
        report = check_interim_budget(tv, draws=20000, rng=rng)
        assert report.passed
        assert report.expected == pytest.approx(0.3, abs=1e-6)
        assert abs(report.mc_mean - report.expected) <= 3.0 * report.stderr
        assert 0.0 <= report.exceedance_rate <= 1.0

    def test_needs_two_draws(self):
        tv = solve_threshold_system([0.5], 0.2)
        with pytest.raises(InputError):
            check_interim_budget(tv, draws=1, rng=np.random.default_rng(0))
