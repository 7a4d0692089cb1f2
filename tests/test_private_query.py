import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_count_cost,
    brute_fractional_linear_cost,
    brute_linear_cost,
    brute_median_cost,
    full_softmax,
    loop_median_score_table,
    loop_pop_sums,
    searchsorted_median_costs,
    sorted_count_cost,
)
from pdq.errors import DegenerateScalingError, InputError
from pdq.private_query import (
    COUNT,
    LINEAR,
    MEDIAN,
    OutputDistribution,
    QuerySpec,
    SampledDataset,
    _ZERO_WEIGHT_COST,
    _feasible_softmax,
    _median_law,
    _median_score_table,
    _running_pop_sums,
    candidate_outputs,
    eval_query,
    modification_scores,
    output_distribution,
    output_distributions,
    sample_laplace,
    sample_output,
)

COUNT_Q = QuerySpec(COUNT, (0.0, 1.0))
MEDIAN_Q = QuerySpec(MEDIAN, (1, 100))
LINEAR_Q = QuerySpec(LINEAR, (0.0, 1.0))


def count_sample(values, eps, full_n=None):
    values = np.asarray(values, dtype=float)
    return SampledDataset(
        COUNT_Q, values, np.asarray(eps, float), full_n or values.size
    )


def median_sample(values, eps, query=MEDIAN_Q):
    values = np.asarray(values, dtype=float)
    return SampledDataset(query, values, np.asarray(eps, float), values.size)


def linear_sample_with_nan():
    w = np.array([1.0, 2.0])
    return SampledDataset(LINEAR_Q, np.array([0.5, math.nan]),
                          np.array([0.3, 0.6]), 2,
                          weights=w, full_weight_sum=float(w.sum()))


def linear_sample(query, values, weights, eps):
    return SampledDataset(query, values, eps, values.size, weights=weights,
                          full_weight_sum=float(weights.sum()))


def random_linear_instance(rng, k, domain):
    """Values in the domain, a quarter of them at one end, and signed
    weights and requirements in the ranges the other linear tests use."""
    lo, hi = domain
    values = rng.uniform(lo, hi, k)
    ends = rng.random(k) < 0.25
    values[ends] = rng.choice((lo, hi), int(ends.sum()))
    weights = rng.uniform(0.2, 2.0, k) * rng.choice((-1.0, 1.0), k)
    eps = rng.uniform(0.05, 1.0, k)
    return values, weights, eps


class TestSampledDataset:
    def test_empty_rejected(self):
        with pytest.raises(InputError, match="no owners were selected"):
            SampledDataset(COUNT_Q, np.array([]), np.array([]), 0)

    def test_shape_and_eps_validation(self):
        with pytest.raises(InputError):
            SampledDataset(COUNT_Q, np.array([1.0]), np.array([0.5, 0.5]), 2)
        with pytest.raises(InputError):
            SampledDataset(COUNT_Q, np.array([1.0]), np.array([0.0]), 1)
        with pytest.raises(InputError):
            SampledDataset(COUNT_Q, np.array([1.0]), np.array([np.nan]), 1)
        with pytest.raises(InputError):
            SampledDataset(COUNT_Q, np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1)

    def test_values_checked_against_query(self):
        # a sample that exists holds values its query accepts, so the
        # answer steps never see one that does not
        for query, values, message in (
            (COUNT_Q, [1.0, 0.5], "count queries need binary"),
            (MEDIAN_Q, [0.0, 5.0], "median data values must lie in"),
            (MEDIAN_Q, [1.5, 5.0], "median queries need integer data values"),
        ):
            with pytest.raises(InputError, match=message):
                SampledDataset(query, np.array(values), np.array([0.5, 0.5]), 2)
        # repeated integers are median data like any other
        s = SampledDataset(MEDIAN_Q, np.array([5.0, 5.0]), np.array([0.5, 0.5]), 2)
        assert s.k == 2

    def test_weights_shape(self):
        with pytest.raises(InputError):
            SampledDataset(
                LINEAR_Q, np.array([1.0]), np.array([0.5]), 1,
                weights=np.array([1.0, 2.0]), full_weight_sum=3.0,
            )

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf])
    def test_full_weight_sum_must_be_finite(self, total):
        # a non-finite population mass would scale every answer to nan/inf
        with pytest.raises(InputError, match="weight sum"):
            SampledDataset(
                LINEAR_Q, np.array([0.5]), np.array([0.5]), 1,
                weights=np.array([1.0]), full_weight_sum=total,
            )


class TestEvalQuery:
    def test_count(self):
        assert eval_query(COUNT_Q, [1.0, 0.0, 1.0]) == 2.0

    def test_median_lower_middle(self):
        assert eval_query(MEDIAN_Q, [1.0, 5.0, 9.0]) == 5.0
        assert eval_query(MEDIAN_Q, [1.0, 5.0, 9.0, 12.0]) == 5.0

    def test_linear(self):
        q = QuerySpec(LINEAR, (0.0, 5.0))
        assert eval_query(q, [2.0, 3.0], weights=[0.5, -1.0]) == -2.0

    def test_count_domain_check(self):
        with pytest.raises(InputError, match="count queries need binary"):
            eval_query(COUNT_Q, [0.5])

    def test_median_domain_checks(self):
        with pytest.raises(InputError, match="need integer data values"):
            eval_query(MEDIAN_Q, [1.5])
        with pytest.raises(InputError, match="median data values must lie in"):
            eval_query(MEDIAN_Q, [0.0])
        with pytest.raises(InputError, match="median data values must lie in"):
            eval_query(MEDIAN_Q, [101.0])
        assert eval_query(MEDIAN_Q, [9.0, 5.0, 5.0]) == 5.0
        with pytest.raises(InputError, match="domain with lower bound >= 1"):
            eval_query(QuerySpec(MEDIAN, (0, 10)), [5.0])

    def test_linear_domain_and_weights(self):
        q = QuerySpec(LINEAR, (0.0, 1.0))
        with pytest.raises(InputError, match="linear data values must lie in"):
            eval_query(q, [2.0], weights=[1.0])
        with pytest.raises(InputError):
            eval_query(q, [0.5])
        with pytest.raises(InputError):
            eval_query(q, [0.5], weights=[1.0, 2.0])

    def test_linear_nan_value_rejected(self):
        q = QuerySpec(LINEAR, (0.0, 1.0))
        with pytest.raises(InputError, match="linear data values must be finite"):
            eval_query(q, [0.5, math.nan], weights=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_linear_non_finite_weight_rejected(self, bad):
        with pytest.raises(InputError, match="weights must be finite"):
            eval_query(LINEAR_Q, [0.5, 0.5], weights=[bad, 1.0])


class TestCandidates:
    def test_count_scaling(self):
        s = count_sample([1.0, 0.0], [0.5, 1.0], full_n=4)
        targets, reported = candidate_outputs(s)
        np.testing.assert_allclose(targets, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(reported, [0.0, 2.0, 4.0])

    def test_median_candidates(self):
        s = median_sample([1.0, 5.0, 9.0], [0.2, 0.3, 0.4])
        targets, reported = candidate_outputs(s)
        np.testing.assert_array_equal(targets, reported)
        for needed in (1.0, 3.0, 5.0, 7.0, 9.0):
            assert needed in targets
        assert targets.size <= 2 * 3 + 1
        assert np.all(targets == np.floor(targets))
        assert np.all((targets >= 1) & (targets <= 100))
        # a repeated value is one candidate, and the zero gaps between
        # its copies hold no midpoint
        s = median_sample([5.0, 9.0, 5.0, 1.0, 5.0], np.full(5, 0.5))
        targets, _ = candidate_outputs(s)
        np.testing.assert_array_equal(targets, [1.0, 3.0, 5.0, 7.0, 9.0, 55.0])

    def test_median_candidates_match_a_set_reference(self):
        # repeats anywhere, the domain ends included, and samples with none
        rng = np.random.default_rng(77)
        lo, hi = 1, 40
        for _ in range(300):
            k = int(rng.integers(1, 30))
            values = rng.integers(lo, hi + 1, size=k).astype(float)
            s = median_sample(values, np.full(k, 0.5), QuerySpec(MEDIAN, (lo, hi)))
            bounds = [lo - 1] + sorted(set(int(v) for v in values)) + [hi + 1]
            want = set(bounds[1:-1]) | {
                (a + b) // 2 for a, b in zip(bounds, bounds[1:]) if b - a >= 2
            }
            targets, _ = candidate_outputs(s)
            np.testing.assert_array_equal(targets, sorted(want))

    def test_median_candidates_tight_domain(self):
        q = QuerySpec(MEDIAN, (1, 3))
        s = SampledDataset(q, np.array([1.0, 2.0, 3.0]), np.full(3, 0.5), 3)
        targets, _ = candidate_outputs(s)
        np.testing.assert_array_equal(np.sort(targets), [1.0, 2.0, 3.0])

    def test_linear_grid_contains_truth_and_respects_reach(self):
        q = QuerySpec(LINEAR, (0.0, 1.0))
        w = np.array([1.0, -2.0])
        v = np.array([0.5, 0.25])
        s = SampledDataset(q, v, np.array([0.3, 0.6]), 2, weights=w,
                           full_weight_sum=float(w.sum()))
        targets, reported = candidate_outputs(s)
        raw = float(w @ v)
        assert targets.min() <= raw <= targets.max()
        assert targets.size == 201
        # reachable interval: each entry can move its term across its range
        assert targets.min() == 0.0 + (-2.0)
        assert targets.max() == 1.0 + 0.0
        # population weight mass equals the sampled mass, so no rescaling
        np.testing.assert_allclose(reported, targets)

    def test_linear_grid_ignores_the_values(self):
        # neighbouring datasets must share one output range; moving any
        # one value to either domain end leaves the grid's bytes as they are
        rng = np.random.default_rng(21)
        lo, hi = -1.5, 2.5
        q = QuerySpec(LINEAR, (lo, hi))
        for _ in range(50):
            k = int(rng.integers(1, 12))
            v, w, eps = random_linear_instance(rng, k, (lo, hi))
            if abs(w.sum()) < 0.1:
                continue
            grid = candidate_outputs(linear_sample(q, v, w, eps))[0]
            for j in range(k):
                for end in (lo, hi):
                    moved = v.copy()
                    moved[j] = end
                    other = candidate_outputs(linear_sample(q, moved, w, eps))[0]
                    assert other.tobytes() == grid.tobytes()

    def test_linear_degenerate_scaling(self):
        q = QuerySpec(LINEAR, (0.0, 1.0))
        w = np.array([1.0, -1.0])
        s = SampledDataset(q, np.array([0.5, 0.5]), np.array([0.3, 0.6]), 2,
                           weights=w, full_weight_sum=0.5)
        with pytest.raises(DegenerateScalingError):
            candidate_outputs(s)

    def test_linear_missing_weights(self):
        # a linear sample cannot be built without its weights and the
        # population weight sum, so no answer step ever sees one
        with pytest.raises(InputError):
            SampledDataset(LINEAR_Q, np.array([0.5]), np.array([0.3]), 1)
        with pytest.raises(InputError):
            SampledDataset(LINEAR_Q, np.array([0.5]), np.array([0.3]), 1,
                           weights=np.array([1.0]))

    def test_linear_nan_value_rejected(self):
        with pytest.raises(InputError, match="linear data values must be finite"):
            linear_sample_with_nan()


class TestModificationScores:
    def test_count_worked_example(self):
        s = count_sample([1.0, 0.0], [0.5, 1.0])
        scores = modification_scores(s, np.array([1.0, 0.0, 2.0]))
        np.testing.assert_allclose(scores, [0.0, -0.5, -1.0])

    def test_count_infeasible_target(self):
        s = count_sample([1.0, 0.0], [0.5, 1.0])
        scores = modification_scores(s, np.array([3.0, -1.0, 0.5]))
        assert np.all(np.isneginf(scores))

    def test_count_scores_match_sorted_sums(self, rng):
        # bit for bit, with tied and 5e-324 requirements, and targets
        # that are out of range, fractional or NaN
        for _ in range(300):
            k = int(rng.integers(1, 30))
            values = (rng.random(k) < rng.random()).astype(float)
            eps = rng.random(k)
            eps[rng.random(k) < 0.3] = 0.25
            eps[rng.random(k) < 0.2] = 5e-324
            targets = np.concatenate([
                np.arange(-1.0, k + 2.0), rng.uniform(-1.0, k + 1.0, 3),
                [np.nan, np.inf, -np.inf],
            ])
            scores = modification_scores(count_sample(values, eps), targets)
            for t, got in zip(targets, scores):
                assert -got == sorted_count_cost(values, eps, t), t

    def test_median_worked_example(self):
        s = median_sample([1.0, 5.0, 9.0], [0.2, 0.3, 0.4])
        scores = modification_scores(s, [5.0, 9.0, 2.0])
        np.testing.assert_allclose(scores, [0.0, -0.2, -0.3])
        # with 5 twice, a median of 9 or 7 lifts the cheaper 5, and a
        # median of 3 needs both 5s brought down
        s = median_sample([5.0, 9.0, 5.0], [0.3, 0.4, 0.2])
        scores = modification_scores(s, [5.0, 9.0, 7.0, 3.0])
        np.testing.assert_allclose(scores, [0.0, -0.2, -0.2, -0.5])

    def test_median_infeasible_when_domain_lacks_room(self):
        # only targets outside the domain are unreachable: with domain
        # {1..3} and values {1,2,3}, a median of 3 lifts one entry onto
        # the 3 already there, and a median of 1 pulls one down onto 1
        q = QuerySpec(MEDIAN, (1, 3))
        s = SampledDataset(q, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.2, 0.4]), 3)
        scores = modification_scores(s, [0.0, 1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(scores[1:4], [-0.2, 0.0, -0.2])
        assert np.isneginf(scores[0]) and np.isneginf(scores[4])

    def test_linear_worked_example(self):
        q = QuerySpec(LINEAR, (0.0, 5.0))
        w = np.array([0.5, -1.0])
        s = SampledDataset(q, np.array([2.0, 3.0]), np.array([0.3, 0.7]), 2,
                           weights=w, full_weight_sum=float(w.sum()))
        scores = modification_scores(s, [-2.0, 0.0, np.inf, -np.inf, np.nan])
        assert scores[0] == 0.0
        # moving the sum up by 2: the first entry gives headroom 1.5 at
        # 0.2 per unit, the second 3 at 0.7/3 per unit, so the first
        # changes whole (0.3) and the second by a sixth of its headroom
        assert scores[1] == pytest.approx(-(0.3 + 0.7 / 6))
        # no modification reaches an infinite or a NaN target
        assert np.all(np.isneginf(scores[2:]))

    def test_linear_nan_value_rejected(self):
        with pytest.raises(InputError, match="linear data values must be finite"):
            linear_sample_with_nan()

    def test_linear_scores_independent_of_target_order(self):
        # each side's entries are sorted once per sample and reused for
        # every target on that side; scoring targets in any order, or one
        # at a time, must give the same bits.  Zero weights make entries
        # with no headroom, an entry at each domain end has none on one
        # side, and the targets include raw itself and points beyond both
        # reaches.
        lo, hi = 0.0, 2.0
        values = np.array([0.0, 2.0, 0.5, 1.5, 1.0, 0.25, 1.75, 0.8])
        weights = np.array([1.2, -0.7, 0.0, 0.9, -1.4, 0.0, 0.6, -0.3])
        eps = np.array([0.9, 0.15, 0.4, 0.7, 0.25, 0.6, 0.35, 0.8])
        q = QuerySpec(LINEAR, (lo, hi))
        s = SampledDataset(q, values, eps, values.size, weights=weights,
                           full_weight_sum=float(weights.sum()))
        raw = float(weights @ values)
        up = sum(w * (hi - v) if w > 0 else -w * (v - lo)
                 for w, v in zip(weights, values))
        down = sum(w * (v - lo) if w > 0 else -w * (hi - v)
                   for w, v in zip(weights, values))
        fracs = (0.1, 0.35, 0.5, 0.8, 0.95, 1.2)
        ups = [raw + f * up for f in fracs]
        downs = [raw - f * down for f in fracs]
        targets = np.array([raw] + ups + downs)

        together = modification_scores(s, targets)
        singly = np.array([modification_scores(s, [t])[0] for t in targets])
        reversed_ = modification_scores(s, targets[::-1])[::-1]
        interleaved_targets = [t for pair in zip(downs, ups) for t in pair] + [raw]
        interleaved = dict(
            zip(interleaved_targets,
                modification_scores(s, interleaved_targets))
        )
        assert together[0] == 0.0
        assert np.isneginf(together[-1]) and np.isneginf(together[len(ups)])
        for i, t in enumerate(targets):
            assert singly[i] == together[i], t
            assert reversed_[i] == together[i], t
            assert interleaved[t] == together[i], t
            want = brute_fractional_linear_cost(values, weights, eps, (lo, hi), t)
            if math.isinf(want):
                assert np.isneginf(together[i]), t
            else:
                assert together[i] == pytest.approx(-want, abs=1e-9), t

    def test_scores_nonpositive_and_zero_at_truth(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            values = rng.integers(0, 2, k).astype(float)
            s = count_sample(values, rng.uniform(0.1, 1.0, k))
            targets, _ = candidate_outputs(s)
            scores = modification_scores(s, targets)
            assert np.all(scores <= 0.0)
            assert scores[targets == values.sum()] == 0.0


@st.composite
def count_instance(draw):
    k = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    eps = draw(
        st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)
    )
    return np.array(values, dtype=float), np.array(eps)


@st.composite
def median_instance(draw):
    k = draw(st.integers(1, 5))
    values = draw(
        st.lists(st.integers(1, 12), min_size=k, max_size=k, unique=True)
    )
    eps = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    return np.array(sorted(values), dtype=float), np.array(eps)


class TestScoresAgainstBruteForce:
    @given(count_instance())
    def test_count_oracle(self, inst):
        values, eps = inst
        s = count_sample(values, eps)
        targets = np.arange(-1, values.size + 2, dtype=float)
        scores = modification_scores(s, targets)
        for t, got in zip(targets, scores):
            want = brute_count_cost(values, eps, t)
            if math.isinf(want):
                assert np.isneginf(got)
            else:
                assert got == pytest.approx(-want, abs=1e-9)

    @given(median_instance())
    def test_median_oracle(self, inst):
        values, eps = inst
        s = median_sample(values, eps, QuerySpec(MEDIAN, (1, 12)))
        targets = np.arange(0, 14, dtype=float)
        scores = modification_scores(s, targets)
        for t, got in zip(targets, scores):
            want = brute_median_cost(values, eps, (1, 12), t)
            if math.isinf(want):
                assert np.isneginf(got), (values, eps, t)
            else:
                assert got == pytest.approx(-want, abs=1e-9), (values, eps, t)

    def test_median_oracle_with_ties(self):
        # every instance repeats at least one value; targets 0 and 10
        # lie outside the domain
        rng = np.random.default_rng(1306)
        domain = (1, 9)
        targets = np.arange(0, 11, dtype=float)
        instances = 0
        while instances < 500:
            k = int(rng.integers(2, 8))
            values = rng.integers(1, 7, size=k).astype(float)
            if np.unique(values).size == k:
                continue
            instances += 1
            eps = 0.05 + 0.95 * rng.random(k)
            s = median_sample(values, eps, QuerySpec(MEDIAN, domain))
            scores = modification_scores(s, targets)
            for t, got in zip(targets, scores):
                want = brute_median_cost(values, eps, domain, t)
                if math.isinf(want):
                    assert np.isneginf(got), (values, eps, t)
                else:
                    assert got == pytest.approx(-want, abs=1e-9), (values, eps, t)

    @settings(max_examples=40)
    @given(
        st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    def test_linear_oracle(self, k, pyrandom):
        # offsets sit at fixed fractions of the directional reach so no
        # target lands inside the float-tolerance band around a
        # feasibility boundary, where the two implementations may
        # legitimately classify it differently
        lo, hi = 0.0, 4.0
        grid = np.linspace(lo, hi, 5)
        values = np.array([pyrandom.choice(list(grid)) for _ in range(k)])
        weights = np.array(
            [pyrandom.uniform(0.2, 2.0) * pyrandom.choice([-1, 1]) for _ in range(k)]
        )
        eps = np.array([pyrandom.uniform(0.05, 1.0) for _ in range(k)])
        q = QuerySpec(LINEAR, (lo, hi))
        s = SampledDataset(q, values, eps, k, weights=weights,
                           full_weight_sum=float(weights.sum()))
        raw = float(weights @ values)
        up_sum = float(
            sum(w * (hi - v) if w > 0 else -w * (v - lo)
                for w, v in zip(weights, values))
        )
        down_sum = float(
            sum(w * (v - lo) if w > 0 else -w * (hi - v)
                for w, v in zip(weights, values))
        )
        fracs = [0.1, 0.35, pyrandom.uniform(0.45, 0.55), 0.8, 0.95, 1.2]
        offsets = [0.0]
        offsets += [f * up_sum for f in fracs if up_sum > 0.0]
        offsets += [-f * down_sum for f in fracs if down_sum > 0.0]
        targets = raw + np.array(offsets)
        scores = modification_scores(s, targets)
        for t, got in zip(targets, scores):
            want = brute_fractional_linear_cost(values, weights, eps, (lo, hi), t)
            if math.isinf(want):
                assert np.isneginf(got), (values, weights, eps, t)
            else:
                assert got == pytest.approx(-want, abs=1e-9), (
                    values, weights, eps, t,
                )


class TestFractionalLinearCost:
    """Properties of the fractional (LP) modification cost of a linear
    target, checked against routes that share no code with it."""

    DOMAIN = (0.0, 4.0)

    @classmethod
    def headroom(cls, values, weights):
        """How far each entry's term w_i d_i can move up and down."""
        lo, hi = cls.DOMAIN
        pos = weights > 0
        up = np.where(pos, weights * (hi - values), -weights * (values - lo))
        down = np.where(pos, weights * (values - lo), -weights * (hi - values))
        return up, down

    @classmethod
    def side_targets(cls, values, weights, fracs):
        """Targets at fixed fractions of each side's total headroom."""
        up, down = cls.headroom(values, weights)
        fracs = np.array(fracs)
        offsets = np.concatenate([fracs * up.sum(), -fracs * down.sum()])
        return float(weights @ values) + offsets

    def test_matches_linprog(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(41)
        q = QuerySpec(LINEAR, self.DOMAIN)
        checked = 0
        for _ in range(60):
            k = int(rng.integers(1, 21))
            values, weights, eps = random_linear_instance(rng, k, self.DOMAIN)
            s = linear_sample(q, values, weights, eps)
            raw = float(weights @ values)
            up, down = self.headroom(values, weights)
            targets = self.side_targets(
                values, weights, (0.05, 0.3, 0.5, 0.77, 0.99, 1.2)
            )
            for t, got in zip(targets, modification_scores(s, targets)):
                caps = up if t > raw else down
                # min eps @ x  subject to  caps @ x >= |t - raw|, 0 <= x <= 1
                res = linprog(eps, A_ub=[-caps], b_ub=[-abs(t - raw)],
                              bounds=(0.0, 1.0), method="highs")
                if res.status == 2:
                    assert np.isneginf(got), (values, weights, eps, t)
                else:
                    assert res.status == 0
                    assert got == pytest.approx(-res.fun, abs=1e-9), (
                        values, weights, eps, t,
                    )
                    checked += 1
        assert checked > 500

    def test_within_one_requirement_of_the_integral_cost(self):
        # the relaxation never costs more than the whole-entry optimum,
        # and less by under the largest requirement: the one entry it
        # takes in part
        rng = np.random.default_rng(42)
        q = QuerySpec(LINEAR, self.DOMAIN)
        for _ in range(80):
            k = int(rng.integers(1, 8))
            values, weights, eps = random_linear_instance(rng, k, self.DOMAIN)
            s = linear_sample(q, values, weights, eps)
            targets = self.side_targets(values, weights, (0.1, 0.35, 0.5, 0.8, 0.95))
            for t, got in zip(targets, modification_scores(s, targets)):
                integral = brute_linear_cost(values, weights, eps, self.DOMAIN, t)
                assert math.isfinite(integral) and math.isfinite(got)
                assert -got <= integral + 1e-12, (values, weights, eps, t)
                assert integral - eps.max() < -got, (values, weights, eps, t)

    def test_one_owner_moves_each_score_by_at_most_its_requirement(self):
        # the exponential mechanism's per-owner guarantee: on the grid
        # that neighbours share, replacing entry j moves every score by
        # at most eps_j
        rng = np.random.default_rng(43)
        lo, hi = self.DOMAIN
        q = QuerySpec(LINEAR, self.DOMAIN)
        for _ in range(400):
            k = int(rng.integers(1, 41))
            values, weights, eps = random_linear_instance(rng, k, self.DOMAIN)
            if abs(weights.sum()) < 1e-3:
                continue
            j = int(rng.integers(k))
            moved = values.copy()
            moved[j] = rng.choice((lo, hi, rng.uniform(lo, hi)))
            s = linear_sample(q, values, weights, eps)
            s_moved = linear_sample(q, moved, weights, eps)
            grid = candidate_outputs(s)[0]
            assert grid.tobytes() == candidate_outputs(s_moved)[0].tobytes()
            a = modification_scores(s, grid)
            b = modification_scores(s_moved, grid)
            # the grid is the reachable range, so every point scores
            assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
            assert np.max(np.abs(a - b)) <= eps[j] + 1e-9, (values, moved, j)

    @pytest.mark.parametrize("sign, end", [(1.0, 1.0), (-1.0, 0.0)])
    def test_side_without_headroom(self, sign, end):
        # every value sits at the end its weight pushes towards, so no
        # entry can raise the sum: targets above it are unreachable, bar
        # one inside the reach tolerance, and the other side still scores
        q = QuerySpec(LINEAR, (0.0, 1.0))
        values = np.full(3, end)
        weights = sign * np.array([1.0, 2.0, 0.5])
        eps = np.array([0.3, 0.7, 0.4])
        s = linear_sample(q, values, weights, eps)
        raw = float(weights @ values)
        scores = modification_scores(s, [raw, raw + 1e-10, raw + 0.5, raw - 0.5])
        assert scores[0] == 0.0 and scores[1] == 0.0
        assert np.isneginf(scores[2])
        # half of the first entry's headroom, the cheapest per unit
        assert scores[3] == pytest.approx(-0.5 * 0.3)
        dist = output_distribution(s)
        assert dist.candidates.max() == pytest.approx(raw)
        assert dist.probabilities.sum() == pytest.approx(1.0)


def assert_stops_at_the_bound(eps):
    """Each table equals the two-loop table up to its own length, which
    is where the loop's entries first reach the bound before the feed
    stops; the loop's entries from the stop on reach the bound too."""
    med = (eps.size - 1) // 2
    steps = int(np.searchsorted(np.cumsum(np.sort(eps)), _ZERO_WEIGHT_COST))
    got = _median_score_table(eps, med)
    for g, w in zip(got, loop_median_score_table(eps, med)):
        assert g.dtype == w.dtype
        assert g.size == np.searchsorted(w[:steps], _ZERO_WEIGHT_COST), eps
        assert g.tobytes() == w[:g.size].tobytes(), eps
        assert (w[steps:] >= _ZERO_WEIGHT_COST).all()


class TestMedianScoreTable:
    """The heap-driven table must give the two-loop table's exact bytes."""

    @staticmethod
    def assert_same_bytes(eps):
        eps = np.asarray(eps, dtype=float)
        med = (eps.size - 1) // 2
        got = _median_score_table(eps, med)
        want = loop_median_score_table(eps, med)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes(), eps

    @pytest.mark.parametrize("eps", [[0.3], [0.3, 0.1], [0.2, 0.9, 0.05]])
    def test_smallest_tables(self, eps):
        self.assert_same_bytes(eps)

    def test_random_sizes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            self.assert_same_bytes(rng.random(int(rng.integers(1, 201))))

    def test_tied_requirements(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(1, 201))
            self.assert_same_bytes(rng.choice([0.1, 0.25, 0.7], size=k))

    def test_requirements_spanning_300_decades(self):
        # running totals add values hundreds of orders of magnitude
        # apart, where any change in the order of additions shows
        rng = np.random.default_rng(13)
        for _ in range(100):
            k = int(rng.integers(1, 201))
            self.assert_same_bytes(10.0 ** rng.uniform(-300.0, 0.0, size=k))

    def test_cut_value_on_both_sides_of_the_pool(self):
        # the middle half shares one requirement, so each table's cut is
        # that value; entries 0, med and k-1 hold it, so it lies in the
        # pool and in the feed of both tables
        rng = np.random.default_rng(14)
        for _ in range(100):
            k = int(rng.integers(8, 201))
            med = (k - 1) // 2
            q = k // 4
            rest = np.concatenate([
                rng.uniform(0.01, 0.4, q), rng.uniform(0.6, 1.0, q),
                np.full(k - 2 * q - 3, 0.5),
            ])
            rng.shuffle(rest)
            eps = np.full(k, 0.5)
            eps[1:med] = rest[:med - 1]
            eps[med + 1:k - 1] = rest[med - 1:]
            ranked = np.sort(eps)
            assert ranked[k - med - 1] == ranked[med] == 0.5
            self.assert_same_bytes(eps)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 50, 51])
    def test_all_requirements_equal(self, k):
        self.assert_same_bytes(np.full(k, 0.3))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_order_of_small_samples(self, k):
        for eps in itertools.product((0.1, 0.2, 0.3), repeat=k):
            self.assert_same_bytes(eps)

    def test_five_thousand_entries(self):
        rng = np.random.default_rng(15)
        self.assert_same_bytes(rng.random(5001))
        self.assert_same_bytes(rng.choice([0.1, 0.25, 0.7], size=5000))

    def test_ties_at_the_stopped_feed_cut(self):
        # a feed stopped after `steps` pops cuts its pool at the steps-th
        # smallest entry of the pool and the fed head together; with three
        # tied requirements, that entry is tied in the pool and in the head
        rng = np.random.default_rng(16)
        tied_cuts = 0
        for _ in range(300):
            k = int(rng.integers(20, 301))
            eps = rng.choice([0.1, 0.25, 0.7], k)
            eps *= _ZERO_WEIGHT_COST / (rng.uniform(0.005, 0.1) * eps.sum())
            med = (k - 1) // 2
            steps = int(np.searchsorted(np.cumsum(np.sort(eps)), _ZERO_WEIGHT_COST))
            for pool, feed in ((eps[:med], eps[med:]), (eps[med + 1:], eps[med::-1])):
                head = feed[:steps]
                if 0 < head.size < feed.size:
                    cut = np.sort(np.concatenate((pool, head)))[head.size - 1]
                    tied_cuts += bool(cut in pool and cut in head)
            assert_stops_at_the_bound(eps)
        assert tied_cuts > 200


class TestRunningPopSums:
    """The cut heap must give a plain heappushpop loop's exact bytes at
    every stop of the feed, not only at the tables' own."""

    @staticmethod
    def assert_every_stop(pool, feed):
        for steps in range(feed.size + 1):
            got = _running_pop_sums(pool, feed, steps)
            want = loop_pop_sums(pool, feed, steps)
            assert got.dtype == want.dtype, (pool, feed, steps)
            assert got.tobytes() == want.tobytes(), (pool, feed, steps)

    @pytest.mark.parametrize("draw", [
        lambda rng, n: rng.random(n),
        lambda rng, n: rng.choice([0.1, 0.25, 0.7], n),
        lambda rng, n: 10.0 ** rng.uniform(-300.0, 0.0, n),
    ], ids=["uniform", "tied", "300_decades"])
    def test_matches_the_loop_at_every_stop(self, draw):
        rng = np.random.default_rng(17)
        for _ in range(60):
            pool = draw(rng, int(rng.integers(0, 41)))
            self.assert_every_stop(pool, draw(rng, int(rng.integers(1, 41))))


def tied_median_samples(seed, count):
    """Median samples of 1 to 40 entries that repeat values: on domains
    [1, 2], [1, 3] and [1, 40], drawn from a few distinct values that
    often include lo or hi, sometimes one value only, and with tied
    requirements half the time."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lo, hi = ((1, 2), (1, 3), (1, 40))[int(rng.integers(3))]
        k = int(rng.integers(1, 41))
        distinct = rng.choice(np.arange(lo, hi + 1), int(rng.integers(1, min(k, 6) + 1)))
        if rng.random() < 0.5:
            distinct[0] = rng.choice((lo, hi))
        values = rng.choice(distinct, k).astype(float)
        if rng.random() < 0.5:
            eps = rng.choice([0.1, 0.25, 0.7], k)
        else:
            eps = rng.uniform(0.05, 1.0, k)
        yield QuerySpec(MEDIAN, (lo, hi)), values, eps


class TestMedianLaw:
    """The sampler, ``candidate_outputs`` and ``modification_scores`` read
    one set of median slots, so they agree with each other and with the
    two rank searches the slots replace."""

    def test_sampler_draws_the_scores_of_the_candidates(self):
        for query, values, eps in tied_median_samples(21, 400):
            s = median_sample(values, eps, query)
            dist = output_distribution(s)
            targets, reported = candidate_outputs(s)
            keep, probs = _feasible_softmax(modification_scores(s, targets))
            assert keep.all(), (values, eps)
            for got, want in ((dist.candidates, targets), (dist.reported, reported),
                              (dist.probabilities, probs)):
                assert got.tobytes() == want.tobytes(), (values, eps)

    def test_scores_match_the_searchsorted_oracle(self):
        for query, values, eps in tied_median_samples(22, 400):
            lo, hi = query.data_domain
            targets = np.concatenate([
                np.arange(lo, hi + 1, dtype=float),
                [lo - 1, hi + 1, lo + 0.5, hi - 0.5, (lo + hi) / 2 + 0.25,
                 np.inf, -np.inf, np.nan],
            ])
            got = -modification_scores(median_sample(values, eps, query), targets)
            want = searchsorted_median_costs(values, eps, query.data_domain, targets)
            assert got.tobytes() == want.tobytes(), (values, eps)

    def test_gaps_without_an_integer_are_dropped(self):
        # on {1..3} with values {1, 2, 3}, none of the four gaps around the
        # values holds an integer, so only the values are candidates
        q = QuerySpec(MEDIAN, (1, 3))
        s = SampledDataset(q, np.array([1.0, 2.0, 3.0]), np.full(3, 0.5), 3)
        slots, costs, lead, layout = _median_law(s.values, s.eps, q.data_domain)
        # the window is the whole law, which opens on the gap below 1 and
        # has three finite slots
        assert lead == 0 and layout == (0, 3)
        np.testing.assert_array_equal(slots[1::2], [1.0, 2.0, 3.0])
        assert np.isposinf(costs[0::2]).all() and np.isfinite(costs[1::2]).all()
        dist = output_distribution(s)
        np.testing.assert_array_equal(dist.candidates, [1.0, 2.0, 3.0])
        assert np.all(dist.probabilities > 0.0)


class TestZeroWeightStop:
    """The median tables stop feeding the heap once every later entry is
    at least ``_ZERO_WEIGHT_COST``, whose weight is exactly 0.0, and read
    the bound there.  The law is built over its window, the slots that
    cost less than the bound, and keeps the whole law's bytes there."""

    def test_bound_has_zero_weight(self):
        assert np.exp(-_ZERO_WEIGHT_COST / 2) == 0.0

    @staticmethod
    def crossing_samples(seed, count):
        """Median samples of 4k to 20k entries with eps in [0.5, 1], so
        the costs pass the bound: values tied on a small domain or spread
        on a large one, requirements tied half the time."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            k = int(rng.integers(4000, 20001))
            hi = int(rng.choice([10, 300, 100_000]))
            values = rng.integers(1, hi + 1, k).astype(float)
            if rng.random() < 0.5:
                eps = rng.choice([0.5, 0.75, 1.0], k)
            else:
                eps = rng.uniform(0.5, 1.0, k)
            yield QuerySpec(MEDIAN, (1, hi)), values, eps

    @classmethod
    def window_samples(cls, seed):
        """The crossing samples, then 300 small tied samples whose
        requirements are scaled so that the bound falls anywhere from
        below the least entry to past the whole sum: windows of the
        median's run alone, open on one side or both, or the whole law."""
        yield from cls.crossing_samples(seed, 12)
        rng = np.random.default_rng(seed)
        for query, values, eps in tied_median_samples(seed, 300):
            eps *= _ZERO_WEIGHT_COST / (rng.uniform(0.0, 1.2) * eps.sum())
            yield query, values, eps

    def test_law_keeps_the_exact_scores_bytes(self):
        # the law's candidates are the slots whose exact cost is below the
        # bound, with the probabilities of the law over every slot, and
        # that law gives every other slot 0.0
        shapes = set()
        for query, values, eps in self.window_samples(31):
            dist = output_distribution(median_sample(values, eps, query))
            slots, exact, probs = full_softmax(values, eps, query.data_domain)
            live = exact < _ZERO_WEIGHT_COST
            # (cut below, cut above, the median's run alone)
            shapes.add((not live[0], not live[-1], live.sum() == 1))
            assert dist.candidates.tobytes() == slots[live].tobytes(), (values, eps)
            assert dist.probabilities.tobytes() == probs[live].tobytes(), (values, eps)
            assert (probs[~live] == 0.0).all()
        assert {(False, False, False), (True, False, False), (False, True, False),
                (True, True, False), (True, True, True)} <= shapes

    def test_scores_read_the_bound_past_it(self):
        # over every integer of the domain, a target below the bound keeps
        # its exact cost and every other one reads the bound, whether its
        # slot lies outside the window or its table entry was filled
        moved = 0
        for query, values, eps in self.window_samples(32):
            s = median_sample(values, eps, query)
            lo, hi = query.data_domain
            targets = np.arange(lo, hi + 1, dtype=float)
            costs = -modification_scores(s, targets)
            exact = searchsorted_median_costs(values, eps, query.data_domain, targets)
            live = exact < _ZERO_WEIGHT_COST
            assert costs[live].tobytes() == exact[live].tobytes(), (values, eps)
            assert (costs[~live] == _ZERO_WEIGHT_COST).all(), (values, eps)
            moved += (costs != exact).any()
            # the candidates score the law's costs
            _, law_costs, *_ = _median_law(values, eps, query.data_domain)
            targets, _ = candidate_outputs(s)
            assert (-modification_scores(s, targets)).tobytes() == (
                law_costs[np.isfinite(law_costs)].tobytes()
            )
        assert moved > 50

    def test_tables_hold_only_live_costs(self):
        # the tables end where the costs reach the bound, before the
        # crossing samples' full lengths
        for *_, eps in self.crossing_samples(31, 12):
            med = (eps.size - 1) // 2
            cost_up, cost_dn = _median_score_table(eps, med)
            assert (cost_up < _ZERO_WEIGHT_COST).all()
            assert (cost_dn < _ZERO_WEIGHT_COST).all()
            assert cost_up.size < eps.size - med and cost_dn.size < med + 1

    def test_tables_stop_where_the_smallest_sum_reaches_the_bound(self):
        rng = np.random.default_rng(32)
        for *_, eps in self.crossing_samples(33, 4):
            assert_stops_at_the_bound(eps)
        # small tables, scaled so that the bound lies anywhere from below
        # the least entry to past the whole sum: the feed stops anywhere
        # from its first step on or never
        for _ in range(300):
            k = int(rng.integers(1, 201))
            if rng.random() < 0.5:
                eps = rng.choice([0.1, 0.25, 0.7], k)
            else:
                eps = rng.random(k)
            eps *= _ZERO_WEIGHT_COST / (rng.uniform(0.0, 1.2) * eps.sum())
            assert_stops_at_the_bound(eps)


class TestOutputDistribution:
    def test_worked_probabilities(self):
        s = count_sample([1.0, 0.0], [0.5, 1.0])
        dist = output_distribution(s)
        np.testing.assert_allclose(
            dist.probabilities, [0.3265, 0.4192, 0.2543], atol=5e-5
        )
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_truth_has_highest_probability(self):
        s = median_sample([1.0, 5.0, 9.0], [0.2, 0.3, 0.4])
        dist = output_distribution(s)
        best = dist.candidates[np.argmax(dist.probabilities)]
        assert best == 5.0

    def test_median_sample_larger_than_domain(self):
        # 60 values on 5 integers with lower median 2: moved entries may
        # tie, so every integer in the domain is a scored candidate
        values = np.repeat([1.0, 2.0, 2.0, 4.0, 5.0], 12)
        s = median_sample(values, np.full(60, 0.5), QuerySpec(MEDIAN, (1, 5)))
        dist = output_distribution(s)
        np.testing.assert_array_equal(dist.candidates, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert dist.candidates[np.argmax(dist.probabilities)] == 2.0

    def test_infeasible_candidates_dropped(self, monkeypatch):
        # every count candidate is reachable, so add one past the sample
        # size; medians drop their slots in TestMedianLaw
        import pdq.private_query as pq

        listed = pq.candidate_outputs

        def with_outside(sampled):
            targets, reported = listed(sampled)
            return np.append(targets, 4.0), np.append(reported, 4.0)

        monkeypatch.setattr(pq, "candidate_outputs", with_outside)
        dist = output_distribution(count_sample([1.0, 0.0, 1.0], np.full(3, 0.5)))
        np.testing.assert_array_equal(dist.candidates, [0.0, 1.0, 2.0, 3.0])

    def test_sampling_follows_distribution(self):
        s = count_sample([1.0, 0.0], [0.5, 1.0])
        dist = output_distribution(s)
        rng = np.random.default_rng(0)
        draws = np.array([sample_output(dist, rng) for _ in range(4000)])
        freq = [np.mean(draws == r) for r in dist.reported]
        np.testing.assert_allclose(freq, dist.probabilities, atol=0.03)

    def test_a_uniform_past_the_cdf_draws_a_positive_answer(self):
        # the CDF ends below 1, so a uniform at its last grid point lies
        # past it: the draw is the first answer at which the CDF reaches
        # its end, not the last answer, whose probability is 0.0
        class Top:
            def random(self):
                return 1.0 - 2.0 ** -53

        dist = OutputDistribution(
            np.arange(5.0), np.arange(5.0), np.array([0.6, 0.3, 0.0999999999, 0.0, 0.0])
        )
        assert np.cumsum(dist.probabilities)[-1] < Top().random()
        assert sample_output(dist, Top()) == 2.0
        # a median law of 5000 entries on a large domain: its CDF ends at
        # 1 - 2^-53, and its last candidates weigh 0.0; those after 51938
        # are too light to move the CDF
        rng = np.random.default_rng(3)
        k = 5000
        values = rng.integers(1, 100_001, k).astype(float)
        eps = rng.uniform(0.5, 1.0, k)
        dist = output_distribution(
            median_sample(values, eps, QuerySpec(MEDIAN, (1, 100_000)))
        )
        assert np.cumsum(dist.probabilities)[-1] == 1.0 - 2.0 ** -53
        assert dist.probabilities[-1] == 0.0
        cdf = np.cumsum(dist.probabilities)
        drawn = sample_output(dist, Top())
        assert drawn == dist.reported[np.argmax(cdf == cdf[-1])] == 51938.0
        assert dist.probabilities[dist.reported == drawn] > 0.0

    def test_sampling_deterministic_given_seed(self):
        s = count_sample([1.0, 0.0, 1.0], [0.5, 1.0, 0.2], full_n=6)
        dist = output_distribution(s)
        a = [sample_output(dist, np.random.default_rng(42)) for _ in range(5)]
        b = [sample_output(dist, np.random.default_rng(42)) for _ in range(5)]
        assert a == b


def assert_rows_match_alone(query, values, eps, selected, weights=None):
    """Each row of ``output_distributions`` equals, bit for bit, the law of
    that row's sample built alone; rows that bought nobody get None."""
    dists = output_distributions(query, values, eps, selected, weights)
    assert len(dists) == len(selected)
    for row, dist in enumerate(dists):
        sel = selected[row]
        if not sel.any():
            assert dist is None
            continue
        alone = output_distribution(SampledDataset(
            query, values[sel], eps[row, sel], values.size,
            weights=None if weights is None else weights[sel],
            full_weight_sum=None if weights is None else float(weights.sum()),
        ))
        for field in ("candidates", "reported", "probabilities"):
            assert np.array_equal(getattr(dist, field), getattr(alone, field))


class TestOutputDistributions:
    @pytest.mark.parametrize("share", [0.0, 0.02, 0.4, 1.0])
    def test_count_rows_match_one_sample_at_a_time(self, rng, share):
        n = 300
        values = (rng.random(n) < 0.3).astype(float)
        eps = rng.random((7, n))
        eps[0, :50] = 0.25  # tied requirements
        eps[1, ::3] = 5e-324
        selected = rng.random((7, n)) < share
        selected[2] = True
        selected[3] = values == 1.0  # ones only
        selected[4] = values == 0.0  # zeros only
        selected[5] = False
        selected[5, 7] = True
        assert_rows_match_alone(COUNT_Q, values, eps, selected)

    @pytest.mark.parametrize("share", [0.0, 0.02, 0.4, 1.0])
    def test_median_rows_match_one_sample_at_a_time(self, rng, share):
        n = 300
        values = rng.integers(1, 101, n).astype(float)
        values[:40] = 50.0  # tied values
        eps = rng.random((5, n))
        eps[0, :50] = 0.25  # tied requirements
        selected = rng.random((5, n)) < share
        selected[2] = True
        selected[3] = False
        selected[4] = False
        selected[4, 7] = True
        assert_rows_match_alone(MEDIAN_Q, values, eps, selected)

    @pytest.mark.parametrize("share", [0.0, 0.05, 0.5, 1.0])
    def test_linear_rows_match_one_sample_at_a_time(self, rng, share):
        n = 120
        values, weights, _ = random_linear_instance(rng, n, (0.0, 1.0))
        eps = rng.uniform(0.05, 1.0, (5, n))
        selected = rng.random((5, n)) < share
        selected[2] = True
        selected[3] = False
        selected[4] = False
        selected[4, 7] = True
        assert_rows_match_alone(LINEAR_Q, values, eps, selected, weights)

    def test_linear_row_with_zero_bought_weight_is_none(self):
        values = np.array([0.2, 0.7, 0.4, 0.9])
        weights = np.array([0.5, -0.5, 1.0, 2.0])
        eps = np.full((3, 4), 0.5)
        selected = np.array([
            [True, True, False, False],  # bought weights sum to zero
            [True, True, True, False],
            [False, False, False, False],
        ])
        dists = output_distributions(LINEAR_Q, values, eps, selected, weights)
        assert dists[0] is None
        assert dists[1] is not None
        assert dists[2] is None


class TestSampleLaplace:
    def test_zero_scale(self, rng):
        assert sample_laplace(0.0, rng) == 0.0

    def test_negative_scale(self, rng):
        with pytest.raises(InputError):
            sample_laplace(-1.0, rng)

    def test_spread_matches_scale(self):
        rng = np.random.default_rng(3)
        draws = np.array([sample_laplace(2.0, rng) for _ in range(20000)])
        assert abs(np.mean(draws)) < 0.1
        assert np.std(draws) == pytest.approx(2.0 * math.sqrt(2.0), rel=0.05)
