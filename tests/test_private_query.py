import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_count_cost,
    brute_knapsack_max,
    brute_linear_cost,
    brute_median_cost,
    loop_median_score_table,
)
from pdq.errors import DegenerateScalingError, InputError, SolverError
from pdq.market import COUNT, LINEAR, MEDIAN, QuerySpec
from pdq.private_query import (
    SampledDataset,
    _Knapsack,
    _median_score_table,
    candidate_outputs,
    eval_query,
    modification_scores,
    output_distribution,
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
            (MEDIAN_Q, [5.0, 5.0], "median data values must be distinct"),
            (MEDIAN_Q, [0.0, 5.0], "median data values must lie in"),
            (MEDIAN_Q, [1.5, 5.0], "median queries need integer data values"),
        ):
            with pytest.raises(InputError, match=message):
                SampledDataset(query, np.array(values), np.array([0.5, 0.5]), 2)

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
        with pytest.raises(InputError, match="median data values must be distinct"):
            eval_query(MEDIAN_Q, [5.0, 5.0])
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
        assert raw in targets
        assert targets.size == 201
        # reachable interval: each entry can move its term across its range
        assert targets.min() == pytest.approx(0.0 + (-2.0))
        assert targets.max() == pytest.approx(1.0 + 0.0)
        # population weight mass equals the sampled mass, so no rescaling
        np.testing.assert_allclose(reported, targets)

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

    def test_median_worked_example(self):
        s = median_sample([1.0, 5.0, 9.0], [0.2, 0.3, 0.4])
        scores = modification_scores(s, [5.0, 9.0, 2.0])
        np.testing.assert_allclose(scores, [0.0, -0.2, -0.3])

    def test_median_infeasible_when_domain_lacks_room(self):
        # with domain {1..3} and values {1,2,3}, median 3 would need two
        # entries above it but only integers up to 3 exist
        q = QuerySpec(MEDIAN, (1, 3))
        s = SampledDataset(q, np.array([1.0, 2.0, 3.0]), np.full(3, 0.5), 3)
        assert np.isneginf(modification_scores(s, [3.0])[0])

    def test_linear_worked_example(self):
        q = QuerySpec(LINEAR, (0.0, 5.0))
        w = np.array([0.5, -1.0])
        s = SampledDataset(q, np.array([2.0, 3.0]), np.array([0.3, 0.7]), 2,
                           weights=w, full_weight_sum=float(w.sum()))
        scores = modification_scores(s, [-2.0, 0.0])
        assert scores[0] == 0.0
        # moving the sum up by 2 is cheapest by changing only the second
        # entry (headroom 3, cost 0.7); the first alone cannot reach it
        assert scores[1] == pytest.approx(-0.7)

    def test_linear_nan_value_rejected(self):
        with pytest.raises(InputError, match="linear data values must be finite"):
            linear_sample_with_nan()

    def test_linear_scores_independent_of_target_order(self):
        # each side's knapsack state is built once per sample and reused
        # for every target on that side; scoring targets in any order, or
        # one at a time, must give the same bits.  Zero weights make free items, an entry at
        # each domain end has no headroom on one side, and the targets
        # include raw itself and points beyond both reaches.
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
            want = brute_linear_cost(values, weights, eps, (lo, hi), t)
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
            want = brute_linear_cost(values, weights, eps, (lo, hi), t)
            if math.isinf(want):
                assert np.isneginf(got), (values, weights, eps, t)
            else:
                assert got == pytest.approx(-want, abs=1e-9), (
                    values, weights, eps, t,
                )


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


class TestKnapsack:
    # one instance, searched to the optimum in 42 nodes at capacity 4.0
    GAINS = np.array([0.5, 0.4, 0.6, 0.3, 0.7, 0.45, 0.55, 0.35])
    CAPS = np.array([1.0, 0.9, 1.3, 0.7, 1.6, 1.1, 1.2, 0.8])

    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 1.0),
                st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
            ),
            min_size=0,
            max_size=10,
        ),
        st.lists(
            st.one_of(st.sampled_from([0.0, 5e-13, 1e-12]), st.floats(0.0, 10.0)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_matches_enumeration(self, items, capacities):
        gains = [g for g, _ in items]
        caps = [c for _, c in items]
        # the first capacity twice, so repeats are always searched
        capacities = capacities + capacities[:1]
        got = _Knapsack(np.array(gains), np.array(caps)).max_gains(capacities)
        want = [brute_knapsack_max(gains, caps, c) for c in capacities]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_zero_cap_items_are_free(self):
        got = _Knapsack(np.array([1.0, 2.0]), np.array([0.0, 5.0])).max_gains([0.0])
        assert got == pytest.approx([1.0])

    def test_node_cap_raises(self):
        # this instance's search visits 42 nodes; a smaller budget must
        # raise instead of returning the best value found so far
        gains, caps = self.GAINS, self.CAPS
        with pytest.raises(SolverError):
            _Knapsack(gains, caps).max_gains([4.0], node_cap=41)
        want = brute_knapsack_max(list(gains), list(caps), 4.0)
        assert _Knapsack(gains, caps).max_gains(
            [4.0], node_cap=42
        ) == pytest.approx([want])
        # the budget is per capacity solve, not shared across solves
        knapsack = _Knapsack(gains, caps)
        for _ in range(3):
            assert knapsack.max_gains([4.0], node_cap=42) == pytest.approx([want])

    def test_node_cap_counts_each_capacity(self):
        # three searches of 42 nodes: the call visits 126, more than the
        # cap, but no one capacity passes it
        knapsack = _Knapsack(self.GAINS, self.CAPS)
        want = brute_knapsack_max(list(self.GAINS), list(self.CAPS), 4.0)
        got = knapsack.max_gains([4.0, 4.0, 4.0], node_cap=42)
        assert got == pytest.approx([want] * 3)
        # capacity 6.0 needs 2 nodes, so only 4.0 can pass a cap of 41
        with pytest.raises(SolverError):
            knapsack.max_gains([6.0, 4.0, 6.0], node_cap=41)


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

    def test_infeasible_candidates_dropped(self):
        q = QuerySpec(MEDIAN, (1, 3))
        s = SampledDataset(q, np.array([1.0, 2.0, 3.0]), np.full(3, 0.5), 3)
        dist = output_distribution(s)
        assert 3.0 not in dist.candidates

    def test_sampling_follows_distribution(self):
        s = count_sample([1.0, 0.0], [0.5, 1.0])
        dist = output_distribution(s)
        rng = np.random.default_rng(0)
        draws = np.array([sample_output(dist, rng) for _ in range(4000)])
        freq = [np.mean(draws == r) for r in dist.reported]
        np.testing.assert_allclose(freq, dist.probabilities, atol=0.03)

    def test_sampling_deterministic_given_seed(self):
        s = count_sample([1.0, 0.0, 1.0], [0.5, 1.0, 0.2], full_n=6)
        dist = output_distribution(s)
        a = [sample_output(dist, np.random.default_rng(42)) for _ in range(5)]
        b = [sample_output(dist, np.random.default_rng(42)) for _ in range(5)]
        assert a == b


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
