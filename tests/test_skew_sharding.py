"""Differential suite for Zipfian-aware (skew-balanced) sharding.

Three layers of guarantees:

* **Plan construction** — :class:`ShardPlan` invariants (contiguous
  step-1 cover of ``[0, l)``), the minimax frequency balancer against a
  brute-force reference, degenerate skew (one category carrying 90% of
  the mass, single-category shards), and the uniform fallbacks.
* **Merge machinery, cross-plan** — slicing one reference global output
  into *any* contiguous plan and merging back is bit-exact, so global
  column indexing cannot depend on where the shard boundaries fall.
* **Backends, per plan** — candidate entries exact on every plan shape,
  replicas and observed-frequency plans serving the sequential bits
  (``tests/test_matrix.py`` holds the process-parallel engine to the
  sequential backend on every plan; the uniform, balanced and hot plans
  are named configurations of it here).

Cross-plan bit-identity of *trained model outputs* is deliberately not
claimed: each shard trains its own screener from a per-shard spawned
rng and runs GEMMs whose shapes depend on the plan, so different plans
produce different (all individually correct) approximate scores.  What
is plan-independent — and pinned here — is the merge/reduce machinery
and the exactness of candidate entries against the full classifier.
"""

import numpy as np
import pytest

from conftest import M, zipf_frequencies
from contracts import check_configuration
from repro.core import ScreeningConfig
from repro.core.candidates import CandidateSet
from repro.core.pipeline import ScreenedOutput, StreamedOutput
from repro.distributed import (
    ShardPlan,
    ShardedClassifier,
    observed_category_frequencies,
    reduce_top_k,
    shard_ranges,
    shard_top_k,
)
from repro.distributed.sharding import (
    _minimax_contiguous_partition,
    merge_shard_outputs,
    merge_streamed_outputs,
    normalize_loads,
)

pytestmark = pytest.mark.timeout(600)

NUM_CATEGORIES = 300
PLAN_KINDS = ("uniform", "balanced", "hot")


def make_plan(kind, num_categories=NUM_CATEGORIES):
    if kind == "uniform":
        return ShardPlan.uniform(num_categories, 3)
    if kind == "balanced":
        return ShardPlan.balanced(zipf_frequencies(num_categories), 3)
    if kind == "hot":
        # Hand-built extreme skew: two tiny hot shards bracketing one
        # huge cold shard.
        return ShardPlan.from_ranges(
            [
                range(0, 4),
                range(4, num_categories - 4),
                range(num_categories - 4, num_categories),
            ]
        )
    raise AssertionError(kind)


# ----------------------------------------------------------------------
# plan construction and validation
# ----------------------------------------------------------------------
class TestShardPlanInvariants:
    def test_uniform_matches_shard_ranges(self):
        plan = ShardPlan.uniform(100, 3)
        assert list(plan.ranges) == shard_ranges(100, 3)
        assert plan.source == "uniform"
        assert plan.num_shards == 3
        assert plan.num_categories == 100
        assert sum(plan.loads) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "bad_ranges, message",
        [
            ([], "at least one"),
            ([range(1, 5)], "starts at 1"),
            ([range(0, 3), range(4, 6)], "starts at 4"),
            ([range(0, 3), range(2, 6)], "starts at 2"),
            ([range(0, 3), range(3, 3)], "empty"),
            ([range(0, 6, 2)], "step"),
            ([range(3, 0, -1)], "step"),
        ],
    )
    def test_invalid_ranges_rejected(self, bad_ranges, message):
        with pytest.raises(ValueError, match=message):
            ShardPlan(bad_ranges)

    def test_loads_validated_and_normalized(self):
        ranges = [range(0, 2), range(2, 6)]
        plan = ShardPlan(ranges, loads=[3.0, 1.0])
        assert plan.loads == (0.75, 0.25)
        assert plan.imbalance == pytest.approx(1.5)
        three = [range(0, 1), range(1, 2), range(2, 4)]
        assert ShardPlan(three, loads=[2.0, 1.0, 1.0]).loads == (0.5, 0.25, 0.25)
        for loads in ([], [1.0]):
            with pytest.raises(ValueError, match="2 shards"):
                ShardPlan(ranges, loads=loads)
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ShardPlan(ranges, loads=[1.0, bad])
        # All-zero loads carry no signal: fall back to uniform loads.
        assert ShardPlan(ranges, loads=[0.0, 0.0]).loads == (0.5, 0.5)

    def test_normalize_loads_fractions(self):
        assert normalize_loads([2.0, 1.0, 1.0]) == (0.5, 0.25, 0.25)

    def test_normalize_zero_mass_degrades_to_uniform(self):
        assert normalize_loads([0.0, 0.0]) == (0.5, 0.5)

    def test_normalize_rejects_bad_loads(self):
        for bad in ([], [1.0, -0.1], [1.0, float("nan")]):
            with pytest.raises(ValueError):
                normalize_loads(bad)

    def test_default_loads_are_size_fractions(self):
        plan = ShardPlan([range(0, 1), range(1, 4)])
        assert plan.loads == (0.25, 0.75)

    def test_immutable_and_hashable(self):
        plan = ShardPlan.uniform(10, 2)
        with pytest.raises(AttributeError):
            plan.ranges = ()
        assert plan == ShardPlan.uniform(10, 2)
        assert hash(plan) == hash(ShardPlan.uniform(10, 2))
        assert plan != ShardPlan.uniform(10, 5)
        assert len({plan, ShardPlan.uniform(10, 2)}) == 1


class TestBalancedPlanning:
    def test_minimax_matches_brute_force(self):
        """The binary-search packer finds the optimal cap on every tiny
        instance a brute force can enumerate."""
        rng = np.random.default_rng(0)

        def brute_force(costs, k):
            n = costs.size
            best = np.inf
            # Choose k-1 cut points out of n-1 gaps.
            from itertools import combinations

            for cuts in combinations(range(1, n), k - 1):
                bounds = (0,) + cuts + (n,)
                worst = max(
                    float(costs[a:b].sum()) for a, b in zip(bounds, bounds[1:])
                )
                best = min(best, worst)
            return best

        for _ in range(150):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            costs = rng.random(n) * rng.choice([1.0, 100.0])
            ranges = _minimax_contiguous_partition(costs, k)
            assert len(ranges) == k
            assert all(len(r) > 0 for r in ranges)
            assert ranges[0].start == 0 and ranges[-1].stop == n
            achieved = max(float(costs[r.start : r.stop].sum()) for r in ranges)
            assert achieved <= brute_force(costs, k) * (1 + 1e-9)

    def test_balanced_beats_uniform_on_zipf(self):
        frequencies = zipf_frequencies(NUM_CATEGORIES)
        balanced = ShardPlan.balanced(frequencies, 4)
        uniform = ShardPlan.uniform(NUM_CATEGORIES, 4)
        cost = frequencies / frequencies.mean()

        def worst(plan):
            return max(float(cost[r.start : r.stop].sum()) for r in plan.ranges)

        assert worst(balanced) < worst(uniform)
        assert balanced.source == "balanced"
        # The head shard is much smaller than the tail shard.
        assert len(balanced.ranges[0]) < len(balanced.ranges[-1])

    def test_hot_category_isolated(self):
        """One category carrying 90% of the mass gets (nearly) a shard
        of its own, and every other shard still exists."""
        frequencies = np.ones(100)
        frequencies[37] = 9.0 * frequencies.sum()  # ~90% of total mass
        plan = ShardPlan.balanced(frequencies, 4)
        assert plan.num_shards == 4
        assert all(len(r) > 0 for r in plan.ranges)
        owner = next(r for r in plan.ranges if 37 in r)
        assert len(owner) <= 2
        assert plan.loads[plan.ranges.index(owner)] > 0.85

    def test_single_category_shards(self):
        """num_shards == num_categories degenerates to one category per
        shard, whatever the frequencies say."""
        plan = ShardPlan.balanced(np.array([5.0, 1.0, 3.0]), 3)
        assert [len(r) for r in plan.ranges] == [1, 1, 1]

    def test_screening_weight_pushes_toward_uniform(self):
        frequencies = zipf_frequencies(120)
        skewed = ShardPlan.balanced(frequencies, 3, screening_weight=0.0)
        flat = ShardPlan.balanced(frequencies, 3, screening_weight=1e6)
        sizes = [len(r) for r in flat.ranges]
        assert max(sizes) - min(sizes) <= 1  # ~uniform split
        assert len(skewed.ranges[0]) < len(flat.ranges[0])

    @pytest.mark.parametrize("frequencies", [None, [], np.zeros(50)])
    def test_no_signal_falls_back_to_uniform(self, frequencies):
        plan = ShardPlan.balanced(frequencies, 5, num_categories=50)
        assert list(plan.ranges) == shard_ranges(50, 5)

    def test_empty_frequencies_without_num_categories_rejected(self):
        with pytest.raises(ValueError, match="num_categories"):
            ShardPlan.balanced(None, 5)

    @pytest.mark.parametrize(
        "frequencies, message",
        [
            (np.ones((5, 2)), "1-D"),
            (np.full(10, np.nan), "finite"),
            (np.array([1.0, -2.0] * 5), "finite"),
            (np.ones(7), "7 frequencies"),
        ],
    )
    def test_bad_frequencies_rejected(self, frequencies, message):
        with pytest.raises(ValueError, match=message):
            ShardPlan.balanced(frequencies, 2, num_categories=10)

    def test_negative_screening_weight_rejected(self):
        with pytest.raises(ValueError, match="screening_weight"):
            ShardPlan.balanced(np.ones(10), 2, screening_weight=-1.0)

    def test_suggest_replicas_targets_hot_shards(self):
        plan = ShardPlan(
            [range(0, 1), range(1, 2), range(2, 3), range(3, 4)],
            loads=[0.7, 0.1, 0.1, 0.1],
        )
        assert plan.suggest_replicas(0) == {0: 1, 1: 1, 2: 1, 3: 1}
        counts = plan.suggest_replicas(3)
        assert counts == {0: 4, 1: 1, 2: 1, 3: 1}
        assert sum(counts.values()) == plan.num_shards + 3
        with pytest.raises(ValueError, match=">= 0"):
            plan.suggest_replicas(-1)

    def test_suggest_replicas_even_loads_round_robin(self):
        plan = ShardPlan.uniform(30, 3)
        assert plan.suggest_replicas(3) == {0: 2, 1: 2, 2: 2}


class TestShardCountExceedsCategories:
    """``num_shards > num_categories`` raises everywhere — an empty
    shard would train no screener and answer no request, so the
    contract is pinned end-to-end through every plan source."""

    def test_shard_ranges_raises(self):
        with pytest.raises(ValueError, match="exceed"):
            shard_ranges(3, 5)

    def test_uniform_plan_raises(self):
        with pytest.raises(ValueError, match="exceed"):
            ShardPlan.uniform(3, 5)

    def test_balanced_plan_raises(self):
        with pytest.raises(ValueError, match="exceed"):
            ShardPlan.balanced(np.ones(3), 5)

    def test_balanced_fallback_raises(self):
        with pytest.raises(ValueError, match="exceed"):
            ShardPlan.balanced(None, 5, num_categories=3)

    def test_sharded_classifier_raises(self, zoo):
        classifier = zoo.tasks["single"].classifier
        l = classifier.num_categories
        with pytest.raises(ValueError, match="exceed"):
            ShardedClassifier(classifier, num_shards=l + 1)
        with pytest.raises(ValueError, match="exceed"):
            ShardedClassifier(
                classifier, num_shards=l + 1, frequencies=zipf_frequencies(l)
            )


# ----------------------------------------------------------------------
# merge machinery: cross-plan bit-exactness
# ----------------------------------------------------------------------
def random_reference_output(rng, batch, num_categories):
    """A synthetic global ScreenedOutput with random candidates."""
    logits = rng.standard_normal((batch, num_categories))
    indices = [
        np.sort(
            rng.choice(num_categories, size=int(rng.integers(0, 9)), replace=False)
        ).astype(np.intp)
        for _ in range(batch)
    ]
    candidates = CandidateSet(indices=indices)
    rows, cols = candidates.flat()
    saved = rng.standard_normal(rows.size)
    return ScreenedOutput(candidates, logits[rows, cols], saved, logits)


def slice_screened(reference, shard_range):
    """One shard's view of the reference output (what that node would
    have produced had the plan given it this category stripe)."""
    record = slice_streamed(reference, shard_range)
    logits = reference.logits[:, shard_range.start : shard_range.stop].copy()
    return ScreenedOutput(
        record.candidates, record.exact_values, record.approximate_values, logits
    )


def slice_streamed(reference, shard_range):
    rows, cols = reference.candidates.flat()
    mask = (cols >= shard_range.start) & (cols < shard_range.stop)
    counts = np.bincount(rows[mask], minlength=reference.batch_size).astype(
        np.intp
    )
    return StreamedOutput(
        candidates=CandidateSet.from_flat(counts, cols[mask] - shard_range.start),
        exact_values=reference.exact_values[mask].copy(),
        approximate_values=reference.approximate_values[mask].copy(),
        num_categories=len(shard_range),
    )


@pytest.mark.parametrize("kind", PLAN_KINDS)
class TestCrossPlanMergeExactness:
    """Slice one global output along *any* plan, merge back, and every
    plane/candidate list/value record is bit-identical to the original
    — the merge cannot depend on where the boundaries fall."""

    def test_screened_roundtrip(self, kind):
        rng = np.random.default_rng(11)
        reference = random_reference_output(rng, batch=7, num_categories=NUM_CATEGORIES)
        plan = make_plan(kind)
        merged = merge_shard_outputs(
            [slice_screened(reference, r) for r in plan.ranges], plan.ranges
        )
        assert np.array_equal(merged.logits, reference.logits)
        assert np.array_equal(
            merged.approximate_logits, reference.approximate_logits
        )
        for mine, theirs in zip(merged.candidates, reference.candidates):
            assert np.array_equal(mine, theirs)

    def test_streamed_roundtrip(self, kind):
        rng = np.random.default_rng(13)
        rows_candidates = CandidateSet(
            indices=[
                np.sort(
                    rng.choice(NUM_CATEGORIES, size=6, replace=False)
                ).astype(np.intp)
                for _ in range(5)
            ]
        )
        flat_rows, _ = rows_candidates.flat()
        reference = StreamedOutput(
            candidates=rows_candidates,
            exact_values=rng.standard_normal(flat_rows.size),
            approximate_values=rng.standard_normal(flat_rows.size),
            num_categories=NUM_CATEGORIES,
        )
        plan = make_plan(kind)
        merged = merge_streamed_outputs(
            [slice_streamed(reference, r) for r in plan.ranges], plan.ranges
        )
        assert merged.num_categories == NUM_CATEGORIES
        assert np.array_equal(merged.exact_values, reference.exact_values)
        assert np.array_equal(
            merged.approximate_values, reference.approximate_values
        )
        for mine, theirs in zip(merged.candidates, reference.candidates):
            assert np.array_equal(mine, theirs)

    def test_top_k_reduce_roundtrip(self, kind):
        """Per-shard top-k + reduce over any plan equals the dense
        global top-k of the same logits."""
        rng = np.random.default_rng(17)
        reference = random_reference_output(rng, batch=6, num_categories=NUM_CATEGORIES)
        plan = make_plan(kind)
        parts = [
            shard_top_k(slice_screened(reference, r), r, k=9) for r in plan.ranges
        ]
        indices, scores = reduce_top_k(
            [p[0] for p in parts], [p[1] for p in parts], k=9
        )
        expected = np.argsort(-reference.logits, axis=1)[:, :9]
        assert np.array_equal(indices, expected)
        rows = np.arange(reference.batch_size)[:, None]
        assert np.array_equal(scores, reference.logits[rows, expected])


# ----------------------------------------------------------------------
# backends over skewed plans
# ----------------------------------------------------------------------
def assert_outputs_identical(actual, expected):
    """Bitwise equality of two candidate records."""
    for mine, theirs in zip(actual.candidates, expected.candidates):
        assert np.array_equal(mine, theirs)
    assert actual.exact_count == expected.exact_count
    for name in ("exact_values", "approximate_values"):
        assert getattr(actual, name).dtype == getattr(expected, name).dtype
        assert np.array_equal(getattr(actual, name), getattr(expected, name))


#: The shared zoo's plan keys for this suite's plan kinds.
ZOO_PLANS = {"uniform": "u3", "balanced": "balanced", "hot": "hot"}


@pytest.mark.parametrize("kind", PLAN_KINDS)
@pytest.mark.parametrize("feature_dtype", ("float64", "float32"))
@pytest.mark.parametrize("selector_mode", ("top_m", "threshold"))
class TestParallelMatchesSequentialOnSkewedPlans:
    def test_bit_identical(self, zoo, engines, kind, feature_dtype, selector_mode):
        check_configuration(
            zoo, engines, (ZOO_PLANS[kind], "trained", selector_mode, "fp64"),
            dtype=feature_dtype, k="m+5",
        )


class TestSkewedPlanSemantics:
    def test_candidate_entries_match_exact_classifier(self, zoo):
        """On every plan shape, candidate entries equal the exact
        full-classifier scores at global indices (allclose: sharded
        pipelines compute them from sliced planes)."""
        features = zoo.features[:8]
        exact = zoo.stacked.logits(features)
        for plan in ("u4", "balanced", "hot"):
            output = zoo[(plan, "trained", "top_m", "fp64")].forward(features)
            for row, indices in enumerate(output.candidates):
                assert np.allclose(
                    output.logits[row, indices],
                    exact[row, indices],
                    rtol=1e-10,
                    atol=1e-10,
                )

    def test_replicated_hot_shard_bit_identical(self, zoo):
        """Replica workers serve the same bits as the lone worker, and
        the per-shard answer counts reconcile with the request count."""
        model = zoo[("balanced", "trained", "threshold", "fp64")]
        features = zoo.features[:8]
        sequential = model.forward_streaming(features)
        with model.parallel(replicas={0: 2}) as engine:
            for _ in range(3):
                assert_outputs_identical(engine.forward_streaming(features), sequential)
            stats = engine.stats()
            assert stats["replica_counts"] == [2, 1, 1]
            assert stats["plan_source"] == "balanced"
            for shard_stats in stats["shards"]:
                assert shard_stats["answered"] == stats["requests"]
            group = engine.replica_groups[0]
            assert sorted(r.served for r in group.replicas) == [1, 2]  # least-loaded spread

    def test_frequencies_argument_builds_balanced_plan(self, zoo):
        """End-to-end: observe candidate frequencies from a trained
        model, rebuild with ``frequencies=``, and serve through both
        backends bit-identically."""
        features, l = zoo.features[:8], zoo.stacked.num_categories
        seed_model = zoo[("u4", "trained", "top_m", "fp64")]
        outputs = [seed_model.forward(features[i : i + 4]) for i in range(0, 8, 4)]
        frequencies = observed_category_frequencies(outputs, l)
        assert frequencies.sum() == sum(o.exact_count for o in outputs)

        model = ShardedClassifier(
            zoo.stacked,
            num_shards=3,
            frequencies=frequencies,
            config=ScreeningConfig(projection_dim=4),
        )
        assert model.plan.source == "balanced"
        assert model.plan.num_categories == l
        model.train(zoo.train_features, candidates_per_shard=M, rng=5)
        sequential = model.forward_streaming(features)
        with model.parallel() as engine:
            assert_outputs_identical(engine.forward_streaming(features), sequential)

    def test_plan_argument_validation(self, zoo):
        classifier = zoo.tasks["single"].classifier
        l = classifier.num_categories
        plan = ShardPlan.uniform(l, 3)
        with pytest.raises(ValueError, match="not both"):
            ShardedClassifier(classifier, plan=plan, frequencies=np.ones(l))
        with pytest.raises(ValueError, match="conflicts"):
            ShardedClassifier(classifier, num_shards=4, plan=plan)
        with pytest.raises(ValueError, match="covers"):
            ShardedClassifier(classifier, plan=ShardPlan.uniform(l - 1, 3))
        with pytest.raises(ValueError, match="require num_shards"):
            ShardedClassifier(classifier, frequencies=np.ones(l))
        with pytest.raises(ValueError, match="num_shards, frequencies or plan"):
            ShardedClassifier(classifier)

    def test_weights_scale_observed_frequencies(self):
        candidates = CandidateSet(indices=[np.array([1, 3], dtype=np.intp)])
        output = StreamedOutput(
            candidates=candidates,
            exact_values=np.zeros(2),
            approximate_values=np.zeros(2),
            num_categories=5,
        )
        counts = observed_category_frequencies([output, output], 5, weights=[1.0, 3.0])
        assert np.array_equal(counts, np.array([0.0, 4.0, 0.0, 4.0, 0.0]))
        with pytest.raises(ValueError, match="weights"):
            observed_category_frequencies([output], 5, weights=[1.0, 2.0])
