import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateSet
from repro.core.pipeline import ScreenedOutput, StreamedOutput
from repro.data.registry import get_workload
from repro.distributed import (
    ClusterModel,
    ShardedClassifier,
    merge_shard_outputs,
    merge_streamed_outputs,
    shard_ranges,
)
from repro.distributed.cluster import NetworkModel

from oracles import merge_candidates_per_row, merge_streamed_sorted


class TestShardRanges:
    def test_covers_everything_once(self):
        ranges = shard_ranges(100, 7)
        covered = [i for r in ranges for i in r]
        assert covered == list(range(100))

    def test_balanced(self):
        sizes = [len(r) for r in shard_ranges(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_exact_division(self):
        assert [len(r) for r in shard_ranges(100, 4)] == [25, 25, 25, 25]

    def test_more_shards_than_categories_rejected(self):
        with pytest.raises(ValueError):
            shard_ranges(3, 5)

    def test_properties_hold_for_random_inputs(self):
        """Property test: for any valid (l, shards), the plan is a
        contiguous, disjoint, balanced cover of [0, l)."""
        rng = np.random.default_rng(1234)
        cases = [
            (int(l), int(rng.integers(1, l + 1)))
            for l in rng.integers(1, 5000, size=200)
        ]
        cases += [(1, 1), (2, 2), (5000, 5000), (17, 16)]  # shards == l edges
        for num_categories, num_shards in cases:
            ranges = shard_ranges(num_categories, num_shards)
            assert len(ranges) == num_shards
            # Contiguous and disjoint: each range starts where the
            # previous one stopped, starting from zero.
            assert ranges[0].start == 0
            for prev, cur in zip(ranges, ranges[1:]):
                assert cur.start == prev.stop
            # Full cover of [0, l).
            assert ranges[-1].stop == num_categories
            # Balanced within one, and never empty.
            sizes = [len(r) for r in ranges]
            assert min(sizes) >= 1
            assert max(sizes) - min(sizes) <= 1


class TestMergeCandidates:
    """The vectorized candidate merge of :func:`merge_streamed_outputs`
    is the per-row reference merge (the guard for the flat-scatter
    rewrite of the reduce path)."""

    @staticmethod
    def merge_candidates(sets, ranges, batch_size):
        """The candidates :func:`merge_streamed_outputs` merges from
        shards that carry only these candidate sets."""
        outputs = [
            StreamedOutput(c, np.zeros(c.total), np.zeros(c.total), len(r))
            for c, r in zip(sets, ranges)
        ]
        return merge_streamed_outputs(outputs, ranges, batch_size).candidates

    @staticmethod
    def random_shard_sets(rng, batch_size, ranges, max_per_row):
        """Ragged per-shard candidate sets, including empty rows."""
        sets = []
        for shard_range in ranges:
            rows = []
            for _ in range(batch_size):
                count = int(rng.integers(0, max_per_row + 1))
                rows.append(
                    rng.choice(len(shard_range), size=count, replace=False)
                    .astype(np.intp)
                )
            sets.append(CandidateSet(indices=rows))
        return sets

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_per_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        batch_size = int(rng.integers(1, 12))
        ranges = shard_ranges(60, int(rng.integers(1, 5)))
        sets = self.random_shard_sets(rng, batch_size, ranges, max_per_row=7)
        fast = self.merge_candidates(sets, ranges, batch_size)
        reference = merge_candidates_per_row(sets, ranges, batch_size)
        assert fast.batch_size == reference.batch_size
        for fast_row, ref_row in zip(fast, reference):
            assert fast_row.dtype == ref_row.dtype
            assert np.array_equal(fast_row, ref_row)

    def test_all_rows_empty(self):
        ranges = shard_ranges(10, 2)
        sets = [
            CandidateSet(indices=[np.array([], dtype=np.intp)] * 3)
            for _ in ranges
        ]
        merged = self.merge_candidates(sets, ranges, 3)
        reference = merge_candidates_per_row(sets, ranges, 3)
        assert merged.batch_size == 3
        for merged_row, ref_row in zip(merged, reference):
            assert merged_row.size == 0
            assert np.array_equal(merged_row, ref_row)

    @staticmethod
    def random_record(rng, batch_size, width, kind, from_flat):
        """One shard's record: ``ragged`` rows of 0..width candidates in
        any order (empty rows included), ``empty`` (no entries at all),
        or ``None`` (a failed shard)."""
        if kind == "none":
            return None
        most = width if kind == "ragged" else 0
        rows = [
            rng.choice(width, size=int(rng.integers(0, most + 1)), replace=False)
            .astype(np.intp)
            for _ in range(batch_size)
        ]
        candidates = CandidateSet(indices=rows)
        if from_flat:
            candidates = CandidateSet.from_flat(candidates.counts, candidates.columns())
        return StreamedOutput(
            candidates, rng.standard_normal(candidates.total),
            rng.standard_normal(candidates.total), width,
        )

    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        kinds=st.lists(st.sampled_from(["ragged", "ragged", "empty", "none"]), min_size=4, max_size=4),
        batch_size=st.integers(1, 6),
        pass_batch_size=st.booleans(),
        from_flat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equals_the_sorted_merge_bit_for_bit(
        self, sizes, kinds, batch_size, pass_batch_size, from_flat, seed
    ):
        """Placing each shard's entries is the concatenate-and-row-sort
        merge (``oracles.merge_streamed_sorted``): same counts, columns
        and value bits, over uneven ranges, empty rows, shards with no
        entries, failed shards and all shards failed."""
        rng = np.random.default_rng(seed)
        stops = np.cumsum(sizes)
        ranges = [range(int(stop - size), int(stop)) for size, stop in zip(sizes, stops)]
        outputs = [
            self.random_record(rng, batch_size, size, kind, from_flat)
            for size, kind in zip(sizes, kinds)
        ]
        if all(output is None for output in outputs):
            pass_batch_size = True
        given_size = batch_size if pass_batch_size else None
        merged = merge_streamed_outputs(outputs, ranges, given_size)
        reference = merge_streamed_sorted(outputs, ranges, batch_size)
        assert merged.num_categories == reference.num_categories == stops[-1]
        for got, want in (
            (merged.candidates.counts, reference.candidates.counts),
            (merged.candidates.columns(), reference.candidates.columns()),
            (merged.exact_values, reference.exact_values),
            (merged.approximate_values, reference.approximate_values),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_builds_no_shard_row_array(self):
        """The merge reads each shard's counts and columns, never the
        ``flat()`` rows a ``from_flat`` record would build and cache."""
        rng = np.random.default_rng(7)
        ranges = shard_ranges(20, 2)
        outputs = [
            self.random_record(rng, 5, len(shard_range), "ragged", True)
            for shard_range in ranges
        ]
        merge_streamed_outputs(outputs, ranges)
        assert all(output.candidates._flat is None for output in outputs)

    def test_preserves_shard_order_within_row(self):
        """Within a row, shard 0's candidates come before shard 1's —
        the order the sequential backend produces."""
        ranges = shard_ranges(8, 2)
        sets = [
            CandidateSet(indices=[np.array([3, 1], dtype=np.intp)]),
            CandidateSet(indices=[np.array([2, 0], dtype=np.intp)]),
        ]
        merged = self.merge_candidates(sets, ranges, 1)
        assert np.array_equal(merged.indices[0], [3, 1, 6, 4])


def record_bytes(output):
    candidates = output.candidates
    return sum(
        array.nbytes
        for array in (
            candidates.counts, candidates.columns(),
            output.exact_values, output.approximate_values,
        )
    )


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestMergePeak:
    """A warm merge allocates its result plus, one shard at a time, that
    shard's destinations and offset columns (16 B an entry) and a few
    (shard, row)-sized arrays; a warm sharded ``forward_streaming``
    adds the shards' own records, alive until the merge returns, and
    each shard call's few KB.  A concatenate-and-sort merge holds about
    four arrays the size of the merged columns beyond its result, which
    fails both bounds."""

    ROWS = 64

    @pytest.fixture
    def sharded(self, zoo):
        model = zoo[("u2", "trained", "top_m", "fp64")]
        features = zoo.features[: self.ROWS]
        for _ in range(3):
            model.forward_streaming(features)
        return model, features

    def test_warm_merge(self, sharded):
        model, features = sharded
        outputs = [shard.forward_streaming(features) for shard in model.shards]
        merge_streamed_outputs(
            [shard.forward_streaming(features) for shard in model.shards], model.ranges
        )
        merged, peak = traced_peak(lambda: merge_streamed_outputs(outputs, model.ranges))
        largest = max(output.candidates.total for output in outputs)
        assert peak < record_bytes(merged) + 16 * largest + 6 * 1024

    def test_warm_sharded_forward_streaming(self, sharded):
        model, features = sharded
        outputs = [shard.forward_streaming(features) for shard in model.shards]
        merged, peak = traced_peak(lambda: model.forward_streaming(features))
        largest = max(output.candidates.total for output in outputs)
        shard_records = sum(record_bytes(output) for output in outputs)
        assert peak < record_bytes(merged) + shard_records + 16 * largest + 12 * 1024


class TestMergeToleratesFailedShards:
    """``None`` entries in the one merge: a failed shard's candidates
    vanish, its dense stripe is NaN, and every surviving entry keeps
    its global column — for every subset of failed shards."""

    @staticmethod
    def random_shard(rng, batch_size, width):
        """One shard's (dense, streamed) outputs over the same random
        candidate record."""
        indices = [
            np.sort(
                rng.choice(width, size=int(rng.integers(0, width + 1)), replace=False)
            ).astype(np.intp)
            for _ in range(batch_size)
        ]
        candidates = CandidateSet(indices=indices)
        rows, cols = candidates.flat()
        logits = rng.standard_normal((batch_size, width))
        approx = rng.standard_normal(rows.size)
        dense = ScreenedOutput(candidates, logits[rows, cols], approx, logits)
        streamed = StreamedOutput(
            candidates=candidates,
            exact_values=logits[rows, cols],
            approximate_values=approx,
            num_categories=width,
        )
        return dense, streamed

    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        batch_size=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_none_entries_equal_full_merge_minus_failed_shards(
        self, sizes, batch_size, seed
    ):
        rng = np.random.default_rng(seed)
        stops = np.cumsum(sizes)
        ranges = [range(int(stop - size), int(stop)) for size, stop in zip(sizes, stops)]
        shards = [self.random_shard(rng, batch_size, size) for size in sizes]
        full_dense = merge_shard_outputs([d for d, _ in shards], ranges)
        full_streamed = merge_streamed_outputs([s for _, s in shards], ranges)
        rows, cols = full_streamed.candidates.flat()
        for failed in itertools.product([False, True], repeat=len(sizes)):
            missing = np.zeros(int(stops[-1]), dtype=bool)
            for shard_range, dead in zip(ranges, failed):
                missing[shard_range.start : shard_range.stop] = dead
            keep = ~missing[cols]

            streamed = merge_streamed_outputs(
                [None if dead else s for (_, s), dead in zip(shards, failed)],
                ranges,
                batch_size,
            )
            assert streamed.num_categories == stops[-1]
            assert streamed.batch_size == batch_size
            kept_rows, kept_cols = streamed.candidates.flat()
            assert np.array_equal(kept_rows, rows[keep])
            assert np.array_equal(kept_cols, cols[keep])
            for name in ("exact_values", "approximate_values"):
                assert getattr(streamed, name).dtype == np.float64
                assert np.array_equal(
                    getattr(streamed, name), getattr(full_streamed, name)[keep]
                )

            dense = merge_shard_outputs(
                [None if dead else d for (d, _), dead in zip(shards, failed)],
                ranges,
                batch_size,
            )
            assert dense.logits.dtype == np.float64
            assert np.array_equal(dense.candidates.flat()[0], rows[keep])
            assert np.array_equal(dense.candidates.flat()[1], cols[keep])
            for name in ("logits", "approximate_logits"):
                expected = getattr(full_dense, name).copy()
                expected[:, missing] = np.nan
                assert np.array_equal(getattr(dense, name), expected, equal_nan=True)

    def test_all_failed_merge_needs_a_batch_size(self):
        ranges = shard_ranges(6, 2)
        for merge in (merge_shard_outputs, merge_streamed_outputs):
            with pytest.raises(ValueError, match="batch_size"):
                merge([None, None], ranges)


class TestShardedClassifier:
    @pytest.fixture(scope="class")
    def sharded(self):
        from repro.core import ScreeningConfig
        from repro.data import make_task

        task = make_task(num_categories=1200, hidden_dim=64, rng=4)
        model = ShardedClassifier(
            task.classifier, num_shards=4,
            config=ScreeningConfig(projection_dim=16),
        )
        model.train(task.sample_features(512), candidates_per_shard=16, rng=5)
        return task, model

    def test_untrained_forward_rejected(self, small_task):
        model = ShardedClassifier(small_task.classifier, num_shards=2)
        with pytest.raises(RuntimeError, match="train"):
            model.forward(np.zeros(64))

    def test_failed_training_never_leaves_a_partial_fleet(
        self, small_task, monkeypatch
    ):
        """A shard that fails to train must not leave ``trained`` true
        over the shards before it, nor cost a fleet that was serving."""
        import repro.distributed.sharding as sharding

        real_train = sharding.train_screener
        calls = []

        def fail_on_second_shard(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("shard 2 of 4")
            return real_train(*args, **kwargs)

        features = small_task.sample_features(64)
        model = ShardedClassifier(small_task.classifier, num_shards=4)
        monkeypatch.setattr(sharding, "train_screener", fail_on_second_shard)
        with pytest.raises(MemoryError):
            model.train(features, rng=0)
        assert not model.trained
        with pytest.raises(RuntimeError, match="train"):
            model.forward(features[:2])

        calls.clear()
        monkeypatch.setattr(sharding, "train_screener", real_train)
        model.train(features, rng=0)
        before = model.forward(features[:2]).logits
        monkeypatch.setattr(sharding, "train_screener", fail_on_second_shard)
        with pytest.raises(MemoryError):
            model.train(features, rng=1)
        assert model.trained and len(model.shards) == 4
        assert np.array_equal(model.forward(features[:2]).logits, before)

    def test_output_shape_global(self, sharded):
        task, model = sharded
        out = model(task.sample_features(3))
        assert out.logits.shape == (3, 1200)

    def test_candidates_in_global_order(self, sharded):
        task, model = sharded
        out = model(task.sample_features(2))
        for indices in out.candidates:
            assert indices.min() >= 0
            assert indices.max() < 1200
            # 16 candidates from each of 4 shards.
            assert indices.size == 64

    def test_candidate_entries_exact(self, sharded):
        task, model = sharded
        features = task.sample_features(2)
        out = model(features)
        exact = task.classifier.logits(features)
        for row, indices in enumerate(out.candidates):
            assert np.allclose(out.logits[row, indices], exact[row, indices])

    def test_predictions_match_exact(self, sharded):
        task, model = sharded
        features = task.sample_features(24)
        agreement = np.mean(
            model.predict(features) == task.classifier.predict(features)
        )
        assert agreement >= 0.9

    def test_top_k_reduce(self, sharded):
        task, model = sharded
        features = task.sample_features(4)
        indices, scores = model.top_k(features, k=5)
        assert indices.shape == (4, 5)
        # Scores sorted descending; indices valid and match scores.
        assert np.all(np.diff(scores, axis=1) <= 1e-12)
        out = model(features)
        rows = np.arange(4)[:, None]
        assert np.allclose(out.logits[rows, indices], scores)

    def test_top_k_beyond_category_count_rejected(self, sharded):
        """The single-node pipeline's error, not a silent ``l``-column
        result; ``k`` beyond one shard still clamps per shard."""
        task, model = sharded
        features = task.sample_features(2)
        with pytest.raises(ValueError, match="k=1201 exceeds score dimension 1200"):
            model.top_k(features, k=1201)
        indices, _ = model.top_k(features, k=1200)
        assert indices.shape == (2, 1200)


    def test_non_finite_row_fails_every_engine_the_same_way(self, sharded):
        """Sequential shards and worker processes reject a NaN row with
        the single-node error, whichever op carries it — no engine gets
        to meet the NaN in its own selection kernel."""
        task, model = sharded
        features = task.sample_features(3)
        features[1, 5] = np.nan
        with model.parallel() as engine:
            for backend in (model, engine):
                for call in (
                    backend.forward,
                    backend.forward_streaming,
                    lambda batch: backend.top_k(batch, k=3),
                ):
                    with pytest.raises(ValueError, match="row 1 contains NaN/inf"):
                        call(features)
            # The workers never saw the bad batch and still serve.
            assert engine.predict(task.sample_features(2)).shape == (2,)


class TestClusterModel:
    @pytest.fixture(scope="class")
    def workload(self):
        return get_workload("S10M")

    def test_node_time_shrinks_with_nodes(self, workload):
        cluster = ClusterModel()
        one = cluster.simulate(workload, nodes=1)
        eight = cluster.simulate(workload, nodes=8)
        assert eight.node_seconds < one.node_seconds / 4

    def test_reduce_grows_with_nodes(self, workload):
        cluster = ClusterModel()
        results = cluster.sweep(workload, (1, 4, 16))
        reduce_times = [r.reduce_seconds for r in results]
        assert reduce_times == sorted(reduce_times)

    def test_scaling_has_diminishing_returns(self, workload):
        """The reduce term eventually limits scale-out."""
        cluster = ClusterModel(
            network=NetworkModel(latency_s=1e-3)  # slow fabric
        )
        results = cluster.sweep(workload, (1, 256))
        assert results[1].reduce_fraction > results[0].reduce_fraction

    def test_total_is_sum(self, workload):
        result = ClusterModel().simulate(workload, nodes=4)
        assert result.seconds == pytest.approx(
            result.node_seconds + result.reduce_seconds
        )

    def test_validation(self, workload):
        with pytest.raises(ValueError):
            ClusterModel().simulate(workload, nodes=0)
        with pytest.raises(ValueError):
            NetworkModel().transfer_seconds(-1)
