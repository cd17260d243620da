"""Differential harness for the blocked streaming forward pass.

The contract under test: ``forward_streaming`` is the *same function*
as the dense ``forward`` — identical candidate sets for every block
partition and bit-identical approximate and exact candidate values —
across selectors, feature widths, block sizes and shard counts.
The memory win comes from never materializing the ``batch × l`` plane,
not from changing a single output bit.
"""

import numpy as np
import pytest

from oracles import forward_per_row
from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
from repro.core.candidates import CandidateSelector
from repro.core.pipeline import StreamedOutput
from repro.core.screener import TILE_CATEGORIES
from repro.data import make_task
from repro.distributed import ShardedClassifier

NUM_CATEGORIES = 600
HIDDEN_DIM = 32
PROJECTION_DIM = 8
NUM_CANDIDATES = 12

SELECTORS = ("top_m", "threshold")
#: Caller feature widths; every call casts to float64 at the door.
FEATURE_DTYPES = ("float64", "float32")
# Per-issue matrix: a degenerate 1-wide block, a ragged prime, exactly
# one block, and a block larger than the category space.
BLOCKS = (1, 7, NUM_CATEGORIES, 3 * NUM_CATEGORIES)
SHARD_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def task():
    return make_task(num_categories=NUM_CATEGORIES, hidden_dim=HIDDEN_DIM, rng=4)


@pytest.fixture(scope="module")
def features(task):
    return task.sample_features(16, rng=6)


@pytest.fixture(scope="module")
def calibration(task):
    return task.sample_features(128, rng=9)


@pytest.fixture(scope="module")
def train_features(task):
    return task.sample_features(256, rng=7)


def build_pipeline(task, train_features, calibration, selector_mode):
    screener = train_screener(
        task.classifier,
        train_features,
        config=ScreeningConfig(projection_dim=PROJECTION_DIM),
        rng=5,
    )
    model = ApproximateScreeningClassifier(
        task.classifier, screener, num_candidates=NUM_CANDIDATES
    )
    if selector_mode == "threshold":
        selector = CandidateSelector(
            mode="threshold", num_candidates=NUM_CANDIDATES
        )
        selector.calibrate(screener.approximate_logits(calibration))
        model.selector = selector
    return model


@pytest.fixture(scope="module")
def pipeline_zoo(task, train_features, calibration):
    return {
        selector_mode: build_pipeline(task, train_features, calibration, selector_mode)
        for selector_mode in SELECTORS
    }


def assert_candidates_equal(actual, expected):
    assert actual.batch_size == expected.batch_size
    for mine, theirs in zip(actual, expected):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
@pytest.mark.parametrize("selector_mode", SELECTORS)
class TestStreamingMatchesDense:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_candidates_and_values_bitwise(
        self, pipeline_zoo, features, selector_mode, feature_dtype, block
    ):
        """Candidate entries are the dense entries, bit for bit: the
        streaming exact values go through the same kernel as the dense
        mix."""
        model = pipeline_zoo[selector_mode]
        features = features.astype(feature_dtype)
        dense = model.forward(features)
        streamed = model.forward_streaming(features, block_categories=block)
        assert isinstance(streamed, StreamedOutput)
        assert_candidates_equal(streamed.candidates, dense.candidates)
        rows, cols = dense.candidates.flat()
        assert streamed.approximate_values.dtype == dense.logits.dtype == np.float64
        assert np.array_equal(
            streamed.approximate_values, dense.approximate_logits[rows, cols]
        )
        assert streamed.exact_values.dtype == dense.logits.dtype
        assert np.array_equal(streamed.exact_values, dense.logits[rows, cols])
        assert streamed.exact_count == dense.exact_count
        assert streamed.num_categories == dense.num_categories

    def test_block_size_is_irrelevant(
        self, pipeline_zoo, features, selector_mode, feature_dtype
    ):
        """Any two partitions of the category stream select identically."""
        model = pipeline_zoo[selector_mode]
        features = features.astype(feature_dtype)
        reference = model.forward_streaming(features, block_categories=1)
        for block in (7, 64, NUM_CATEGORIES):
            other = model.forward_streaming(features, block_categories=block)
            assert_candidates_equal(other.candidates, reference.candidates)
            assert np.array_equal(other.exact_values, reference.exact_values)
            assert np.array_equal(
                other.approximate_values, reference.approximate_values
            )

    def test_faithful_cross_check(
        self, pipeline_zoo, features, selector_mode, feature_dtype
    ):
        """The per-row reference dataflow agrees with the streamed
        candidate values (same tolerance the dense engines grant each
        other)."""
        model = pipeline_zoo[selector_mode]
        features = features.astype(feature_dtype)
        faithful = forward_per_row(model, features)
        streamed = model.forward_streaming(features)
        assert_candidates_equal(streamed.candidates, faithful.candidates)
        rows, cols = faithful.candidates.flat()
        assert np.allclose(
            streamed.exact_values,
            faithful.logits[rows, cols],
            rtol=0,
            atol=1e-12,
        )
        assert np.array_equal(
            streamed.approximate_values, faithful.approximate_logits[rows, cols]
        )

    def test_predict_matches_dense_argmax_on_candidates(
        self, pipeline_zoo, features, selector_mode, feature_dtype
    ):
        """Streamed predict() equals the dense argmax whenever the
        winner sits inside the candidate set (it does for top-m on a
        trained screener here; assert via the candidate-masked dense
        argmax to stay exact)."""
        model = pipeline_zoo[selector_mode]
        features = features.astype(feature_dtype)
        dense = model.forward(features)
        streamed = model.forward_streaming(features)
        masked = np.full(dense.logits.shape, -np.inf)
        rows, cols = dense.candidates.flat()
        masked[rows, cols] = dense.logits[rows, cols]
        expected = np.where(
            dense.candidates.counts > 0, np.argmax(masked, axis=1), -1
        )
        assert np.array_equal(streamed.predict(), expected)


class TestEdgeCases:
    def test_empty_candidate_rows(self, pipeline_zoo, features):
        """A threshold above every score: no candidates anywhere, no
        exact work, predict() reports -1."""
        base = pipeline_zoo["top_m"]
        model = ApproximateScreeningClassifier(
            base.classifier,
            base.screener,
            selector=CandidateSelector(mode="threshold", threshold=1e18),
        )
        streamed = model.forward_streaming(features)
        assert streamed.exact_count == 0
        assert streamed.exact_values.size == 0
        assert streamed.approximate_values.size == 0
        assert np.array_equal(
            streamed.predict(), np.full(features.shape[0], -1)
        )
        dense = model.forward(features)
        assert np.array_equal(dense.logits, dense.approximate_logits)

    def test_invalid_block_rejected(self, pipeline_zoo, features):
        model = pipeline_zoo["top_m"]
        with pytest.raises(ValueError):
            model.forward_streaming(features, block_categories=0)

    def test_single_row_batch(self, pipeline_zoo, task):
        model = pipeline_zoo["threshold"]
        features = task.sample_features(1, rng=13)
        dense = model.forward(features)
        streamed = model.forward_streaming(features, block_categories=7)
        assert_candidates_equal(streamed.candidates, dense.candidates)
        rows, cols = dense.candidates.flat()
        assert np.array_equal(streamed.exact_values, dense.logits[rows, cols])

    def test_category_space_wider_than_one_tile(self):
        """l > TILE_CATEGORIES exercises the multi-tile enumeration the
        canonical-tile bit-identity argument rests on (ragged tail
        included)."""
        l = TILE_CATEGORIES + 173
        task = make_task(num_categories=l, hidden_dim=16, rng=21)
        screener = train_screener(
            task.classifier,
            task.sample_features(64, rng=22),
            config=ScreeningConfig(projection_dim=8),
            rng=23,
        )
        model = ApproximateScreeningClassifier(
            task.classifier, screener, num_candidates=8
        )
        features = task.sample_features(4, rng=24)
        dense = model.forward(features)
        streamed = model.forward_streaming(features, block_categories=1000)
        assert_candidates_equal(streamed.candidates, dense.candidates)
        rows, cols = dense.candidates.flat()
        assert np.array_equal(streamed.exact_values, dense.logits[rows, cols])


class TestWorkspaceSteadyState:
    @pytest.mark.parametrize("selector_mode", SELECTORS)
    def test_zero_allocations_after_warmup(
        self, pipeline_zoo, features, selector_mode
    ):
        """The acceptance criterion: after one warm-up call at a given
        batch shape, repeated streaming calls perform zero new
        workspace allocations."""
        model = pipeline_zoo[selector_mode]
        model.forward_streaming(features)
        workspace = model.workspace
        settled = workspace.allocations
        requests = workspace.requests
        for _ in range(3):
            model.forward_streaming(features)
        assert workspace.allocations == settled
        assert workspace.requests > requests

    def test_smaller_batch_reuses_slabs(self, pipeline_zoo, features):
        model = pipeline_zoo["top_m"]
        model.forward_streaming(features)
        workspace = model.workspace
        settled = workspace.allocations
        model.forward_streaming(features[:4])
        assert workspace.allocations == settled

    def test_pipeline_owned_workspace_is_lazy_and_reused(
        self, task, train_features, calibration
    ):
        model = build_pipeline(task, train_features, calibration, "top_m")
        assert model._arena is None
        batch = task.sample_features(8, rng=30)
        model.forward_streaming(batch)
        workspace = model._arena
        assert workspace is not None
        settled = workspace.allocations
        model.forward_streaming(batch)
        assert model._arena is workspace
        assert workspace.allocations == settled

    def test_replay_stays_flat_across_batches(self):
        """The benchmark's traced loop on one arena: a call, then the
        same batch folded by a reducer from ``make_block_reducer``.
        Warm on one batch, no later batch may grow a slab, whatever its
        data: the reducer's scratch is sized by the call's shape (here
        16 rows x 40K, five tiles), not by how many entries pass."""
        l, rows = 40_000, 16
        task = make_task(num_categories=l, hidden_dim=64, rng=41)
        screener = train_screener(
            task.classifier,
            task.sample_features(128, rng=42),
            config=ScreeningConfig(projection_dim=16),
            solver="lstsq",
            rng=43,
        )
        for seed in range(1, 6):
            model = ApproximateScreeningClassifier(
                task.classifier, screener, num_candidates=32
            )
            rng = np.random.default_rng(seed)
            batches = [task.sample_features(rows, rng=rng) for _ in range(4)]

            def cycle(batch):
                streamed = model.forward_streaming(batch)
                counts, cols, _ = fold_on_one_lane(model, batch)
                assert np.array_equal(counts, streamed.candidates.counts)
                assert np.array_equal(cols, streamed.candidates.flat()[1])

            for _ in range(8):  # warm until a cycle allocates nothing
                settled = model.workspace.allocations
                cycle(batches[0])
                if model.workspace.allocations == settled:
                    break
            for batch in batches:
                cycle(batch)
            assert model.workspace.allocations == settled, f"seed {seed}"


def fold_on_one_lane(model, batch):
    """The selection of ``forward_streaming`` replayed as the benchmark's
    traced loop does it: one reducer on the pipeline's arena, under the
    pipeline's keys, fed every tile in turn on the caller's thread."""
    screener, workspace = model.screener, model.workspace
    rows = batch.shape[0]
    augmented = screener.prepare_augmented(
        batch, out=workspace.buffer("augmented", (rows, screener.projection_dim + 1))
    )
    reducer = model.selector.make_block_reducer(
        rows, model.num_categories, workspace=workspace
    )
    for start, stop in screener.tile_bounds():
        out = workspace.buffer("tile", (rows, stop - start))
        reducer.update(start, screener.score_tile(augmented, start, stop, out=out))
    return reducer.finalize()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("selector_mode", SELECTORS)
@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
class TestShardedStreaming:
    @pytest.fixture(scope="class")
    def sharded_zoo(self, task, train_features, calibration):
        zoo = {}
        for shards in SHARD_COUNTS:
            for selector_mode in SELECTORS:
                model = ShardedClassifier(
                    task.classifier,
                    num_shards=shards,
                    config=ScreeningConfig(projection_dim=PROJECTION_DIM),
                )
                model.train(train_features, candidates_per_shard=8, rng=5)
                if selector_mode == "threshold":
                    for shard in model.shards:
                        selector = CandidateSelector(
                            mode="threshold", num_candidates=8
                        )
                        selector.calibrate(
                            shard.screener.approximate_logits(calibration)
                        )
                        shard.selector = selector
                zoo[(shards, selector_mode)] = model
        return zoo

    def test_streamed_matches_dense_forward(
        self, sharded_zoo, features, shards, feature_dtype, selector_mode
    ):
        model = sharded_zoo[(shards, selector_mode)]
        features = features.astype(feature_dtype)
        dense = model.forward(features)
        streamed = model.forward_streaming(features, block_categories=64)
        assert_candidates_equal(streamed.candidates, dense.candidates)
        rows, cols = dense.candidates.flat()
        assert np.array_equal(streamed.exact_values, dense.logits[rows, cols])
        assert np.array_equal(
            streamed.approximate_values, dense.approximate_logits[rows, cols]
        )
        assert streamed.num_categories == NUM_CATEGORIES

    def test_parallel_engine_matches_sequential(
        self, sharded_zoo, features, shards, feature_dtype, selector_mode
    ):
        if feature_dtype == "float32" and selector_mode == "threshold":
            pytest.skip("engine matrix covered by the other three cells")
        model = sharded_zoo[(shards, selector_mode)]
        features = features.astype(feature_dtype)
        sequential = model.forward_streaming(features, block_categories=32)
        with model.parallel() as engine:
            parallel = engine.forward_streaming(features, block_categories=32)
            assert_candidates_equal(
                parallel.candidates, sequential.candidates
            )
            assert np.array_equal(
                parallel.exact_values, sequential.exact_values
            )
            assert np.array_equal(
                parallel.approximate_values, sequential.approximate_values
            )
            # Streaming never allocates the dense output planes.
            assert engine._io_output is None
