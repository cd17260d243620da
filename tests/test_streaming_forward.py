"""Edge cases and the workspace of the blocked streaming forward pass.

``forward_streaming`` is the same function as the dense ``forward``
(``tests/test_matrix.py`` holds every backend to that, bit for bit, and
the selectors, feature widths, block sizes and shard counts this suite
is named for are named configurations of it below); the memory win
comes from never materializing the ``batch × l`` plane.  Here also:
empty candidate rows, a refused block width, and the steady state of the
arena every call takes its scratch from.
"""

import numpy as np
import pytest

from conftest import M
from contracts import check_configuration
from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
from repro.data import make_task

SELECTORS = ("top_m", "threshold")
#: Caller feature widths; every call casts to float64 at the door.
FEATURE_DTYPES = ("float64", "float32")
#: A degenerate 1-wide block, a ragged prime, and two blocks wider than
#: the single-tile model's 500 categories (one block).
BLOCKS = (1, 7, 600, 1800)
SHARD_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def features(zoo):
    return zoo.features[:16]


def model_of(zoo, selector_mode, size="single"):
    return zoo[(size, "trained", selector_mode, "fp64")]


def assert_candidates_equal(actual, expected):
    assert actual.batch_size == expected.batch_size
    for mine, theirs in zip(actual, expected):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
@pytest.mark.parametrize("selector_mode", SELECTORS)
class TestStreamingMatchesDense:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_candidates_and_values_bitwise(
        self, zoo, engines, selector_mode, feature_dtype, block
    ):
        check_configuration(
            zoo, engines, ("single", "trained", selector_mode, "fp64"),
            rows=16, dtype=feature_dtype, block=block,
        )

    def test_block_size_is_irrelevant(self, zoo, engines, selector_mode, feature_dtype):
        """Any two partitions of the category stream select identically
        (each blocked call is held to the unblocked one and to dense)."""
        for block in (7, 64, 5_000):
            check_configuration(
                zoo, engines, ("multi", "trained", selector_mode, "fp64"),
                dtype=feature_dtype, block=block,
            )

    def test_faithful_cross_check(self, zoo, engines, selector_mode, feature_dtype):
        """The per-row reference dataflow agrees with the streamed
        candidate values, on a store that is not the dense one's."""
        check_configuration(
            zoo, engines, ("multi", "trained", selector_mode, "int8"),
            rows=16, dtype=feature_dtype,
        )

    def test_predict_matches_dense_argmax_on_candidates(
        self, zoo, selector_mode, feature_dtype
    ):
        """Streamed predict() equals the dense argmax over the candidate
        entries (-1 on a row without candidates)."""
        model = model_of(zoo, selector_mode)
        features = zoo.features[:16].astype(feature_dtype)
        dense = model.forward(features)
        streamed = model.forward_streaming(features)
        masked = np.full(dense.logits.shape, -np.inf)
        rows, cols = dense.candidates.flat()
        masked[rows, cols] = dense.logits[rows, cols]
        expected = np.where(dense.candidates.counts > 0, np.argmax(masked, axis=1), -1)
        assert np.array_equal(streamed.predict(), expected)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("selector_mode", SELECTORS)
@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
class TestShardedStreaming:
    def test_streamed_matches_dense_forward(
        self, zoo, engines, shards, feature_dtype, selector_mode
    ):
        check_configuration(
            zoo, engines, (f"u{shards}", "trained", selector_mode, "fp64"),
            rows=16, dtype=feature_dtype, block=64,
        )

    def test_parallel_engine_matches_sequential(
        self, zoo, engines, shards, feature_dtype, selector_mode
    ):
        key = (f"u{shards}", "trained", selector_mode, "int8")
        check_configuration(zoo, engines, key, rows=16, dtype=feature_dtype, block=32)


class TestEdgeCases:
    def test_empty_candidate_rows(self, zoo, features):
        """A threshold above every score: no candidates anywhere, no
        exact work, predict() reports -1."""
        model = zoo[("single", "tied", "nothing", "fp64")]
        streamed = model.forward_streaming(features)
        assert streamed.exact_count == 0
        assert streamed.exact_values.size == 0
        assert streamed.approximate_values.size == 0
        assert np.array_equal(
            streamed.predict(), np.full(features.shape[0], -1)
        )
        dense = model.forward(features)
        assert np.array_equal(dense.logits, dense.approximate_logits)

    def test_invalid_block_rejected(self, zoo, features):
        model = model_of(zoo, "top_m")
        with pytest.raises(ValueError):
            model.forward_streaming(features, block_categories=0)

    def test_single_row_batch(self, zoo):
        model = model_of(zoo, "threshold", "multi")
        features = zoo.features[13:14]
        dense = model.forward(features)
        streamed = model.forward_streaming(features, block_categories=7)
        assert_candidates_equal(streamed.candidates, dense.candidates)
        rows, cols = dense.candidates.flat()
        assert np.array_equal(streamed.exact_values, dense.logits[rows, cols])

    def test_category_space_wider_than_one_tile(self, zoo):
        """l > TILE_CATEGORIES exercises the multi-tile enumeration the
        canonical-tile bit-identity argument rests on (ragged tail
        included)."""
        model = model_of(zoo, "top_m", "multi")
        features = zoo.features[20:24]
        dense = model.forward(features)
        streamed = model.forward_streaming(features, block_categories=1000)
        assert_candidates_equal(streamed.candidates, dense.candidates)
        rows, cols = dense.candidates.flat()
        assert np.array_equal(streamed.exact_values, dense.logits[rows, cols])


class TestWorkspaceSteadyState:
    @pytest.mark.parametrize("selector_mode", SELECTORS)
    def test_zero_allocations_after_warmup(self, zoo, features, selector_mode):
        """The acceptance criterion: after one warm-up call at a given
        batch shape, repeated streaming calls perform zero new
        workspace allocations."""
        model = model_of(zoo, selector_mode)
        model.forward_streaming(features)
        workspace = model.workspace
        settled = workspace.allocations
        requests = workspace.requests
        for _ in range(3):
            model.forward_streaming(features)
        assert workspace.allocations == settled
        assert workspace.requests > requests

    def test_smaller_batch_reuses_slabs(self, zoo, features):
        model = model_of(zoo, "top_m")
        model.forward_streaming(features)
        workspace = model.workspace
        settled = workspace.allocations
        model.forward_streaming(features[:4])
        assert workspace.allocations == settled

    def test_pipeline_owned_workspace_is_lazy_and_reused(self, zoo):
        model = ApproximateScreeningClassifier(
            zoo.tasks["single"].classifier, zoo.trained("single"), num_candidates=M
        )
        assert model._arena is None
        batch = zoo.features[30:38]
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
