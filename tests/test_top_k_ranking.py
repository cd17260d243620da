"""Differential suite for ``top_k``: ranking inside the tile reducer
equals ranking the dense plane.

The contract: on every backend ``top_k`` (and ``predict``, its first
entry) returns exactly what ranking ``forward(...).logits`` under
``(score desc, index asc)`` returns — indices, scores, order, dtype —
without calling ``forward`` or building a ``batch × l`` plane.  The
oracle here is a per-row ``lexsort`` of the dense plane; the library's
own dense reference (``shard_top_k`` + ``reduce_top_k``, which the
benchmark's traced run replays) is held to the same oracle.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    ApproximateScreeningClassifier,
    CandidateSelector,
    FullClassifier,
    ScreeningConfig,
    ScreeningModule,
    train_screener,
)
from repro.core.screener import TILE_CATEGORIES
from repro.data import make_task
from repro.distributed import ShardedClassifier
from repro.distributed.sharding import reduce_top_k, shard_top_k

pytestmark = pytest.mark.timeout(600)

M = 6
ROWS = 9
SIZES = {"single_tile": 500, "multi_tile": TILE_CATEGORIES + 37}
DTYPES = ("float64", "float32")
STORES = ("fp64", "int8")
#: (screener variant, selector) pairs.  ``tied``: eight columns straddling
#: the tile boundary score exactly 1000 and eight around them exactly 900,
#: so both the candidates and the runner-ups hold ties on both sides of
#: it.  ``zeroed``: every approximate score is 0 — thousands of ties.
CASES = {
    "top_m": ("tied", "top_m"),
    "threshold": ("tied", "calibrated"),
    "fewer_than_k_rejected": ("tied", "few_rejected"),
    "selects_nothing": ("tied", 1e12),
    "zeroed_top_m": ("zeroed", "top_m"),
    "zeroed_all_rejected": ("zeroed", 0.0),
    "zeroed_none_rejected": ("zeroed", -1.0),
}


def rank_dense(logits, k):
    """The oracle: each row's best ``min(k, l)`` under (score desc,
    index asc), by a full lexsort."""
    k = min(k, logits.shape[1])
    columns = np.arange(logits.shape[1])
    indices = np.stack([np.lexsort((columns, -row))[:k] for row in logits])
    return indices, np.take_along_axis(logits, indices, axis=1)


def no_plane(*args, **kwargs):
    raise AssertionError("top_k / predict called forward")


def assert_same_ranking(actual, expected):
    assert np.array_equal(actual[0], expected[0])
    assert np.array_equal(actual[1], expected[1])
    assert actual[1].dtype == expected[1].dtype


@pytest.fixture(scope="module")
def trained():
    """Per size: (task, trained screener, features)."""
    parts = {}
    for name, l in SIZES.items():
        task = make_task(num_categories=l, hidden_dim=16, rng=3)
        screener = train_screener(
            task.classifier,
            task.sample_features(64, rng=1),
            config=ScreeningConfig(projection_dim=4),
            solver="lstsq",
            rng=2,
        )
        parts[name] = (task, screener, task.sample_features(ROWS, rng=7))
    return parts


def build(classifier, trained_screener, features, case, dtype, store):
    """One pipeline of the matrix over ``classifier``."""
    variant, selector = CASES[case]
    l = classifier.num_categories
    weight, bias = trained_screener.weight.copy(), trained_screener.bias.copy()
    if variant == "zeroed":
        weight[:], bias[:] = 0.0, 0.0
    else:
        edge = TILE_CATEGORIES if l > TILE_CATEGORIES else l // 2
        weight[edge - 8 : edge + 8], bias[edge - 8 : edge + 8] = 0.0, 900.0
        bias[edge - 4 : edge + 4] = 1000.0
    screener = ScreeningModule(
        trained_screener.projection, weight, bias, compute_dtype=dtype
    )
    if selector == "top_m":
        chosen = CandidateSelector("top_m", num_candidates=M)
    else:
        chosen = CandidateSelector("threshold", num_candidates=M)
        approx = screener.approximate_logits(features)
        if selector == "calibrated":
            chosen.calibrate(approx)
        elif selector == "few_rejected":
            # The fullest row keeps four entries at or under the
            # threshold, the others fewer.
            chosen.threshold = float(np.sort(approx, axis=1)[:, 3].min())
        else:
            chosen.threshold = selector
    model = ApproximateScreeningClassifier(
        FullClassifier(classifier.weight, classifier.bias), screener, chosen
    )
    if store == "int8":
        model.quantize_exact_weights("int8")
    return model


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", CASES)
def test_single_node_top_k_equals_ranking_the_dense_plane(
    trained, case, size, dtype, store
):
    task, screener, features = trained[size]
    model = build(task.classifier, screener, features, case, dtype, store)
    l = model.num_categories
    dense = model.forward(features)
    model.forward = no_plane  # from here on the plane is out of reach
    assert dense.logits.dtype == np.dtype(dtype)
    if case == "fewer_than_k_rejected":
        rejected = l - dense.candidates.counts
        assert rejected.max() == 4 and rejected.min() < 4
    if case == "selects_nothing":
        assert dense.exact_count == 0
    for k in (1, M, M + 5, l):
        expected = rank_dense(dense.logits, k)
        assert_same_ranking(model.top_k(features, k), expected)
        assert_same_ranking(shard_top_k(dense, range(l), k), expected)
    # Past l the dense wire format clamps; the call refuses.
    assert_same_ranking(
        shard_top_k(dense, range(l), l + 3), rank_dense(dense.logits, l)
    )
    with pytest.raises(ValueError, match=f"k={l + 3} exceeds score dimension {l}"):
        model.top_k(features, l + 3)
    assert np.array_equal(model.predict(features), np.argmax(dense.logits, axis=1))


def test_runner_up_ties_straddle_the_tile_boundary(trained):
    """The construction does what the matrix relies on: top-6 keeps the
    six lowest-indexed 1000s (four left of the boundary), and the ranking
    continues with the two 1000s left out, then the 900s in index order
    — four on each side of the boundary."""
    task, screener, features = trained["multi_tile"]
    model = build(task.classifier, screener, features, "top_m", "float64", "fp64")
    edge = TILE_CATEGORIES
    indices, scores = model.top_k(features, 10)
    expected = np.r_[edge + 2, edge + 3, edge - 8 : edge - 4, edge + 4 : edge + 8]
    assert np.array_equal(indices, np.tile(expected, (ROWS, 1)))
    assert np.array_equal(scores[0], [1000.0] * 2 + [900.0] * 8)


@pytest.fixture(scope="module")
def two_shards(trained):
    """A two-shard category space: the multi-tile task twice over, so
    every shard runs a two-tile loop with ties across its boundary."""
    task, screener, features = trained["multi_tile"]
    classifier = FullClassifier(
        np.vstack([task.classifier.weight, -task.classifier.weight]),
        np.concatenate([task.classifier.bias, task.classifier.bias]),
    )
    return classifier, screener, features


def sharded_model(two_shards, case, dtype, store):
    classifier, screener, features = two_shards
    model = ShardedClassifier(classifier, num_shards=2)
    model.shards = [
        build(
            FullClassifier(
                classifier.weight[r.start : r.stop], classifier.bias[r.start : r.stop]
            ),
            screener, features, case, dtype, store,
        )
        for r in model.ranges
    ]
    return model


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "case", ["top_m", "threshold", "fewer_than_k_rejected", "selects_nothing", "zeroed_top_m"]
)
def test_sequential_parallel_and_dense_reference_agree(
    two_shards, case, dtype, store, monkeypatch
):
    """seq ≡ par ≡ ``reduce_top_k`` over ``shard_top_k`` of each shard's
    dense plane — the gate the benchmark's traced ``parallel_cycle`` run
    applies every round — and all three equal the oracle on the merged
    plane; ``predict`` is their first column.  Once the references are
    taken ``forward`` is patched to raise, in this process and (by fork)
    in the workers."""
    model = sharded_model(two_shards, case, dtype, store)
    features = two_shards[2]
    merged = model.forward(features).logits
    ks = (1, M, M + 5, len(model.ranges[0]))
    references = {}
    for k in ks:
        parts = [
            shard_top_k(shard.forward(features), shard_range, k)
            for shard, shard_range in zip(model.shards, model.ranges)
        ]
        references[k] = reduce_top_k([p[0] for p in parts], [p[1] for p in parts], k)
    monkeypatch.setattr(ApproximateScreeningClassifier, "forward", no_plane)
    with model.parallel() as engine:
        for k in ks:
            expected = rank_dense(merged, k)
            assert_same_ranking(references[k], expected)
            assert_same_ranking(model.top_k(features, k), expected)
            assert_same_ranking(engine.top_k(features, k), expected)
        best = np.argmax(merged, axis=1)
        assert np.array_equal(model.predict(features), best)
        assert np.array_equal(engine.predict(features), best)
        # top_k and predict never asked for the shared output planes.
        assert engine._io_output is None


def test_top_k_peak_memory_is_tiles_not_the_plane():
    """l = 200K, batch 32: the float64 plane is 51 MB; ``top_k`` stays
    below five 32 x 8,192 float64 tiles (10.5 MB) in both selector
    modes.  Top-m reads 4.2 tiles — the tile plus the reducer's first
    fill, which still merges a whole tile: score and column copies and
    the partition's own — threshold 2.3."""
    l, batch = 200_000, 32
    task = make_task(num_categories=l, hidden_dim=16, rng=3)
    screener = train_screener(
        task.classifier,
        task.sample_features(64, rng=1),
        config=ScreeningConfig(projection_dim=4),
        solver="lstsq",
        rng=2,
    )
    features = task.sample_features(batch, rng=7)
    threshold = CandidateSelector("threshold", num_candidates=32)
    threshold.calibrate(screener.approximate_logits(task.sample_features(8, rng=9)))
    five_tiles = 5 * batch * TILE_CATEGORIES * 8
    for selector in (CandidateSelector("top_m", num_candidates=32), threshold):
        model = ApproximateScreeningClassifier(task.classifier, screener, selector)
        model.top_k(features, 16)
        tracemalloc.start()
        try:
            model.top_k(features, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < five_tiles, (selector.mode, peak)
