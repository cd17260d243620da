"""``top_k`` ranks inside the tile reducer, not on the dense plane.

The contract — on every backend ``top_k`` (and ``predict``, its first
entry) returns exactly what ranking ``forward(...).logits`` under
``(score desc, index asc)`` returns, without calling ``forward`` — is
asserted by ``tests/test_matrix.py`` against ``oracles.rank_dense``;
the selectors, tie cases, sizes, feature widths and stores this suite is
named for are named configurations of it, each ranked at ``k`` = 1, m,
m + 5 and the (shard's) width.  Here also: the tie construction that
matrix relies on, and the peak memory of a call, which is tiles, not the
plane.
"""

import tracemalloc

import numpy as np
import pytest
from contracts import check_configuration

from repro.core import (
    ApproximateScreeningClassifier,
    CandidateSelector,
    ScreeningConfig,
    train_screener,
)
from repro.core.screener import TILE_CATEGORIES
from repro.data import make_task

ROWS = 9
#: Caller feature widths; every call casts to float64 at the door.
FEATURE_DTYPES = ("float64", "float32")
STORES = ("fp64", "int8")
SIZES = {"single_tile": "single", "multi_tile": "multi"}
#: The shared zoo's (screener variant, selector) for each case.
CASES = {
    "top_m": ("tied", "top_m"),
    "threshold": ("tied", "threshold"),
    "fewer_than_k_rejected": ("tied", "few_rejected"),
    "selects_nothing": ("tied", "nothing"),
    "zeroed_top_m": ("zeroed", "top_m"),
    "zeroed_all_rejected": ("zeroed", "all_rejected"),
    "zeroed_none_rejected": ("zeroed", "none_rejected"),
}
#: Each is ranked; the last, m + 5, also serves the other ops (ranking
#: a whole shard per row through every backend and the door is the slow
#: path the ranking checks need only once).
KS = ("1", "m", "width", "m+5")


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", CASES)
def test_single_node_top_k_equals_ranking_the_dense_plane(
    zoo, engines, case, size, feature_dtype, store
):
    check_configuration(
        zoo, engines, (SIZES[size], *CASES[case], store), dtype=feature_dtype, k=KS
    )


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
@pytest.mark.parametrize(
    "case", ["top_m", "threshold", "fewer_than_k_rejected", "selects_nothing", "zeroed_top_m"]
)
def test_sequential_parallel_and_dense_reference_agree(zoo, engines, case, feature_dtype, store):
    """seq ≡ par ≡ ``reduce_top_k`` over ``shard_top_k`` of each shard's
    dense plane — the gate the benchmark's traced ``parallel_cycle`` run
    applies every round — on two shards, each a two-tile loop with ties
    across its boundary."""
    check_configuration(zoo, engines, ("u2", *CASES[case], store), dtype=feature_dtype, k=KS)


def test_runner_up_ties_straddle_the_tile_boundary(zoo):
    """The construction does what the matrix relies on: top-6 keeps the
    six lowest-indexed 1000s (four left of the boundary), and the ranking
    continues with the two 1000s left out, then the 900s in index order
    — four on each side of the boundary."""
    model = zoo[("multi", "tied", "top_m", "fp64")]
    edge = TILE_CATEGORIES
    indices, scores = model.top_k(zoo.features[:ROWS], 10)
    expected = np.r_[edge + 2, edge + 3, edge - 8 : edge - 4, edge + 4 : edge + 8]
    assert np.array_equal(indices, np.tile(expected, (ROWS, 1)))
    assert np.array_equal(scores[0], [1000.0] * 2 + [900.0] * 8)


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
