"""Lanes around the one tile loop.

The contract under test: the serving loop folds every tile on the
caller's thread, so ``forward_streaming``, ``top_k`` and ``predict``
start no thread, and dense ``forward`` starts threads only in its plane
pass (``ScreeningModule.score_plane``), where cutting the tiles into
contiguous runs scored on threads of their own changes *when* a tile is
scored and nothing else.  Every serving call returns the single-lane
bits for every lane count, and no thread outlives the call (also when a
lane fails).

The lane count is forced by patching ``screener.lane_count`` (where the
plane pass reads it), never by the runner's core count, so a 1-core
runner exercises every case.  The module runs under ``pytest-timeout``
so a lost join fails fast instead of hanging the suite.
"""

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import answers, assert_same
from oracles import forward_per_row

from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
from repro.core import screener as screener_module
from repro.core.candidates import CandidateSelector
from repro.core.classifier import FullClassifier
from repro.core.screener import MIN_LANE_WORK, TILE_CATEGORIES, ScreeningModule, lane_count
from repro.data import make_task
from repro.linalg.topk import BlockwiseThreshold, stable_top_m_indices
from repro.obs import NULL_RECORDER, Recorder

pytestmark = pytest.mark.timeout(120)

TILES = 6
L = (TILES - 1) * TILE_CATEGORIES + 37
M = 12
SELECTORS = ("top_m", "threshold")
STORES = ("fp64", "int8")
#: Caller feature widths; every call casts to float64 at the door.
FEATURE_DTYPES = ("float64", "float32")
ROWS = (1, 8, 64)
MULTI_LANE = (2, 3, TILES - 1)
#: Absolute-aligned selection blocks of this width straddle every tile
#: boundary (multiples of 8,192).
STRADDLING_BLOCK = 5_000


def force_lanes(monkeypatch, lanes):
    monkeypatch.setattr(
        screener_module, "lane_count", lambda rows, tiles: max(1, min(lanes, tiles - 1))
    )


@pytest.fixture(scope="module")
def parts():
    task = make_task(num_categories=L, hidden_dim=16, rng=3)
    screener = train_screener(
        task.classifier,
        task.sample_features(64, rng=1),
        config=ScreeningConfig(projection_dim=4),
        solver="lstsq",
        rng=2,
    )
    return task, screener, task.sample_features(64, rng=7)


def build(parts, mode, store="fp64", m=M, tied=False, zeroed=False):
    task, trained, features = parts
    weight, bias = trained.weight.copy(), trained.bias.copy()
    if zeroed:
        weight[:], bias[:] = 0.0, 0.0
    if tied:
        # Around every tile boundary — so around every lane boundary of
        # the plane pass — eight columns score exactly 1000 and eight
        # around them 900.
        for edge in range(TILE_CATEGORIES, L, TILE_CATEGORIES):
            weight[edge - 8 : edge + 8], bias[edge - 8 : edge + 8] = 0.0, 900.0
            bias[edge - 4 : edge + 4] = 1000.0
    screener = ScreeningModule(trained.projection, weight, bias)
    selector = CandidateSelector(mode, num_candidates=m)
    if mode == "threshold":
        selector.calibrate(screener.approximate_logits(features[:8]))
    model = ApproximateScreeningClassifier(
        FullClassifier(task.classifier.weight, task.classifier.bias), screener, selector
    )
    if store == "int8":
        model.quantize_exact_weights("int8")
    return model


def lane_answers(model, features, k=5):
    """Every serving op's arrays; streaming also in blocks that straddle
    every tile boundary (the shared zoo's ``answers``)."""
    return answers(model, features, STRADDLING_BLOCK, k)


@pytest.fixture(scope="module")
def models(parts):
    return {(mode, store): build(parts, mode, store) for mode in SELECTORS for store in STORES}


# ----------------------------------------------------------------------
# bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("mode", SELECTORS)
def test_every_op_returns_the_single_lane_bits(
    monkeypatch, parts, models, mode, rows, feature_dtype, store
):
    model, features = models[(mode, store)], parts[2][:rows].astype(feature_dtype)
    force_lanes(monkeypatch, 1)
    expected = lane_answers(model, features)
    assert expected["streamed.exact"].dtype == np.float64  # whatever arrived
    for lanes in MULTI_LANE:
        force_lanes(monkeypatch, lanes)
        assert_same(lane_answers(model, features), expected)


@pytest.mark.parametrize("mode", SELECTORS)
@pytest.mark.parametrize("variant", ("tied", "zeroed"))
def test_ties_across_lane_boundaries_keep_the_total_order(monkeypatch, parts, mode, variant):
    """Exact score ties on both sides of every tile boundary, and rows
    whose scores are all equal: ``(score desc, index asc)`` survives
    the fold from one tile to the next, and the selection is the
    whole-plane oracle's, whichever lanes the plane pass takes."""
    model = build(parts, mode, m=6, **{variant: True})
    features = parts[2][:8]
    oracle = forward_per_row(model, features)
    force_lanes(monkeypatch, 1)
    expected = lane_answers(model, features, k=11)
    for call in (model.forward, model.forward_streaming):
        assert np.array_equal(call(features).candidates.flat()[1], oracle.candidates.flat()[1])
    for lanes in MULTI_LANE:
        force_lanes(monkeypatch, lanes)
        assert_same(lane_answers(model, features, k=11), expected)


@pytest.mark.parametrize("mode", SELECTORS)
def test_more_slots_than_a_tile_holds(monkeypatch, parts, mode):
    """``m + runner_ups`` wider than a tile: the reducer has no floor
    after tile 0 (no row holds that many entries), so tile 1 has no
    bound to be prescreened against, and the record keeps each entry
    until one does."""
    model = build(parts, mode, m=TILE_CATEGORIES)
    features = parts[2][:3]
    k = TILE_CATEGORIES + 100
    force_lanes(monkeypatch, 1)
    expected = lane_answers(model, features, k=k)
    oracle = forward_per_row(model, features)
    assert np.array_equal(expected["streamed.cols"], oracle.candidates.flat()[1])
    for lanes in MULTI_LANE:
        force_lanes(monkeypatch, lanes)
        assert_same(lane_answers(model, features, k=k), expected)


class TestReducerForks:
    """The reducer against the dense definitions, fed the way the serving
    loop feeds it: block 0 whole, then runs of blocks, each without the
    rows it holds nothing above the bound for (the rows a prescreen
    proves).  The name is that of the reducer forks these runs were
    folded on before the serving loop had one lane; it keeps the ids."""

    @staticmethod
    def plane(rng, batch=5, width=40):
        # A 3-value alphabet: ties everywhere, one all-equal row.
        plane = rng.choice([0.0, 1.0, 2.0], size=(batch, width))
        plane[0] = 1.0
        return plane

    @staticmethod
    def fold_in_runs(reducer, plane, cuts):
        """Block 0 into ``reducer``, then each later run in two halves,
        each on only the rows with an entry above the bound."""
        reducer.update(0, plane[:, : cuts[1]])
        for lo, hi in zip(cuts[1:], cuts[2:]):
            middle = (lo + hi) // 2
            for start, stop in ((lo, middle), (middle, hi)):
                block, bound = plane[:, start:stop], reducer.bound
                if bound is None:
                    reducer.update(start, block)
                    continue
                limit = np.broadcast_to(bound, (len(block),))
                rows = np.flatnonzero((block > limit[:, None]).any(axis=1))
                if len(rows):
                    reducer.update(start, block[rows], rows)
        return reducer.finalize()

    @pytest.mark.parametrize("m", (1, 4, 9, 25, 40, 64))
    @pytest.mark.parametrize("cuts", ([0, 8, 20, 40], [0, 3, 4, 30, 40], [0, 30, 35, 40]))
    def test_top_m(self, m, cuts):
        plane = self.plane(np.random.default_rng(m))
        reducer = CandidateSelector(mode="top_m", num_candidates=m).make_block_reducer(5, 40)
        counts, cols, values = self.fold_in_runs(reducer, plane, cuts)
        expected = stable_top_m_indices(plane, m)
        assert np.array_equal(cols.reshape(5, -1), expected)
        assert np.array_equal(values.reshape(5, -1), np.take_along_axis(plane, expected, 1))
        assert np.all(counts == expected.shape[1])

    @pytest.mark.parametrize("runner_ups", (0, 3, 12, 64))
    @pytest.mark.parametrize("threshold", (-1.0, 0.0, 1.0, 2.0))
    def test_threshold(self, threshold, runner_ups):
        plane = self.plane(np.random.default_rng(runner_ups))
        cuts = [0, 8, 20, 33, 40]
        whole = BlockwiseThreshold(5, threshold, runner_ups=runner_ups)
        for lo, hi in zip(cuts, cuts[1:]):
            whole.update(lo, plane[:, lo:hi])
        folded = self.fold_in_runs(
            BlockwiseThreshold(5, threshold, runner_ups=runner_ups), plane, cuts
        )
        for a, b in zip(folded, whole.finalize()):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# the lane count
# ----------------------------------------------------------------------
def test_lane_count_table(monkeypatch):
    cores = {"n": 2}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores["n"])))
    for cores["n"] in (1, 2, 4, 16):
        # parallel_cycle's 32 x 50K shards, serve_open's 1-32-row calls.
        assert all(lane_count(rows, 7) == 1 for rows in range(1, 33))
        # 64 x 670K: ten lanes' worth of scores.
        assert lane_count(64, 82) == min(cores["n"], 10)
        assert lane_count(1_000_000, 2) == 1
        assert lane_count(64, 25) == min(cores["n"], 3)
    cores["n"] = 1
    assert lane_count(1_000_000, 82) == 1
    cores["n"] = 128
    assert lane_count(1_000_000, 82) == 81
    assert 64 * 82 * TILE_CATEGORIES // MIN_LANE_WORK == 10


def test_small_calls_stay_on_the_callers_thread(monkeypatch, parts):
    """Under the real lane count this module's model is single-lane on
    any host: no thread is ever constructed."""

    def no_threads(*args, **kwargs):
        raise AssertionError("a single-lane call built a thread")

    assert lane_count(64, TILES) == 1
    monkeypatch.setattr(threading, "Thread", no_threads)
    lane_answers(build(parts, "top_m"), parts[2])


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("mode", SELECTORS)
def test_no_serving_call_starts_a_thread(monkeypatch, parts, models, mode, store):
    """With the lane rule at 3 lanes for every loop, ``forward_streaming``,
    ``top_k`` and ``predict`` answer without constructing a thread, and
    dense ``forward`` constructs its threads inside the plane pass only;
    every answer is the single-lane one."""
    model, features = models[(mode, store)], parts[2]
    expected = lane_answers(model, features)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(screener_module, "MIN_LANE_WORK", 1)
    assert lane_count(len(features), TILES) == 3
    real_thread, in_plane_pass, started = threading.Thread, [], []

    def thread(*args, **kwargs):
        assert in_plane_pass, "a serving call built a thread outside the plane pass"
        started.append(args)
        return real_thread(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", thread)
    streaming = {
        "streamed.exact": model.forward_streaming(features).exact_values,
        "blocked.exact": model.forward_streaming(
            features, block_categories=STRADDLING_BLOCK
        ).exact_values,
        "predict": model.predict(features),
    }
    streaming["top_k.indices"], streaming["top_k.scores"] = model.top_k(features, 5)
    assert_same(streaming, {name: expected[name] for name in streaming})
    score_plane = ScreeningModule.score_plane

    def plane_pass(screener, augmented, out):
        in_plane_pass.append(True)
        try:
            return score_plane(screener, augmented, out)
        finally:
            in_plane_pass.pop()

    monkeypatch.setattr(ScreeningModule, "score_plane", plane_pass)
    assert_same(lane_answers(model, features), expected)
    assert len(started) == 2  # dense forward's two helper lanes


# ----------------------------------------------------------------------
# failure semantics
# ----------------------------------------------------------------------
class Abort(BaseException):
    """Not an ``Exception``: what ``KeyboardInterrupt`` looks like."""


@pytest.mark.parametrize("mode", SELECTORS)
@pytest.mark.parametrize("failing_lane", (0, 1))
def test_a_failing_lane_is_raised_after_every_join(monkeypatch, parts, mode, failing_lane):
    """A lane of dense ``forward``'s plane pass fails once the other lane
    is provably mid-run: the caller sees the error only after that lane
    scored its whole run, no thread is left, and the next calls answer
    the single-lane bits."""
    model = build(parts, mode)
    features = parts[2][:8]
    force_lanes(monkeypatch, 1)
    expected = lane_answers(model, features)
    force_lanes(monkeypatch, 2)
    model.forward(features)

    runs = [[0, 1, 2], [3, 4, 5]]  # the plane pass's runs of the six tiles
    bad_tile = runs[failing_lane][1]
    other = set(runs[1 - failing_lane])
    score_tile = model.screener.score_tile
    other_started = threading.Event()
    finished = []

    def flaky(augmented, start, stop, out):
        tile = start // TILE_CATEGORIES
        if tile == bad_tile:
            # Fail only once the other lane is provably mid-run.
            assert other_started.wait(30)
            raise Abort(f"tile {tile}")
        if tile in other:
            other_started.set()
            time.sleep(0.05)
        result = score_tile(augmented, start, stop, out)
        finished.append(tile)
        return result

    threads_before = threading.active_count()
    monkeypatch.setattr(model.screener, "score_tile", flaky)
    with pytest.raises(Abort, match=f"tile {bad_tile}"):
        model.forward(features)
    # The surviving lane ran to its end before the caller saw the error.
    assert other <= set(finished)
    assert threading.active_count() == threads_before
    monkeypatch.setattr(model.screener, "score_tile", score_tile)
    assert_same(lane_answers(model, features), expected)
    assert threading.active_count() == threads_before


# ----------------------------------------------------------------------
# arena accounting and peak memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", SELECTORS)
def test_the_arena_accounts_for_its_lanes(monkeypatch, parts, mode):
    """The call's arena is the one-lane arena whatever the lane rule
    says: the plane pass takes no scratch from it, so a warm arena
    neither grows nor allocates at 3 lanes, and ``close`` empties it."""
    model = build(parts, mode)
    features = parts[2]
    held = []
    for lanes in (1, 3):
        force_lanes(monkeypatch, lanes)
        for _ in range(3):
            model.forward_streaming(features)
            model.forward(features)
        held.append((model.workspace.nbytes, model.workspace.allocations))
    assert held[0] == held[1]
    model.close()
    assert model.workspace.nbytes == 0


@pytest.mark.parametrize("mode", SELECTORS)
def test_lanes_allocate_nothing_from_the_second_call(monkeypatch, parts, mode):
    """The ``workspace`` contract from the first call on: a second call
    with a different batch of the same shape allocates nothing, dense
    ``forward`` with its plane pass in 2 lanes included."""
    model = build(parts, mode)
    if mode == "threshold":
        # Calibrated on the whole batch: tile 0 holds few of the hits.
        model.selector.calibrate(model.screener.approximate_logits(parts[2]))
    force_lanes(monkeypatch, 2)
    model.forward_streaming(parts[2])
    model.forward(parts[2])
    allocations = model.workspace.allocations
    batch = parts[0].sample_features(64, rng=11)
    model.forward_streaming(batch)
    model.forward(batch)
    assert model.workspace.allocations == allocations


def test_no_affinity_mask_counts_every_core(monkeypatch, parts, sharded):
    """macOS and Windows have no ``os.sched_getaffinity``: the lane rule
    counts ``os.cpu_count()`` there, so building a screener and serving
    through a 2-shard classifier work as on Linux."""
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert lane_count(64, 82) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert lane_count(64, 82) == 1
    trained = parts[1]
    rebuilt = ScreeningModule(trained.projection, trained.weight, trained.bias)
    assert np.array_equal(rebuilt._fused_weight_t, trained._fused_weight_t)
    features = parts[2][:16]
    streamed = sharded.forward_streaming(features)
    assert streamed.batch_size == 16 and streamed.exact_count > 0


def traced_peak(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seeded_lanes_do_not_pay_a_second_first_fill(monkeypatch, parts):
    """Warm ``forward_streaming`` in top-m mode: the reducer's first
    fill (a partition of a whole tile) is the peak, and only tile 0
    pays it; every later tile folds against its floor.  A lane rule of
    2 moves neither call's peak: the plane pass takes no scratch."""
    model = build(parts, "top_m")
    features = parts[2]
    force_lanes(monkeypatch, 1)
    single = [traced_peak(lambda: call(features)) for call in (model.forward_streaming, model.forward)]
    force_lanes(monkeypatch, 2)
    laned = [traced_peak(lambda: call(features)) for call in (model.forward_streaming, model.forward)]
    assert all(peak <= 1.02 * one for peak, one in zip(laned, single))


@pytest.mark.parametrize("lanes", (2, 3))
@pytest.mark.parametrize("mode", SELECTORS)
def test_top_k_peak_memory_is_lanes_plus_four_tiles(monkeypatch, parts, mode, lanes):
    """``top_k``'s arena is private to the call, so all of it counts:
    the tile, the first fill's partition copy and the runner-up queue
    (2.4 tiles, either mode) — under four tiles whatever the lane rule
    says, since the serving loop is one lane."""
    model = build(parts, mode)
    features = parts[2][:32]
    force_lanes(monkeypatch, lanes)
    peak = traced_peak(lambda: model.top_k(features, 16))
    assert peak < 4 * 32 * TILE_CATEGORIES * 8


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_lane_spans_land_under_their_own_tid(monkeypatch, parts):
    """A streaming call's one lane is the caller: every tile span lands
    under its ``tid``, with the lane rule at 2 too, and no lane gauge
    exists.  Dense ``forward``'s plane pass is one ``screen.gemm`` span
    on the caller around its lanes."""
    model = build(parts, "top_m")
    features = parts[2]
    force_lanes(monkeypatch, 2)
    expected = model.forward_streaming(features)
    for _ in range(2):
        model.forward_streaming(features)
    allocations = model.workspace.allocations

    recorder = Recorder(trace=True)
    model.set_recorder(recorder)
    traced = model.forward_streaming(features)
    model.forward(features)
    assert "pipeline.lanes" not in recorder.snapshot()["gauges"]
    names = []
    for event in recorder.tracer.chrome_events():
        if event["name"].startswith("streaming.") or event["name"] == "screen.gemm":
            assert event["tid"] == threading.get_ident()
            names.append(event["name"])
    assert names.count("screen.gemm") == 1
    # The streaming call screens and selects every tile once, but those a
    # prescreen stage skipped; dense forward selects every tile of its plane.
    skipped = recorder.snapshot()["counters"]["pipeline.tiles_skipped"]
    assert names.count("streaming.screen_tile") == TILES - skipped
    assert names.count("streaming.select_tile") == 2 * TILES - skipped
    assert recorder.tracer.open_spans() == 0

    # Detached again: same bits, nothing new allocated.
    model.set_recorder(NULL_RECORDER)
    quiet = model.forward_streaming(features)
    assert model.workspace.allocations == allocations
    for output in (traced, quiet):
        assert np.array_equal(output.candidates.flat()[1], expected.candidates.flat()[1])
        assert np.array_equal(output.exact_values, expected.exact_values)
        assert np.array_equal(output.approximate_values, expected.approximate_values)


# ----------------------------------------------------------------------
# process-parallel workers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded(zoo):
    """One shard of three tiles: its worker places the screener in lanes."""
    return zoo[("u1", "trained", "top_m", "fp64")]


def sharded_answers(engine, features):
    streamed = engine.forward_streaming(features)
    indices, scores = engine.top_k(features, 7)
    return {
        "counts": streamed.candidates.counts,
        "cols": streamed.candidates.flat()[1],
        "exact": streamed.exact_values,
        "approx": streamed.approximate_values,
        "indices": indices,
        "scores": scores,
    }


def test_fork_started_workers_after_and_with_lanes(monkeypatch, parts, sharded):
    """Per-call threads leave nothing behind for a fork to trip over:
    workers forked after a laned set-up in the host answer the
    sequential bits, and so do workers that place their own screeners
    in lanes (the patch is inherited through the fork)."""
    features = parts[2][:16]
    force_lanes(monkeypatch, 1)
    expected = sharded_answers(sharded, features)
    force_lanes(monkeypatch, 2)
    threads = threading.active_count()
    trained = parts[1]
    rebuilt = ScreeningModule(trained.projection, trained.weight, trained.bias)  # in lanes
    assert np.array_equal(rebuilt._fused_weight_t, trained._fused_weight_t)
    assert_same(sharded_answers(sharded, features), expected)
    assert threading.active_count() == threads
    with sharded.parallel(start_method="fork") as engine:  # set-up in lanes in the workers
        assert_same(sharded_answers(engine, features), expected)
    force_lanes(monkeypatch, 1)
    with sharded.parallel(start_method="fork") as engine:
        assert_same(sharded_answers(engine, features), expected)
