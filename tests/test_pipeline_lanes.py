"""Category lanes in the one tile loop.

The contract under test: cutting the screening tiles into contiguous
runs that fold on threads of their own — each into a fork of the
reducer carrying the floor the first tile set — changes *when* a tile
is scored and nothing else.  Every serving call returns the bits of
the single-lane loop for every lane count, no thread outlives the call
(also when a lane fails), and the lanes' scratch is accounted for by
the arena the call runs on.

The lane count is forced by patching ``pipeline.lane_count``, never by
the runner's core count, so a 1-core runner exercises every case.  The
module runs under ``pytest-timeout`` so a lost join fails fast instead
of hanging the suite.
"""

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from oracles import forward_per_row

from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
from repro.core import pipeline as pipeline_module
from repro.core.candidates import CandidateSelector
from repro.core.classifier import FullClassifier
from repro.core.screener import MIN_LANE_WORK, TILE_CATEGORIES, ScreeningModule, lane_count
from repro.data import make_task
from repro.distributed import ShardedClassifier
from repro.linalg.topk import BlockwiseThreshold, stable_top_m_indices
from repro.obs import NULL_RECORDER, Recorder
from repro.utils.memory import Workspace

pytestmark = pytest.mark.timeout(120)

TILES = 6
L = (TILES - 1) * TILE_CATEGORIES + 37
M = 12
SELECTORS = ("top_m", "threshold")
#: Caller feature widths; every call casts to float64 at the door.
FEATURE_DTYPES = ("float64", "float32")
STORES = ("fp64", "int8")
ROWS = (1, 8, 64)
MULTI_LANE = (2, 3, TILES - 1)
#: Absolute-aligned selection blocks of this width straddle every lane
#: boundary the counts above produce (multiples of 8,192).
STRADDLING_BLOCK = 5_000


def force_lanes(monkeypatch, lanes):
    monkeypatch.setattr(
        pipeline_module, "lane_count", lambda rows, tiles: max(1, min(lanes, tiles - 1))
    )


def lane_tiles(lanes, tiles=TILES):
    """Which tile indices each lane folds (lane 0 includes tile 0)."""
    rest = tiles - 1
    cuts = [rest * lane // lanes for lane in range(lanes + 1)]
    runs = [list(range(1 + lo, 1 + hi)) for lo, hi in zip(cuts, cuts[1:])]
    runs[0].insert(0, 0)
    return runs


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
    return task, screener, task.sample_features(max(ROWS), rng=7)


def build(parts, mode, store="fp64", m=M, tied=False, zeroed=False):
    task, trained, features = parts
    weight, bias = trained.weight.copy(), trained.bias.copy()
    if zeroed:
        weight[:], bias[:] = 0.0, 0.0
    if tied:
        # Around every tile boundary — so around every lane boundary —
        # eight columns score exactly 1000 and eight around them 900.
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


def answers(model, features, k=5):
    """Every serving op's arrays, in a fixed order."""
    arrays = []
    for block in (None, STRADDLING_BLOCK):
        streamed = model.forward_streaming(features, block_categories=block)
        arrays += [
            streamed.candidates.counts,
            streamed.candidates.flat()[1],
            streamed.exact_values,
            streamed.approximate_values,
        ]
    dense = model.forward(features)
    arrays += [dense.logits, dense.candidates.flat()[1], dense.approximate_logits]
    arrays += list(model.top_k(features, k))
    arrays.append(model.predict(features))
    return arrays


def assert_same_answers(actual, expected):
    assert len(actual) == len(expected)
    for index, (a, b) in enumerate(zip(actual, expected)):
        assert a.dtype == b.dtype and np.array_equal(a, b), f"array {index} differs"


# ----------------------------------------------------------------------
# bit-identity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def zoo(parts):
    return {
        (mode, store): build(parts, mode, store)
        for mode in SELECTORS
        for store in STORES
    }


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("mode", SELECTORS)
def test_every_op_returns_the_single_lane_bits(monkeypatch, parts, zoo, mode, rows, feature_dtype, store):
    model, features = zoo[(mode, store)], parts[2][:rows].astype(feature_dtype)
    force_lanes(monkeypatch, 1)
    expected = answers(model, features)
    assert expected[2].dtype == np.float64  # exact values, whatever arrived
    for lanes in MULTI_LANE:
        force_lanes(monkeypatch, lanes)
        assert_same_answers(answers(model, features), expected)


@pytest.mark.parametrize("mode", SELECTORS)
@pytest.mark.parametrize("variant", ("tied", "zeroed"))
def test_ties_across_lane_boundaries_keep_the_total_order(monkeypatch, parts, mode, variant):
    """Exact score ties on both sides of every lane boundary, and rows
    whose scores are all equal: ``(score desc, index asc)`` survives
    the absorb, and the selection is the whole-plane oracle's."""
    model = build(parts, mode, m=6, **{variant: True})
    features = parts[2][:8]
    oracle = forward_per_row(model, features)
    force_lanes(monkeypatch, 1)
    expected = answers(model, features, k=11)
    assert np.array_equal(model.forward(features).candidates.flat()[1], oracle.candidates.flat()[1])
    for lanes in MULTI_LANE:
        force_lanes(monkeypatch, lanes)
        assert_same_answers(answers(model, features, k=11), expected)


@pytest.mark.parametrize("mode", SELECTORS)
def test_more_slots_than_a_tile_holds(monkeypatch, parts, mode):
    """``m + runner_ups`` wider than a tile: lanes fork a reducer that
    has no floor yet (no row holds that many entries after tile 0), and
    every absorb keeps each entry until one does."""
    model = build(parts, mode, m=TILE_CATEGORIES)
    features = parts[2][:3]
    k = TILE_CATEGORIES + 100
    force_lanes(monkeypatch, 1)
    expected = answers(model, features, k=k)
    for lanes in MULTI_LANE:
        force_lanes(monkeypatch, lanes)
        assert_same_answers(answers(model, features, k=k), expected)


class TestReducerForks:
    """Fork / absorb against the dense definitions, without a pipeline."""

    @staticmethod
    def plane(rng, batch=5, width=40):
        # A 3-value alphabet: ties everywhere, one all-equal row.
        plane = rng.choice([0.0, 1.0, 2.0], size=(batch, width))
        plane[0] = 1.0
        return plane

    @staticmethod
    def fold_in_lanes(reducer, plane, cuts):
        """Block 0 into ``reducer``, then one fork per later run."""
        bounds = list(zip(cuts, cuts[1:]))
        reducer.update(0, plane[:, : cuts[1]])
        forks = [(lo, reducer.fork(Workspace())) for lo, _ in bounds[2:]]
        runs = [reducer] + [fork for _, fork in forks]
        # Interleave the lanes' blocks the way threads would.
        for (lo, hi), lane in zip(bounds[1:], runs):
            middle = (lo + hi) // 2
            lane.update(lo, plane[:, lo:middle])
            lane.update(middle, plane[:, middle:hi])
        for lo, fork in forks:
            reducer.absorb(fork, lo)
        return reducer.finalize()

    @pytest.mark.parametrize("m", (1, 4, 9, 25, 40, 64))
    @pytest.mark.parametrize("cuts", ([0, 8, 20, 40], [0, 3, 4, 30, 40], [0, 30, 35, 40]))
    def test_top_m(self, m, cuts):
        plane = self.plane(np.random.default_rng(m))
        reducer = CandidateSelector(mode="top_m", num_candidates=m).make_block_reducer(5, 40)
        counts, cols, values = self.fold_in_lanes(reducer, plane, cuts)
        expected = stable_top_m_indices(plane, m)
        assert np.array_equal(cols.reshape(5, -1), expected)
        assert np.array_equal(values.reshape(5, -1), np.take_along_axis(plane, expected, 1))
        assert np.all(counts == expected.shape[1])

    @pytest.mark.parametrize("runner_ups", (0, 3, 12, 64))
    @pytest.mark.parametrize("threshold", (-1.0, 0.0, 1.0, 2.0))
    def test_threshold(self, threshold, runner_ups):
        plane = self.plane(np.random.default_rng(runner_ups))
        cuts = [0, 8, 20, 33, 40]
        single = BlockwiseThreshold(5, threshold, runner_ups=runner_ups)
        for lo, hi in zip(cuts, cuts[1:]):
            single.update(lo, plane[:, lo:hi])
        laned = self.fold_in_lanes(
            BlockwiseThreshold(5, threshold, runner_ups=runner_ups), plane, cuts
        )
        for a, b in zip(laned, single.finalize()):
            assert np.array_equal(a, b)


    def test_threshold_fork_has_the_records_room(self):
        """A run's share of the hits is anything from none to all (the
        benchmark's categories are frequency-sorted: lane 1 of a
        64 x 670K call sees a handful).  Absorbing a fork leaves its
        arena with the room of the whole record it joined, so the next
        call's fork on that arena takes every hit without allocating,
        however few it took the first time."""
        workspace, lane = Workspace(), Workspace()
        for call in range(2):
            reducer = BlockwiseThreshold(2, 0.5, workspace=workspace)
            reducer.update(0, np.ones((2, 50)))
            fork = reducer.fork(lane)
            fork.update(50, np.zeros((2, 10)))  # its compare mask, no hit
            if call == 1:
                for start in range(60, 160, 10):
                    fork.update(start, np.full((2, 10), float(start % 20 == 0)))
                assert fork._hits.count == 100 and lane.allocations == settled
            reducer.absorb(fork, 50)
            settled = lane.allocations
        assert reducer._hits.count == 200


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
    answers(build(parts, "top_m"), parts[2])


# ----------------------------------------------------------------------
# failure semantics
# ----------------------------------------------------------------------
class Abort(BaseException):
    """Not an ``Exception``: what ``KeyboardInterrupt`` looks like."""


@pytest.mark.parametrize("mode", SELECTORS)
@pytest.mark.parametrize("failing_lane", (0, 1))
def test_a_failing_lane_is_raised_after_every_join(monkeypatch, parts, mode, failing_lane):
    model = build(parts, mode)
    features = parts[2][:8]
    force_lanes(monkeypatch, 1)
    expected = answers(model, features)
    force_lanes(monkeypatch, 2)
    model.forward_streaming(features)  # arenas warm, as in serving

    runs = lane_tiles(2)
    bad_tile = runs[failing_lane][1]
    other = set(runs[1 - failing_lane]) - {0}
    score_tile = model.screener.score_tile
    float32_left = pipeline_module.TilePrescreen.float32_left
    coarse_left = pipeline_module.TilePrescreen.coarse_left
    other_started = threading.Event()
    finished = []

    def scoring(start):
        tile = start // TILE_CATEGORIES
        if tile == bad_tile:
            # Fail only once the other lane is provably mid-run.
            assert other_started.wait(30)
            raise Abort(f"tile {tile}")
        if tile in other:
            other_started.set()
            time.sleep(0.05)

    def flaky(augmented, start, stop, out):
        scoring(start)
        result = score_tile(augmented, start, stop, out)
        finished.append(start // TILE_CATEGORIES)
        return result

    def flaky_float32_left(screen, start, stop, bound, ws, rows=None):
        # A tile the float32 prescreen proves empty is never scored in
        # float64: the failure is injected wherever a tile is scored.
        scoring(start)
        result = float32_left(screen, start, stop, bound, ws, rows)
        finished.append(start // TILE_CATEGORIES)
        return result

    def flaky_coarse_left(screen, start, bound, boxes):
        # Nor is a tile its boxes prove empty scored in float32: a
        # box-tested tile meets its coarse bounds first.
        scoring(start)
        result = coarse_left(screen, start, bound, boxes)
        finished.append(start // TILE_CATEGORIES)
        return result

    threads_before = threading.active_count()
    monkeypatch.setattr(model.screener, "score_tile", flaky)
    monkeypatch.setattr(pipeline_module.TilePrescreen, "float32_left", flaky_float32_left)
    monkeypatch.setattr(pipeline_module.TilePrescreen, "coarse_left", flaky_coarse_left)
    for call in (
        lambda: model.forward_streaming(features),
        lambda: model.forward(features),
        lambda: model.top_k(features, 5),
    ):
        del finished[:]
        other_started.clear()
        with pytest.raises(Abort, match=f"tile {bad_tile}"):
            call()
        # The surviving lane ran to its end before the caller saw the error.
        assert other <= set(finished)
        assert threading.active_count() == threads_before
    monkeypatch.setattr(model.screener, "score_tile", score_tile)
    monkeypatch.setattr(pipeline_module.TilePrescreen, "float32_left", float32_left)
    monkeypatch.setattr(pipeline_module.TilePrescreen, "coarse_left", coarse_left)
    assert_same_answers(answers(model, features), expected)
    assert threading.active_count() == threads_before


# ----------------------------------------------------------------------
# arena accounting and peak memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", SELECTORS)
def test_the_arena_accounts_for_its_lanes(monkeypatch, parts, mode):
    model = build(parts, mode)
    features = parts[2]
    force_lanes(monkeypatch, 1)
    for _ in range(3):
        model.forward_streaming(features)
    single = model.workspace.nbytes
    force_lanes(monkeypatch, 3)
    before = model.workspace.allocations
    model.forward_streaming(features)
    assert model.workspace.allocations > before
    tile = features.shape[0] * TILE_CATEGORIES * 8
    # One tile of scratch per helper lane, plus its mask and fork.
    assert single + 2 * tile < model.workspace.nbytes < single + 2 * 1.5 * tile
    for _ in range(2):
        model.forward_streaming(features)
    settled = model.workspace.allocations
    for _ in range(3):
        model.forward_streaming(features)
    assert model.workspace.allocations == settled
    model.close()
    assert model.workspace.nbytes == 0


@pytest.mark.parametrize("mode", SELECTORS)
def test_lanes_allocate_nothing_from_the_second_call(monkeypatch, parts, mode):
    """The ``workspace`` contract from the first call on, lanes included:
    a second 2-lane call with a different batch of the same shape
    allocates nothing.  (A threshold fork used to be sized when it was
    made, from the record tile 0 left, so the second call still grew
    lane 1's hit slabs to what the first call's absorb had made of it.)"""
    model = build(parts, mode)
    if mode == "threshold":
        # Calibrated on the whole batch, tile 0 holds too few of the
        # call's hits for a record sized at the fork.
        model.selector.calibrate(model.screener.approximate_logits(parts[2]))
    force_lanes(monkeypatch, 2)
    model.forward_streaming(parts[2])
    allocations = model.workspace.allocations
    model.forward_streaming(parts[0].sample_features(max(ROWS), rng=11))
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


def test_workspace_lane_is_a_kept_child():
    workspace = Workspace()
    lane = workspace.lane(2)
    assert workspace.lane(2) is lane and workspace.lane(1) is not lane
    lane.buffer("tile", (4, 4))
    workspace.buffer("tile", (2, 2))
    assert workspace.allocations == 2 and workspace.nbytes == (16 + 4) * 8
    workspace.release()
    assert workspace.nbytes == 0 and lane.nbytes == 0
    assert workspace.allocations == 2


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
    pays it.  Lanes that started without its floor would read 2.0x."""
    model = build(parts, "top_m")
    features = parts[2]
    force_lanes(monkeypatch, 1)
    single = traced_peak(lambda: model.forward_streaming(features))
    force_lanes(monkeypatch, 2)
    assert traced_peak(lambda: model.forward_streaming(features)) <= 1.02 * single


@pytest.mark.parametrize("lanes", (2, 3))
@pytest.mark.parametrize("mode", SELECTORS)
def test_top_k_peak_memory_is_lanes_plus_four_tiles(monkeypatch, parts, mode, lanes):
    """``top_k``'s arena is private to the call, so all of it counts:
    the tile, the first fill's partition copy and the runner-up queue
    (2.4 tiles single-lane, either mode), plus a tile, its mask and its
    queue per helper lane."""
    model = build(parts, mode)
    features = parts[2][:32]
    force_lanes(monkeypatch, lanes)
    peak = traced_peak(lambda: model.top_k(features, 16))
    assert peak < (lanes + 4) * 32 * TILE_CATEGORIES * 8


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_lane_spans_land_under_their_own_tid(monkeypatch, parts):
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
    assert recorder.snapshot()["gauges"]["pipeline.lanes"] == 2
    per_tid = {}
    for event in recorder.tracer.chrome_events():
        if event["name"].startswith("streaming.") and event["name"].endswith("_tile"):
            per_tid.setdefault(event["tid"], []).append(event["name"])
    assert threading.get_ident() in per_tid and len(per_tid) == 2
    # Together the two lanes screen and select every tile once, but
    # those a prescreen stage skipped: a float32 prescreen span with no
    # screen span after it, or a box span with no float32 one after it.
    names = sum(per_tid.values(), [])
    skipped = recorder.snapshot()["counters"]["pipeline.tiles_skipped"]
    assert names.count("streaming.screen_tile") == TILES - skipped
    assert names.count("streaming.select_tile") == TILES - skipped

    def tiles_folded(names):
        after = names[1:] + [None]
        next_stage = {
            "streaming.box_tile": "streaming.prescreen_tile",
            "streaming.prescreen_tile": "streaming.screen_tile",
        }
        return names.count("streaming.select_tile") + sum(
            name in next_stage and next_name != next_stage[name]
            for name, next_name in zip(names, after)
        )

    assert sorted(tiles_folded(names) for names in per_tid.values()) == sorted(
        len(run) for run in lane_tiles(2)
    )
    assert recorder.tracer.open_spans() == 0

    force_lanes(monkeypatch, 1)
    model.forward_streaming(features)
    assert recorder.snapshot()["gauges"]["pipeline.lanes"] == 1

    # Detached again: same bits, nothing new allocated.
    model.set_recorder(NULL_RECORDER)
    force_lanes(monkeypatch, 2)
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
def sharded(parts):
    task = parts[0]
    model = ShardedClassifier(
        task.classifier, num_shards=2, config=ScreeningConfig(projection_dim=4)
    )
    model.train(
        task.sample_features(64, rng=1),
        candidates_per_shard=M,
        solver="lstsq",
        rng=np.random.default_rng(5),
    )
    return model


def sharded_answers(engine, features):
    streamed = engine.forward_streaming(features)
    indices, scores = engine.top_k(features, 7)
    return [
        streamed.candidates.counts,
        streamed.candidates.flat()[1],
        streamed.exact_values,
        streamed.approximate_values,
        indices,
        scores,
    ]


def test_fork_started_workers_after_and_with_lanes(monkeypatch, parts, sharded):
    """Per-call threads leave nothing behind for a fork to trip over:
    workers forked after a multi-lane call in the host answer the
    sequential bits, and so do workers that run their own shards in
    lanes (the patch is inherited through the fork)."""
    features = parts[2][:16]
    force_lanes(monkeypatch, 1)
    expected = sharded_answers(sharded, features)
    force_lanes(monkeypatch, 2)
    threads = threading.active_count()
    assert_same_answers(sharded_answers(sharded, features), expected)  # lanes in the host
    assert threading.active_count() == threads
    with sharded.parallel(start_method="fork") as engine:  # lanes in the workers
        assert_same_answers(sharded_answers(engine, features), expected)
    force_lanes(monkeypatch, 1)
    with sharded.parallel(start_method="fork") as engine:
        assert_same_answers(sharded_answers(engine, features), expected)
