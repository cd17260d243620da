import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.candidates import CandidateSelector
from repro.linalg.topk import (
    BlockwiseThreshold,
    calibrate_threshold,
    select_above_threshold,
    stable_top_m_indices,
    top_k_indices,
)
from repro.utils.memory import Workspace

score_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 5), st.integers(2, 32)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestTopK:
    def test_sorted_descending(self):
        scores = np.array([1.0, 9.0, 3.0, 7.0])
        assert top_k_indices(scores, 2).tolist() == [1, 3]

    def test_unsorted_same_set(self):
        scores = np.random.default_rng(0).standard_normal(50)
        sorted_idx = set(top_k_indices(scores, 5, sort=True).tolist())
        unsorted_idx = set(top_k_indices(scores, 5, sort=False).tolist())
        assert sorted_idx == unsorted_idx

    def test_batched(self):
        scores = np.array([[1.0, 2.0], [5.0, 0.0]])
        out = top_k_indices(scores, 1)
        assert out.tolist() == [[1], [0]]

    def test_k_equals_dim(self):
        scores = np.array([3.0, 1.0, 2.0])
        assert top_k_indices(scores, 3).tolist() == [0, 2, 1]

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros(3), 4)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros(3), 0)

    @given(score_arrays, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_contains_max_value(self, scores, k):
        # Value-based (ties may resolve to any index holding the max).
        k = min(k, scores.shape[1])
        picked = top_k_indices(scores, k, sort=False)
        for row in range(scores.shape[0]):
            assert scores[row].max() in scores[row, picked[row]]

    @given(score_arrays, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_selected_dominate_unselected(self, scores, k):
        k = min(k, scores.shape[1])
        picked = top_k_indices(scores, k, sort=False)
        for row in range(scores.shape[0]):
            chosen = set(picked[row].tolist())
            rest = [scores[row, j] for j in range(scores.shape[1])
                    if j not in chosen]
            if rest:
                assert min(scores[row, j] for j in chosen) >= max(rest) - 1e-12


class TestThresholdSelect:
    def test_strict_inequality(self):
        out = select_above_threshold(np.array([1.0, 2.0, 3.0]), 2.0)
        assert out[0].tolist() == [2]

    def test_per_row_ragged(self):
        scores = np.array([[5.0, 0.0], [5.0, 5.0]])
        out = select_above_threshold(scores, 1.0)
        assert out[0].tolist() == [0]
        assert out[1].tolist() == [0, 1]

    def test_empty_selection(self):
        out = select_above_threshold(np.array([1.0]), 10.0)
        assert out[0].size == 0

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            select_above_threshold(np.zeros((2, 2, 2)), 0.0)


def reference_stable_top_m(scores, m):
    """Oracle: full lexicographic sort by (score desc, index asc)."""
    out = []
    for row in scores:
        order = np.lexsort((np.arange(row.size), -row))
        out.append(np.sort(order[: min(m, row.size)]))
    return np.array(out)


class TestStableTopM:
    def test_basic(self):
        scores = np.array([[1.0, 9.0, 3.0, 7.0]])
        assert stable_top_m_indices(scores, 2).tolist() == [[1, 3]]

    def test_ties_break_to_lowest_index(self):
        scores = np.array([[5.0, 5.0, 5.0, 5.0]])
        assert stable_top_m_indices(scores, 2).tolist() == [[0, 1]]

    def test_ties_straddling_the_cut(self):
        scores = np.array([[3.0, 7.0, 7.0, 7.0, 1.0]])
        assert stable_top_m_indices(scores, 2).tolist() == [[1, 2]]

    def test_m_at_least_n_selects_everything(self):
        scores = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert stable_top_m_indices(scores, 5).tolist() == [[0, 1], [0, 1]]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            stable_top_m_indices(np.zeros(4), 2)

    @given(score_arrays, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_lexsort_oracle(self, scores, m):
        m = min(m, scores.shape[1])
        assert np.array_equal(
            stable_top_m_indices(scores, m), reference_stable_top_m(scores, m)
        )

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(2, 24)),
            elements=st.floats(-3, 3, allow_nan=False).map(round),
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_under_heavy_ties(self, scores, m):
        """Integer-valued scores force massive ties — the regime the
        deterministic tie-break exists for."""
        m = min(m, scores.shape[1])
        assert np.array_equal(
            stable_top_m_indices(scores, m), reference_stable_top_m(scores, m)
        )

    @given(
        arrays(
            dtype=st.sampled_from((np.float32, np.float64)),
            shape=st.tuples(st.integers(1, 6), st.integers(2, 24)),
            elements=st.floats(-3, 3, allow_nan=False, width=32).map(round),
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_workspace_selects_the_same_indices(self, scores, m):
        """In a caller's arena, reused across calls, on tie-saturated
        planes of both dtypes: the oracle's selection."""
        workspace = Workspace()
        m = min(m, scores.shape[1])
        for _ in range(2):
            assert np.array_equal(
                stable_top_m_indices(scores, m, workspace),
                reference_stable_top_m(scores, m),
            )

    def test_a_warm_call_allocates_only_its_result(self):
        """With a workspace, the one array a warm call allocates is its
        result: a ``flatnonzero`` of the mask, reduced to columns in place
        (``np.nonzero`` would make a row index array beside it)."""
        scores = np.random.default_rng(4).standard_normal((64, 8192))
        workspace = Workspace()
        stable_top_m_indices(scores, 32, workspace)
        tracemalloc.start()
        try:
            got = stable_top_m_indices(scores, 32, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, reference_stable_top_m(scores, 32))
        assert peak < got.nbytes + 4 * 1024

    @pytest.mark.parametrize("width", (8192, 40_000))
    def test_tie_branch_runs_in_bounded_scratch(self, width):
        """A tied plane (``np.round``) with ties straddling every row's
        cut: the tie branch runs a row at a time, so a warm call
        allocates under a quarter of the block, and selects what the
        oracle selects."""
        m = 32
        scores = np.round(np.random.default_rng(9).standard_normal((16, width)))
        kth = np.sort(scores, axis=1)[:, -m:-m + 1]
        assert np.all((scores >= kth).sum(axis=1) > m)
        workspace = Workspace()
        stable_top_m_indices(scores, m, workspace)
        tracemalloc.start()
        try:
            got = stable_top_m_indices(scores, m, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, reference_stable_top_m(scores, m))
        assert peak < scores[:, :8192].nbytes / 4


def top_m_reducer(batch, n, m, **kwargs):
    """The top-m reducer the pipeline builds over ``n`` columns: the
    threshold filter at +inf with ``min(m, n)`` runner-ups."""
    selector = CandidateSelector(mode="top_m", num_candidates=m)
    return selector.make_block_reducer(batch, n, **kwargs)


def run_blocked(reducer, scores, boundaries):
    start = 0
    for stop in list(boundaries) + [scores.shape[1]]:
        reducer.update(start, scores[:, start:stop])
        start = stop
    return reducer.finalize()


def dense_hits_and_runner_ups(scores, threshold, k):
    """Per row: the columns above ``threshold``, then the best ``k`` of
    the rest under ``(score desc, index asc)``, each part ascending."""
    expected = []
    for row, hits in zip(scores, select_above_threshold(scores, threshold)):
        rejected = np.flatnonzero(row <= threshold)
        best = rejected[np.lexsort((rejected, -row[rejected]))[:k]]
        expected.append(np.concatenate([hits, np.sort(best)]))
    return expected


class TestBlockwiseReducers:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(2, 24)),
            elements=st.floats(-100, 100, allow_nan=False).map(
                lambda value: round(value, 1)
            ),
        ),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_top_m_partition_invariant(self, scores, m, data):
        """Any block partition reproduces the dense stable selection."""
        batch, n = scores.shape
        m = min(m, n)
        boundaries = sorted(
            data.draw(
                st.lists(st.integers(1, n - 1), max_size=4, unique=True)
            )
        )
        reducer = top_m_reducer(batch, n, m)
        counts, cols, values = run_blocked(reducer, scores, boundaries)
        expected = stable_top_m_indices(scores, m)
        assert np.array_equal(counts, np.full(batch, m))
        assert np.array_equal(cols.reshape(batch, m), expected)
        assert np.array_equal(
            values.reshape(batch, m),
            np.take_along_axis(scores, expected, axis=1),
        )

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(2, 24)),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        st.floats(-50, 50, allow_nan=False),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_threshold_partition_invariant(self, scores, threshold, data):
        batch, n = scores.shape
        boundaries = sorted(
            data.draw(
                st.lists(st.integers(1, n - 1), max_size=4, unique=True)
            )
        )
        reducer = BlockwiseThreshold(batch, threshold)
        counts, cols, values = run_blocked(reducer, scores, boundaries)
        expected = select_above_threshold(scores, threshold)
        assert np.array_equal(counts, [row.size for row in expected])
        assert np.array_equal(cols, np.concatenate(expected))
        rows = np.repeat(np.arange(batch), counts)
        assert np.array_equal(values, scores[rows, cols])

    def test_top_m_reuses_workspace(self):
        workspace = Workspace()
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((4, 40))
        for round_index in range(4):
            reducer = top_m_reducer(4, 40, 5, workspace=workspace)
            run_blocked(reducer, scores, [10, 20, 30])
            if round_index == 0:
                settled = workspace.allocations
        assert workspace.allocations == settled

    def test_a_record_cuts_its_queue_in_scratch_sized_on_construction(self):
        """The record cuts its queue at whatever width the data leaves
        it, in scratch its constructor sized: after its first two blocks
        (the dense first fill, then the first floor pass) its arena
        grows nothing."""
        batch, n, width, k = 3, 4000, 50, 5
        scores = np.random.default_rng(12).standard_normal((batch, n))
        workspace = Workspace()
        seed = top_m_reducer(batch, n, k, workspace=workspace)
        seed.update(0, scores[:, :width])
        seed.update(width, scores[:, width : 2 * width])
        settled = workspace.allocations
        for start in range(2 * width, n, width):
            seed.update(start, scores[:, start : start + width])
        assert workspace.allocations == settled
        _, cols, _ = seed.finalize()
        assert np.array_equal(
            cols.reshape(batch, k), reference_stable_top_m(scores, k)
        )

    def test_threshold_requires_threshold(self):
        with pytest.raises(ValueError):
            BlockwiseThreshold(2, None)

    def test_float32_values_stay_float32(self):
        scores = np.random.default_rng(1).standard_normal((2, 16)).astype(
            np.float32
        )
        reducer = top_m_reducer(2, 16, 3, dtype=np.float32)
        reducer.update(0, scores)
        _, cols, values = reducer.finalize()
        assert values.dtype == np.float32
        assert np.array_equal(
            values.reshape(2, 3),
            np.take_along_axis(
                scores, stable_top_m_indices(scores, 3), axis=1
            ),
        )


ALPHABET = (0.0, 1.0, 2.0, -np.inf, np.inf)


@st.composite
def tied_planes(draw):
    """A score plane over a 3-value alphabet plus ``±inf`` (ties
    everywhere) and a block partition of it.  Each row holds nothing
    positive until it wakes at a column of its own (or never), so a
    block holds rows with no survivors next to a row with many; cut
    points are drawn from the whole range, so width-1 blocks and a
    first block narrower than ``m`` both occur.  Entries come from a
    drawn seed: the planes are too large to draw entry by entry."""
    batch, n = draw(st.integers(1, 5)), draw(st.integers(2, 400))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.choice(np.array(ALPHABET, dtype=dtype), size=(batch, n))
    wakes_at = rng.integers(0, n + 1, size=(batch, 1))
    scores = np.where(np.arange(n) < wakes_at, np.minimum(scores, 0), scores)
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=6, unique=True))
    return scores, sorted(cuts)


class TestReducerProperties:
    """The reducers against the dense definitions on tie-saturated
    planes, every ``m`` regime and both compute dtypes."""

    @given(tied_planes(), st.sampled_from(("n-1", "n", "over")) | st.integers(1, 12))
    @settings(max_examples=400, deadline=None)
    def test_top_m_equals_dense_selection(self, plane, budget):
        """``m`` at and past the plane's width, and small ``m`` — the
        regime where the floor compare decides most blocks."""
        scores, cuts = plane
        batch, n = scores.shape
        m = {"n-1": n - 1, "n": n, "over": n + 3}.get(budget, budget)
        counts, cols, values = run_blocked(
            top_m_reducer(batch, n, m, dtype=scores.dtype), scores, cuts
        )
        expected = stable_top_m_indices(scores, m)
        kept = min(m, n)
        assert np.array_equal(counts, np.full(batch, kept))
        assert np.array_equal(cols.reshape(batch, kept), expected)
        assert values.dtype == scores.dtype
        assert np.array_equal(
            values.reshape(batch, kept), np.take_along_axis(scores, expected, axis=1)
        )

    @given(tied_planes(), st.sampled_from(ALPHABET))
    @settings(max_examples=200, deadline=None)
    def test_threshold_equals_dense_selection(self, plane, threshold):
        scores, cuts = plane
        batch = scores.shape[0]
        counts, cols, values = run_blocked(
            BlockwiseThreshold(batch, threshold, dtype=scores.dtype), scores, cuts
        )
        expected = select_above_threshold(scores, threshold)
        assert np.array_equal(counts, [row.size for row in expected])
        assert np.array_equal(cols, np.concatenate(expected))
        assert values.dtype == scores.dtype
        assert np.array_equal(values, scores[np.repeat(np.arange(batch), counts), cols])

    @given(
        tied_planes(),
        st.sampled_from(ALPHABET),
        st.sampled_from(("n", "over")) | st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_runner_ups_are_the_best_rejected_entries(self, plane, threshold, budget):
        """``runner_ups=k``: behind each row's hits, its best ``k``
        entries at or under the threshold by ``(score desc, index asc)``
        — all of them where fewer than ``k`` were rejected, a real
        ``-inf`` included — for any partition."""
        scores, cuts = plane
        batch, n = scores.shape
        k = {"n": n, "over": n + 3}.get(budget, budget)
        counts, cols, values = run_blocked(
            BlockwiseThreshold(batch, threshold, dtype=scores.dtype, runner_ups=k),
            scores,
            cuts,
        )
        expected = dense_hits_and_runner_ups(scores, threshold, k)
        assert np.array_equal(counts, [row.size for row in expected])
        assert np.array_equal(cols, np.concatenate(expected))
        assert values.dtype == scores.dtype
        assert np.array_equal(values, scores[np.repeat(np.arange(batch), counts), cols])


def run_on_row_subsets(reducer, scores, cuts, draw_rows):
    """Fold each block on a subset of its rows: every row with an entry
    above the reducer's bound when the block comes, plus any rows
    ``draw_rows(batch)`` adds — every row while there is no bound.  A
    block with no row left is not folded, as the streaming loop skips a
    tile its prescreen proves empty."""
    batch = scores.shape[0]
    start = 0
    for stop in cuts + [scores.shape[1]]:
        block = scores[:, start:stop]
        bound = reducer.bound
        if bound is None:
            rows = np.arange(batch)
        else:
            above = (block > np.reshape(bound, (-1, 1))).any(axis=1)
            rows = np.union1d(np.flatnonzero(above), draw_rows(batch))
        if len(rows) == batch:
            reducer.update(start, block)
        elif len(rows):
            reducer.update(start, np.ascontiguousarray(block[rows]), rows)
        start = stop
    return reducer.finalize()


class TestRowSubsets:
    """A block folded on only some of its rows — the rest have nothing
    above their bound — leaves the record every row would have left."""

    @given(
        tied_planes(),
        st.sampled_from(("threshold", "top_m")),
        st.sampled_from((0.0, 1.0, -np.inf)),
        st.integers(1, 6),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_the_record_is_the_all_rows_fold(self, plane, mode, threshold, m, ranked, data):
        scores, cuts = plane
        batch, n = scores.shape
        k = m if ranked else 0  # runner-ups at 0 and at k, as top_k asks
        selector = CandidateSelector(mode, num_candidates=m, threshold=threshold)

        def reducer():
            return selector.make_block_reducer(batch, n, dtype=scores.dtype, runner_ups=k)

        def draw_rows(batch):
            return np.array(sorted(data.draw(st.sets(st.integers(0, batch - 1)))), dtype=np.intp)

        counts, cols, values = run_on_row_subsets(reducer(), scores, cuts, draw_rows)
        every = run_blocked(reducer(), scores, cuts)
        assert np.array_equal(counts, every[0])
        assert np.array_equal(cols, every[1])
        assert np.array_equal(values, every[2])
        if mode == "top_m":
            expected = dense_hits_and_runner_ups(scores, np.inf, min(m + k, n))
        else:
            expected = dense_hits_and_runner_ups(scores, threshold, k)
        assert np.array_equal(counts, [row.size for row in expected])
        assert np.array_equal(cols, np.concatenate(expected))
        assert values.dtype == scores.dtype
        assert np.array_equal(values, scores[np.repeat(np.arange(batch), counts), cols])


class TestReducerWorstCase:
    """Adversarial column order and allocation ceilings.  No wall-clock
    asserts: the cost model is pinned through what an update allocates."""

    TILE = 8192

    @pytest.mark.parametrize("direction", (1, -1), ids=("ascending", "descending"))
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_monotone_planes_give_dense_selection(self, direction, dtype):
        batch, n, m = 3, 5 * self.TILE + 77, 32
        scores = (direction * np.arange(n, dtype=dtype))[None, :] + np.arange(
            batch, dtype=dtype
        )[:, None]
        cuts = range(self.TILE, n, self.TILE)
        reducer = top_m_reducer(batch, n, m, dtype=dtype)
        _, cols, values = run_blocked(reducer, scores, cuts)
        expected = stable_top_m_indices(scores, m)
        assert np.array_equal(cols.reshape(batch, m), expected)
        assert np.array_equal(
            values.reshape(batch, m), np.take_along_axis(scores, expected, axis=1)
        )

    def test_survivor_padding_never_displaces_a_kept_entry(self):
        """The queue cut packs each row into a plane as wide as the
        fullest row; the padding must lose even to a kept ``-inf``."""
        scores = np.full((2, 18), -np.inf)
        scores[1, :2] = 0.0
        scores[0, 7] = 0.0  # row 0: one survivor over a floor of -inf
        scores[1, [4, 9]] = 1.0  # row 1: two, so row 0 gets a padded slot
        _, cols, values = run_blocked(top_m_reducer(2, 18, 2), scores, [2])
        assert cols.tolist() == [0, 7, 4, 9]
        assert values.tolist() == [-np.inf, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "order, top_m",
        [
            pytest.param(order, top_m, id=order + ("-inf" if top_m else ""))
            for top_m in (False, True)
            for order in ("random", "ascending", "tied")
        ],
    )
    def test_runner_up_queue_is_cut_back_mid_stream(self, order, top_m):
        """A long stream of narrow blocks: the runner-up queue is cut
        back to ``k`` a row before it passes ``2 * batch * k`` — also
        when every entry is a contender (ascending) or none is (all
        tied), and at threshold +inf, where the runner-ups are top-m —
        and the kept entries are the dense answer."""
        batch, n, width, k = 3, 4000, 50, 5
        scores = np.random.default_rng(11).standard_normal((batch, n))
        if order == "ascending":
            scores.sort(axis=1)
        elif order == "tied":
            scores = np.round(scores)
        threshold = np.inf if top_m else float(np.quantile(scores, 0.99))
        reducer = BlockwiseThreshold(batch, threshold, runner_ups=k)
        for start in range(0, n, width):
            reducer.update(start, scores[:, start : start + width])
            assert reducer._queue.count <= 2 * batch * k
        counts, cols, _ = reducer.finalize()
        expected = dense_hits_and_runner_ups(scores, threshold, k)
        assert np.array_equal(counts, [row.size for row in expected])
        assert np.array_equal(cols, np.concatenate(expected))

    @pytest.mark.parametrize("threshold", (np.inf, 1.5), ids=("top_m", "threshold"))
    def test_every_block_layout_records_the_same_entries(self, threshold):
        """Contiguous tiles, column slices of a wider plane, reversed rows
        and Fortran order: the reducer reads each block's entries where
        they lie, and records the dense answer."""
        scores = np.random.default_rng(12).standard_normal((6, 900))
        wide = np.zeros((6, 1000))
        wide[:, 50:950] = scores
        layouts = {
            "tile": lambda cols: np.ascontiguousarray(scores[:, cols]),
            "slice": lambda cols: wide[:, 50:950][:, cols],
            "reversed": lambda cols: np.ascontiguousarray(scores[::-1, cols])[::-1],
            "fortran": lambda cols: np.asfortranarray(scores[:, cols]),
        }
        expected = dense_hits_and_runner_ups(scores, threshold, 4)
        for name, layout in layouts.items():
            reducer = BlockwiseThreshold(6, threshold, runner_ups=4)
            for start in range(0, 900, 128):
                reducer.update(start, layout(slice(start, start + 128)))
            counts, cols, _ = reducer.finalize()
            assert np.array_equal(counts, [row.size for row in expected]), name
            assert np.array_equal(cols, np.concatenate(expected)), name

    #: What a warm update or finalize may allocate beyond the arrays it
    #: must: small per-row arrays (counts, floors, shifts) and the
    #: in-place sort's own few KB.
    SLACK = 6 * 1024

    def run_peaks(self, scores, layout, make):
        """``tracemalloc`` peak of each tile's ``update``, then of
        ``finalize``, on a workspace a first pass over the same plane has
        already warmed, and ``finalize``'s result; ``make(workspace)``
        builds the reducer.  ``layout`` "tile" passes each tile as a
        contiguous copy, "slice" as a strided column slice of ``scores``."""
        workspace = Workspace()
        cuts = range(self.TILE, scores.shape[1], self.TILE)
        run_blocked(make(workspace), scores, cuts)
        reducer = make(workspace)
        tiles = [scores[:, start : start + self.TILE] for start in (0, *cuts)]
        if layout == "tile":
            tiles = [np.ascontiguousarray(tile) for tile in tiles]
        assert all(tile.flags.c_contiguous == (layout == "tile") for tile in tiles)
        peaks = []
        tracemalloc.start()
        try:
            for start, tile in zip((0, *cuts), tiles):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                reducer.update(start, tile)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = reducer.finalize()
            finalize_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peaks, finalize_peak, sum(array.nbytes for array in result)

    def check_peaks(self, scores, m=32):
        """On both layouts the pipeline folds — a contiguous tile (the
        streaming tile buffer) and a column slice of a wider plane (dense
        forward's, or a block narrower than its tile; read in place, not
        through index pairs) — every update, the first fill's partition
        included, allocates one ``flatnonzero`` of at most ``batch × (k +
        most)`` positions (at +inf ``most`` is 0) plus the slack, and
        ``finalize`` its result plus the slack.  The rest is arena
        scratch, written in place."""
        batch, n = scores.shape
        for layout in ("tile", "slice"):
            peaks, finalize_peak, result_bytes = self.run_peaks(
                scores, layout, lambda ws: top_m_reducer(batch, n, m, workspace=ws)
            )
            assert max(peaks) < len(scores) * m * np.dtype(np.intp).itemsize + self.SLACK, layout
            assert finalize_peak < result_bytes + self.SLACK, layout

    def test_later_block_allocates_a_fraction_of_the_block(self):
        self.check_peaks(np.random.default_rng(7).standard_normal((64, 4 * self.TILE)))

    def test_ascending_block_allocates_no_more_than_first_fill(self):
        """Dense blocks take the first fill's path, the block's own top,
        in the same bounded scratch."""
        self.check_peaks(
            np.sort(np.random.default_rng(8).standard_normal((64, 4 * self.TILE)), axis=1)
        )

    @pytest.mark.parametrize("ascending", (False, True), ids=("random", "ascending"))
    def test_threshold_runner_ups_allocate_their_positions(self, ascending):
        """Under a finite threshold (threshold ``top_k``'s reducer) an
        update also holds its hits' positions: it allocates under ``hits
        + batch × (k + most)`` of them, ``most`` the most hits a row of
        the tile has, plus the slack — whether ``block > floor`` splits
        the hits from the contenders or the block takes the dense path
        (the ascending plane's last tile)."""
        scores = np.random.default_rng(9).standard_normal((64, 4 * self.TILE))
        if ascending:
            scores.sort(axis=1)
        threshold, k = float(np.quantile(scores, 0.999)), 32
        hits = (scores > threshold).reshape(len(scores), -1, self.TILE).sum(axis=2)
        allowed = (hits.sum(axis=0) + len(scores) * (k + hits.max(axis=0))) * 8 + self.SLACK
        for layout in ("tile", "slice"):
            peaks, finalize_peak, result_bytes = self.run_peaks(
                scores,
                layout,
                lambda ws: BlockwiseThreshold(len(scores), threshold, ws, runner_ups=k),
            )
            assert np.all(np.array(peaks) < allowed), (layout, peaks, allowed)
            assert finalize_peak < result_bytes + self.SLACK, layout


class TestCalibrate:
    def test_hits_target_on_uniform(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, size=(64, 1000))
        threshold = calibrate_threshold(scores, 50)
        counts = [row.size for row in select_above_threshold(scores, threshold)]
        assert 35 < np.mean(counts) < 65

    def test_target_exceeding_dim_selects_all(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        threshold = calibrate_threshold(scores, 10)
        assert all(
            row.size == 3 for row in select_above_threshold(scores, threshold)
        )

    def test_select_everything_at_huge_magnitude(self):
        # ``min - 1.0`` is ``min`` itself once |min| >= 2**53, and the
        # strict compare then dropped the minimum.
        scores = np.array([[-1e17, 0.0, 1e17], [3e17, -2e17, 5.0]])
        threshold = calibrate_threshold(scores, 3)
        assert threshold < scores.min()
        assert all(
            row.size == 3 for row in select_above_threshold(scores, threshold)
        )

    @given(
        st.integers(1, 12),
        st.integers(2, 600),
        st.sampled_from(["normal", "ties", "ascending", "descending", "float32"]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_np_quantile_bit_for_bit(self, rows, l, kind, share, one_d, seed):
        """Whether the cut is selected from above a leading slice's
        bound or — deeper than the slice is long — among all scores."""
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((rows, l))
        if kind == "ties":  # a few distinct values: ties across the cut
            scores = np.round(scores)
        elif kind in ("ascending", "descending"):  # loosest / tightest bound
            scores = np.sort(scores, axis=None).reshape(rows, l)
            scores = scores if kind == "ascending" else -scores
        elif kind == "float32":
            scores = scores.astype(np.float32)
        if one_d:
            scores = scores[0]
        target = share * l if seed % 2 else max(1, int(share * l / 8))
        want = float(np.quantile(scores.astype(np.float64), 1.0 - target / l))
        assert calibrate_threshold(scores, target) == want

    def test_selects_without_a_copy_of_the_scores(self):
        scores = np.random.default_rng(5).standard_normal((16, 200_000))
        want = float(np.quantile(scores, 1.0 - 32 / 200_000))
        tracemalloc.start()
        try:
            threshold = calibrate_threshold(scores, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert threshold == want
        assert peak < scores.nbytes / 4

    @given(score_arrays)
    @settings(max_examples=30, deadline=None)
    def test_threshold_monotone_in_budget(self, scores):
        small = calibrate_threshold(scores, 1)
        large = calibrate_threshold(scores, scores.shape[1] - 1)
        assert large <= small + 1e-12
