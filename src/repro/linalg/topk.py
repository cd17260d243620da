"""Top-k and threshold selection over screening scores.

Paper Section 4.2: "The estimation can be done with top-m searching or
thresholding, where the threshold value can be tuned on validation
sets."  Both primitives operate on batched score matrices, and one
streaming reducer, :class:`BlockwiseThreshold`, serves both: top-m is
the threshold filter at +inf keeping each row's best ``m`` rejected
entries.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.memory import Workspace
from repro.utils.validation import check_positive


def top_k_indices(scores: np.ndarray, k: int, sort: bool = True) -> np.ndarray:
    """Indices of the ``k`` largest entries along the last axis.

    Returns an array of shape ``scores.shape[:-1] + (k,)``.  With
    ``sort=True`` indices are ordered by descending score, which the
    language-modeling decoder relies on; ``sort=False`` saves the sort
    when the caller only needs set membership (candidate screening).
    """
    array = np.asarray(scores)
    check_positive("k", k)
    if k > array.shape[-1]:
        raise ValueError(f"k={k} exceeds score dimension {array.shape[-1]}")

    if k == array.shape[-1]:
        indices = np.broadcast_to(
            np.arange(k), array.shape[:-1] + (k,)
        ).copy()
    else:
        indices = np.argpartition(array, -k, axis=-1)[..., -k:]

    if sort:
        gathered = np.take_along_axis(array, indices, axis=-1)
        order = np.argsort(-gathered, axis=-1)
        indices = np.take_along_axis(indices, order, axis=-1)
    return indices


#: Workspace keys of the reducer's scratch: the compare mask, the plane
#: the runner-up queue is cut on, the slabs of its two flat records, and
#: the rows :func:`stable_top_m_indices` partitions.
_MASK, _CUT, _HITS, _QUEUE, _FILL = (
    ("thr", "mask"), ("thr", "cut"), "thr", ("thr", "runner"), ("thr", "fill"),
)

#: Scores :func:`stable_top_m_indices` partitions at a time: four rows
#: of a tile, 256 KB in float64, so each piece stays in L2.
_FILL_ENTRIES = 32 * 1024


def stable_top_m_indices(scores: np.ndarray, m: int, workspace=None) -> np.ndarray:
    """Deterministic batched top-``m``: ties broken by lowest index.

    Returns a ``(batch, m)`` index array, ascending within each row.
    The selection rule is the lexicographic maximum under
    ``(score descending, index ascending)`` — a *total* order, so the
    selected set is unique and independent of how the score plane is
    partitioned.  That property is what lets the blocked streaming
    reducer (:class:`BlockwiseThreshold` at ``+inf``) reproduce the
    dense selection bit for bit for every block size, even on
    degenerate inputs where the INT4 screener produces exact score ties.

    Each row's order statistic is found a few rows at a time: the rows
    are copied into ``_FILL_ENTRIES`` of scratch and partitioned in place
    there, and the ``>=`` compare writes a mask.  A row whose ties
    straddle the cut then drops its tied entries past the ones it
    needs, one row at a time.  Nothing allocated is the size of
    ``scores`` but the mask, and with a ``workspace`` (whose arena the
    mask and rows come from) a warm call allocates only its result.
    """
    array = np.asarray(scores)
    if array.ndim != 2:
        raise ValueError(f"scores must be 2-D, got shape {array.shape}")
    batch, n = array.shape
    check_positive("m", m)
    if m >= n:
        return np.broadcast_to(np.arange(n), (batch, n)).copy()
    ws = workspace if workspace is not None else Workspace()
    mask = ws.buffer(_MASK, (batch, n), bool)
    step = max(1, _FILL_ENTRIES // n)
    for start in range(0, batch, step):
        block, ge = array[start : start + step], mask[start : start + step]
        fill = ws.buffer(_FILL, block.shape, array.dtype)
        np.copyto(fill, block)
        fill.partition(n - m, axis=1)
        kth = fill[:, n - m : n - m + 1]
        np.greater_equal(block, kth, out=ge)
        # Every row passes at least m (no score is NaN, which passes no
        # compare); only when the block passes more do ties straddle
        # some row's cut.  (A count per row over the 2-D mask would cast
        # it through NumPy's 64 KB buffer; a flat count, and one per row
        # only then, casts nothing.)
        if np.count_nonzero(ge) == m * len(block):
            continue
        for row, passed in enumerate(ge):
            excess = np.count_nonzero(passed) - m
            if excess:
                # Keep every entry above kth and the first tied ones only.
                tied = np.flatnonzero(block[row] == kth[row])
                passed[tied[tied.size - excess :]] = False
    return np.nonzero(mask)[1].reshape(batch, m)


def _survivors(ws, block: np.ndarray, bound, dense: int = -1):
    """The streaming filter step: entries with ``block > bound`` (a
    scalar, or one bound per row as ``(batch, 1)``) as flat row-major
    ``(rows, cols, values)``.  ``None`` when more than ``dense`` entries
    pass (``dense >= 0``) — decided before anything is extracted."""
    mask = ws.buffer(_MASK, block.shape, bool)
    np.greater(block, bound, out=mask)
    if 0 <= dense < np.count_nonzero(mask):
        return None
    flat = np.flatnonzero(mask)
    rows = flat // block.shape[1]
    cols = flat - rows * block.shape[1]
    return rows, cols, block[rows, cols]


class _FlatEntries:
    """Append-only flat ``(rows, cols, values)`` in growable workspace
    slabs — the ragged record both halves of the reducer keep."""

    def __init__(self, ws, key, dtype):
        self._ws = ws
        self._slabs = [
            ((key, name), kind)
            for name, kind in (("rows", np.intp), ("cols", np.intp), ("values", dtype))
        ]
        self.count = 0

    def append(self, rows, cols, values) -> None:
        if rows.size == 0:
            return
        total = self.count + rows.size
        for (key, kind), new in zip(self._slabs, (rows, cols, values)):
            self._ws.growable(key, total, kind)[self.count : total] = new
        self.count = total

    def view(self):
        return [
            self._ws.growable(key, max(self.count, 1), kind)[: self.count]
            for key, kind in self._slabs
        ]


class BlockwiseThreshold:
    """Running threshold filter over column blocks of a score plane —
    the Screener's one comparator array, for both selection modes.

    Selection is final the moment a block streams past (``score >
    threshold`` needs no global context), so the reducer just appends
    hits to growable workspace buffers.  Finalize groups them by row
    with a stable sort; within a row, appended columns are already
    ascending (blocks arrive left to right), so the result matches the
    dense flat-scan selection exactly.

    With ``runner_ups = k`` the reducer also keeps each row's best
    ``k`` entries among those the filter *rejects*, under ``(score
    desc, index asc)``, and :meth:`finalize` lists them behind the
    row's hits.  At ``threshold = +inf`` nothing is a hit and the
    runner-ups are each row's top ``k``: that is top-m selection, with
    the same total order as :func:`stable_top_m_indices` for any block
    partition.  Runner-ups ride the filter's one compare: once every
    row holds ``k`` rejected entries the worst of them is the row's
    ``floor`` (at or under the threshold), ``block > floor`` passes
    hits and contenders alike, and the contenders queue up flat until
    some row holds more than ``2 k``, when :meth:`_tighten` cuts the
    queue back to ``k`` a row and raises the floor.  Strict ``>`` is
    exact (an equal score in a later column loses the tie-break to
    ``k`` held entries), and a stale floor only lets more through.

    A block too dense to queue — over an eighth of it past the floor
    (the measured break-even), or past some row's room — takes the
    first block's path instead: its own top ``k`` plus the most hits
    any row has.  A row's room is ``4 k``: ``2 k`` held between cuts,
    plus one block's contenders or the ``k`` of a dense block.  The
    queue, its cut plane and the scratch the cut is partitioned in are
    sized for that room on construction, so at ``threshold = +inf`` no
    cut or batch grows them, whatever the data (only the first dense
    block sizes the scratch it is partitioned in).
    """

    def __init__(
        self,
        batch: int,
        threshold: float,
        workspace=None,
        dtype=np.float64,
        runner_ups: int = 0,
    ):
        if threshold is None:
            raise ValueError("threshold mode requires a calibrated threshold")
        self._ws = workspace if workspace is not None else Workspace()
        self.batch = batch
        self.threshold = float(threshold)
        self.dtype = np.dtype(dtype)
        self._hits = _FlatEntries(self._ws, _HITS, self.dtype)
        self._runner_ups = runner_ups
        self._queue = _FlatEntries(self._ws, _QUEUE, self.dtype)
        self._held = np.zeros(batch, dtype=np.intp)  # queued entries per row
        self._floor = None  # set once every row holds ``runner_ups`` rejected entries
        if runner_ups:
            room = 4 * runner_ups
            for key, kind in self._queue._slabs:
                self._ws.growable(key, batch * room, kind)
            self._ws.buffer(_CUT, (batch, room), self.dtype)
            # The most of the cut plane stable_top_m_indices partitions at once.
            cut_piece = min(batch * room, max(_FILL_ENTRIES, room))
            self._ws.buffer(_FILL, (cut_piece,), self.dtype)

    def reserve(self, width: int) -> None:
        """Size the compare mask for blocks up to ``width`` columns now,
        so a run that skips blocks and then folds one allocates nothing
        more than a run that folded them all."""
        self._ws.buffer(_MASK, (self.batch, width), bool)

    @property
    def bound(self):
        """What an entry must exceed to be recorded: the threshold, or
        with runner-ups each row's floor as a ``(batch,)`` view — ``None``
        until the floor is set, when any block records its top entries.
        A row of a block with nothing above its bound leaves the record
        unchanged, so a caller that knows as much may leave that row out
        of :meth:`update`, or the whole block when every row is such."""
        if not self._runner_ups:
            return self.threshold
        return None if self._floor is None else self._floor[:, 0]

    def update(self, start: int, block: np.ndarray, rows=None) -> int:
        """Fold the columns ``block`` (from ``start``) into the record;
        returns how many entries it recorded (hits and queued runner-ups).

        ``block`` holds the ascending ``rows`` of the batch (every row
        when ``None``); a caller leaves out only rows with nothing above
        their :attr:`bound`, and the final record is the one every row
        would have left.  Every entry of such a row is at most its bound,
        so the strict ``>`` filter records none of them.  The dense path
        below would queue some of them, but each loses to the ``k``
        entries the row's floor was taken from — on score, or at an equal
        score on index, as those sit in earlier columns — so a later cut
        drops it.  Leaving rows out may move a cut to another time, never
        what it keeps: the record is independent of how blocks are
        partitioned."""
        if block.shape[1] == 0:
            return 0
        k = self._runner_ups
        recorded = self._hits.count + self._queue.count
        if self._floor is None or not self._pass_floor(start, block, rows):
            self._record_dense(start, block, rows)
        recorded = self._hits.count + self._queue.count - recorded
        if k and (self._floor is None or self._held.max() > 2 * k):
            self._tighten()
        return recorded

    def _record_dense(self, start: int, block: np.ndarray, rows) -> None:
        """Record every hit of ``block`` and, with runner-ups, its top
        entries under the threshold (the first block's path, and a block
        too dense to queue); its temporaries are gone before a cut."""
        found, cols, values = _survivors(self._ws, block, self.threshold)
        k = self._runner_ups
        if k:
            # ``k`` more than the most hits any row has is enough of the
            # block's top to hold each row's best ``k`` rejected entries
            # (every column, when the block is short).
            most = int(np.bincount(found, minlength=len(block)).max())
            picked = stable_top_m_indices(block, k + most, self._ws)
            scores = np.take_along_axis(block, picked, axis=1)
            rejected = scores <= self.threshold
            queued = np.nonzero(rejected)[0]
            held = np.bincount(queued, minlength=len(block))
            if rows is None:
                self._held += held
            else:
                queued = rows[queued]
                self._held[rows] += held
            self._queue.append(queued, start + picked[rejected], scores[rejected])
        self._hits.append(found if rows is None else rows[found], start + cols, values)

    def _pass_floor(self, start: int, block: np.ndarray, rows) -> bool:
        """Record what ``block > floor`` passes: hits, and contenders in
        the queue.  ``False``, recording nothing, when the block is too
        dense to queue."""
        floor = self._floor if rows is None else self._floor[rows]
        passed = _survivors(self._ws, block, floor, dense=block.size // 8)
        if passed is None:
            return False
        found, cols, values = passed
        if found.size:
            if rows is not None:
                found = rows[found]
            miss = values <= self.threshold
            held = self._held + np.bincount(found[miss], minlength=self.batch)
            if held.max() > 4 * self._runner_ups:
                return False
            self._held = held
            self._queue.append(found[miss], start + cols[miss], values[miss])
            hit = ~miss
            self._hits.append(found[hit], start + cols[hit], values[hit])
        return True

    def _tighten(self) -> None:
        """Cut the queue back to each row's best ``runner_ups`` entries;
        when every row holds that many, the worst is its floor.

        Each row is left-packed into a ``(batch, most held)`` plane
        padded with -inf.  Queue order is column order within a row, so
        position order is index order, and the padding, right of every
        real entry, loses every tie (even to a real -inf)."""
        k, held = self._runner_ups, self._held
        rows, cols, values = queue = self._queue.view()
        order = np.argsort(rows, kind="stable")
        first = np.cumsum(held) - held
        plane = self._ws.buffer(_CUT, (self.batch, int(held.max())), self.dtype)
        plane.fill(-np.inf)
        plane[rows[order], np.arange(rows.size) - np.repeat(first, held)] = values[order]
        best = stable_top_m_indices(plane, k, self._ws)  # every column of a narrower plane
        keep = order[(first[:, None] + best)[best < held[:, None]]]
        for slab in queue:
            slab[: keep.size] = slab[keep]
        self._queue.count = keep.size
        if held.min() >= k:  # then ``keep`` is k a row, in row order
            self._floor = values[: keep.size].reshape(self.batch, k).min(axis=1, keepdims=True)
        np.minimum(held, k, out=held)

    def finalize(self):
        """``(counts, cols, values)`` in the flat candidate layout."""
        rows, cols, values = self._hits.view()
        if self._runner_ups:
            self._tighten()
            queue = self._queue.view()
            rows, cols, values = (
                np.concatenate(pair) for pair in zip((rows, cols, values), queue)
            )
        order = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=self.batch).astype(np.intp)
        return counts, cols[order].copy(), values[order].copy()


def select_above_threshold(scores: np.ndarray, threshold: float) -> List[np.ndarray]:
    """Per-row indices whose score strictly exceeds ``threshold``.

    This models the Screener's comparator array; rows may select
    different counts, so the result is a ragged list (one index array
    per batch row).  Implemented as one flat scan plus a split — a 2-D
    ``np.nonzero`` pays an index-unraveling pass over the whole score
    plane, which dominates at extreme ``l``.
    """
    array = np.asarray(scores)
    if array.ndim == 1:
        array = array[None, :]
    if array.ndim != 2:
        raise ValueError(f"scores must be 1-D or 2-D, got shape {array.shape}")
    rows, cols = array.shape
    flat = np.flatnonzero(array.ravel() > threshold)
    row_of = flat // cols
    boundaries = np.searchsorted(row_of, np.arange(1, rows))
    return np.split(flat - row_of * cols, boundaries)


def calibrate_threshold(scores: np.ndarray, target_candidates: float) -> float:
    """Choose a threshold so rows select ``target_candidates`` on average.

    This is the "tuned on validation sets" step: given screening scores
    from a validation batch, pick the value whose exceedance count
    matches the desired candidate budget — the ``1 - target / l``
    quantile of all scores, exactly as ``np.quantile`` interpolates it.

    That quantile sits ``need ≈ rows × target`` entries from the top, so
    it is selected, not sorted for: the ``need``-th largest of a leading
    slice is a lower bound on the ``need``-th largest overall, one
    compare pass keeps the handful at or above it, and the two order
    statistics the quantile interpolates between are that handful's.
    (A cut deeper than the slice is long selects among all the scores.)
    """
    array = np.asarray(scores, dtype=np.float64)
    check_positive("target_candidates", target_candidates)
    if target_candidates >= array.shape[-1]:
        # Strictly below every score, whatever their magnitude.
        return float(np.nextafter(np.min(array), -np.inf))
    quantile = 1.0 - target_candidates / array.shape[-1]
    kept = array.reshape(-1)
    # np.quantile's "linear" rule: sorted position (n - 1) q; its floor
    # and the entry above are blended by the fractional part.
    position = (kept.size - 1) * quantile
    below = int(position)
    need = kept.size - below  # the cut is the need-th largest score
    lead = kept.size // 16
    if need <= lead:
        bound = np.partition(kept[:lead], lead - need)[lead - need]
        kept = kept[kept >= bound]
    cut = kept.size - need
    pair = np.partition(kept, (cut, min(cut + 1, kept.size - 1)))[cut : cut + 2]
    return float(np.quantile(pair, position - below))
