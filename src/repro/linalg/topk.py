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
from numpy.lib.stride_tricks import as_strided

from repro.utils.memory import Workspace, per_row
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
#: the runner-up queue is cut on, the slabs of its two flat records, the
#: rows :func:`stable_top_m_mask` partitions, and the index and value
#: scratch the records are written, sorted and cut through.
_MASK, _CUT, _HITS, _QUEUE, _FILL = (
    ("thr", "mask"), ("thr", "cut"), "thr", ("thr", "runner"), ("thr", "fill"),
)
_KEYS, _SLOTS, _IOTA, _VALUES = (
    ("thr", "keys"), ("thr", "slots"), ("thr", "iota"), ("thr", "ordered"),
)

#: Scores :func:`stable_top_m_mask` partitions at a time: four rows
#: of a tile, 256 KB in float64, so each piece stays in L2.
_FILL_ENTRIES = 32 * 1024


def stable_top_m_mask(scores: np.ndarray, m: int, workspace=None) -> np.ndarray:
    """Deterministic batched top-``m`` as a ``(batch, n)`` mask: ties
    broken by lowest index.

    The selection rule is the lexicographic maximum under ``(score
    descending, index ascending)`` — a *total* order, so the selected
    set is unique and independent of how the score plane is
    partitioned.  That property is what lets the blocked streaming
    reducer (:class:`BlockwiseThreshold` at ``+inf``) reproduce the
    dense selection bit for bit for every block size, even on
    degenerate inputs where the INT4 screener produces exact score ties.

    Each row's order statistic is found a few rows at a time: the rows
    are copied into ``_FILL_ENTRIES`` of scratch and partitioned in place
    there, and the ``>=`` compare writes the mask.  A row whose ties
    straddle the cut then drops its tied entries past the ones it
    needs, one row at a time.  The mask and the rows come from
    ``workspace``'s arena (a fresh one when ``None``): the mask is a view
    of it, valid until the arena's next top-``m`` or compare mask.
    """
    array = np.asarray(scores)
    if array.ndim != 2:
        raise ValueError(f"scores must be 2-D, got shape {array.shape}")
    batch, n = array.shape
    check_positive("m", m)
    ws = workspace if workspace is not None else Workspace()
    mask = ws.buffer(_MASK, (batch, n), bool)
    if m >= n:
        mask.fill(True)
        return mask
    step = max(1, _FILL_ENTRIES // n)
    for start in range(0, batch, step):
        block, ge = array[start : start + step], mask[start : start + step]
        fill = ws.buffer(_FILL, block.shape, array.dtype)
        np.copyto(fill, block)
        fill.partition(n - m, axis=1)
        kth = fill[:, n - m : n - m + 1].copy()
        per_row(np.greater_equal, block, kth, ge, fill)
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
    return mask


def stable_top_m_indices(scores: np.ndarray, m: int, workspace=None) -> np.ndarray:
    """The ``(batch, min(m, n))`` column indices of
    :func:`stable_top_m_mask`, ascending within each row.  With a
    ``workspace`` a warm call allocates only its result: one
    ``flatnonzero`` of the mask, reduced to columns in place."""
    mask = stable_top_m_mask(scores, m, workspace)
    batch, n = mask.shape
    picked = np.flatnonzero(mask)
    np.remainder(picked, n, out=picked)
    return picked.reshape(batch, min(m, n))


def _iota(ws, n: int) -> np.ndarray:
    """``0, 1, …, n − 1`` in arena scratch (a running sum of ones, in place)."""
    iota = ws.buffer(_IOTA, (n,), np.intp)
    iota.fill(1)
    iota[:1] = 0
    return np.cumsum(iota, out=iota)


def _row_keys(ws, rows: np.ndarray) -> np.ndarray:
    """The ``n`` entries of a flat record in stable row order, as arena
    keys ``row · n + i`` sorted in place: ``key // n`` is the row of each
    entry in that order and ``key % n`` its position in ``rows``.  The
    keys are distinct, so an unstable in-place sort is stable here."""
    n = rows.size
    keys = ws.buffer(_KEYS, (n,), np.intp)
    np.multiply(rows, n, out=keys)
    keys += _iota(ws, n)
    keys.sort()
    return keys


def _take_entries(block: np.ndarray, flat: np.ndarray, out: np.ndarray, scratch) -> None:
    """``block``'s entries at the row-major positions ``flat``, into
    ``out``.  A block whose rows lie a fixed stride apart in one buffer —
    a tile, or a column slice of a wider plane (dense forward's, or a
    block narrower than its tile) — is read as one line of that buffer,
    at ``flat + row · (stride − n)``, worked out in ``scratch`` (intp, of
    ``flat``'s shape); any other layout is copied first."""
    batch, n = block.shape
    if block.flags.c_contiguous:
        line = block.reshape(-1)
    else:
        row_stride, column_stride = block.strides
        if column_stride != block.itemsize or row_stride < 0 or row_stride % block.itemsize:
            block = np.ascontiguousarray(block)
        apart = block.strides[0] // block.itemsize
        span = max(batch - 1, 0) * apart + n
        line = as_strided(block, (span,), (block.itemsize,), writeable=False)
        if apart != n:
            np.floor_divide(flat, n, out=scratch)
            scratch *= apart - n
            scratch += flat
            flat = scratch
    np.take(line, flat, out=out, mode="wrap")


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

    def extend(self, size: int):
        """Views of the next ``size`` slots of each slab, now counted in."""
        total = self.count + size
        views = [
            self._ws.growable(key, total, kind)[self.count : total]
            for key, kind in self._slabs
        ]
        self.count = total
        return views

    def append(self, rows, cols, values) -> None:
        for slab, new in zip(self.extend(rows.size), (rows, cols, values)):
            slab[...] = new

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
    the same total order as :func:`stable_top_m_mask` for any block
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
    queue, its cut plane and the index and value scratch it is written,
    sorted and cut through are sized for that room on construction, so
    at ``threshold = +inf`` no cut or batch grows them, whatever the data
    (only the first dense block sizes the scratch it is partitioned in).

    Every transient lives in the arena but for one ``flatnonzero`` per
    compare mask — the positions it records — and :meth:`finalize`'s
    result: entries are written straight into the record's slabs, and a
    cut sorts ``row · n + i`` keys in place rather than argsorting.
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
            room = batch * 4 * runner_ups
            for key, kind in self._queue._slabs:
                self._ws.growable(key, room, kind)
            for key in (_KEYS, _SLOTS, _IOTA):
                self._ws.buffer(key, (room,), np.intp)
            self._ws.buffer(_VALUES, (room,), self.dtype)
            self._ws.buffer(_CUT, (room,), self.dtype)
            # The most of the cut plane stable_top_m_mask partitions at once.
            self._ws.buffer(_FILL, (min(room, max(_FILL_ENTRIES, 4 * runner_ups)),), self.dtype)

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
        self._fold(start, block, rows)
        recorded = self._hits.count + self._queue.count - recorded
        if k and (self._floor is None or self._held.max() > 2 * k):
            self._tighten()
        return recorded

    def _fold(self, start: int, block: np.ndarray, rows) -> None:
        """Record the block's hits and, with runner-ups, queue its
        contenders — once the floor is set, what one ``block > floor``
        compare passes; else (the first block, and a block too dense to
        queue) its top rejected entries.  The positions found are gone
        before a cut."""
        if self._floor is not None and self._pass_floor(start, block, rows):
            return
        hits = None
        if self.threshold < np.inf:
            mask = self._ws.buffer(_MASK, block.shape, bool)
            np.greater(block, self.threshold, out=mask)
            hits = np.flatnonzero(mask)
        if self._runner_ups:
            queued = self._block_top(block, hits)
            self._held[slice(None) if rows is None else rows] += self._record(
                self._queue, queued, block, start, rows
            )
        if hits is not None and hits.size:
            self._record(self._hits, hits, block, start, rows)

    def _record(self, entries, flat, block, start, rows) -> np.ndarray:
        """Append ``block``'s entries at the row-major positions ``flat``
        to ``entries``, written in place; returns each block row's count."""
        batch_rows, cols, values = entries.extend(flat.size)
        _take_entries(block, flat, values, cols)
        local = self._ws.buffer(_SLOTS, flat.shape, np.intp)
        np.floor_divide(flat, block.shape[1], out=local)
        if rows is None:
            batch_rows[...] = local
        else:
            np.take(rows, local, out=batch_rows, mode="wrap")
        np.remainder(flat, block.shape[1], out=cols)
        cols += start
        return np.bincount(local, minlength=len(block))

    def _block_top(self, block: np.ndarray, hits) -> np.ndarray:
        """Positions of each row's best ``k`` rejected entries in the
        block (the first block's path, and a block too dense to queue):
        ``k`` more than the most hits any row has is enough of the
        block's top (every column, when the block is short), and its
        hits are all in it."""
        most = 0
        if hits is not None and hits.size:
            local = self._ws.buffer(_SLOTS, hits.shape, np.intp)
            most = int(np.bincount(np.floor_divide(hits, block.shape[1], out=local)).max())
        mask = stable_top_m_mask(block, self._runner_ups + most, self._ws)
        if hits is not None:
            mask.reshape(-1)[hits] = False
        return np.flatnonzero(mask)

    def _pass_floor(self, start: int, block: np.ndarray, rows) -> bool:
        """Record what ``block > floor`` passes, one compare: hits, and
        contenders in the queue.  ``False``, recording nothing, when the
        block is too dense to queue."""
        n = block.shape[1]
        mask = self._ws.buffer(_MASK, block.shape, bool)
        floor = self._floor if rows is None else self._floor[rows]
        spread = self._ws.buffer(_FILL, (min(block.size, max(n, _FILL_ENTRIES)),), block.dtype)
        per_row(np.greater, block, floor, mask, spread)
        if np.count_nonzero(mask) > block.size // 8:
            return False
        queued = np.flatnonzero(mask)
        hits = queued[:0]
        if self.threshold < np.inf:
            queued, hits = self._split(block, queued)
        where = slice(None) if rows is None else rows
        held = self._record(self._queue, queued, block, start, rows)
        held += self._held[where]
        if held.max() > 4 * self._runner_ups:
            self._queue.count -= queued.size  # undone: a row's room is full
            return False
        self._held[where] = held
        if hits.size:
            self._record(self._hits, hits, block, start, rows)
        return True

    def _split(self, block: np.ndarray, passed: np.ndarray):
        """``passed`` — row-major positions in ``block``, modified — as
        the positions at or under the threshold and the hits, each still
        in row-major order: the hits are moved past ``block.size`` by
        their values and the lot sorted in place."""
        values = self._ws.buffer(_VALUES, passed.shape, block.dtype)
        _take_entries(block, passed, values, self._ws.buffer(_SLOTS, passed.shape, np.intp))
        hit = self._ws.buffer(_MASK, passed.shape, bool)  # the spent compare mask
        np.greater(values, self.threshold, out=hit)
        np.add(passed, block.size, out=passed, where=hit)
        passed.sort()
        kept = passed.size - np.count_nonzero(hit)
        hits = passed[kept:]
        hits -= block.size
        return passed[:kept], hits

    def _tighten(self) -> None:
        """Cut the queue back to each row's best ``runner_ups`` entries;
        when every row holds that many, the worst is its floor.

        Each row is left-packed into a ``(batch, most held)`` plane
        padded with -inf.  Queue order is column order within a row, so
        position order is index order, and the padding, right of every
        real entry, loses every tie (even to a real -inf)."""
        k, held, ws = self._runner_ups, self._held, self._ws
        rows, cols, values = queue = self._queue.view()
        count, width = rows.size, int(held.max())
        keys = _row_keys(ws, rows)
        slots = ws.buffer(_SLOTS, (count,), np.intp)
        np.floor_divide(keys, max(count, 1), out=slots)
        np.remainder(keys, max(count, 1), out=keys)  # queue positions in row order
        # The j-th entry in row order, of row r, goes to the plane's flat
        # position j + shift[r]: r · width plus its place in its row.
        shift = np.arange(self.batch) * width - (np.cumsum(held) - held)
        np.take(shift, slots, out=slots, mode="wrap")
        slots += _iota(ws, count)
        plane = ws.buffer(_CUT, (self.batch, width), self.dtype)
        plane.fill(-np.inf)
        ordered = ws.buffer(_VALUES, (count,), self.dtype)
        np.take(values, keys, out=ordered, mode="wrap")
        plane.reshape(-1)[slots] = ordered
        best = np.flatnonzero(stable_top_m_mask(plane, k, ws))
        owner = ws.buffer(_SLOTS, best.shape, np.intp)
        np.floor_divide(best, max(width, 1), out=owner)
        if held.min() < k:  # a short row keeps its real entries, not the padding
            real = best - owner * width < held[owner]
            best, owner = best[real], owner[real]
        np.take(shift, owner, out=owner, mode="wrap")
        best -= owner  # each kept entry's place in row order ...
        np.take(keys, best, out=best, mode="wrap")  # ... and in the queue
        for slab, scratch in zip(queue, (owner, owner, ordered)):
            np.take(slab, best, out=scratch[: best.size], mode="wrap")
            slab[: best.size] = scratch[: best.size]
        self._queue.count = best.size
        if held.min() >= k:  # then ``best`` is k a row, in row order
            self._floor = values[: best.size].reshape(self.batch, k).min(axis=1, keepdims=True)
        np.minimum(held, k, out=held)

    def finalize(self):
        """``(counts, cols, values)`` in the flat candidate layout: the
        only arrays the reducer allocates that outlive it."""
        if self._runner_ups:
            self._tighten()
            self._hits.append(*self._queue.view())  # behind the hits, row by row
        rows, cols, values = self._hits.view()
        order = _row_keys(self._ws, rows)
        np.remainder(order, max(rows.size, 1), out=order)
        counts = np.bincount(rows, minlength=self.batch).astype(np.intp, copy=False)
        return counts, np.take(cols, order, mode="wrap"), np.take(values, order, mode="wrap")


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
