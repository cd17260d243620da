"""Top-k and threshold selection over screening scores.

Paper Section 4.2: "The estimation can be done with top-m searching or
thresholding, where the threshold value can be tuned on validation
sets."  Both primitives operate on batched score matrices.
"""

from __future__ import annotations

from typing import List

import numpy as np

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


def stable_top_m_indices(scores: np.ndarray, m: int) -> np.ndarray:
    """Deterministic batched top-``m``: ties broken by lowest index.

    Returns a ``(batch, m)`` index array, ascending within each row.
    The selection rule is the lexicographic maximum under
    ``(score descending, index ascending)`` — a *total* order, so the
    selected set is unique and independent of how the score plane is
    partitioned.  That property is what lets the blocked streaming
    reducer (:class:`BlockwiseTopM`) reproduce the dense selection bit
    for bit for every block size, even on degenerate inputs where the
    INT4 screener produces exact score ties.
    """
    array = np.asarray(scores)
    if array.ndim != 2:
        raise ValueError(f"scores must be 2-D, got shape {array.shape}")
    batch, n = array.shape
    check_positive("m", m)
    if m >= n:
        return np.broadcast_to(np.arange(n), (batch, n)).copy()

    kth = np.partition(array, n - m, axis=1)[:, n - m : n - m + 1]
    ge = array >= kth
    counts = ge.sum(axis=1)
    if np.all(counts == m):
        # No ties straddle the cut: the mask alone is the selection.
        mask = ge
    else:
        gt = array > kth
        eq = ge & ~gt
        need = m - gt.sum(axis=1, keepdims=True)
        mask = gt | (eq & (np.cumsum(eq, axis=1) <= need))
    return np.nonzero(mask)[1].reshape(batch, m)


def _survivors(ws, key: str, block: np.ndarray, bound, dense: int = -1):
    """The streaming filter step: entries with ``block > bound`` (a
    scalar, or one bound per row as ``(batch, 1)``) as flat row-major
    ``(rows, cols, values)``.  ``None`` when more than ``dense`` entries
    pass (``dense >= 0``) — decided before anything is extracted."""
    mask = ws.buffer((key, "mask"), block.shape, bool)
    np.greater(block, bound, out=mask)
    if 0 <= dense < np.count_nonzero(mask):
        return None
    flat = np.flatnonzero(mask)
    rows = flat // block.shape[1]
    cols = flat - rows * block.shape[1]
    return rows, cols, block[rows, cols]


class BlockwiseTopM:
    """Running per-row top-``m`` over column blocks of a score plane.

    Feed score blocks left to right via :meth:`update`; the reducer
    keeps each row's current ``m`` best ``(score, global column)``
    pairs under the same ``(score desc, index asc)`` total order as
    :func:`stable_top_m_indices`, so the finalized selection equals the
    dense selection for any block partition: an entry is evicted only
    when ``m`` entries beat it under the total order, and "beats" is
    transitive, so exactly the ``m`` global maxima survive.

    Once a row holds ``m`` entries its m-th best score is a running
    ``floor``: a later block costs one ``block > floor`` compare plus a
    merge of the few survivors with the kept ``m``.  Strict ``>`` is
    exact: kept columns stay ascending and left of every later column,
    so position order is global-index order (the merge needs no index
    sort) and an equal score always loses the tie-break.  The first
    fill, and any block whose survivors are dense (ascending scores),
    merge ``[kept | block]`` in full instead.

    Scratch state lives in a :class:`repro.utils.memory.Workspace` when
    one is supplied, so steady-state updates allocate nothing new.
    """

    def __init__(
        self, batch: int, m: int, workspace=None, key: str = "topm", dtype=np.float64
    ):
        check_positive("m", m)
        from repro.utils.memory import Workspace

        self._ws = workspace if workspace is not None else Workspace()
        self._key = key
        self.batch = batch
        self.m = m
        self.dtype = np.dtype(dtype)
        self._scores = self._ws.buffer((key, "scores"), (batch, m), self.dtype)
        self._cols = self._ws.buffer((key, "cols"), (batch, m), np.intp)
        self._floor = self._ws.buffer((key, "floor"), (batch, 1), self.dtype)
        self._filled = 0

    def update(self, start: int, block: np.ndarray) -> None:
        """Fold in scores for global columns ``[start, start+width)``."""
        extra = block.shape[1]  # columns merged next to the kept ones
        if extra == 0:
            return
        filled, hits = self._filled, None
        if filled == self.m:  # the floor is only tight once m entries are held
            # Measured break-even: between 1/8 and 1/4 of the block surviving.
            hits = _survivors(self._ws, self._key, block, self._floor, dense=block.size // 8)
        if hits is not None:
            rows, cols, values = hits
            if rows.size == 0:
                return
            counts = np.bincount(rows, minlength=self.batch)
            extra = int(counts.max())
            slot = filled + np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cand_scores, cand_cols = self._beside_kept(extra)
        if hits is None:
            cand_scores[:, filled:] = block
            cand_cols[:, filled:] = start + np.arange(extra)
        else:
            # Survivors left-packed per row; the -inf padding sits right
            # of m kept entries that all beat it, so it is never selected.
            cand_scores[:, filled:] = -np.inf
            cand_scores[rows, slot] = values
            cand_cols[rows, slot] = start + cols
        self._keep_best(cand_scores, cand_cols, self.m)  # every column while short of m

    def _beside_kept(self, extra: int):
        """Merge scratch ``(scores, cols)``: the kept entries, then
        ``extra`` columns for the caller to fill."""
        filled, shape = self._filled, (self.batch, self._filled + extra)
        cand_scores = self._ws.buffer((self._key, "merge"), shape, self.dtype)
        cand_cols = self._ws.buffer((self._key, "merge_cols"), shape, np.intp)
        cand_scores[:, :filled] = self._scores[:, :filled]
        cand_cols[:, :filled] = self._cols[:, :filled]
        return cand_scores, cand_cols

    def _keep_best(self, cand_scores: np.ndarray, cand_cols: np.ndarray, m: int) -> None:
        """Keep the best ``m`` of the merge scratch; refresh the floor."""
        keep = stable_top_m_indices(cand_scores, m)
        self._filled = kept = keep.shape[1]
        self._scores[:, :kept] = np.take_along_axis(cand_scores, keep, axis=1)
        self._cols[:, :kept] = np.take_along_axis(cand_cols, keep, axis=1)
        self._scores[:, :kept].min(axis=1, keepdims=True, out=self._floor)

    def fork(self, workspace) -> "BlockwiseTopM":
        """A reducer for a later run of columns, on another thread with
        its own ``workspace``, seeded with a copy of the kept entries
        and floor — so it filters against a tight floor from its first
        block instead of paying a second first fill.  Every seed is a
        real entry left of the run, which is all :meth:`update` assumes
        of the entries it holds; :meth:`absorb` folds the fork back."""
        fork = BlockwiseTopM(self.batch, self.m, workspace, self._key, self.dtype)
        fork._filled = filled = self._filled
        fork._scores[:, :filled] = self._scores[:, :filled]
        fork._cols[:, :filled] = self._cols[:, :filled]
        fork._floor[:] = self._floor
        return fork

    def absorb(self, fork: "BlockwiseTopM", start: int) -> None:
        """Fold in a :meth:`fork` that ran over columns ``[start, ...)``
        while this reducer saw only columns left of ``start``.

        One selection over ``[kept | fork's entries]`` with the fork's
        surviving seed copies (columns left of ``start``) masked to
        -inf: positions are still in global-index order, so it is the
        same total order as one reducer fed every block.  A fork still
        short of ``m`` evicted nothing, so its seeds are the same count
        in every row and the selection shrinks by exactly that many.
        """
        filled, width = self._filled, fork._filled
        cand_scores, cand_cols = self._beside_kept(width)
        cand_cols[:, filled:] = fork._cols[:, :width]
        seeds = cand_cols[:, filled:] < start
        cand_scores[:, filled:] = np.where(seeds, -np.inf, fork._scores[:, :width])
        real = filled + width - int(np.count_nonzero(seeds, axis=1).max())
        self._keep_best(cand_scores, cand_cols, min(self.m, real))

    def finalize(self):
        """``(counts, cols, values)`` in the flat candidate layout:
        per-row counts, then all kept columns (ascending within each
        row) and their scores, concatenated in row order."""
        filled = self._filled
        counts = np.full(self.batch, filled, dtype=np.intp)
        cols = self._cols[:, :filled].reshape(-1).copy()
        values = self._scores[:, :filled].reshape(-1).copy()
        return counts, cols, values


class _FlatEntries:
    """Append-only flat ``(rows, cols, values)`` in growable workspace
    slabs — the ragged record both halves of the threshold reducer keep."""

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
    """Running threshold filter over column blocks of a score plane.

    Selection is final the moment a block streams past (``score >
    threshold`` needs no global context), so the reducer just appends
    hits to growable workspace buffers.  Finalize groups them by row
    with a stable sort; within a row, appended columns are already
    ascending (blocks arrive left to right), so the result matches the
    dense flat-scan selection exactly.

    With ``runner_ups = k`` the reducer also keeps each row's best
    ``k`` entries among those the filter *rejects*, under ``(score
    desc, index asc)``, and :meth:`finalize` lists them behind the
    row's hits — what ranking the mixed output needs besides the
    candidates.  They ride the filter's one compare: once every row
    holds ``k`` rejected entries the worst of them is the row's
    ``floor`` (at or under the threshold), ``block > floor`` passes
    hits and contenders alike, and the contenders queue up flat until
    :meth:`_tighten` cuts the queue back to ``k`` a row and raises the
    floor.  Strict ``>`` is exact as in :class:`BlockwiseTopM` (an
    equal score in a later column loses the tie-break to ``k`` held
    entries), and a stale floor only lets more through.
    """

    def __init__(
        self,
        batch: int,
        threshold: float,
        workspace=None,
        key: str = "thr",
        dtype=np.float64,
        runner_ups: int = 0,
    ):
        if threshold is None:
            raise ValueError("threshold mode requires a calibrated threshold")
        from repro.utils.memory import Workspace

        self._ws = workspace if workspace is not None else Workspace()
        self._key = key
        self.batch = batch
        self.threshold = float(threshold)
        self.dtype = np.dtype(dtype)
        self._hits = _FlatEntries(self._ws, key, self.dtype)
        self._runner_ups = runner_ups
        self._queue = _FlatEntries(self._ws, (key, "runner"), self.dtype)
        self._floor = None  # set once every row holds ``runner_ups`` rejected entries

    def update(self, start: int, block: np.ndarray) -> None:
        if block.shape[1] == 0:
            return
        k = self._runner_ups
        bound = self.threshold if self._floor is None else self._floor
        rows, cols, values = _survivors(self._ws, self._key, block, bound)
        if k and self._floor is None:
            # No floor yet: ``k`` more than the most hits any row has is
            # enough of the block's top to hold each row's best ``k``
            # rejected entries (every column, when the block is short).
            most = int(np.bincount(rows, minlength=self.batch).max())
            picked = stable_top_m_indices(block, k + most)
            scores = np.take_along_axis(block, picked, axis=1)
            rejected = scores <= self.threshold
            self._queue.append(
                np.nonzero(rejected)[0], start + picked[rejected], scores[rejected]
            )
        elif k:
            hit = values > self.threshold
            self._queue.append(rows[~hit], start + cols[~hit], values[~hit])
            rows, cols, values = rows[hit], cols[hit], values[hit]
        self._hits.append(rows, start + cols, values)
        if k and (self._floor is None or self._queue.count > 2 * self.batch * k):
            self._tighten()

    def _tighten(self) -> None:
        """Cut the queue back to each row's best ``runner_ups`` entries;
        when every row holds that many, the worst is its floor."""
        k = self._runner_ups
        rows, cols, values = queue = self._queue.view()
        # Queue order is column order within a row, so the stable sort
        # ranks equal scores by index.
        order = np.lexsort((-values, rows))
        held = np.bincount(rows, minlength=self.batch)
        first = np.cumsum(held) - held
        keep = np.sort(order[np.arange(rows.size) - np.repeat(first, held) < k])
        if held.min() >= k:
            self._floor = values[order[first + k - 1]][:, None]
        for slab in queue:
            slab[: keep.size] = slab[keep]
        self._queue.count = keep.size

    def fork(self, workspace) -> "BlockwiseThreshold":
        """An empty record under the same threshold and runner-up floor,
        for a later run of columns on another thread with its own
        ``workspace`` (the floor's ``runner_ups`` entries sit left of
        the run, so they win every tie against it)."""
        fork = BlockwiseThreshold(
            self.batch, self.threshold, workspace, self._key, self.dtype, self._runner_ups
        )
        fork._floor = self._floor
        return fork

    def absorb(self, fork: "BlockwiseThreshold", start: int) -> None:
        """Append a :meth:`fork`'s hits and queue: its columns (from
        ``start``) lie right of every column recorded here, so both
        records stay in column order within a row.

        Then the fork's arena gets as much room as this record has now,
        every hit joined: a run's share of the hits is anything from
        none to all, and a lane record that grew from a few entries
        would allocate long after the call's own had settled.  Sized
        here, the first call sizes every lane."""
        self._hits.append(*fork._hits.view())
        self._queue.append(*fork._queue.view())
        for key, kind in self._hits._slabs:
            fork._ws.growable(key, self._ws.growable(key, 1, kind).size, kind)

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
