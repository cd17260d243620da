"""Candidate selection over screening scores (paper Section 4.2, step 3).

After the screener produces approximate scores ``z̃``, the "threshold
filtering step selects key candidates": either the top-``m`` entries or
every entry above a tuned threshold.  The hardware analogue is the
Screener's comparator array writing indices to the index buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.linalg.topk import (
    BlockwiseThreshold,
    calibrate_threshold,
    select_above_threshold,
    stable_top_m_indices,
)
from repro.utils.validation import check_positive

SELECTION_MODES = ("top_m", "threshold")


@dataclass
class CandidateSet:
    """Per-batch-row candidate indices produced by screening.

    ``indices`` is a ragged list (threshold mode selects variable
    counts); ``rows`` pairs each index array with its batch row.

    The derived views (``counts``, ``union``, ``flat``) are cached —
    the vectorized pipeline asks for them repeatedly on the hot path.
    Treat a ``CandidateSet`` as immutable once constructed.
    """

    indices: List[np.ndarray]
    _counts: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _union: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _flat: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_flat(cls, counts: np.ndarray, cols: np.ndarray) -> "CandidateSet":
        """Rebuild per-row index lists from the :meth:`flat` layout.

        ``counts[i]`` is row ``i``'s candidate count and ``cols`` holds
        all candidate columns concatenated in row order — the compact
        form a serving worker ships back to the host.  Round-trips
        exactly: ``CandidateSet.from_flat(cs.counts, cs.flat()[1])``
        equals ``cs`` row for row.
        """
        counts = np.asarray(counts, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if int(counts.sum()) != cols.size:
            raise ValueError(
                f"counts sum to {int(counts.sum())} but {cols.size} columns given"
            )
        candidate_set = cls(
            indices=np.split(cols, np.cumsum(counts)[:-1]) if counts.size else []
        )
        candidate_set._counts = counts
        return candidate_set

    @property
    def batch_size(self) -> int:
        return len(self.indices)

    @property
    def counts(self) -> np.ndarray:
        """Number of candidates per batch row."""
        if self._counts is None:
            self._counts = np.array([idx.size for idx in self.indices])
        return self._counts

    @property
    def total(self) -> int:
        """Total candidate computations across the batch."""
        return int(self.counts.sum())

    def union(self) -> np.ndarray:
        """Sorted union of candidate indices across the batch.

        Batched hardware execution gathers the union of rows once per
        batch tile, so this is the weight traffic the Executor sees.
        """
        if self._union is None:
            if not self.indices:
                self._union = np.array([], dtype=np.intp)
            else:
                # np.unique's own sort + adjacent-difference mask, spelled
                # out: NumPy 2 imports numpy.ma inside np.unique, and a
                # fresh worker's first request would pay that import.
                merged = np.sort(np.concatenate(self.indices))
                first = np.ones(merged.size, dtype=bool)
                np.not_equal(merged[1:], merged[:-1], out=first[1:])
                self._union = merged[first]
        return self._union

    def flat(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of every candidate as flat aligned arrays.

        This is the scatter layout the vectorized exact phase consumes:
        ``mixed[rows, cols] = exact_values`` touches every candidate in
        one fancy-indexed assignment instead of a per-row Python loop.
        """
        if self._flat is None:
            if not self.indices:
                empty = np.array([], dtype=np.intp)
                self._flat = (empty, empty.copy())
            else:
                rows = np.repeat(np.arange(len(self.indices)), self.counts)
                cols = np.concatenate(self.indices).astype(np.intp, copy=False)
                self._flat = (rows, cols)
        return self._flat

    def __iter__(self):
        return iter(self.indices)


class CandidateSelector:
    """Selects candidates from screening scores.

    Parameters
    ----------
    mode:
        ``"top_m"`` (fixed budget per row) or ``"threshold"``.
    num_candidates:
        The budget ``m`` for top-m mode; also used by
        :meth:`calibrate` to tune the threshold.
    threshold:
        Score cutoff for threshold mode.  May be ``None`` initially and
        set later via :meth:`calibrate` on validation scores.
    """

    def __init__(
        self,
        mode: str = "top_m",
        num_candidates: int = 32,
        threshold: Optional[float] = None,
    ):
        if mode not in SELECTION_MODES:
            raise ValueError(f"mode must be one of {SELECTION_MODES}, got {mode!r}")
        check_positive("num_candidates", num_candidates)
        self.mode = mode
        self.num_candidates = num_candidates
        self.threshold = threshold

    def calibrate(self, validation_scores: np.ndarray) -> float:
        """Tune the threshold on validation screening scores.

        Picks the cutoff whose average exceedance count equals
        ``num_candidates`` (paper: "the threshold value can be tuned on
        validation sets").  Returns the chosen threshold.
        """
        self.threshold = calibrate_threshold(validation_scores, self.num_candidates)
        return self.threshold

    def select(self, scores: np.ndarray) -> CandidateSet:
        """Apply the selection rule to a batch of screening scores."""
        array = np.asarray(scores)
        if not np.issubdtype(array.dtype, np.floating):
            array = array.astype(np.float64)
        if array.ndim == 1:
            array = array[None, :]
        if array.ndim != 2:
            raise ValueError(f"scores must be 1-D or 2-D, got shape {array.shape}")

        if self.mode == "top_m":
            m = min(self.num_candidates, array.shape[1])
            # Deterministic tie-break (score desc, index asc): the same
            # total order the blocked streaming reducer maintains, so
            # dense and streaming selections agree bit for bit even on
            # tied INT4 scores.
            picked = stable_top_m_indices(array, m)
            return CandidateSet(indices=list(picked))

        if self.threshold is None:
            raise ValueError(
                "threshold mode requires a threshold; call calibrate() first"
            )
        return CandidateSet(indices=select_above_threshold(array, self.threshold))

    def make_block_reducer(
        self, batch: int, num_categories: int, workspace=None, dtype=np.float64,
        runner_ups: int = 0,
    ):
        """A blockwise reducer equivalent to :meth:`select`.

        Streaming the score plane through the reducer block by block
        (any partition) and finalizing yields the same candidates, in
        the same order, as :meth:`select` on the dense plane.

        With ``runner_ups = k`` each row's record also carries its best
        ``k`` *non*-candidates under ``(score desc, index asc)`` — all a
        ranking of the mixed output can need besides the candidates;
        :meth:`is_candidate` tells the two apart.  Both modes are the
        one threshold filter: top-m is its threshold at +inf with
        ``m + k`` runner-ups (the best ``m`` are the candidates); in
        threshold mode the filter's compare drops to a running floor
        that keeps the best ``k`` entries it rejects.
        """
        threshold, slots = self.threshold, runner_ups
        if self.mode == "top_m":
            threshold, slots = np.inf, self.num_candidates + runner_ups
        return BlockwiseThreshold(
            batch, threshold, workspace=workspace, dtype=dtype,
            runner_ups=min(slots, num_categories),
        )

    def is_candidate(self, values: np.ndarray, batch: int) -> np.ndarray:
        """Which entries of a ``runner_ups`` reducer's flat record
        :meth:`select` would have picked (a mask aligned with
        ``values``; the rest are the runner-ups)."""
        if self.mode == "threshold":
            return values > float(self.threshold)  # the reducer's compare
        slots = values.reshape(batch, -1)
        picked = stable_top_m_indices(slots, min(self.num_candidates, slots.shape[1]))
        mask = np.zeros(slots.shape, dtype=bool)
        np.put_along_axis(mask, picked, True, axis=1)
        return mask.reshape(-1)

    def __repr__(self) -> str:
        return (
            f"CandidateSelector(mode={self.mode!r}, m={self.num_candidates}, "
            f"threshold={self.threshold})"
        )
