"""Reference implementations the differential tests compare against.

Each function is the plain dataflow a serving path was tiled or
vectorized from.  They live beside the tests, not in ``src/``, because
no serving call runs them.
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.pipeline import ScreenedOutput
from repro.dram.scheduler import ChannelScheduler, _Candidate
from repro.utils.validation import check_batch_features


def forward_per_row(model, features: np.ndarray) -> ScreenedOutput:
    """``model.forward`` done the direct way: whole-plane screening and
    selection, then one gather + matmul per batch row."""
    batch = check_batch_features(features, model.hidden_dim)
    approx = model.screener.approximate_logits(batch)
    candidates = model.selector.select(approx)
    mixed = approx.copy()
    for row, indices in enumerate(candidates):
        if indices.size == 0:
            continue
        exact = model.classifier.logits_for(indices, batch[row])
        mixed[row, indices] = exact[0]
    return ScreenedOutput.from_planes(mixed, approx, candidates)


def rank_dense(logits: np.ndarray, k: int):
    """Each row's best ``min(k, l)`` under (score desc, index asc), by a
    full lexsort: what ``top_k`` returns without building the plane."""
    k = min(k, logits.shape[1])
    columns = np.arange(logits.shape[1])
    indices = np.stack([np.lexsort((columns, -row))[:k] for row in logits])
    return indices, np.take_along_axis(logits, indices, axis=1)


def merge_candidates_per_row(
    candidate_sets: Sequence[CandidateSet],
    ranges: Sequence[range],
    batch_size: int,
) -> CandidateSet:
    """The candidate merge of
    :func:`~repro.distributed.sharding.merge_streamed_outputs` done the
    direct way: one concatenation per batch row."""
    merged: List[np.ndarray] = []
    for row in range(batch_size):
        parts = [
            candidate_set.indices[row] + shard_range.start
            for candidate_set, shard_range in zip(candidate_sets, ranges)
        ]
        merged.append(np.concatenate(parts))
    return CandidateSet(indices=merged)


class UncachedChannelScheduler(ChannelScheduler):
    """:class:`~repro.dram.scheduler.ChannelScheduler` picking the
    direct way: every queued request's next command is recomputed on
    every step (O(queue²) drains), no candidate cache."""

    def _pick(self) -> Optional[_Candidate]:
        if not self.queue:
            return None
        candidates = [
            _Candidate(
                raw.request, raw.command, self._effective_cycle(raw), raw.is_hit
            )
            for raw in (self._next_command_raw(r) for r in self.queue)
        ]
        # Wall-clock FR-FCFS: look only at commands issuable at the
        # earliest possible cycle, so e.g. ACTs to other banks proceed
        # while an opened row waits out tRCD.  Among those, prefer row
        # hits, then the oldest request.
        first_cycle = min(c.issue_cycle for c in candidates)
        ready = [c for c in candidates if c.issue_cycle == first_cycle]
        return min(ready, key=lambda c: (not c.is_hit, c.request.arrival))
