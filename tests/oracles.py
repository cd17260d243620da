"""Reference implementations the differential tests compare against.

Each function is the plain dataflow a serving path was tiled or
vectorized from.  They live beside the tests, not in ``src/``, because
no serving call runs them.
"""

from typing import List, Sequence

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.pipeline import ScreenedOutput
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
    return ScreenedOutput(
        logits=mixed, approximate_logits=approx, candidates=candidates
    )


def merge_candidates_per_row(
    candidate_sets: Sequence[CandidateSet],
    ranges: Sequence[range],
    batch_size: int,
) -> CandidateSet:
    """:func:`~repro.distributed.sharding.merge_candidates` done the
    direct way: one concatenation per batch row."""
    merged: List[np.ndarray] = []
    for row in range(batch_size):
        parts = [
            candidate_set.indices[row] + shard_range.start
            for candidate_set, shard_range in zip(candidate_sets, ranges)
        ]
        merged.append(np.concatenate(parts))
    return CandidateSet(indices=merged)
