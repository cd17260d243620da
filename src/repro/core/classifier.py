"""The exact extreme classifier (paper Eq. 1-2).

``FullClassifier`` owns the weight matrix ``W ∈ R^{l×d}`` and bias
``b ∈ R^l`` and provides the exact linear transform plus normalization.
It also exposes the *gather* form ``logits_for(indices, h)`` used by
candidates-only computation, where only the selected weight rows are
touched — the operation the ENMC Executor performs in hardware.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.linalg.functional import log_softmax, sigmoid, softmax
from repro.utils.memory import PHASE_SCRATCH
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_batch_features, check_positive

#: Normalizations supported by the final layer.  The paper's tasks use
#: softmax (LM/NMT) and sigmoid (multi-label recommendation).
NORMALIZATIONS = ("softmax", "sigmoid")

#: Candidates gathered per step of :func:`gathered_candidate_scores`.
_GATHER_CHUNK = 1024


def _check_indices(indices: np.ndarray, size: int) -> None:
    """Raise ``IndexError`` unless every index is valid along an axis
    of ``size`` (``-size <= i < size``, as indexing allows) — the check
    that lets a gather run unbuffered in ``np.take(mode="wrap")``."""
    if indices.size and not -size <= indices.min() <= indices.max() < size:
        raise IndexError(f"index out of bounds for axis of size {size}")


def gathered_candidate_scores(
    store, rows: np.ndarray, cols: np.ndarray, batch: np.ndarray, workspace=None
) -> np.ndarray:
    """``store.gather_rows(cols) · batch[rows] + store.bias[cols]``, one
    dot product per candidate, flat-aligned with the inputs — the gather
    form of the exact phase, shared by every exact store.

    Candidates go ``_GATHER_CHUNK`` at a time through two chunk-sized
    operand buffers made once per call — the phase scratch of
    ``workspace`` when one is given, which a streaming call's tiles have
    already sized — so nothing grows with the candidate count but the
    result (the features' buffer is the store's dequantization scratch
    before it takes the features, and the weights' takes the bias after
    the dot products).  Each score is its own dot product, so chunking moves no
    bits.  ``rows`` are range-checked once here and ``cols`` by the
    store's ``gather_rows``; ``np.take`` under its default
    ``mode="raise"`` would buffer a copy of every chunk instead.
    """
    batch = np.asarray(batch, dtype=np.float64)
    _check_indices(rows, batch.shape[0])
    shape = (2, min(cols.size, _GATHER_CHUNK), batch.shape[1])
    if workspace is None:
        weights, features = np.empty(shape)
    else:
        weights, features = workspace.buffer(PHASE_SCRATCH, shape)
    scores = np.empty(cols.size)
    for start in range(0, cols.size, _GATHER_CHUNK):
        chunk = slice(start, start + _GATHER_CHUNK)
        size = len(cols[chunk])
        store.gather_rows(cols[chunk], out=weights[:size], scratch=features[:size])
        np.take(batch, rows[chunk], axis=0, out=features[:size], mode="wrap")
        np.einsum("nd,nd->n", weights[:size], features[:size], out=scores[chunk])
        # The weights are spent: their first ``size`` entries take the bias.
        bias = np.take(store.bias, cols[chunk], out=weights.reshape(-1)[:size], mode="wrap")
        scores[chunk] += bias
    return scores


class FullClassifier:
    """Exact linear classifier ``z = W h + b`` with softmax/sigmoid output."""

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        normalization: str = "softmax",
    ):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D (l, d), got shape {weight.shape}")
        if normalization not in NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
            )
        self.weight = weight
        if bias is None:
            bias = np.zeros(weight.shape[0])
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.bias.shape != (weight.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} incompatible with l={weight.shape[0]}"
            )
        self.normalization = normalization

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        num_categories: int,
        hidden_dim: int,
        rng: RngLike = None,
        normalization: str = "softmax",
        scale: float = 1.0,
    ) -> "FullClassifier":
        """A Gaussian-initialized classifier (mostly for tests/demos).

        Realistic, calibrated classifiers come from
        :mod:`repro.data.synthetic`.
        """
        check_positive("num_categories", num_categories)
        check_positive("hidden_dim", hidden_dim)
        generator = ensure_rng(rng)
        weight = generator.standard_normal((num_categories, hidden_dim))
        weight *= scale / np.sqrt(hidden_dim)
        bias = generator.standard_normal(num_categories) * 0.01
        return cls(weight, bias, normalization=normalization)

    # ------------------------------------------------------------------
    # shape / cost properties
    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        """The label-space size ``l``."""
        return self.weight.shape[0]

    @property
    def hidden_dim(self) -> int:
        """The feature dimensionality ``d``."""
        return self.weight.shape[1]

    @property
    def nbytes(self) -> int:
        """Parameter footprint at FP32, as deployed (weights + bias)."""
        return (self.weight.size + self.bias.size) * 4

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def logits(self, features: np.ndarray, workspace=None) -> np.ndarray:
        """Exact pre-normalization scores ``W h + b`` for a batch.

        ``workspace`` is accepted (and unused — the FP64 weights need no
        dequantization scratch) so this surface matches
        :class:`~repro.core.weightstore.QuantizedExactStore` and callers
        can treat both stores polymorphically.
        """
        batch = check_batch_features(features, self.hidden_dim)
        return batch @ self.weight.T + self.bias

    def logits_for(
        self, indices: Sequence[int], features: np.ndarray, workspace=None
    ) -> np.ndarray:
        """Exact scores for selected categories only (candidates-only form).

        Touches only ``len(indices)`` weight rows, mirroring the data
        access of the ENMC Executor; they are gathered into the phase
        scratch of ``workspace`` when one is given.
        """
        batch = check_batch_features(features, self.hidden_dim)
        index_array = np.asarray(indices, dtype=np.intp)
        if index_array.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {index_array.shape}")
        out = None
        if workspace is not None:
            out = workspace.buffer(PHASE_SCRATCH, (index_array.size, self.hidden_dim))
        return batch @ self.gather_rows(index_array, out=out).T + self.bias[index_array]

    def gather_rows(
        self,
        indices: np.ndarray,
        out: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Weight rows for arbitrary category indices, into ``out`` when
        given (range-checked, then gathered without a buffered copy) —
        the surface :class:`~repro.core.weightstore.QuantizedExactStore`
        dequantizes through (``scratch`` is its; FP64 rows need none)."""
        index_array = np.asarray(indices, dtype=np.intp)
        _check_indices(index_array, self.num_categories)
        return np.take(self.weight, index_array, axis=0, out=out, mode="wrap")

    def candidate_scores(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        batch: np.ndarray,
        workspace=None,
    ) -> np.ndarray:
        """Per-candidate exact scores: one dot product per ``(row, col)``
        pair, flat-aligned with the inputs.

        The gather form the vectorized exact phase uses when candidate
        overlap is too low for the union matmul
        (:func:`gathered_candidate_scores`: two chunk-sized operands,
        from ``workspace`` when one is given, however many candidates a
        batch selects).
        """
        return gathered_candidate_scores(self, rows, cols, batch, workspace)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Normalized output probabilities (paper Eq. 2)."""
        scores = self.logits(features)
        if self.normalization == "softmax":
            return softmax(scores, axis=-1)
        return sigmoid(scores)

    def log_proba(self, features: np.ndarray) -> np.ndarray:
        """Log-probabilities; only defined for softmax normalization."""
        if self.normalization != "softmax":
            raise ValueError("log_proba requires softmax normalization")
        return log_softmax(self.logits(features), axis=-1)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Argmax category per batch row."""
        return np.argmax(self.logits(features), axis=-1)

    def __repr__(self) -> str:
        return (
            f"FullClassifier(l={self.num_categories}, d={self.hidden_dim}, "
            f"normalization={self.normalization!r})"
        )
