"""SVD-softmax (Shim et al., NeurIPS 2017).

Decompose the classifier weight ``W = U Σ V^T``.  At inference:

1. transform the hidden vector once: ``h' = Σ V^T h`` (a full ``d×d``
   transform — this is the fixed overhead the paper notes is ~4× our
   screening cost);
2. *preview*: compute partial inner products ``U[:, :w] · h'[:w]`` for
   every category using only the top-``w`` singular dimensions;
3. select the top-``N`` preview categories and recompute their full
   inner products ``U · h'`` (equivalently ``W h``) exactly;
4. outputs mix preview values (non-candidates) and exact values.

The structure mirrors approximate screening — preview, select,
refine — which is exactly why the paper uses it as the main baseline;
the difference is the preview basis (unsupervised SVD vs. learned
regression from a random projection) and the preview cost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.candidates import CandidateSelector
from repro.core.classifier import FullClassifier
from repro.core.metrics import ClassificationCost
from repro.core.pipeline import ScreenedOutput
from repro.utils.validation import check_batch_features, check_positive


class SVDSoftmax:
    """Preview/refine softmax approximation via truncated SVD."""

    def __init__(
        self,
        classifier: FullClassifier,
        window: int = 32,
        num_candidates: int = 32,
        selector: Optional[CandidateSelector] = None,
    ):
        check_positive("window", window)
        if window > classifier.hidden_dim:
            raise ValueError(
                f"window {window} exceeds hidden dim {classifier.hidden_dim}"
            )
        self.classifier = classifier
        self.window = window
        self.selector = selector or CandidateSelector(
            mode="top_m", num_candidates=num_candidates
        )

        # Full (thin) SVD once, offline.  U: (l, d), sv: (d,), vt: (d, d).
        u, sv, vt = np.linalg.svd(classifier.weight, full_matrices=False)
        self._u = u
        self._sigma_vt = sv[:, None] * vt  # Σ V^T, applied to h once

    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        return self.classifier.num_categories

    @property
    def hidden_dim(self) -> int:
        return self.classifier.hidden_dim

    # ------------------------------------------------------------------
    def preview_logits(self, features: np.ndarray) -> np.ndarray:
        """Step 1-2: the windowed preview scores for all categories."""
        batch = check_batch_features(features, self.hidden_dim)
        transformed = batch @ self._sigma_vt.T  # h' = Σ V^T h, (b, d)
        return (
            transformed[:, : self.window] @ self._u[:, : self.window].T
            + self.classifier.bias
        )

    def forward(self, features: np.ndarray) -> ScreenedOutput:
        """Preview → select → exact refine, mirroring the AS pipeline."""
        batch = check_batch_features(features, self.hidden_dim)
        preview = self.preview_logits(batch)
        candidates = self.selector.select(preview)

        mixed = preview.copy()
        for row, indices in enumerate(candidates):
            if indices.size == 0:
                continue
            mixed[row, indices] = self.classifier.logits_for(indices, batch[row])[0]
        return ScreenedOutput.from_planes(mixed, preview, candidates)

    __call__ = forward

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(features).logits, axis=-1)

    # ------------------------------------------------------------------
    def cost(self, batch_size: int = 1) -> ClassificationCost:
        """Analytic per-batch cost (FP32 throughout — SVD-softmax has no
        quantized phase, one of its disadvantages in the paper)."""
        d, l, w = self.hidden_dim, self.num_categories, self.window
        m = self.selector.num_candidates
        transform_flops = 2.0 * batch_size * d * d
        preview_flops = 2.0 * batch_size * l * w
        refine_flops = 2.0 * batch_size * m * d
        preview_bytes = 4.0 * (d * d + l * w)
        refine_bytes = 4.0 * min(batch_size * m, l) * d
        return ClassificationCost(
            fp_flops=transform_flops + preview_flops + refine_flops,
            int_flops=0.0,
            fp_bytes=preview_bytes + refine_bytes,
            int_bytes=0.0,
        )

    def __repr__(self) -> str:
        return (
            f"SVDSoftmax(l={self.num_categories}, d={self.hidden_dim}, "
            f"window={self.window}, selector={self.selector!r})"
        )
