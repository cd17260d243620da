"""Algorithm-level metrics: quality of screening and cost accounting.

Cost accounting is the bridge between the algorithm and the hardware
models: every performance model in :mod:`repro.host`, :mod:`repro.nmp`
and :mod:`repro.enmc` consumes a :class:`ClassificationCost` describing
how many operations are needed and how many bytes must stream from
memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classifier import FullClassifier
from repro.core.pipeline import ScreenedOutput, StreamedOutput
from repro.core.screener import ScreeningModule
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ClassificationCost:
    """Operation and traffic cost of one classification pass.

    ``flops`` counts multiply-accumulates as 2 ops.  ``*_bytes`` count
    weight traffic only (features and outputs are orders of magnitude
    smaller at XC scale).  ``int_flops``/``fp_flops`` split matters for
    ENMC, whose Screener is INT4 and Executor FP32.
    """

    fp_flops: float
    int_flops: float
    fp_bytes: float
    int_bytes: float

    @property
    def flops(self) -> float:
        return self.fp_flops + self.int_flops

    @property
    def bytes(self) -> float:
        return self.fp_bytes + self.int_bytes

    @property
    def operational_intensity(self) -> float:
        """FLOPs per byte of memory traffic (roofline x-axis)."""
        if self.bytes == 0:
            return float("inf")
        return self.flops / self.bytes

    def __add__(self, other: "ClassificationCost") -> "ClassificationCost":
        return ClassificationCost(
            fp_flops=self.fp_flops + other.fp_flops,
            int_flops=self.int_flops + other.int_flops,
            fp_bytes=self.fp_bytes + other.fp_bytes,
            int_bytes=self.int_bytes + other.int_bytes,
        )

    def scaled(self, factor: float) -> "ClassificationCost":
        """Cost of ``factor`` repetitions (e.g. decode steps)."""
        return ClassificationCost(
            fp_flops=self.fp_flops * factor,
            int_flops=self.int_flops * factor,
            fp_bytes=self.fp_bytes * factor,
            int_bytes=self.int_bytes * factor,
        )


def cost_of_full_classification(
    num_categories: int, hidden_dim: int, batch_size: int = 1
) -> ClassificationCost:
    """Cost of exact ``z = W h + b`` for a batch.

    The weight matrix streams once per batch (no reuse assumed at XC
    sizes — the matrix far exceeds any cache).
    """
    check_positive("num_categories", num_categories)
    check_positive("hidden_dim", hidden_dim)
    check_positive("batch_size", batch_size)
    flops = 2.0 * num_categories * hidden_dim * batch_size
    weight_bytes = 4.0 * num_categories * hidden_dim
    return ClassificationCost(
        fp_flops=flops, int_flops=0.0, fp_bytes=weight_bytes, int_bytes=0.0
    )


def cost_of_screened_classification(
    num_categories: int,
    hidden_dim: int,
    projection_dim: int,
    candidates_per_row: float,
    batch_size: int = 1,
    quantization_bits: int = 4,
    unique_candidate_fraction: float = 1.0,
) -> ClassificationCost:
    """Cost of screen → filter → candidates-only exact compute.

    The screening phase is integer (``quantization_bits`` wide) over the
    reduced dimension ``k``; the exact phase is FP32 over
    ``candidates_per_row`` gathered weight rows.  For batched execution
    the exact weight traffic is the *union* of candidate rows, captured
    by ``unique_candidate_fraction`` (1.0 = no overlap between rows).
    The projection itself is add/sub over the ternary ``P`` and is
    charged to the integer FLOP pool.
    """
    check_positive("num_categories", num_categories)
    check_positive("hidden_dim", hidden_dim)
    check_positive("projection_dim", projection_dim)
    check_positive("batch_size", batch_size)
    if candidates_per_row < 0:
        raise ValueError(f"candidates_per_row must be >= 0, got {candidates_per_row}")
    if not 0.0 <= unique_candidate_fraction <= 1.0:
        raise ValueError(
            f"unique_candidate_fraction must be in [0, 1], got {unique_candidate_fraction}"
        )

    # Screening: projection (k*d MACs) + screener matvec (l*k MACs).
    int_flops = 2.0 * batch_size * (
        projection_dim * hidden_dim + num_categories * projection_dim
    )
    int_bytes = num_categories * projection_dim * quantization_bits / 8.0
    int_bytes += projection_dim * hidden_dim * 2 / 8.0  # ternary P at 2 bits

    # Candidates-only exact compute.
    fp_flops = 2.0 * batch_size * candidates_per_row * hidden_dim
    unique_rows = min(
        batch_size * candidates_per_row * unique_candidate_fraction,
        float(num_categories),
    )
    fp_bytes = 4.0 * unique_rows * hidden_dim
    return ClassificationCost(
        fp_flops=fp_flops, int_flops=int_flops, fp_bytes=fp_bytes, int_bytes=int_bytes
    )


def cost_of_screened_output(
    classifier: FullClassifier,
    screener: ScreeningModule,
    output: ScreenedOutput,
) -> ClassificationCost:
    """Measured cost of an actual :class:`ScreenedOutput` (uses the real
    per-batch candidate counts and row-union)."""
    union = output.candidates.union().size
    bits = screener.quantization_bits if screener.quantization_bits else 32
    avg_candidates = output.exact_count / max(output.batch_size, 1)
    unique_fraction = union / max(output.exact_count, 1)
    return cost_of_screened_classification(
        num_categories=classifier.num_categories,
        hidden_dim=classifier.hidden_dim,
        projection_dim=screener.projection_dim,
        candidates_per_row=avg_candidates,
        batch_size=output.batch_size,
        quantization_bits=bits,
        unique_candidate_fraction=unique_fraction,
    )


# ----------------------------------------------------------------------
# quality metrics
# ----------------------------------------------------------------------
def candidate_recall(
    exact_logits: np.ndarray, output: StreamedOutput, k: int = 1
) -> float:
    """Fraction of the exact top-``k`` categories that screening caught.

    This is the metric that decides end-task quality: if the true
    top-k is inside the candidate set, the mixed output's top-k is
    exact.  Reads the candidate record only, so it takes a
    :class:`StreamedOutput` or a dense :class:`ScreenedOutput`.
    """
    from repro.linalg.topk import top_k_indices

    exact = np.asarray(exact_logits)
    shape = (output.batch_size, output.num_categories)
    if exact.shape != shape:
        raise ValueError(f"exact logits shape {exact.shape} != output shape {shape}")
    true_top = top_k_indices(exact, k, sort=False)
    hits = 0
    for row, candidates in enumerate(output.candidates):
        hits += np.isin(true_top[row], candidates).sum()
    return hits / (exact.shape[0] * k)


def approximation_error(exact_logits: np.ndarray, approximate_logits: np.ndarray) -> float:
    """Relative L2 error of the screener's approximation."""
    exact = np.asarray(exact_logits, dtype=np.float64)
    approx = np.asarray(approximate_logits, dtype=np.float64)
    if exact.shape != approx.shape:
        raise ValueError(f"shape mismatch: {exact.shape} vs {approx.shape}")
    denom = np.linalg.norm(exact)
    if denom == 0:
        return float(np.linalg.norm(approx))
    return float(np.linalg.norm(exact - approx) / denom)


def top1_agreement(exact_logits: np.ndarray, output: ScreenedOutput) -> float:
    """Fraction of rows whose mixed-output argmax equals the exact argmax."""
    exact = np.asarray(exact_logits)
    return float(
        np.mean(np.argmax(exact, axis=-1) == np.argmax(output.logits, axis=-1))
    )
