"""Algorithm 1: learning the screener by MSE distillation.

The full classifier ``(W, b)`` is frozen; only ``(W̃, b̃)`` are updated
to minimize (paper Eq. 4)

    L = (1/s) Σ_s || (W h + b) − (W̃ P h + b̃) ||²

over batches of context vectors ``h`` drawn from the model's own
hidden-layer outputs.  The projection ``P`` is constructed once and
never trained.

Two kinds of solver are provided:

* ``"sgd"`` / ``"adam"`` — the paper-faithful mini-batch loop
  (Algorithm 1) over the materialized ``rows × l`` target plane.
* ``"lstsq"`` — the closed-form least-squares solution of the same
  objective.  Eq. 4 is an ordinary linear regression from ``[Ph | 1]``
  to ``Wh + b``; the SGD path converges to the same optimum (tested)
  but is slower.

The closed form never forms the targets.  They are linear in the
classifier's own parameters, ``T = [H | 1] [W | b]ᵀ``, so with the
design ``A = [Ph | 1]`` the least-squares solution factors as

    pinv(A) T = (pinv(A) [H | 1]) [W | b]ᵀ = M [W | b]ᵀ

with one ``(k+1) × (d+1)`` mixing matrix ``M``: ``W̃`` and ``b̃`` are two
thin GEMMs over ``W``, and the residual ``A M Cᵀ − T`` is
``−([H | 1] − A M) Cᵀ``, so the loss needs only the ``(d+1)²`` Gram of
the annihilated design.  Nothing wider than ``l × k`` is allocated
(a large-output-space trainer must not hold a ``rows × l`` plane —
ELMO, PAPERS.md), and the cost is ``O(l·d·(k + d))`` however many rows
train.  ``M`` comes from ``np.linalg.pinv`` — an SVD of ``A`` with
``lstsq(rcond=None)``'s ``eps · max(rows, k+1)`` singular-value cut-off
— not from the normal equations ``(AᵀA)⁻¹Aᵀ``: those square the
condition number of ``A`` and have no answer when ``A`` is
rank-deficient (fewer rows than ``k + 1``, duplicated rows, a constant
direction in ``Ph``), where ``pinv`` gives the same minimum-norm
``(W̃, b̃)`` that an explicit ``lstsq`` on the target plane would
(``tests/test_core_training.py`` keeps that solve as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.classifier import FullClassifier
from repro.core.screener import (
    ScreeningConfig,
    ScreeningModule,
    draw_projection,
    initialize_screener,
)
from repro.linalg.sgd import SGD, Adam
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_batch_features, check_positive

_SOLVERS = ("sgd", "adam", "lstsq")


@dataclass
class TrainingReport:
    """What happened during distillation: per-epoch loss and final error."""

    losses: List[float] = field(default_factory=list)
    epochs: int = 0
    solver: str = "sgd"

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no epochs recorded")
        return self.losses[-1]

    @property
    def converged(self) -> bool:
        """Loose convergence check: the loss stopped improving by >1%."""
        if len(self.losses) < 2:
            return False
        return self.losses[-1] >= 0.99 * self.losses[-2]


def _mse_and_grads(
    screener: ScreeningModule,
    projected: np.ndarray,
    targets: np.ndarray,
    quantization_aware: bool = False,
) -> tuple:
    """Loss and gradients of Eq. 4 w.r.t. (W̃, b̃) for one mini-batch.

    With ``quantization_aware`` the forward pass sees the fake-quantized
    weights while gradients flow to the full-precision master copy — the
    straight-through estimator, so the trained weights compensate for
    the INT4 grid they will be deployed on.
    """
    batch_size = projected.shape[0]
    weight = screener.weight
    if quantization_aware and screener.quantization_bits is not None:
        from repro.linalg.quantize import Quantizer

        weight = Quantizer(
            bits=screener.quantization_bits, axis=0
        ).fake_quantize(weight)
    prediction = projected @ weight.T + screener.bias
    error = prediction - targets
    loss = float(np.mean(np.sum(error**2, axis=1)))
    grad_weight = (2.0 / batch_size) * error.T @ projected
    grad_bias = (2.0 / batch_size) * np.sum(error, axis=0)
    return loss, grad_weight, grad_bias


#: Classifier rows per step of the closed form's loss accumulation: the
#: ``chunk × d`` product below is scratch, never an ``l × d`` array.
_LOSS_CHUNK_ROWS = 8192


def _solve_lstsq(
    classifier: FullClassifier, features: np.ndarray, projected: np.ndarray
) -> tuple:
    """Exact minimizer of Eq. 4 via least squares on ``[Ph | 1]``:
    ``(W̃, b̃, loss)``, computed through ``(W, b)`` without the
    ``rows × l`` targets (see the module docstring)."""
    ones = np.ones((features.shape[0], 1))
    design = np.hstack([projected, ones])
    inputs = np.hstack([features, ones])
    cutoff = np.finfo(np.float64).eps * max(design.shape)
    mixing = np.linalg.pinv(design, rcond=cutoff) @ inputs
    full_weight, full_bias = classifier.weight, classifier.bias

    weight = full_weight @ mixing[:-1, :-1].T
    weight += np.multiply.outer(full_bias, mixing[:-1, -1])
    bias = full_weight @ mixing[-1, :-1] + full_bias * mixing[-1, -1]

    # Σ_rows ‖residual‖² = tr(C G Cᵀ), C = [W | b], G the Gram of the
    # part of [H | 1] the design cannot reproduce.
    annihilated = inputs - design @ mixing
    gram = annihilated.T @ annihilated
    gram_weight = np.ascontiguousarray(gram[:-1, :-1])
    squared_error = (
        2.0 * ((full_weight @ gram[:-1, -1]) @ full_bias)
        + gram[-1, -1] * (full_bias @ full_bias)
    )
    for start in range(0, full_weight.shape[0], _LOSS_CHUNK_ROWS):
        rows = full_weight[start : start + _LOSS_CHUNK_ROWS]
        squared_error += np.einsum("ij,ij->", rows @ gram_weight, rows)
    return weight, bias, float(squared_error / features.shape[0])


def train_screener(
    classifier: FullClassifier,
    features: np.ndarray,
    config: Optional[ScreeningConfig] = None,
    epochs: int = 30,
    batch_size: int = 64,
    lr: float = 0.05,
    solver: str = "sgd",
    quantization_aware: bool = False,
    rng: RngLike = None,
    return_report: bool = False,
):
    """Run Algorithm 1 and return the trained :class:`ScreeningModule`.

    Parameters
    ----------
    classifier:
        The frozen full classifier whose outputs are the distillation
        targets.
    features:
        Context vectors ``h`` from the application's hidden layers,
        shape ``(num_samples, d)``.
    config:
        Screener shape; defaults to the paper's operating point
        (``k = d/4``, INT4).
    solver:
        ``"sgd"`` (Algorithm 1), ``"adam"``, or ``"lstsq"``.
    quantization_aware:
        Train against the fake-quantized forward (straight-through
        estimator) so the weights adapt to their deployment grid.
        Iterative solvers only (the closed form has no QAT analogue).
    return_report:
        When true, returns ``(screener, TrainingReport)``.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"solver must be one of {_SOLVERS}, got {solver!r}")
    if quantization_aware and solver == "lstsq":
        raise ValueError("quantization_aware requires an iterative solver")
    check_positive("epochs", epochs)
    check_positive("batch_size", batch_size)

    batch = check_batch_features(features, classifier.hidden_dim)
    if config is None:
        config = ScreeningConfig.from_scale(classifier.hidden_dim, scale=0.25)

    generator = ensure_rng(rng)
    report = TrainingReport(solver=solver)
    if solver == "lstsq":
        # The projection is the generator's first draw on every path, so
        # a seed names the same P whichever solver runs; this path draws
        # nothing else and builds the module once, from the solution.
        projection = draw_projection(classifier.hidden_dim, config, generator)
        weight, bias, loss = _solve_lstsq(classifier, batch, projection(batch))
        screener = ScreeningModule(
            projection,
            weight,
            bias,
            quantization_bits=config.quantization_bits,
            compute_dtype=config.compute_dtype,
        )
        report.losses.append(loss)
        report.epochs = 1
    else:
        screener = initialize_screener(
            classifier.num_categories, classifier.hidden_dim, config, rng=generator
        )
        # Training runs in floating point; quantization applies at inference.
        targets = classifier.logits(batch)
        projected = screener.project(batch)
        if solver == "sgd":
            optimizer = SGD([screener.weight, screener.bias], lr=lr, momentum=0.9)
        else:
            optimizer = Adam([screener.weight, screener.bias], lr=lr)
        num_samples = batch.shape[0]
        # One shuffled gather per epoch into reused buffers; every
        # mini-batch is then a contiguous row-slice view.  The per-step
        # fancy-index copies (two per step) this replaces produced the
        # same rows in the same order, so the mini-batch operands — and
        # hence the whole loss/weight trajectory — are unchanged bits
        # (tested in tests/test_core_training.py).
        projected_shuffled = np.empty_like(projected)
        targets_shuffled = np.empty_like(targets)
        for _ in range(epochs):
            order = generator.permutation(num_samples)
            np.take(projected, order, axis=0, out=projected_shuffled)
            np.take(targets, order, axis=0, out=targets_shuffled)
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, num_samples, batch_size):
                stop = start + batch_size
                loss, grad_w, grad_b = _mse_and_grads(
                    screener,
                    projected_shuffled[start:stop],
                    targets_shuffled[start:stop],
                    quantization_aware=quantization_aware,
                )
                optimizer.step([grad_w, grad_b])
                epoch_loss += loss
                num_batches += 1
            report.losses.append(epoch_loss / max(num_batches, 1))
            report.epochs += 1
            if report.converged:
                break
        screener._refresh_quantized_weight()

    if return_report:
        return screener, report
    return screener
