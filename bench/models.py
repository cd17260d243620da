"""Seeded inputs and model builders.

The model side (task, screener fit, calibration rows, the reference batch
for ``call_peak_mb``) comes from ``spec.MODEL_SEED``; the traffic side
(batches, held-out rows) from ``--seed``.  The program only ever sees the
generated arrays.  Data generation (``generate_*``) is the benchmark's own
cost (``bench.datagen_s``); the ``build_*`` functions are the program's
set-up and are what ``setup_s`` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.candidates import CandidateSelector
from repro.core.pipeline import ApproximateScreeningClassifier
from repro.core.screener import ScreeningModule
from repro.data import make_task
from repro.distributed.sharding import ShardedClassifier
from repro.linalg.projection import SparseRandomProjection

from bench.spec import MODEL_SEED


def stream(seed: int, label: int) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(label)])


def closed_form_screener(classifier, projection, features):
    """The least-squares screener ``(W~, b~)`` of paper Eq. 4 from the
    normal equations, without forming the ``rows x l`` target plane.

    With design ``A = [P h | 1]`` the minimizer is ``pinv(A) (H W^T + 1 b^T)``.
    ``G = (A^T A)^-1 A^T`` is ``(k+1) x rows`` and ``G 1`` is the last unit
    vector (the ones column fits a constant exactly), so the solution
    collapses to ``W (G H)^T`` plus ``b`` on the bias row: two thin GEMMs
    over ``W`` where ``train_screener(solver="lstsq")`` needs a
    ``rows x l`` right-hand side (132 s at l=670K on the reference host).
    """
    projected = projection(features)
    design = np.hstack([projected, np.ones((projected.shape[0], 1))])
    gram_inverse_design = np.linalg.solve(design.T @ design, design.T)
    mixing = gram_inverse_design @ features  # (k+1, d)
    weight = classifier.weight @ mixing[:-1].T
    bias = classifier.weight @ mixing[-1] + classifier.bias
    return weight, bias


@dataclass
class SingleNodeInputs:
    """Generated arrays for the 670K single-node workloads (A, B)."""

    task: object
    projection: SparseRandomProjection
    screener_weight: np.ndarray
    screener_bias: np.ndarray
    valid: np.ndarray
    reference_batch: np.ndarray
    batches: List[np.ndarray]
    quality: np.ndarray


def generate_single_node(sizes: dict, seed: int) -> SingleNodeInputs:
    model_rng, traffic_rng = stream(MODEL_SEED, 1), stream(seed, 1)
    task = make_task(sizes["l"], sizes["d"], rng=model_rng)
    train = task.sample_features(sizes["train_rows"], rng=model_rng)
    projection = SparseRandomProjection(
        input_dim=sizes["d"], output_dim=sizes["k"], rng=model_rng
    )
    weight, bias = closed_form_screener(task.classifier, projection, train)
    return SingleNodeInputs(
        task=task,
        projection=projection,
        screener_weight=weight,
        screener_bias=bias,
        valid=task.sample_features(sizes["valid_rows"], rng=model_rng),
        reference_batch=task.sample_features(sizes["batch"], rng=model_rng),
        batches=[
            task.sample_features(sizes["batch"], rng=traffic_rng)
            for _ in range(sizes["batches"])
        ],
        quality=task.sample_features(sizes["quality_rows"], rng=traffic_rng),
    )


def build_single_node(
    inputs: SingleNodeInputs, sizes: dict
) -> ApproximateScreeningClassifier:
    """Program set-up for A/B: INT4 screener construction, selector
    (threshold mode: calibration on validation scores), pipeline."""
    screener = ScreeningModule(
        inputs.projection,
        inputs.screener_weight,
        inputs.screener_bias,
        quantization_bits=4,
    )
    selector = CandidateSelector(mode=sizes["selector"], num_candidates=sizes["m"])
    if sizes["selector"] == "threshold":
        selector.calibrate(screener.approximate_logits(inputs.valid))
    return ApproximateScreeningClassifier(
        inputs.task.classifier, screener, selector=selector
    )


@dataclass
class ShardedInputs:
    """Generated arrays for the 100K / 2-shard workloads (C, D)."""

    task: object
    train: np.ndarray
    train_seed: int
    reference_batch: np.ndarray
    batches: List[np.ndarray]
    quality: np.ndarray


def generate_sharded(sizes: dict, seed: int, batch: int, batches: int) -> ShardedInputs:
    model_rng, traffic_rng = stream(MODEL_SEED, 2), stream(seed, 2)
    task = make_task(sizes["l"], sizes["d"], rng=model_rng)
    return ShardedInputs(
        task=task,
        train=task.sample_features(sizes["train_rows"], rng=model_rng),
        train_seed=int(model_rng.integers(0, 2**31 - 1)),
        reference_batch=task.sample_features(batch, rng=model_rng),
        batches=[task.sample_features(batch, rng=traffic_rng) for _ in range(batches)],
        quality=task.sample_features(sizes["quality_rows"], rng=traffic_rng),
    )


def build_sharded(inputs: ShardedInputs, sizes: dict) -> ShardedClassifier:
    """Program set-up for C/D: the program's own per-shard training."""
    sharded = ShardedClassifier(inputs.task.classifier, num_shards=sizes["shards"])
    sharded.train(
        inputs.train,
        candidates_per_shard=sizes["m"],
        solver="lstsq",
        rng=np.random.default_rng(inputs.train_seed),
    )
    return sharded


def warm_until_flat(call, workspaces, limit: int = 8) -> None:
    """Repeat ``call()`` until one call leaves every workspace's
    ``allocations`` counter where it was."""
    for _ in range(limit):
        before = [workspace.allocations for workspace in workspaces()]
        call()
        if [workspace.allocations for workspace in workspaces()] == before:
            return
    raise RuntimeError(f"workspace still allocating after {limit} warm-up calls")
