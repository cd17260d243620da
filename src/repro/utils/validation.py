"""Shared argument-validation helpers.

Raising early with a precise message beats letting numpy broadcast its
way into a confusing downstream error.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def check_batch_features(features: np.ndarray, hidden_dim: int) -> np.ndarray:
    """Validate and normalize a feature batch to shape ``(batch, hidden_dim)``.

    A single vector of shape ``(hidden_dim,)`` is promoted to a batch of 1.
    Non-finite rows are rejected here, once, so the dense, streaming,
    sharded and worker engines all fail the same way instead of each
    selection kernel meeting the NaN on its own terms.
    """
    array = np.asarray(features, dtype=np.float64)
    if array.ndim == 1:
        array = array[None, :]
    if array.ndim != 2:
        raise ValueError(f"features must be 1-D or 2-D, got shape {array.shape}")
    if array.shape[1] != hidden_dim:
        raise ValueError(
            f"features have hidden dim {array.shape[1]}, expected {hidden_dim}"
        )
    finite = np.isfinite(array).all(axis=1)
    if not finite.all():
        raise ValueError(f"features row {int(np.argmin(finite))} contains NaN/inf")
    return array
