"""The ``EngineBackend`` protocol: one contract for every serving engine.

Three execution engines grew up in this repository — the single-node
:class:`~repro.core.pipeline.ApproximateScreeningClassifier`, the
sequential :class:`~repro.distributed.sharding.ShardedClassifier` and
the process-parallel
:class:`~repro.distributed.parallel.ParallelShardedEngine` — and they
already answer the same questions (``forward_streaming`` / ``top_k`` /
``predict`` over a feature batch).  This module writes that shared
surface down as a :class:`typing.Protocol` so the serving
front door (:mod:`repro.serving.frontdoor`), the load generator and the
benchmarks can hold *any* of them behind one name — and so the next
backend (a sketch-based screener, a replicated fleet) plugs in by
satisfying the contract instead of by being special-cased.

The contract
------------
* ``num_categories`` / ``hidden_dim`` — the model geometry; the front
  door validates request shapes against ``hidden_dim``.
* ``forward_streaming(features, block_categories=None)`` — screened
  inference over a ``(batch, hidden_dim)`` float array, returned as
  the candidate record (no ``batch × l`` plane); rows are independent,
  which is what makes request coalescing legal (per-row results do
  not depend on batch membership; the differential tests hold the
  front door to this).
* ``top_k(features, k)`` — ``(indices, scores)``: per-row top-k of
  the mixed scores, best first, ties to the lowest index, ranked inside
  the tile loop (no ``batch × l`` plane on any backend); the front
  door splits the pair row-wise.
* ``predict(features)`` — per-row argmax category: ``top_k(·, 1)``.
* ``close()`` — release serving resources (worker fleets, shared
  segments, workspaces); idempotent.  Backends are context managers.

The dense plane (``forward``) is not part of the contract: it is served
in-process only, by the single-node pipeline and
:meth:`ShardedClassifier.forward
<repro.distributed.sharding.ShardedClassifier.forward>`.

Deadline propagation rides on a *conventional* attribute rather than a
method: a backend that honors per-request reply budgets exposes a
mutable ``request_timeout`` attribute (the parallel engine's
supervision deadline).  The front door narrows it to the tightest
remaining SLO budget in each micro-batch before dispatch; backends
without the attribute (in-process engines whose latency the flush
policy already bounds) are simply dispatched as-is.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "EngineBackend",
    "is_engine_backend",
    "propagates_deadlines",
]


@runtime_checkable
class EngineBackend(Protocol):
    """Structural contract every serving engine satisfies.

    ``isinstance(obj, EngineBackend)`` checks attribute presence (the
    :func:`typing.runtime_checkable` semantics); the behavioural half
    of the contract — row independence, bit-identity across backends —
    is enforced by the differential matrix in ``tests/test_matrix.py``.
    """

    @property
    def num_categories(self) -> int: ...

    @property
    def hidden_dim(self) -> int: ...

    def forward_streaming(
        self, features: np.ndarray, block_categories: Optional[int] = None
    ): ...

    def top_k(self, features: np.ndarray, k: int): ...

    def predict(self, features: np.ndarray) -> np.ndarray: ...

    def close(self) -> None: ...


def is_engine_backend(obj) -> bool:
    """``True`` when ``obj`` satisfies the :class:`EngineBackend` surface."""
    return isinstance(obj, EngineBackend)


def propagates_deadlines(backend) -> bool:
    """``True`` when the backend honors a mutable ``request_timeout``
    (the supervision deadline the front door narrows per micro-batch)."""
    return hasattr(backend, "request_timeout")

