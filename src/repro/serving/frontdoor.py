"""The serving front door: single requests in, micro-batches out.

Production XC serving traffic arrives one request at a time, but every
engine in this repository earns its throughput from batching — the
screening GEMM, the union gather and the per-shard scatter all amortize
per-batch overheads across rows.  :class:`FrontDoor` closes that gap:
callers submit single feature rows (from any thread) and a dedicated
batcher thread coalesces them into dynamic micro-batches under a
**size-or-deadline** flush policy, dispatches each batch to one
:class:`~repro.serving.backend.EngineBackend`, and splits the batched
result back into per-request replies.

The three policies, in the order a request meets them:

* **Admission control** — the intake queue is bounded.  A ``submit``
  arriving when ``queue_limit`` requests are already waiting is shed
  immediately with :class:`QueueFullError` (callers retry or back off);
  the engine never sees overload, so in-flight requests keep their
  latency.
* **Flush policy** — a batch dispatches when ``max_batch`` rows have
  coalesced (size trigger) or when the oldest queued request has waited
  ``flush_window_s`` (deadline trigger), whichever is first.  A queued
  request's SLO deadline can pull the flush earlier — the batcher never
  idles past the point where a request would expire waiting.
* **Deadline propagation** — each request may carry a per-request SLO
  budget (``slo_s``).  A request whose budget is exhausted by the time
  its batch dispatches is shed with :class:`DeadlineExceededError`
  rather than served late.  For backends that honor supervision
  deadlines (:func:`~repro.serving.backend.propagates_deadlines`), the
  batch's tightest remaining budget **narrows** the backend's
  ``request_timeout`` for that dispatch — a 10 ms SLO becomes a 10 ms
  worker reply deadline instead of the fleet default, so a stuck shard
  costs one SLO, not one supervision timeout.

Results are returned as :class:`concurrent.futures.Future` objects
resolving to :class:`Reply` records.  Each reply carries the batch id,
its row index within the batch and the batch size, so differential
tests can replay the *exact* micro-batches the front door formed
against a direct backend call and require bit-identical rows.

Thread-safety: ``submit``/``call`` may be invoked from any number of
threads; the backend itself is only ever touched by the single batcher
thread, which keeps single-threaded engines (the parallel fleet's
request pipeline among them) safe behind the door.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import DegradedOutput, StreamedOutput
from repro.obs.recorder import NULL_RECORDER
from repro.serving.backend import propagates_deadlines

__all__ = [
    "FrontDoor",
    "Reply",
    "RowStreamed",
    "FrontDoorError",
    "QueueFullError",
    "DeadlineExceededError",
    "FrontDoorClosedError",
    "InvalidRequestError",
]


class FrontDoorError(RuntimeError):
    """Base class for every error the front door sheds a request with."""


class QueueFullError(FrontDoorError):
    """Admission control: the intake queue is at its high-water mark."""


class DeadlineExceededError(FrontDoorError):
    """The request's SLO budget expired before its batch dispatched."""


class FrontDoorClosedError(FrontDoorError):
    """The front door is closed (or closed while the request waited)."""


class InvalidRequestError(FrontDoorError, ValueError):
    """The request row holds NaN/inf, or its ``slo_s`` is non-finite or
    negative; rejected at ``submit`` so it can never fail (or strip the
    deadline from) the micro-batch it would have joined."""


@dataclass(frozen=True)
class RowStreamed:
    """One request's slice of a batched ``forward_streaming`` result.

    ``exact_values``/``approximate_values`` align with ``candidates``
    (ascending column order), exactly as in
    :class:`~repro.core.pipeline.StreamedOutput`.
    """

    candidates: np.ndarray
    exact_values: np.ndarray
    approximate_values: np.ndarray


@dataclass(frozen=True)
class Reply:
    """One served request: its per-row value plus serving metadata.

    ``cached=True`` marks a reply served straight from the result cache
    (no batch was formed: ``batch_id`` is ``-1`` and the batch fields
    describe the degenerate single-row batch).
    """

    value: Any
    degraded: bool
    failures: Tuple[Any, ...]
    latency_s: float
    batch_id: int
    batch_index: int
    batch_size: int
    cached: bool = False


@dataclass
class _Pending:
    """A queued request awaiting its micro-batch."""

    op: str
    features: np.ndarray  # shape (1, hidden_dim)
    kwargs: Dict[str, Any]
    future: Future
    enqueued: float  # monotonic
    deadline: Optional[float]  # monotonic, None = no SLO

    def batch_key(self) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
        return (self.op, tuple(sorted(self.kwargs.items())))


_VALID_OPS = ("forward_streaming", "top_k", "predict")


class FrontDoor:
    """Micro-batching serving front door over one engine backend.

    Parameters
    ----------
    backend:
        Any :class:`~repro.serving.backend.EngineBackend`.  Only the
        batcher thread touches it.
    max_batch:
        Size trigger — a batch dispatches as soon as this many
        compatible requests have coalesced.
    flush_window_s:
        Deadline trigger — the longest the oldest queued request waits
        before its batch dispatches regardless of size.  The window is
        the throughput/latency knob the serving benchmark sweeps.
    queue_limit:
        Admission high-water mark: ``submit`` raises
        :class:`QueueFullError` once this many requests are queued.
    default_slo_s:
        SLO budget applied to requests that do not pass ``slo_s``;
        ``None`` means no deadline by default.  Finite and >= 0.
    cache:
        Optional :class:`~repro.serving.cache.ResultCache`.  A request
        whose op, arguments and row bytes match a cached entry is
        answered immediately from ``submit`` — it never enters the
        queue, never joins a batch and never touches the backend, so
        repeated queries under a Zipfian mix cost a dictionary lookup
        instead of a screening pass.  Non-degraded dispatch results populate the
        cache; degraded results are never cached (a later healthy fleet
        must not keep serving holes).
    recorder:
        Observability sink (``repro.obs`` recorder contract); defaults
        to the no-op recorder.

    A caller may ``cancel()`` a queued request's future: the batcher
    drops it when it claims the batch (``close(drain=False)`` likewise)
    and counts it in ``stats()["cancelled"]``.
    """

    def __init__(
        self,
        backend,
        *,
        max_batch: int = 32,
        flush_window_s: float = 0.002,
        queue_limit: int = 256,
        default_slo_s: Optional[float] = None,
        cache=None,
        recorder=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if flush_window_s < 0:
            raise ValueError(f"flush_window_s must be >= 0, got {flush_window_s}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.backend = backend
        self.max_batch = int(max_batch)
        self.flush_window_s = float(flush_window_s)
        self.queue_limit = int(queue_limit)
        _check_slo("default_slo_s", default_slo_s, ValueError)
        self.default_slo_s = default_slo_s
        self.cache = cache
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._default_request_timeout = getattr(backend, "request_timeout", None)

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: Deque[_Pending] = deque()
        self._closed = False
        self._batch_ids = itertools.count()

        # Plain-int mirrors of the serving counters, for stats() without
        # a live recorder attached.
        self.submitted = 0
        self.served = 0
        self.shed_queue_full = 0
        self.shed_deadline = 0
        self.batches = 0
        self.flush_on_size = 0
        self.flush_on_deadline = 0
        self.dispatch_errors = 0
        self.cached_replies = 0
        self.cancelled = 0

        self._batcher = threading.Thread(
            target=self._batch_loop, name="frontdoor-batcher", daemon=True
        )
        self._batcher.start()

    # ------------------------------------------------------------------
    # Intake (any thread)
    # ------------------------------------------------------------------

    def submit(
        self,
        features: np.ndarray,
        op: str = "forward_streaming",
        *,
        k: Optional[int] = None,
        block_categories: Optional[int] = None,
        slo_s: Optional[float] = None,
    ) -> "Future[Reply]":
        """Queue one single-row request; returns a future of its reply.

        ``features`` is one example — shape ``(hidden_dim,)`` or
        ``(1, hidden_dim)``.  ``op`` selects the backend entry point, a
        record op: the door serves no dense plane (in-process callers
        read one from ``ShardedClassifier.forward``).  ``k`` is required
        for ``top_k`` and ``block_categories`` is optional for
        ``forward_streaming``.  ``slo_s`` is this
        request's end-to-end budget (seconds from now); expired
        requests are shed, never served late.  A non-finite row, or a
        non-finite or negative ``slo_s``, raises
        :class:`InvalidRequestError` here, before it is queued.
        """
        if op not in _VALID_OPS:
            raise ValueError(f"op must be one of {_VALID_OPS}, got {op!r}")
        row = np.asarray(features, dtype=np.float64)
        if row.ndim == 1:
            row = row[np.newaxis, :]
        if row.ndim != 2 or row.shape[0] != 1:
            raise ValueError(
                f"submit() takes one request row, got shape {np.shape(features)}"
            )
        hidden = getattr(self.backend, "hidden_dim", None)
        if hidden is not None and row.shape[1] != hidden:
            raise ValueError(
                f"request has {row.shape[1]} features, backend expects {hidden}"
            )
        if not np.isfinite(row).all():
            raise InvalidRequestError("request row contains NaN/inf")
        _check_slo("slo_s", slo_s, InvalidRequestError)
        kwargs: Dict[str, Any] = {}
        if op == "top_k":
            if k is None:
                raise ValueError("op='top_k' requires k")
            kwargs["k"] = int(k)
        elif op == "forward_streaming" and block_categories is not None:
            kwargs["block_categories"] = int(block_categories)

        now = time.monotonic()
        if self.cache is not None:
            hit = self.cache.get(op, kwargs, row[0])
            if hit is not None:
                future: "Future[Reply]" = Future()
                with self._work:
                    if self._closed:
                        raise FrontDoorClosedError("front door is closed")
                    self.submitted += 1
                    self.served += 1
                    self.cached_replies += 1
                self.recorder.increment("serving.requests")
                self.recorder.increment("serving.served")
                latency = time.monotonic() - now
                self.recorder.observe("serving.e2e_latency_s", latency)
                future.set_result(
                    Reply(
                        value=hit,
                        degraded=False,
                        failures=(),
                        latency_s=latency,
                        batch_id=-1,
                        batch_index=0,
                        batch_size=1,
                        cached=True,
                    )
                )
                return future

        budget = slo_s if slo_s is not None else self.default_slo_s
        pending = _Pending(
            op=op,
            features=row,
            kwargs=kwargs,
            future=Future(),
            enqueued=now,
            deadline=None if budget is None else now + float(budget),
        )
        with self._work:
            if self._closed:
                raise FrontDoorClosedError("front door is closed")
            self.submitted += 1
            self.recorder.increment("serving.requests")
            if len(self._queue) >= self.queue_limit:
                self.shed_queue_full += 1
                self.recorder.increment("serving.shed_queue_full")
                raise QueueFullError(
                    f"intake queue at high-water mark ({self.queue_limit} queued)"
                )
            self._queue.append(pending)
            self.recorder.add_gauge("serving.queue_depth", 1.0)
            self._work.notify()
        return pending.future

    def call(
        self,
        features: np.ndarray,
        op: str = "forward_streaming",
        *,
        k: Optional[int] = None,
        block_categories: Optional[int] = None,
        slo_s: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> Reply:
        """Blocking convenience wrapper: ``submit`` then wait."""
        future = self.submit(
            features, op, k=k, block_categories=block_categories, slo_s=slo_s
        )
        return future.result(timeout=timeout)

    # ------------------------------------------------------------------
    # Batcher (single thread)
    # ------------------------------------------------------------------

    def _batch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            if batch:
                self._dispatch(batch)

    def _next_batch(self) -> Optional[List[_Pending]]:
        """Block until a micro-batch is due, then claim it.

        Returns ``None`` only at shutdown with an empty queue (a close
        with queued work drains those batches first), and an empty list
        when every request of the batch was cancelled.
        """
        with self._work:
            while True:
                if not self._queue:
                    if self._closed:
                        return None
                    self._work.wait()
                    continue
                head = self._queue[0]
                key = head.batch_key()
                compatible = 1
                for pending in itertools.islice(self._queue, 1, self.max_batch):
                    if pending.batch_key() != key:
                        break
                    compatible += 1
                flush_at = head.enqueued + self.flush_window_s
                # The wake-up folds deadlines across the WHOLE queue,
                # not just the head-compatible prefix: a tight-SLO
                # request stuck behind an incompatible head must still
                # pull the batcher awake — flushing the head batch
                # early is what lets the queue advance to it before
                # (or the moment) its budget expires, instead of the
                # batcher sleeping a full flush window on an idle
                # backend and shedding it long after the fact.
                for pending in self._queue:
                    if pending.deadline is not None:
                        flush_at = min(flush_at, pending.deadline)
                now = time.monotonic()
                if compatible >= self.max_batch:
                    self.flush_on_size += 1
                    self.recorder.increment("serving.flush_on_size")
                elif now >= flush_at or self._closed:
                    self.flush_on_deadline += 1
                    self.recorder.increment("serving.flush_on_deadline")
                else:
                    self._work.wait(timeout=flush_at - now)
                    continue
                batch = [self._queue.popleft() for _ in range(compatible)]
                self.recorder.add_gauge("serving.queue_depth", -float(compatible))
                return self._claim(batch)

    def _claim(self, popped: List[_Pending]) -> List[_Pending]:
        """The popped requests whose callers have not cancelled them,
        each future now running (so ``cancel()`` can no longer win);
        the cancelled ones are counted and dropped.  Lock held."""
        claimed = [p for p in popped if p.future.set_running_or_notify_cancel()]
        self.cancelled += len(popped) - len(claimed)
        return claimed

    def _dispatch(self, batch: List[_Pending]) -> None:
        batch_id = next(self._batch_ids)
        now = time.monotonic()

        live: List[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and now >= pending.deadline:
                self.shed_deadline += 1
                self.recorder.increment("serving.shed_deadline")
                pending.future.set_exception(
                    DeadlineExceededError(
                        f"SLO budget exhausted {now - pending.deadline:.4f}s "
                        "before dispatch"
                    )
                )
            else:
                live.append(pending)
        if not live:
            return

        self.batches += 1
        self.recorder.observe("serving.batch_size", float(len(live)))
        features = (
            live[0].features
            if len(live) == 1
            else np.concatenate([pending.features for pending in live], axis=0)
        )
        op = live[0].op
        kwargs = live[0].kwargs

        narrowed = False
        if propagates_deadlines(self.backend):
            budgets = [
                pending.deadline - now
                for pending in live
                if pending.deadline is not None
            ]
            if budgets:
                tightest = min(budgets)
                if self._default_request_timeout is not None:
                    tightest = min(tightest, self._default_request_timeout)
                self.backend.request_timeout = tightest
                narrowed = True
        try:
            with self.recorder.span("serving.dispatch"):
                output = getattr(self.backend, op)(features, **kwargs)
        except Exception as exc:  # noqa: BLE001 — forwarded to every caller
            self.dispatch_errors += 1
            self.recorder.increment("serving.dispatch_errors")
            for pending in live:
                pending.future.set_exception(exc)
            return
        finally:
            if narrowed:
                self.backend.request_timeout = self._default_request_timeout

        degraded = isinstance(output, DegradedOutput)
        failures: Tuple[Any, ...] = output.failures if degraded else ()
        result = output.result if degraded else output
        try:
            rows = _split_rows(op, result, len(live))
        except Exception as exc:  # noqa: BLE001 — forwarded to every caller
            self.dispatch_errors += 1
            self.recorder.increment("serving.dispatch_errors")
            for pending in live:
                pending.future.set_exception(exc)
            return

        if self.cache is not None and not degraded:
            # Populate from the batcher thread only; per-row values are
            # already copies, so cached replies own their arrays.
            for pending, value in zip(live, rows):
                self.cache.put(op, kwargs, pending.features[0], value)

        done = time.monotonic()
        for index, (pending, value) in enumerate(zip(live, rows)):
            latency = done - pending.enqueued
            self.served += 1
            self.recorder.increment("serving.served")
            self.recorder.observe("serving.e2e_latency_s", latency)
            pending.future.set_result(
                Reply(
                    value=value,
                    degraded=degraded,
                    failures=failures,
                    latency_s=latency,
                    batch_id=batch_id,
                    batch_index=index,
                    batch_size=len(live),
                )
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop the batcher.  ``drain=True`` (default) serves everything
        already queued first; ``drain=False`` sheds queued requests with
        :class:`FrontDoorClosedError`.  Idempotent; the backend is NOT
        closed (the caller owns it)."""
        with self._work:
            if self._closed:
                return
            self._closed = True
            if not drain:
                popped = list(self._queue)
                self._queue.clear()
                self.recorder.add_gauge("serving.queue_depth", -float(len(popped)))
                for pending in self._claim(popped):
                    pending.future.set_exception(
                        FrontDoorClosedError("front door closed before dispatch")
                    )
            self._work.notify_all()
        self._batcher.join()

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """Plain-int serving counters (mirrors of the obs metrics),
        plus the result cache's own block when a cache is attached."""
        with self._lock:
            stats: Dict[str, object] = {
                "submitted": self.submitted,
                "served": self.served,
                "shed_queue_full": self.shed_queue_full,
                "shed_deadline": self.shed_deadline,
                "batches": self.batches,
                "flush_on_size": self.flush_on_size,
                "flush_on_deadline": self.flush_on_deadline,
                "dispatch_errors": self.dispatch_errors,
                "cached_replies": self.cached_replies,
                "cancelled": self.cancelled,
                "queue_depth": len(self._queue),
            }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        return stats


# ----------------------------------------------------------------------
# Row splitting
# ----------------------------------------------------------------------


def _split_rows(op: str, result, batch_size: int) -> List[Any]:
    """Split one batched backend result into ``batch_size`` per-row values.

    Every value is a copy — replies must outlive the batch arrays the
    backend may reuse or that the next request overwrites.
    """
    if op == "forward_streaming":
        return _split_streamed(result, batch_size)
    if op == "top_k":
        return _split_top_k(result, batch_size)
    if op == "predict":
        values = np.asarray(result)
        _check_rows(op, len(values), batch_size)
        return [values[i].copy() for i in range(batch_size)]
    raise ValueError(f"unknown op {op!r}")


def _split_streamed(result: StreamedOutput, batch_size: int) -> List[RowStreamed]:
    candidates = result.candidates
    _check_rows("forward_streaming", candidates.batch_size, batch_size)
    # exact/approximate values align with candidates.flat(): row-major,
    # so per-row slices are contiguous runs of length counts[i].
    offsets = np.concatenate(([0], np.cumsum(candidates.counts)))
    return [
        RowStreamed(
            candidates=np.asarray(candidates.indices[i]).copy(),
            exact_values=result.exact_values[offsets[i] : offsets[i + 1]].copy(),
            approximate_values=result.approximate_values[
                offsets[i] : offsets[i + 1]
            ].copy(),
        )
        for i in range(batch_size)
    ]


def _split_top_k(result, batch_size: int):
    indices, scores = result
    _check_rows("top_k", indices.shape[0], batch_size)
    return [(indices[i].copy(), scores[i].copy()) for i in range(batch_size)]


def _check_rows(op: str, got: int, expected: int) -> None:
    if got != expected:
        raise FrontDoorError(
            f"backend returned {got} rows for a {expected}-row {op} batch"
        )


def _check_slo(name: str, value: Optional[float], error) -> None:
    """A NaN budget never compares expired and, folded into the
    batch's ``request_timeout``, would disable the worker reply
    deadline for every request coalesced with it."""
    if value is not None and not 0 <= value < np.inf:
        raise error(f"{name} must be finite and >= 0, got {value}")
