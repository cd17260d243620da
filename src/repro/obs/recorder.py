"""The recorder contract: how hot paths talk to observability.

Instrumented components (the screening pipeline, the worker protocol,
the parallel engine, the DRAM scheduler) never import concrete
instruments — they hold a *recorder* and call four verbs on it:

* ``with recorder.span(name):`` — time a phase (histogram + trace span);
* ``recorder.increment(name, n)`` — bump a counter;
* ``recorder.observe(name, value, bounds=None)`` — feed a histogram;
* ``recorder.set_gauge(name, value)`` — set a gauge.

The default recorder everywhere is :data:`NULL_RECORDER`, whose verbs
are empty methods and whose span is one shared, stateless context
manager — no instruments exist, nothing is timed, no per-call objects
are created, and (crucially) the numeric hot path is untouched:
outputs are bit-identical with observability off, and the streaming
workspace's steady-state zero-allocation contract still holds (the
first asserted in ``tests/test_matrix.py``, the second in
``tests/test_obs_offpath.py``).

:class:`Recorder` is the live implementation: spans are timed with the
monotonic clock into ``span.<name>`` latency histograms and, when a
:class:`~repro.obs.trace.Tracer` is attached, recorded as nested trace
spans.  One recorder (and its registry) can be shared across
components — the parallel engine hands its recorder to every
:class:`~repro.utils.workers.WorkerHandle`, so protocol counters and
engine histograms land in one snapshot.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["NullRecorder", "Recorder", "NULL_RECORDER"]


class _NullSpan:
    """A single shared, re-entrant, do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The no-op recorder: observability disabled (the default).

    Every verb is an empty method and :meth:`span` returns one shared
    context manager, so the only cost on a hot path is the call itself.
    ``enabled`` lets rarely-taken instrumentation (e.g. building a
    snapshot dict) be skipped entirely.
    """

    enabled = False
    registry: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def increment(self, name: str, amount: float = 1.0) -> None:
        pass

    def observe(
        self, name: str, value: float, bounds: Optional[Sequence[float]] = None
    ) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def add_gauge(self, name: str, delta: float) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}

    def __repr__(self) -> str:
        return "NullRecorder()"


#: The process-wide default recorder.  Components store a reference to
#: it at construction; replacing a component's recorder (not this
#: module attribute) is how observability is switched on.
NULL_RECORDER = NullRecorder()


class _Span:
    """One live span: times itself, feeds the histogram and the tracer."""

    __slots__ = ("_recorder", "_name", "_start_ns")

    def __init__(self, recorder: "Recorder", name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._recorder.tracer
        if tracer is not None:
            tracer.begin(self._name)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed_ns = time.perf_counter_ns() - self._start_ns
        recorder = self._recorder
        if recorder.tracer is not None:
            recorder.tracer.end()
        recorder.registry.histogram(f"span.{self._name}").observe(elapsed_ns / 1e9)
        return False


class Recorder(NullRecorder):
    """A live recorder: metrics registry plus an optional tracer.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to record into (one is created if
        omitted).  Share one registry across components to get one
        coherent snapshot.
    tracer:
        Optional :class:`Tracer`; when present every span is also
        recorded as a Chrome trace event.  ``trace=True`` is shorthand
        for attaching a fresh tracer.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace: bool = False,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else (Tracer() if trace else None)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def increment(self, name: str, amount: float = 1.0) -> None:
        self.registry.counter(name).inc(amount)

    def observe(
        self, name: str, value: float, bounds: Optional[Sequence[float]] = None
    ) -> None:
        self.registry.histogram(name, bounds).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def add_gauge(self, name: str, delta: float) -> None:
        """Atomic up/down adjustment (queue depth, in-flight counts)."""
        self.registry.gauge(name).add(delta)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()

    def __repr__(self) -> str:
        traced = self.tracer is not None
        return f"Recorder(metrics={len(list(self.registry.names()))}, traced={traced})"
