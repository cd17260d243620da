"""Serving layer: one front door over every engine backend.

``repro.serving`` turns the repository's batch engines into a request
server.  :mod:`~repro.serving.backend` defines the
:class:`~repro.serving.backend.EngineBackend` protocol that the
single-node pipeline, the sequential sharded classifier and the
process-parallel fleet all satisfy;
:mod:`~repro.serving.frontdoor` coalesces single-request traffic into
micro-batches under a size-or-deadline flush policy with admission
control and SLO deadline propagation;
:mod:`~repro.serving.cache` short-circuits byte-identical repeated
queries through a bounded LRU keyed on the row's bytes; and
:mod:`~repro.serving.loadgen` offers open-loop Zipfian load for
benchmarking the whole stack.
"""

from repro.serving.backend import (
    EngineBackend,
    is_engine_backend,
    propagates_deadlines,
)
from repro.serving.cache import ResultCache
from repro.serving.frontdoor import (
    DeadlineExceededError,
    FrontDoor,
    FrontDoorClosedError,
    FrontDoorError,
    InvalidRequestError,
    QueueFullError,
    Reply,
    RowStreamed,
)
from repro.serving.loadgen import LoadReport, ZipfianMix, run_open_loop

__all__ = [
    "EngineBackend",
    "is_engine_backend",
    "propagates_deadlines",
    "FrontDoor",
    "Reply",
    "RowStreamed",
    "FrontDoorError",
    "QueueFullError",
    "DeadlineExceededError",
    "FrontDoorClosedError",
    "InvalidRequestError",
    "ResultCache",
    "ZipfianMix",
    "LoadReport",
    "run_open_loop",
]
