"""Deterministic fault injection for the parallel serving fleet.

Serving-grade fault tolerance cannot be tested with real OOM kills or
network partitions, so every failure path the engine handles is driven
through this harness instead: a :class:`FaultSpec` names a fault kind
and the exact serving request (1-based, per worker incarnation) it
fires on, and the worker entry point consults a :class:`FaultInjector`
built from its specs before serving each request.  Because the trigger
is a request *count* — never a clock or an RNG — the same spec produces
the same failure on every run, which is what lets the fault matrix in
``tests/test_fault_tolerance.py`` assert exact recovery behaviour.

Fault kinds
-----------
``kill``
    The worker process exits immediately with ``exitcode`` (no reply is
    sent) — the moral equivalent of an OOM kill or segfault mid-request.
``delay``
    The worker sleeps ``seconds`` before serving the request.  Chosen
    longer than the engine's request deadline, this reproduces the
    reply-desync scenario: the host times out, the answer lands late.
``wedge``
    The worker stops making progress (sleeps in a loop) — a deadlock or
    livelock.  It never answers again; only a kill + respawn recovers.
``raise``
    The request handler raises :class:`InjectedFault`; the worker
    itself survives (request-scoped application error).

Specs are plain frozen dataclasses, so they pickle into worker spawn
arguments under both ``fork`` and ``spawn``.  ``persistent=True`` makes
a spec survive respawn (the engine re-installs it in the replacement
worker) — that is how a restart-budget-exhaustion scenario is built.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

FAULT_KINDS = ("kill", "delay", "wedge", "raise")

#: One nap of the ``wedge`` loop; short enough that SIGTERM from the
#: supervisor's kill path interrupts promptly.
_WEDGE_NAP_S = 0.5


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault throws inside the request handler."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault on one worker.

    ``at_request`` is the 1-based index of the serving request (the
    ops that do real work — ``forward``, ``forward_streaming``,
    ``top_k``; control traffic does not advance the counter) within one
    worker incarnation.  Each spec fires at most once per incarnation.
    """

    kind: str
    at_request: int
    seconds: float = 0.0
    exitcode: int = 1
    persistent: bool = False

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_request < 1:
            raise ValueError(
                f"at_request is 1-based, got {self.at_request}"
            )
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


class FaultInjector:
    """Counts serving requests and fires matching specs — worker side."""

    def __init__(self, specs: Optional[Sequence[FaultSpec]] = None):
        self.specs: List[FaultSpec] = list(specs or [])
        self.served = 0
        self._fired: set = set()

    def on_request(self) -> None:
        """Advance the request counter and trigger any due fault.

        Called once per serving request, *before* the request is
        handled, so a ``kill`` never replies and a ``delay`` delays the
        reply — exactly the externally observable failure shapes.
        """
        self.served += 1
        for index, spec in enumerate(self.specs):
            if index in self._fired or spec.at_request != self.served:
                continue
            self._fired.add(index)
            self._trigger(spec)

    def _trigger(self, spec: FaultSpec) -> None:
        if spec.kind == "kill":
            os._exit(spec.exitcode)
        if spec.kind == "delay":
            time.sleep(spec.seconds)
            return
        if spec.kind == "wedge":
            while True:
                time.sleep(_WEDGE_NAP_S)
        if spec.kind == "raise":
            raise InjectedFault(
                f"injected fault on request {self.served}"
            )


def surviving_specs(
    specs: Optional[Sequence[FaultSpec]],
) -> List[FaultSpec]:
    """The specs a *respawned* worker inherits (``persistent`` only)."""
    return [spec for spec in (specs or []) if spec.persistent]
