"""Open-loop load generator that times from the *due* time.

Arrivals follow a seeded Poisson schedule fixed before the run; one
generator thread holds to it with ``sleep`` (never a spin: a spinning
Python thread would keep the GIL from the front door's batcher).  Each
request's latency runs from the moment it was due — so a stall in the
system, or in the generator itself, lands in the numbers of the requests
it delayed — and the generator reports its own lateness.

``repro.serving.loadgen.run_open_loop`` times from enqueue and reports no
lateness; it is deliberately not reused here.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.serving.frontdoor import QueueFullError

from bench.trace import clock

#: How long to wait for outstanding replies after the last arrival.
DRAIN_TIMEOUT_S = 30.0


def poisson_schedule(rng: np.random.Generator, rate_rps: float, seconds: float) -> np.ndarray:
    """Arrival offsets in ``[0, seconds)`` of a Poisson process."""
    count = int(rate_rps * seconds * 1.2) + 32
    offsets = np.cumsum(rng.exponential(1.0 / rate_rps, size=count))
    while offsets[-1] < seconds:  # vanishingly rare; extend rather than truncate
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate_rps, size=count))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < seconds]


@dataclass
class OpenLoopResult:
    """Per-request timestamps (absolute ``perf_counter`` seconds)."""

    start: float
    due: np.ndarray
    submit_start: np.ndarray
    submit_end: np.ndarray
    done: np.ndarray  # NaN where no reply arrived
    replies: List[object]  # Reply, or None if shed, failed or timed out

    @property
    def latency_s(self) -> np.ndarray:
        """Reply time minus due time (NaN for requests not served)."""
        return self.done - self.due

    @property
    def late_s(self) -> np.ndarray:
        """How late the generator issued each request."""
        return self.submit_start - self.due


def run_open_loop(door, rows: np.ndarray, offsets: np.ndarray,
                  op: str = "forward_streaming") -> OpenLoopResult:
    """Submit ``rows[i]`` at ``start + offsets[i]``; wait for every reply."""
    count = len(offsets)
    submit_start = np.zeros(count)
    submit_end = np.zeros(count)
    done = np.full(count, np.nan)
    futures = [None] * count

    def on_done(index: int):
        def callback(_future) -> None:
            done[index] = clock()
        return callback

    start = clock() + 0.005
    due = start + offsets
    for index in range(count):
        delay = due[index] - clock()
        if delay > 0:
            time.sleep(delay)
        submit_start[index] = clock()
        try:
            future = door.submit(rows[index], op)
        except QueueFullError:  # shed at admission: counted by the door
            submit_end[index] = clock()
            continue
        submit_end[index] = clock()
        future.add_done_callback(on_done(index))
        futures[index] = future

    wait([f for f in futures if f is not None], timeout=DRAIN_TIMEOUT_S)
    replies = [
        future.result()
        if future is not None and future.done() and future.exception() is None
        else None
        for future in futures
    ]
    return OpenLoopResult(
        start=start, due=due, submit_start=submit_start,
        submit_end=submit_end, done=done, replies=replies,
    )
