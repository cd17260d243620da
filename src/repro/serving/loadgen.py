"""Load generation for the serving front door.

**Open loop** (:func:`run_open_loop`): requests arrive on a Poisson
process at a fixed offered rate, independent of how fast the system
answers.  This is the honest model for latency percentiles: a slow
system accumulates queueing delay instead of silently throttling the
generator (the "coordinated omission" failure of naive closed loops).

Requests are drawn from a **Zipfian mix** (:class:`ZipfianMix`): a pool
of distinct feature rows with rank–frequency weights ``rank^-s``, the
standard skew model for production query traffic (a few heads dominate,
a long tail keeps caches honest).

The generator never inspects engine internals — it only talks to the
:class:`~repro.serving.frontdoor.FrontDoor` public surface, and it
counts sheds (queue-full, deadline) separately from errors so the
benchmark can report loss honestly alongside latency.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.serving.frontdoor import (
    DeadlineExceededError,
    FrontDoor,
    QueueFullError,
)

__all__ = [
    "ZipfianMix",
    "LoadReport",
    "run_open_loop",
]


class ZipfianMix:
    """A Zipf-weighted pool of distinct request rows.

    ``pool`` holds ``pool_size`` feature rows drawn once; ``sample()``
    returns one row with probability proportional to ``rank^-s`` (rank
    1 is the hottest).  ``s = 0`` degenerates to uniform.
    """

    def __init__(
        self,
        hidden_dim: int,
        pool_size: int = 256,
        s: float = 1.1,
        seed: int = 0,
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if s < 0:
            raise ValueError(f"Zipf exponent must be >= 0, got {s}")
        self.rng = np.random.default_rng(seed)
        self.pool = self.rng.standard_normal((pool_size, hidden_dim))
        weights = np.arange(1, pool_size + 1, dtype=np.float64) ** -float(s)
        self.probabilities = weights / weights.sum()

    def sample(self) -> np.ndarray:
        index = self.rng.choice(self.pool.shape[0], p=self.probabilities)
        return self.pool[index]


@dataclass
class LoadReport:
    """What one load-generation run observed, end to end."""

    offered: int = 0
    served: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    errors: int = 0
    duration_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.served / self.duration_s if self.duration_s > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency at percentile ``q`` (0–100), seconds; NaN when empty."""
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_s), q))

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return float("nan")
        return float(np.mean(self.batch_sizes))

    def summary(self) -> Dict[str, float]:
        return {
            "offered": self.offered,
            "served": self.served,
            "shed_queue_full": self.shed_queue_full,
            "shed_deadline": self.shed_deadline,
            "errors": self.errors,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "mean_batch_size": self.mean_batch_size,
            "p50_ms": self.latency_percentile(50) * 1e3,
            "p90_ms": self.latency_percentile(90) * 1e3,
            "p99_ms": self.latency_percentile(99) * 1e3,
        }


def _account(report: LoadReport, future: Future, lock: threading.Lock) -> None:
    """Fold one settled future into the report (thread-safe)."""
    try:
        reply = future.result()
    except QueueFullError:
        with lock:
            report.shed_queue_full += 1
        return
    except DeadlineExceededError:
        with lock:
            report.shed_deadline += 1
        return
    except Exception:  # noqa: BLE001 — load gen keeps going, counts it
        with lock:
            report.errors += 1
        return
    with lock:
        report.served += 1
        report.latencies_s.append(reply.latency_s)
        report.batch_sizes.append(reply.batch_size)


def run_open_loop(
    door: FrontDoor,
    mix: ZipfianMix,
    *,
    rate_rps: float,
    duration_s: float,
    op: str = "forward_streaming",
    k: Optional[int] = None,
    slo_s: Optional[float] = None,
    seed: int = 0,
) -> LoadReport:
    """Offer Poisson arrivals at ``rate_rps`` for ``duration_s`` seconds.

    Arrival times are drawn up front from an exponential inter-arrival
    distribution and held to with ``sleep`` — the generator does not
    slow down when the system does, so queueing delay lands in the
    latency numbers where it belongs.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    rng = np.random.default_rng(seed)
    report = LoadReport()
    lock = threading.Lock()
    futures: List[Future] = []

    start = time.monotonic()
    next_arrival = start
    while True:
        next_arrival += rng.exponential(1.0 / rate_rps)
        if next_arrival - start > duration_s:
            break
        delay = next_arrival - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        report.offered += 1
        try:
            future = door.submit(mix.sample(), op, k=k, slo_s=slo_s)
        except QueueFullError:
            with lock:
                report.shed_queue_full += 1
            continue
        future.add_done_callback(lambda f: _account(report, f, lock))
        futures.append(future)
    for future in futures:
        try:
            future.exception()  # waits for settlement; accounting is in the callback
        except Exception:  # noqa: BLE001
            pass
    report.duration_s = time.monotonic() - start
    return report
