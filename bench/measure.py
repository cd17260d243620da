"""Measured-phase helpers shared by the workloads: rounds, percentiles,
peak memory of one warm operation."""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from bench.trace import clock


def percentile(samples: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0-100); raises on an empty sample instead of NaN."""
    if len(samples) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def mean(samples: Sequence[float]) -> float:
    """Mean; raises on an empty sample instead of NaN."""
    if len(samples) == 0:
        raise ValueError("mean of an empty sample")
    return float(np.mean(np.asarray(samples, dtype=np.float64)))


@dataclass
class Round:
    """One round of the measured phase."""

    latencies_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    rows_ok: int = 0
    attempted: int = 0
    failed: int = 0

    def record(self, elapsed_s: float, rows: int) -> None:
        """Count one operation; a negative ``elapsed_s`` marks a failure."""
        self.attempted += 1
        if elapsed_s < 0:
            self.failed += 1
        else:
            self.latencies_s.append(elapsed_s)
            self.rows_ok += rows


def round_median(r: Round) -> float:
    return median(r.latencies_s)


@dataclass
class Measured:
    """The untraced measured phase, as rounds.

    Each timing metric is the mean of its per-round values over the
    ``quiet`` rounds where it reads best.  On the shared reference host
    interference only ever adds time, and it comes in stretches of several
    seconds (call times of one batch sit on a floor and leave it for 3-10 s
    at a stretch, with CPU time equal to wall time: a neighbour on the
    memory system, not the program).  The median over all rounds follows
    those stretches; the quietest rounds estimate what the program costs.
    """

    rounds: List[Round]
    quiet: int

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    def quietest(self, key: Callable[[Round], float]) -> List[Round]:
        timed = [r for r in self.rounds if r.latencies_s and r.wall_s > 0]
        return sorted(timed, key=key)[: self.quiet]

    def operations(self) -> int:
        """Operations ``latency_p50_ms`` and the throughput rest on."""
        return sum(len(r.latencies_s) for r in self.quietest(round_median))

    def throughput_rows_per_s(self) -> float:
        """Over the rounds ``latency_p50_ms`` uses (not the rounds with the
        most rows: in an open loop those are the densest arrivals)."""
        return mean([r.rows_ok / r.wall_s for r in self.quietest(round_median)])

    def latency_p50_ms(self) -> float:
        return 1e3 * mean([round_median(r) for r in self.quietest(round_median)])

    def latency_tail_ms(self, q: float) -> float:
        """Percentile ``q`` of a round, over the rounds where it is lowest."""
        tail = lambda r: percentile(r.latencies_s, q)  # noqa: E731
        return 1e3 * mean([tail(r) for r in self.quietest(tail)])


def closed_loop(
    operation: Callable[[int], float],
    rows_per_operation: int,
    seconds: float,
    rounds: int,
    quiet: int,
) -> Measured:
    """One caller, next call only after the previous one returned.

    ``operation(i)`` runs operation ``i`` and returns how long the program
    took (seconds) or a negative number if it failed or its output was
    wrong; output checks run between calls, outside the latency but inside
    the round's wall time.
    """
    result: List[Round] = []
    start = clock()
    index = 0
    for number in range(rounds):
        deadline = start + (number + 1) * seconds / rounds
        current = Round()
        round_start = clock()
        while True:
            current.record(operation(index), rows_per_operation)
            index += 1
            now = clock()
            if now >= deadline:
                break
        current.wall_s = now - round_start
        result.append(current)
    return Measured(result, quiet)


def call_peak_mb(operation: Callable[[], object], repeats: int = 3) -> float:
    """``tracemalloc`` peak incremental MB of one warm operation (median
    of ``repeats``): ELMO's peak-memory rule as a number."""
    peaks = []
    for _ in range(repeats):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            baseline, _ = tracemalloc.get_traced_memory()
            operation()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append((peak - baseline) / 1e6)
    return median(peaks)
