"""The DRAM system facade (the "Ramulator interface" of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.dram.address import AddressMapping
from repro.dram.request import Request, RequestType
from repro.dram.scheduler import ChannelScheduler
from repro.dram.timing import DDR4Timing, DDR4_2400
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DRAMStats:
    """Aggregate statistics of one simulation run."""

    cycles: int
    reads: int
    writes: int
    activations: int
    row_hits: int
    refreshes: int
    bytes_transferred: int
    clock_hz: float

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    @property
    def bandwidth(self) -> float:
        """Achieved bandwidth in bytes/second."""
        if self.cycles == 0:
            return 0.0
        return self.bytes_transferred / self.seconds

    @property
    def row_hit_rate(self) -> float:
        accesses = self.reads + self.writes
        if accesses == 0:
            return 0.0
        return self.row_hits / accesses


class DRAMSystem:
    """Multiple channels of DDR4 behind a burst-granular request API.

    Typical use::

        system = DRAMSystem(DDR4_2400, channels=1, ranks_per_channel=8)
        reqs = system.stream_read(base=0, num_bytes=1 << 20)
        stats = system.drain()
    """

    def __init__(
        self,
        timing: DDR4Timing = DDR4_2400,
        channels: int = 8,
        ranks_per_channel: int = 8,
        queue_depth: int = 64,
    ):
        check_positive("channels", channels)
        check_positive("ranks_per_channel", ranks_per_channel)
        self.timing = timing
        self.mapping = AddressMapping(timing, channels, ranks_per_channel)
        self.channels: List[ChannelScheduler] = [
            ChannelScheduler(timing, ranks_per_channel, queue_depth)
            for _ in range(channels)
        ]

    # ------------------------------------------------------------------
    def submit(self, request_type: RequestType, address: int, arrival: int = 0) -> Request:
        """Decode and enqueue one burst request; returns the request."""
        decoded = self.mapping.decode(address)
        request = Request(type=request_type, address=decoded, arrival=arrival)
        self.channels[decoded.channel].enqueue(request)
        return request

    def stream_read(self, base: int, num_bytes: int, arrival: int = 0) -> List[Request]:
        """Enqueue a sequential read stream (weight streaming pattern)."""
        return [
            self.submit(RequestType.READ, addr, arrival)
            for addr in self.mapping.sequential_addresses(base, num_bytes)
        ]

    def stream_write(self, base: int, num_bytes: int, arrival: int = 0) -> List[Request]:
        """Enqueue a sequential write stream (result write-back pattern)."""
        return [
            self.submit(RequestType.WRITE, addr, arrival)
            for addr in self.mapping.sequential_addresses(base, num_bytes)
        ]

    def gather_read(self, addresses: Iterable[int], arrival: int = 0) -> List[Request]:
        """Enqueue a random-gather read stream (candidate-row pattern)."""
        return [self.submit(RequestType.READ, a, arrival) for a in addresses]

    # ------------------------------------------------------------------
    def drain(self) -> DRAMStats:
        """Simulate until every queued request completes."""
        last = 0
        for channel in self.channels:
            last = max(last, channel.drain())
        reads = sum(c.reads for c in self.channels)
        writes = sum(c.writes for c in self.channels)
        return DRAMStats(
            cycles=last,
            reads=reads,
            writes=writes,
            activations=sum(c.total_activations for c in self.channels),
            row_hits=sum(c.total_row_hits for c in self.channels),
            refreshes=sum(r.refreshes for c in self.channels for r in c.ranks),
            bytes_transferred=(reads + writes) * self.timing.burst_bytes,
            clock_hz=self.timing.clock_hz,
        )
