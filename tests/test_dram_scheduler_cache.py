"""Candidate-cache identity: cached FR-FCFS == recompute-everything.

The cached scheduler must issue the *same command stream* as the
O(queue²) reference (``oracles.UncachedChannelScheduler``) — not merely
reach similar statistics — so these tests drain identical request
streams through both schedulers and compare every per-request
completion cycle plus every counter.
"""

import numpy as np
import pytest
from oracles import UncachedChannelScheduler

from repro.dram import DDR4_2400, DRAMSystem
from repro.dram.request import Request, RequestType
from repro.dram.scheduler import ChannelScheduler


def paired_systems(**kwargs):
    """Two identical systems, the second on the reference scheduler."""
    cached = DRAMSystem(DDR4_2400, **kwargs)
    reference = DRAMSystem(DDR4_2400, **kwargs)
    reference.channels = [
        UncachedChannelScheduler(DDR4_2400, len(channel.ranks), channel.queue_depth)
        for channel in reference.channels
    ]
    return cached, reference


def drain_fingerprint(system, requests):
    stats = system.drain()
    return (
        [r.completed_at for r in requests],
        stats.cycles,
        stats.reads,
        stats.writes,
        stats.activations,
        stats.row_hits,
        stats.refreshes,
    )


def assert_identical_drains(submit):
    """Run ``submit(system) -> requests`` through both schedulers."""
    cached, reference = paired_systems(channels=1, ranks_per_channel=2,
                                       queue_depth=16)
    fingerprints = [
        drain_fingerprint(system, submit(system))
        for system in (cached, reference)
    ]
    assert fingerprints[0] == fingerprints[1]


class TestDrainIdentity:
    def test_sequential_stream(self):
        assert_identical_drains(
            lambda system: system.stream_read(0, 64 * 512)
        )

    def test_sequential_write_stream(self):
        assert_identical_drains(
            lambda system: system.stream_write(0, 64 * 512)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_gather(self, seed):
        rng = np.random.default_rng(seed)
        addrs = (rng.integers(0, 1 << 26, 300) // 64 * 64).tolist()
        assert_identical_drains(lambda system: system.gather_read(addrs))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_read_write_with_arrivals(self, seed):
        rng = np.random.default_rng(100 + seed)
        addrs = (rng.integers(0, 1 << 24, 200) // 64 * 64).tolist()
        kinds = rng.integers(0, 2, len(addrs))

        def submit(system):
            return [
                system.submit(
                    RequestType.WRITE if kind else RequestType.READ,
                    addr,
                    arrival=i,
                )
                for i, (addr, kind) in enumerate(zip(addrs, kinds))
            ]

        assert_identical_drains(submit)

    def test_bank_conflict_heavy(self):
        """Same bank, alternating rows — maximal PRE/ACT churn."""
        rng = np.random.default_rng(7)
        # Small address span keeps requests in few banks, forcing row
        # conflicts and the PRE->ACT->COL state-machine transitions the
        # invalidation logic must track.
        addrs = (rng.integers(0, 1 << 16, 300) // 64 * 64).tolist()
        assert_identical_drains(lambda system: system.gather_read(addrs))

    def test_long_drain_crosses_refreshes(self):
        """Enough traffic that tREFI elapses and refresh invalidation runs."""
        cached, reference = paired_systems(channels=1, ranks_per_channel=2,
                                           queue_depth=8)
        rng = np.random.default_rng(11)
        addrs = (rng.integers(0, 1 << 26, 4000) // 64 * 64).tolist()
        results = []
        for system in (cached, reference):
            requests = system.gather_read(addrs)
            results.append(drain_fingerprint(system, requests))
        assert results[0][-1] > 0  # refreshes actually occurred
        assert results[0] == results[1]

    def test_incremental_stepping_matches(self):
        """Step-by-step interleaving of enqueue and issue, not one drain."""
        schedulers = [
            kind(DDR4_2400, ranks=2, queue_depth=8)
            for kind in (ChannelScheduler, UncachedChannelScheduler)
        ]
        host = DRAMSystem(DDR4_2400, channels=1, ranks_per_channel=2)
        rng = np.random.default_rng(3)
        addrs = (rng.integers(0, 1 << 22, 120) // 64 * 64).tolist()
        logs = []
        for scheduler in schedulers:
            log = []
            pending = list(addrs)
            while pending or scheduler.pending:
                # Trickle two requests in between issued commands.
                for _ in range(2):
                    if pending:
                        decoded = host.mapping.decode(pending.pop(0))
                        scheduler.enqueue(
                            Request(type=RequestType.READ, address=decoded)
                        )
                scheduler._refill()
                finished = scheduler.step()
                log.append(
                    (scheduler.cycle, finished.completed_at if finished else None)
                )
            logs.append(log)
        # request_ids differ between the two runs, but cycles must not.
        assert logs[0] == logs[1]


class TestCacheHygiene:
    def test_cache_empties_after_drain(self):
        system = DRAMSystem(DDR4_2400, channels=1, ranks_per_channel=2)
        system.stream_read(0, 64 * 64)
        system.drain()
        for channel in system.channels:
            for members in channel._bank_members.values():
                assert not members
            for members in channel._rank_members.values():
                assert not members
            # Entries may only remain for requests still in the queue.
            assert not channel._cache
