"""FR-FCFS command scheduling for one channel.

The scheduler is event-driven: instead of ticking every cycle it
computes, for each queued request, the earliest legal issue cycle of
that request's *next required command* (column access on a row hit,
PRE on a conflict, ACT on a closed bank), then issues the best
candidate under first-ready / first-come-first-served ordering:

1. among requests whose row is already open (ready column commands),
   the one with the earliest issue cycle (ties: oldest);
2. otherwise the oldest request's required command.

One command per cycle crosses the C/A bus; data transfers serialize on
the channel's data bus.

Scheduling cost: the naive controller recomputes every queued
request's candidate on every step — O(queue_depth²) command
evaluations per issued command.  Since a command only changes the
timing state of *its own* bank (plus narrow rank-level side channels:
tRRD/tFAW for ACTs, tCCD for column commands, tRFC for refresh), the
scheduler instead caches each request's candidate and invalidates
only the entries the issued command can have touched.  The cached
candidate stores the *structural* earliest cycle — bank and
bank-group constraints only; the two clamps that move on every step
(the wall clock and the shared data bus) are applied at pick time, so
they never force invalidation.  The recompute-everything pick is the
semantic reference (``tests/oracles.py``); the drain-identity tests in
``tests/test_dram_scheduler_cache.py`` hold the two to identical
command streams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.dram.rank import Rank
from repro.dram.request import Request, RequestType
from repro.dram.timing import DDR4Timing
from repro.obs.metrics import power_of_two_buckets
from repro.obs.recorder import NULL_RECORDER


@dataclass
class _Candidate:
    request: Request
    command: str  # "ACT" | "PRE" | "COL"
    issue_cycle: int
    is_hit: bool


class ChannelScheduler:
    """One memory channel: ranks, shared buses, FR-FCFS queue."""

    def __init__(
        self,
        timing: DDR4Timing,
        ranks: int,
        queue_depth: int = 64,
        recorder=NULL_RECORDER,
    ):
        self.timing = timing
        #: Observability sink: per-command issue counters
        #: (``dram.cmd.*``) and the queue-depth distribution
        #: (``dram.queue_depth``); the no-op recorder by default.
        self.recorder = recorder
        self.ranks: List[Rank] = [Rank(timing) for _ in range(ranks)]
        #: The scheduler's visible window (the real controller's
        #: ``queue_depth``-entry command queue); requests beyond it wait
        #: in the backlog FIFO and enter as slots free up.  This also
        #: bounds each scheduling step to O(queue_depth).
        self.queue: List[Request] = []
        self.backlog: "deque[Request]" = deque()
        self.queue_depth = queue_depth
        self.cycle = 0
        self._cmd_bus_free = 0
        self._data_bus_free = 0
        #: Candidate cache keyed by ``request_id`` plus the reverse
        #: indices used for targeted invalidation: every cached entry
        #: is a member of its bank's set and of its (rank, command)
        #: set.
        self._cache: Dict[int, _Candidate] = {}
        self._bank_members: Dict[Tuple[int, int], Set[int]] = {}
        self._rank_members: Dict[Tuple[int, str], Set[int]] = {}
        # statistics
        self.reads = 0
        self.writes = 0
        self.data_bus_busy_cycles = 0

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self.queue) + len(self.backlog)

    def enqueue(self, request: Request) -> None:
        if request.address.rank >= len(self.ranks):
            raise ValueError(
                f"request rank {request.address.rank} out of range "
                f"({len(self.ranks)} ranks)"
            )
        if len(self.queue) < self.queue_depth:
            self.queue.append(request)
        else:
            self.backlog.append(request)

    def _refill(self) -> None:
        while self.backlog and len(self.queue) < self.queue_depth:
            self.queue.append(self.backlog.popleft())

    # ------------------------------------------------------------------
    def _next_command_raw(self, request: Request) -> _Candidate:
        """The next required command and its *structural* earliest cycle.

        Only bank and bank-group constraints enter the stored cycle —
        the wall clock and the shared data bus are excluded so the
        candidate stays valid (cacheable) across steps that do not
        touch this bank.  :meth:`_effective_cycle` applies the two
        excluded clamps at pick time.
        """
        addr = request.address
        rank = self.ranks[addr.rank]
        bank = rank.banks[addr.flat_bank]
        is_write = request.type is RequestType.WRITE

        if bank.open_row == addr.row:
            earliest = bank.earliest_column(is_write)
            # Bank-group constraint: tCCD_L within a group, tCCD_S across.
            earliest = max(
                earliest, rank.earliest_column_for_group(addr.bank_group)
            )
            return _Candidate(request, "COL", earliest, True)

        if bank.open_row is not None:
            return _Candidate(request, "PRE", bank.earliest_precharge(), False)

        return _Candidate(request, "ACT", rank.earliest_activate(addr.flat_bank), False)

    def _effective_cycle(self, candidate: _Candidate) -> int:
        """The candidate's actual earliest issue cycle right now."""
        earliest = candidate.issue_cycle
        if candidate.command == "COL":
            # Data-bus constraint: the burst must not overlap a prior one.
            is_write = candidate.request.type is RequestType.WRITE
            latency = self.timing.cwl if is_write else self.timing.cl
            earliest = max(earliest, self._data_bus_free - latency)
        return max(earliest, self.cycle)

    # -- candidate cache ------------------------------------------------
    def _cached_candidate(self, request: Request) -> _Candidate:
        candidate = self._cache.get(request.request_id)
        if candidate is None:
            candidate = self._next_command_raw(request)
            key = request.request_id
            addr = request.address
            self._cache[key] = candidate
            self._bank_members.setdefault(
                (addr.rank, addr.flat_bank), set()
            ).add(key)
            self._rank_members.setdefault(
                (addr.rank, candidate.command), set()
            ).add(key)
        return candidate

    def _invalidate_keys(self, keys) -> None:
        for key in tuple(keys):
            candidate = self._cache.pop(key, None)
            if candidate is None:
                continue
            addr = candidate.request.address
            self._bank_members[(addr.rank, addr.flat_bank)].discard(key)
            self._rank_members[(addr.rank, candidate.command)].discard(key)

    def _invalidate_bank(self, rank: int, flat_bank: int) -> None:
        members = self._bank_members.get((rank, flat_bank))
        if members:
            self._invalidate_keys(members)

    def _invalidate_rank_command(self, rank: int, command: str) -> None:
        members = self._rank_members.get((rank, command))
        if members:
            self._invalidate_keys(members)

    def _invalidate_rank(self, rank: int) -> None:
        """Refresh closed every row in the rank: drop all its entries."""
        self._invalidate_keys(
            [
                key
                for key, candidate in self._cache.items()
                if candidate.request.address.rank == rank
            ]
        )

    # ------------------------------------------------------------------
    def _pick(self) -> Optional[_Candidate]:
        if not self.queue:
            return None
        # Wall-clock FR-FCFS as a single lexicographic minimum over
        # (issue cycle, miss-before-hit, arrival).  Strict-< keeps the
        # first minimal entry in queue order, matching the reference
        # two-phase pick exactly.
        best: Optional[_Candidate] = None
        best_key: Optional[Tuple[int, bool, int]] = None
        for request in self.queue:
            candidate = self._cached_candidate(request)
            key = (
                self._effective_cycle(candidate),
                not candidate.is_hit,
                request.arrival,
            )
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        if best is not None and best_key is not None:
            # The pick is consumed at its effective cycle.
            best = _Candidate(best.request, best.command, best_key[0], best.is_hit)
        return best

    # ------------------------------------------------------------------
    def step(self) -> Optional[Request]:
        """Issue one command; returns the request if it completed."""
        choice = self._pick()
        if choice is None:
            return None
        if self.recorder.enabled:
            self.recorder.observe(
                "dram.queue_depth",
                len(self.queue),
                bounds=power_of_two_buckets(),
            )

        issue = max(choice.issue_cycle, self._cmd_bus_free, self.cycle)
        addr = choice.request.address
        rank = self.ranks[addr.rank]

        # Refresh is checked at the issue point; a due refresh delays it.
        usable = rank.maybe_refresh(issue)
        if usable > issue:
            # Bank state changed (rows closed); recompute next round.
            self.cycle = max(self.cycle, issue)
            self._cmd_bus_free = max(self._cmd_bus_free, issue + 1)
            self._invalidate_rank(addr.rank)
            self.recorder.increment("dram.refresh_delays")
            return None

        bank = rank.banks[addr.flat_bank]
        self._cmd_bus_free = issue + 1
        self.cycle = issue

        if choice.command == "ACT":
            self.recorder.increment("dram.cmd.act")
            bank.row_misses += 1
            rank.activate(issue, addr.flat_bank, addr.row)
            # The ACT changed this bank's state (requests to it may now
            # be COL/PRE) and moved the rank's tRRD/tFAW window (all
            # cached ACT cycles in the rank are stale).
            self._invalidate_bank(addr.rank, addr.flat_bank)
            self._invalidate_rank_command(addr.rank, "ACT")
            return None
        if choice.command == "PRE":
            self.recorder.increment("dram.cmd.pre")
            bank.precharge(issue)
            # Only this bank's state changed (its requests become ACTs).
            self._invalidate_bank(addr.rank, addr.flat_bank)
            return None

        # Column command: completes the request.
        self.recorder.increment("dram.cmd.col")
        if choice.request.type is RequestType.WRITE:
            done = bank.write(issue, addr.row)
            self.writes += 1
        else:
            done = bank.read(issue, addr.row)
            self.reads += 1
        rank.record_column(issue, addr.bank_group)
        self._data_bus_free = done
        self.data_bus_busy_cycles += self.timing.burst_cycles
        choice.request.completed_at = done
        self.queue.remove(choice.request)
        # The column access updated this bank's tRTP/tWR state and the
        # rank's tCCD window (every cached COL cycle in the rank is
        # stale); the completed request's own entry falls out with its
        # bank.  The data bus moved too, but that clamp lives in
        # :meth:`_effective_cycle`, not in the cached cycles.
        self._invalidate_bank(addr.rank, addr.flat_bank)
        self._invalidate_rank_command(addr.rank, "COL")
        self._refill()
        return choice.request

    def drain(self, max_commands: int = 10_000_000) -> int:
        """Run until the queue empties; returns the last completion cycle."""
        self._refill()
        last_done = self.cycle
        for _ in range(max_commands):
            if not self.queue:
                break
            finished = self.step()
            if finished is not None:
                last_done = max(last_done, finished.completed_at)
        else:
            raise RuntimeError("scheduler did not drain (command budget exhausted)")
        return max(last_done, self._data_bus_free)

    # ------------------------------------------------------------------
    @property
    def total_activations(self) -> int:
        return sum(rank.total_activations for rank in self.ranks)

    @property
    def total_row_hits(self) -> int:
        return sum(rank.total_row_hits for rank in self.ranks)
