"""Control plane of the parallel serving fleet: one record per replica,
one :class:`ShardGroup` per shard, no processes of its own.

:class:`~repro.distributed.parallel.ParallelShardedEngine` (the data
plane) scatters a request, collects the replies and merges them; every
decision *about a shard's workers* lives here, behind four methods:

=========== ========================== ========================================
method      called by (data plane)     may mutate
=========== ========================== ========================================
``pick``    scatter, before each send  nothing
``post``    scatter / collect re-issue ``Replica.dispatched``
``record``  collect, on a reply        ``Replica.served``
``recover`` collect, on death or wedge handle, ``Replica.dead``, budget, events
=========== ========================== ========================================

A group is handed ``spawn(replica_idx, fault_specs) -> handle`` and
never creates a process itself; anything with ``post`` / ``handshake``
/ ``stop`` / ``stale_replies`` / ``name`` is a handle, so the whole
state machine runs on fakes (``tests/test_fleet.py``).

**Replicas.**  A shard's replicas are interchangeable workers over the
*same* shared parameter segments (the model exists once in physical
memory), fixed when the engine starts.  :meth:`ShardGroup.pick` returns
the live replica with the fewest dispatch *attempts* (ties to the lowest
index) — attempts, not answers, so a replica that keeps timing out does
not stay "least loaded" and keep attracting traffic.  Which replica
answers never changes an output bit.

**Supervision.**  :meth:`ShardGroup.recover` is the one escalation a
dead or wedged replica goes through: stop the incumbent (always first —
a stopped process can never write the shard's shared output plane under
a sibling's answer), respawn it in its slot with its ``persistent``
fault specs against the shard's *shared* ``max_restarts`` budget,
backing off ``min(cap, backoff * 2**attempt)`` with ``attempt`` counted
within this incident only; with the budget spent the replica becomes a
dead tombstone and the request fails over to the least-loaded live
sibling; with no sibling left the shard is dead (``None``) and the data
plane degrades or fails fast.  A respawn folds the replaced handle's
discarded late replies into ``retired_stale``, so ``stale_replies()``
stays a lifetime figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.recorder import NULL_RECORDER
from repro.utils.faults import FaultSpec, surviving_specs
from repro.utils.workers import WorkerDied, WorkerTimeout

__all__ = ["Replica", "ShardGroup", "WorkerNotReady"]


class WorkerNotReady(RuntimeError):
    """A freshly spawned worker answered its handshake with ``fatal``."""


@dataclass
class Replica:
    """One worker slot of a shard.  ``dead`` means its share of the
    restart budget is spent (a tombstone keeping its stopped handle);
    ``served`` counts replies, ``dispatched`` counts posts."""

    handle: object
    fault_specs: List[FaultSpec]
    dead: bool = False
    served: int = 0
    dispatched: int = 0


class ShardGroup:
    """One shard's replicas, restart budget and event counts."""

    def __init__(
        self,
        shard_id: int,
        spawn: Callable[[int, Sequence[FaultSpec]], object],
        fault_specs: Sequence[Sequence[FaultSpec]] = ((),),
        *,
        max_restarts: int = 2,
        restart_backoff: float = 0.05,
        restart_backoff_cap: float = 2.0,
        spawn_timeout: float = 60.0,
        attachable: Callable[[], bool] = lambda: True,
        recorder=NULL_RECORDER,
    ):
        self.shard_id = shard_id
        self.spawn = spawn
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.restart_backoff_cap = restart_backoff_cap
        self.spawn_timeout = spawn_timeout
        #: ``False`` once the shard's parameter segment is gone (engine
        #: torn down concurrently): no replacement could ever attach.
        self.attachable = attachable
        self.recorder = recorder
        self.events: Dict[str, int] = dict.fromkeys(("respawns", "failovers"), 0)
        self.retired_stale = 0
        #: Started but not yet handshaken: the engine spawns the whole
        #: fleet first and awaits it with :meth:`await_ready`.
        self.replicas: List[Replica] = []
        for replica_idx, specs in enumerate(fault_specs):
            self.replicas.append(Replica(spawn(replica_idx, specs), list(specs)))

    def _count(self, event: str) -> None:
        self.events[event] += 1
        self.recorder.increment(f"parallel.{event}")
        self.recorder.increment(f"parallel.shard.{self.shard_id}.{event}")

    # -- read-only views ------------------------------------------------
    @property
    def restarts(self) -> int:
        """Respawn attempts charged to the shard's shared budget."""
        return self.events["respawns"]

    @property
    def dead(self) -> bool:
        """The shard is dead only when every replica is."""
        return all(replica.dead for replica in self.replicas)

    def live_indices(self) -> List[int]:
        return [idx for idx, replica in enumerate(self.replicas) if not replica.dead]

    def answered(self) -> int:
        """Replies, summed over the replicas (a respawn keeps its slot's
        count)."""
        return sum(r.served for r in self.replicas)

    def stale_replies(self) -> int:
        """Lifetime late replies discarded by id, across every handle
        the shard ever had."""
        return self.retired_stale + sum(
            replica.handle.stale_replies for replica in self.replicas
        )

    # -- request path ---------------------------------------------------
    def pick(self) -> Optional[int]:
        """Least-dispatched live replica; ``None`` when all are dead."""
        return min(
            self.live_indices(),
            key=lambda idx: (self.replicas[idx].dispatched, idx),
            default=None,
        )

    def post(self, replica_idx: int, op: str, request) -> int:
        """Send to one replica, charging the attempt up front (``pick``
        must see the load a slow replica is sitting on)."""
        replica = self.replicas[replica_idx]
        replica.dispatched += 1
        return replica.handle.post(op, request)

    def record(self, replica_idx: int) -> None:
        """Count one reply."""
        self.replicas[replica_idx].served += 1

    def recover(self, replica_idx: int) -> Optional[int]:
        """Respawn, else fail over, else fail: the replica to re-issue
        the in-flight request on, or ``None`` when the shard is dead."""
        replica = self.replicas[replica_idx]
        replica.handle.stop(timeout=0.1)
        specs = surviving_specs(replica.fault_specs)
        attempt = 0
        while self.attachable() and self.restarts < self.max_restarts:
            self._count("respawns")
            delay = min(self.restart_backoff_cap, self.restart_backoff * 2 ** attempt)
            attempt += 1
            self.recorder.observe("parallel.respawn_backoff_s", delay)
            time.sleep(delay)
            try:
                handle = self._ready(self.spawn(replica_idx, specs))
            except (WorkerDied, WorkerTimeout, WorkerNotReady):
                continue
            self.retired_stale += replica.handle.stale_replies
            replica.handle = handle
            return replica_idx
        replica.dead = True
        sibling = self.pick()
        if sibling is not None:
            self._count("failovers")
        return sibling

    def _ready(self, handle):
        """Await one started worker's handshake.  A worker that is not
        ready — fatal, dead or silent — is stopped before the failure
        propagates: a handle is in the group or stopped."""
        try:
            kind, payload = handle.handshake(timeout=self.spawn_timeout)
            if kind != "ready":
                raise WorkerNotReady(
                    f"worker {handle.name} failed to start:\n{payload}"
                )
        except BaseException:
            handle.stop(timeout=0.1)
            raise
        return handle

    # -- lifecycle ------------------------------------------------------
    def await_ready(self) -> None:
        """Handshake the replicas the constructor started."""
        for replica in self.replicas:
            self._ready(replica.handle)

    def close(self) -> None:
        for replica in self.replicas:
            replica.handle.stop(goodbye="shutdown")

    def stats(self) -> Dict[str, object]:
        return {
            "replicas": len(self.replicas),
            # A healthy shard's replicas together answer every request
            # exactly once: ``answered`` equals the engine's request count.
            "answered": self.answered(),
            "respawns": self.restarts,
            "stale_replies": self.stale_replies(),
            "dead": self.dead,
            "replica_workers": [
                {
                    "replica": replica_idx,
                    "name": replica.handle.name,
                    "served": replica.served,
                    "dispatched": replica.dispatched,
                    "stale_replies": replica.handle.stale_replies,
                    "dead": replica.dead,
                }
                for replica_idx, replica in enumerate(self.replicas)
            ],
        }
