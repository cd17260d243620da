"""The control plane on fake handles: no process, no sleep.

:class:`~repro.distributed.fleet.ShardGroup` is handed a ``spawn``
callable and never creates a process, so every supervision decision —
pick, respawn with per-incident backoff against the shared budget,
failover, tombstones, the lifetime ``answered`` / ``stale_replies``
figures — is driven here on :class:`FakeHandle` objects with the
module's clock replaced by a list.

Hand-written scenarios first (they pin an orphaned not-ready worker and
a resetting stale count), then a Hypothesis state machine that
interleaves the same events in generated schedules and checks the
invariants the docs state.
"""

from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.distributed import fleet
from repro.distributed.fleet import ShardGroup
from repro.utils.faults import FaultSpec
from repro.utils.workers import WorkerDied, WorkerTimeout

BACKOFF = 1.0
BACKOFF_CAP = 4.0


class FakeHandle:
    """What a group needs of a ``WorkerHandle``, scripted: ``alive``
    flips on an outside kill, ``outcome`` is the handshake's result (a
    ``(kind, payload)`` pair, or an exception to raise)."""

    def __init__(self, name, fault_specs, outcome):
        self.name = name
        self.fault_specs = list(fault_specs)
        self.outcome = outcome
        self.alive = True
        self.stopped = False
        self.stale_replies = 0
        self.posted = 0

    def handshake(self, timeout=None):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome

    def post(self, op, payload=None):
        if self.stopped or not self.alive:
            raise WorkerDied(self.name, -9)
        self.posted += 1
        return self.posted

    def stop(self, goodbye=None, timeout=2.0):
        self.stopped = True


class FakeSpawn:
    """The ``spawn`` callable: remembers every handle it ever returned;
    ``outcomes`` scripts the handshakes of the next spawns."""

    def __init__(self):
        self.spawned = []
        self.outcomes = []

    def __call__(self, replica_idx, fault_specs):
        outcome = self.outcomes.pop(0) if self.outcomes else ("ready", None)
        handle = FakeHandle(
            f"fake.r{replica_idx}#{len(self.spawned)}", fault_specs, outcome
        )
        self.spawned.append(handle)
        return handle

    def leaked(self, group):
        """Handles neither held by the group nor stopped."""
        held = {id(replica.handle) for replica in group.replicas}
        return [
            handle.name
            for handle in self.spawned
            if id(handle) not in held and not handle.stopped
        ]


def make_group(spawn, replicas=1, max_restarts=2, fault_specs=None):
    group = ShardGroup(
        0,
        spawn,
        fault_specs if fault_specs is not None else [[]] * replicas,
        max_restarts=max_restarts,
        restart_backoff=BACKOFF,
        restart_backoff_cap=BACKOFF_CAP,
    )
    group.await_ready()
    return group


def expected_backoff(attempts):
    return [min(BACKOFF_CAP, BACKOFF * 2 ** n) for n in range(attempts)]


@pytest.fixture
def naps(monkeypatch):
    """Backoff delays are appended here instead of slept."""
    delays = []
    monkeypatch.setattr(fleet, "time", SimpleNamespace(sleep=delays.append))
    return delays


class TestLifecycle:
    def test_dispatch_recover_failover_stats(self, naps):
        """One group end to end: dispatch, recovery through budget
        exhaustion, failover, stats."""
        spawn = FakeSpawn()
        group = make_group(spawn, replicas=2, max_restarts=2)

        # Dispatch alternates over the least-dispatched live replica.
        picks = []
        for _ in range(4):
            replica_idx = group.pick()
            group.post(replica_idx, "forward_streaming", None)
            group.record(replica_idx)
            picks.append(replica_idx)
        assert picks == [0, 1, 0, 1]

        # Incident 1: one failed attempt, then a ready replacement.
        first = group.replicas[0].handle
        spawn.outcomes = [WorkerDied("x", 1)]
        assert group.recover(0) == 0
        assert first.stopped and group.replicas[0].handle is not first
        assert group.restarts == 2 and naps == expected_backoff(2)

        # Incident 2: budget spent -> tombstone, failover to the sibling.
        assert group.recover(0) == 1
        assert group.replicas[0].dead and not group.dead
        assert group.events["failovers"] == 1 and group.pick() == 1

        # The last replica dies with no budget: the shard is dead.
        assert group.recover(1) is None
        assert group.dead and group.pick() is None

        stats = group.stats()
        assert stats["dead"] and stats["answered"] == 4 and stats["respawns"] == 2
        assert stats["replicas"] == 2
        assert all(worker["dead"] for worker in stats["replica_workers"])
        assert group.events == {"respawns": 2, "failovers": 1}
        assert spawn.leaked(group) == []

    def test_respawn_inherits_persistent_specs_only(self, naps):
        spawn = FakeSpawn()
        specs = [
            FaultSpec(kind="kill", at_request=1, persistent=True),
            FaultSpec(kind="delay", at_request=2, seconds=1.0),
        ]
        group = make_group(spawn, fault_specs=[specs])
        assert spawn.spawned[0].fault_specs == specs
        assert group.recover(0) == 0
        assert spawn.spawned[1].fault_specs == specs[:1]

    def test_backoff_restarts_at_base_per_incident(self, naps):
        group = make_group(FakeSpawn(), max_restarts=3)
        assert group.recover(0) == 0
        assert group.recover(0) == 0
        assert naps == [BACKOFF, BACKOFF]

    def test_torn_down_segments_spend_the_replica_without_spawning(self, naps):
        spawn = FakeSpawn()
        group = ShardGroup(0, spawn, attachable=lambda: False)
        assert group.recover(0) is None
        assert group.restarts == 0 and len(spawn.spawned) == 1 and naps == []

    @pytest.mark.parametrize(
        "outcome",
        [WorkerTimeout("silent"), WorkerDied("x", 1), ("fatal", "traceback")],
        ids=["timeout", "died", "fatal"],
    )
    def test_respawn_stops_a_worker_that_is_not_ready(self, naps, outcome):
        """A respawn whose handshake fails or *raises* stops the new
        worker before the next attempt: it must not run on in no group."""
        spawn = FakeSpawn()
        group = make_group(spawn, max_restarts=2)
        spawn.outcomes = [outcome]
        assert group.recover(0) == 0 and group.restarts == 2
        assert spawn.spawned[1].stopped and spawn.leaked(group) == []

    def test_stale_replies_survive_respawn(self, naps):
        """A late reply the old handle discarded stays counted after
        the handle is replaced."""
        group = make_group(FakeSpawn(), max_restarts=1)
        group.replicas[0].handle.stale_replies = 1  # delay -> stale reply
        assert group.recover(0) == 0  # kill -> respawn
        assert group.replicas[0].handle.stale_replies == 0
        assert group.stale_replies() == 1 == group.stats()["stale_replies"]


class GroupMachine(RuleBasedStateMachine):
    """Generated schedules over one group serving one request at a
    time.  ``inflight`` is the replica holding the current request;
    ``serve`` mirrors the data plane's collect loop: post, and on a
    dead send let ``recover`` name the replica to continue on."""

    MAX_RESTARTS = 3

    def __init__(self):
        super().__init__()
        self.naps = []
        self.clock = fleet.time
        fleet.time = SimpleNamespace(sleep=self.naps.append)
        self.spawn = FakeSpawn()
        self.group = make_group(self.spawn, replicas=2, max_restarts=self.MAX_RESTARTS)
        self.inflight = None
        self.answered = self.stale = 0

    def teardown(self):
        fleet.time = self.clock

    def recover(self, replica_idx):
        """One incident: the incumbent ends up stopped, the backoff
        starts over at the base, the budget holds."""
        group = self.group
        incumbent = group.replicas[replica_idx].handle
        before, naps = group.restarts, len(self.naps)
        successor = group.recover(replica_idx)
        assert incumbent.stopped
        assert self.naps[naps:] == expected_backoff(group.restarts - before)
        if successor is None:
            assert group.dead
        else:
            assert not group.replicas[successor].dead
        return successor

    def serve(self, replica_idx):
        while replica_idx is not None:
            try:
                self.group.post(replica_idx, "forward_streaming", None)
                break
            except WorkerDied:  # die-on-post
                replica_idx = self.recover(replica_idx)
        self.inflight = replica_idx

    @precondition(lambda self: self.inflight is None and not self.group.dead)
    @rule()
    def dispatch(self):
        self.serve(self.group.pick())

    @precondition(lambda self: self.inflight is not None)
    @rule()
    def answer(self):
        self.group.record(self.inflight)
        self.answered += 1
        self.inflight = None

    @precondition(lambda self: self.inflight is not None)
    @rule(wedged=st.booleans())
    def die_on_recv_or_wedge(self, wedged):
        """The awaited worker died, or is alive but silent past every
        retry; either way the request continues where recover says."""
        self.group.replicas[self.inflight].handle.alive = wedged
        self.serve(self.recover(self.inflight))

    @rule(data=st.data())
    def kill_idle_replica(self, data):
        idle = [
            idx for idx in self.group.live_indices() if idx != self.inflight
        ]
        if idle:
            self.group.replicas[data.draw(st.sampled_from(idle))].handle.alive = False

    @rule(data=st.data())
    def late_reply(self, data):
        replica = data.draw(st.sampled_from(self.group.replicas))
        replica.handle.stale_replies += 1
        self.stale += 1

    @rule(outcomes=st.lists(st.sampled_from(["died", "timeout", "fatal"]), max_size=3))
    def fail_next_handshakes(self, outcomes):
        script = {
            "died": WorkerDied("spawned", 1),
            "timeout": WorkerTimeout("spawned"),
            "fatal": ("fatal", "traceback"),
        }
        self.spawn.outcomes = [script[outcome] for outcome in outcomes]

    @invariant()
    def counts_are_lifetime_figures(self):
        group = self.group
        assert group.answered() == self.answered
        assert group.stale_replies() == self.stale

    @invariant()
    def budget_and_liveness(self):
        group = self.group
        assert group.restarts <= self.MAX_RESTARTS
        assert all(r.handle.stopped for r in group.replicas if r.dead)
        picked = group.pick()
        assert (picked is None) == group.dead == all(r.dead for r in group.replicas)
        assert picked is None or not group.replicas[picked].dead

    @invariant()
    def every_spawned_handle_is_held_or_stopped(self):
        assert self.spawn.leaked(self.group) == []


TestGroupMachine = GroupMachine.TestCase
TestGroupMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None, derandomize=True
)
