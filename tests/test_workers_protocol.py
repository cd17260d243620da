"""Regression tests for the tagged worker-pipe protocol.

The bug under test (pre-fix): ``WorkerHandle.recv`` raising
``WorkerTimeout`` left the worker's late reply queued in the pipe, so
the *next* request on the same handle received the **previous**
request's answer — a silent desync that poisoned every reply after it.
The fix tags every message with a monotonically increasing request id
and discards stale replies on receipt; these tests demonstrate the
desync deterministically on the raw pipe and prove the tagged protocol
is immune to it.

Also covered: the stop/recv interaction contract — any operation on a
handle closed by ``stop()`` (including a ``recv`` wait already in
flight on another thread) surfaces as ``WorkerDied``, never ``OSError``.
"""

import os
import signal
import threading
import time

import pytest

from repro.utils import workers
from repro.utils.workers import (
    HANDSHAKE_ID,
    ProtocolError,
    WorkerDied,
    WorkerHandle,
    WorkerTimeout,
    default_context,
)

pytestmark = pytest.mark.timeout(120)

#: Long enough that the host's short deadline always expires first,
#: short enough that the late reply lands inside the next wait.
LATE = 0.5
#: Host-side deadline that the LATE reply always overshoots.
DEADLINE = 0.1


def _echo_main(connection):
    """Echo worker: replies with the request's tag, after optional sleep."""
    while True:
        try:
            request_id, op, payload = connection.recv()
        except (EOFError, OSError):
            break
        if op == "shutdown":
            break
        if payload and payload.get("sleep"):
            time.sleep(payload["sleep"])
        connection.send((request_id, "ok", payload.get("tag")))
    connection.close()


def _sink_main(connection):
    """Worker that accepts requests but never answers (wedged forever)."""
    while True:
        try:
            connection.recv()
        except (EOFError, OSError):
            break


def _future_reply_then_exit_main(connection):
    """Worker that answers a request the host never issued, then dies.

    Models a host/worker code mismatch (desynced id counters) racing a
    worker death — the reply from the future must surface as
    ``ProtocolError`` even when it is only seen by the post-mortem
    drain.
    """
    connection.send((HANDSHAKE_ID, "ready", None))
    connection.send((99, "ok", "from-the-future"))
    connection.close()


def _future_reply_main(connection):
    """Worker that answers a request the host never issued, but lives on
    (the pure host/worker mismatch, no death in the picture)."""
    connection.send((HANDSHAKE_ID, "ready", None))
    connection.send((99, "ok", "from-the-future"))
    while True:
        try:
            connection.recv()
        except (EOFError, OSError):
            break


def _immortal_main(connection):
    """Worker that ignores SIGTERM and never exits on its own."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    connection.send((HANDSHAKE_ID, "ready", None))
    while True:
        time.sleep(0.05)


def _flood_main(connection):
    """Worker that floods stale replies (id 0 predates every request).

    Models a desynced/misbehaving worker streaming late answers back to
    back — the starvation scenario: each stale frame ends the host's wait
    at once, so a receive loop that short-circuits back to the wait after
    draining a stale reply never reaches its deadline (or liveness)
    check.
    """
    while True:
        try:
            connection.send((0, "ok", "stale"))
        except (BrokenPipeError, OSError):
            break


@pytest.fixture()
def echo():
    handle = WorkerHandle(default_context(), _echo_main, args=(), name="echo")
    yield handle
    handle.stop(goodbye="shutdown")


@pytest.fixture()
def sink():
    handle = WorkerHandle(default_context(), _sink_main, args=(), name="sink")
    yield handle
    handle.stop(timeout=0.2)


class TestReplyDesync:
    def test_pre_fix_desync_is_real(self, echo):
        """The raw pipe really does hold the *previous* request's answer
        after a timeout — exactly what the untagged protocol would have
        handed to the next caller."""
        rid_a = echo.post("echo", {"sleep": LATE, "tag": "A"})
        with pytest.raises(WorkerTimeout):
            echo.recv_tagged(rid_a, timeout=DEADLINE)
        rid_b = echo.post("echo", {"tag": "B"})
        # Old protocol simulation: take the next frame off the pipe,
        # id-blind.  It is A's late reply — request B's caller would
        # have been given request A's answer.
        stale_id, kind, payload = echo.connection.recv()
        assert (stale_id, kind, payload) == (rid_a, "ok", "A")
        # The tagged receive still pairs B with B.
        kind, payload = echo.recv_tagged(rid_b, timeout=5.0)
        assert (kind, payload) == ("ok", "B")

    def test_timeout_then_next_request_gets_its_own_reply(self, echo):
        """The fixed protocol end to end: after a timeout, the late
        reply is discarded by id and the next request's answer is its
        own."""
        rid_a = echo.post("echo", {"sleep": LATE, "tag": "A"})
        with pytest.raises(WorkerTimeout):
            echo.recv_tagged(rid_a, timeout=DEADLINE)
        kind, payload = echo.request("echo", {"tag": "B"}, timeout=5.0)
        assert (kind, payload) == ("ok", "B")
        # Observable proof the stale reply arrived and was dropped
        # rather than misdelivered.
        assert echo.stale_replies == 1

    def test_repeated_timeouts_stay_aligned(self, echo):
        """Several abandoned requests in a row must all be discarded."""
        for _ in range(3):
            rid = echo.post("echo", {"sleep": LATE, "tag": "late"})
            with pytest.raises(WorkerTimeout):
                echo.recv_tagged(rid, timeout=DEADLINE)
            # Space the attempts out so each late reply is queued before
            # the final request, making the discard count deterministic.
            time.sleep(LATE)
        kind, payload = echo.request("echo", {"tag": "fresh"}, timeout=5.0)
        assert payload == "fresh"
        assert echo.stale_replies == 3

    def test_request_ids_are_monotonic(self, echo):
        first = echo.post("echo", {"tag": "x"})
        second = echo.post("echo", {"tag": "y"})
        assert second == first + 1
        assert echo.recv_tagged(first, timeout=5.0) == ("ok", "x")
        assert echo.recv_tagged(second, timeout=5.0) == ("ok", "y")


class TestStaleFloodStarvation:
    """Regression: a stale reply used to ``continue`` straight back to
    the wait, skipping the liveness and deadline checks — a worker
    streaming stale replies back to back starved the timeout
    indefinitely."""

    @pytest.fixture()
    def flood(self):
        handle = WorkerHandle(
            default_context(), _flood_main, args=(), name="flood"
        )
        yield handle
        handle.stop(timeout=0.2)

    def test_deadline_fires_through_stale_flood(self, flood):
        """WorkerTimeout must fire on schedule even when every wait
        yields another stale reply (fails by hanging on the old loop)."""
        rid = flood.post("noop")
        start = time.monotonic()
        with pytest.raises(WorkerTimeout):
            flood.recv_tagged(rid, timeout=0.5)
        elapsed = time.monotonic() - start
        # The deadline, not the flood, ended the wait — and promptly.
        assert 0.4 <= elapsed < 10.0
        # The flood really was arriving the whole time (i.e. the old
        # code would never have slept).
        assert flood.stale_replies > 3

    def test_death_detected_through_stale_backlog(self, flood):
        """A worker that dies behind a backlog of stale replies must
        surface as WorkerDied/WorkerTimeout, not hang: liveness is
        checked every iteration regardless of the wait's outcome."""
        rid = flood.post("noop")
        time.sleep(0.1)  # let a backlog accumulate
        flood.process.terminate()
        with pytest.raises((WorkerDied, WorkerTimeout)):
            flood.recv_tagged(rid, timeout=2.0)


class TestStopRecvInteraction:
    def test_recv_after_stop_raises_worker_died(self, echo):
        echo.stop(goodbye="shutdown")
        with pytest.raises(WorkerDied):
            echo.recv_tagged(1, timeout=1.0)

    def test_send_after_stop_raises_worker_died(self, echo):
        echo.stop(goodbye="shutdown")
        with pytest.raises(WorkerDied):
            echo.post("echo", {"tag": "late"})

    def test_stop_during_inflight_recv_raises_worker_died(self, sink):
        """A recv wait racing ``stop()`` on another thread must
        observe the closed-handle state as WorkerDied, never an OSError
        from the concurrently closed pipe."""
        rid = sink.post("noop")
        outcomes = []

        def waiter():
            try:
                sink.recv_tagged(rid, timeout=30.0)
                outcomes.append("replied")
            except WorkerDied:
                outcomes.append("died")
            except BaseException as error:  # noqa: BLE001 - recording for assert
                outcomes.append(repr(error))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.15)  # let the waiter enter its wait
        sink.stop(timeout=0.2)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcomes == ["died"]

    def test_stop_is_idempotent(self, echo):
        echo.stop(goodbye="shutdown")
        echo.stop(goodbye="shutdown")
        assert echo.closed
        assert not echo.alive


def _first_wait_misses_the_pipe(monkeypatch, handle):
    """Make ``recv_tagged``'s first wait report only the worker's death,
    not its readable pipe.

    Reproduces the race the dead-worker drain exists for: the reply
    lands in the pipe *after* the main-loop wait returned on the death,
    so only the drain ever sees it.
    """
    wait = workers.connection_wait
    missed = []

    def first_misses(objects, timeout=None):
        ready = wait(objects, timeout)
        if not missed:
            missed.append(True)
            return [obj for obj in ready if obj is not handle.connection]
        return ready

    monkeypatch.setattr(workers, "connection_wait", first_misses)


class TestDeadWorkerDrainProtocol:
    """Regression: the post-mortem drain silently swallowed replies
    with ``reply_id > expect_id`` while the live loop raised
    ``ProtocolError`` for the same condition — a host/worker code
    mismatch could be masked by a concurrent worker death."""

    def test_drain_raises_protocol_error_for_future_reply(self, monkeypatch):
        handle = WorkerHandle(
            default_context(),
            _future_reply_then_exit_main,
            args=(),
            name="future",
        )
        try:
            assert handle.handshake(timeout=10.0) == ("ready", None)
            # The worker may already be gone, so the post's pipe write
            # can fail — but the request id was still issued, which is
            # all the receive side needs.
            try:
                rid = handle.post("noop")
            except WorkerDied:
                rid = 1
            handle.process.join(timeout=10.0)
            assert not handle.process.is_alive()
            # Force the main-loop wait to miss the pipe so only the
            # drain sees the queued future reply.
            _first_wait_misses_the_pipe(monkeypatch, handle)
            with pytest.raises(ProtocolError):
                handle.recv_tagged(rid, timeout=5.0)
        finally:
            handle.stop()

    def test_live_loop_raises_protocol_error_for_future_reply(self):
        """The condition the drain must now mirror."""
        handle = WorkerHandle(
            default_context(), _future_reply_main, args=(), name="future-live"
        )
        try:
            assert handle.handshake(timeout=10.0) == ("ready", None)
            rid = handle.post("noop")
            with pytest.raises(ProtocolError):
                handle.recv_tagged(rid, timeout=5.0)
        finally:
            handle.stop(timeout=0.2)


class TestZeroBudgetDeadline:
    """Regression: an expired or zero ``timeout`` used to pay a full
    poll interval (then an option, 20 ms by default) before the (strict
    ``>``) deadline check ran, so deadline-propagated requests with tiny
    remaining budgets over-waited by up to that interval per hop.  The
    wait now has no interval: it ends on a reply, a death or the
    deadline."""

    @pytest.fixture()
    def slowpoll(self):
        """Echo worker whose replies the tests delay by seconds, so any
        over-wait is unmistakable against timer noise."""
        handle = WorkerHandle(
            default_context(),
            _echo_main,
            args=(),
            name="echo-slowpoll",
        )
        yield handle
        handle.stop(goodbye="shutdown", timeout=0.2)

    def test_timeout_zero_raises_immediately(self, slowpoll):
        rid = slowpoll.post("echo", {"sleep": 5.0, "tag": "never"})
        start = time.monotonic()
        with pytest.raises(WorkerTimeout):
            slowpoll.recv_tagged(rid, timeout=0)
        elapsed = time.monotonic() - start
        # Pre-fix this waited a whole poll interval.
        assert elapsed < 0.2

    def test_timeout_zero_sheds_even_when_reply_is_queued(self, slowpoll):
        """A spent budget is shed without serving — the reply stays
        queued for a caller that still has budget (pinned semantics the
        front door's expired-SLO shed relies on)."""
        rid = slowpoll.post("echo", {"tag": "queued"})
        time.sleep(0.3)  # let the reply land in the pipe
        with pytest.raises(WorkerTimeout):
            slowpoll.recv_tagged(rid, timeout=0)
        assert slowpoll.recv_tagged(rid, timeout=5.0) == ("ok", "queued")

    def test_small_budget_is_not_rounded_up_to_poll_interval(self, slowpoll):
        rid = slowpoll.post("echo", {"sleep": 5.0, "tag": "never"})
        start = time.monotonic()
        with pytest.raises(WorkerTimeout):
            slowpoll.recv_tagged(rid, timeout=0.1)
        elapsed = time.monotonic() - start
        # The wait lasts the remaining budget: ~0.1 s, not a whole poll
        # interval rounded up.
        assert 0.08 <= elapsed < 0.4

    def test_positive_timeout_still_returns_replies(self, slowpoll):
        kind, payload = slowpoll.request("echo", {"tag": "fine"}, timeout=5.0)
        assert (kind, payload) == ("ok", "fine")


class TestStopKillEscalation:
    """Regression: ``stop()`` stopped escalating at SIGTERM, so a
    worker ignoring it (or stuck uninterruptible) leaked past
    shutdown."""

    def test_sigterm_ignoring_worker_is_killed(self):
        handle = WorkerHandle(
            default_context(), _immortal_main, args=(), name="immortal"
        )
        # Wait for the handshake so SIG_IGN is definitely installed.
        assert handle.handshake(timeout=10.0) == ("ready", None)
        pid = handle.process.pid
        handle.stop(timeout=0.2)
        assert handle.closed
        # The process must actually be gone (SIGKILL escalation), not
        # merely abandoned while still running.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        else:
            os.kill(pid, signal.SIGKILL)  # clean up the leak, then fail
            pytest.fail("SIGTERM-ignoring worker survived stop()")
