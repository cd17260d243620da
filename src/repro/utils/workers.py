"""Persistent worker processes with liveness supervision.

The parallel serving engine keeps one long-lived process per shard and
talks to it over a duplex pipe.  Two failure modes matter in serving:

* a worker dying mid-request (OOM kill, segfault, operator error): a
  bare ``Connection.recv()`` would block forever, because with ``fork``
  sibling workers inherit each other's pipe write-ends and the EOF
  never arrives.  :meth:`WorkerHandle.recv_tagged` therefore waits on
  the pipe *and* the process's sentinel at once
  (``multiprocessing.connection.wait``), so a dead worker surfaces as
  :class:`WorkerDied` as soon as it exits instead of a hang;
* a worker answering *late*: if the host gives up on a request
  (:class:`WorkerTimeout`) the reply is still coming, and with an
  untagged pipe the next request on the same handle would receive the
  *previous* request's answer — a silent desync that poisons every
  reply after it.  Every message therefore carries a monotonically
  increasing request id; :meth:`WorkerHandle.recv_tagged` discards
  replies whose id predates the one it is waiting for, so a handle
  stays usable (and correct) after a timeout.

The wire protocol is ``(request_id, op, payload)`` host → worker and
``(request_id, kind, payload)`` worker → host.  Unsolicited messages
(the startup handshake) use :data:`HANDSHAKE_ID`.

Deadline semantics
------------------
``recv_tagged(..., timeout=t)`` promises a wait of **at most** ``t``
seconds (plus one recv): the remaining budget is checked *before*
every wait, each wait lasts at most the remaining budget, and a zero or
already-expired budget raises :class:`WorkerTimeout` immediately.  This
is what makes per-request SLO budgets propagated by the serving front
door (:mod:`repro.serving`) honest: a request arriving with 1 ms of
budget left costs ~1 ms per hop.  ``timeout=None`` waits indefinitely
(worker death still ends the wait).

Protocol violations — a reply id *ahead* of the host's counter, which
only a host/worker code mismatch can produce — raise
:class:`ProtocolError` on every receive path, including the drain that
runs after a worker death is observed (a concurrent death must not
mask a mismatch), and are counted in ``workers.protocol_errors``.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Tuple

import multiprocessing
from multiprocessing.connection import wait as connection_wait

from repro.obs.recorder import NULL_RECORDER

#: Request id of unsolicited worker → host messages (the startup
#: ready/fatal handshake).  Real requests count up from 1.
HANDSHAKE_ID = 0


class WorkerDied(RuntimeError):
    """A worker process exited while the host still needed it.

    Carries the worker's name and exit code (negative = killed by that
    signal number, ``None`` = still shutting down when observed).
    Also raised for any operation on a handle that was closed by
    :meth:`WorkerHandle.stop` — a stopped worker is indistinguishable
    from a dead one to callers, and must never surface as ``OSError``.
    """

    def __init__(self, name: str, exitcode: Optional[int]):
        self.worker = name
        self.exitcode = exitcode
        super().__init__(
            f"worker {name!r} died with exit code {exitcode}; "
            "the request cannot be answered by this handle"
        )


class WorkerTimeout(RuntimeError):
    """A live worker failed to answer within the request timeout.

    The handle remains usable: the late reply, if it ever arrives, is
    discarded by id on the next :meth:`WorkerHandle.recv_tagged`.
    """


class ProtocolError(RuntimeError):
    """The worker sent a reply from the future (id ahead of the host's
    counter) — only possible if host and worker code disagree."""


class WorkerHandle:
    """One supervised worker process plus its command pipe."""

    def __init__(
        self,
        ctx,
        target,
        args: tuple,
        name: str,
        recorder=NULL_RECORDER,
    ):
        self.name = name
        #: Observability sink for protocol events (``workers.*``
        #: counters); the no-op :data:`NULL_RECORDER` by default.
        self.recorder = recorder
        #: Replies discarded because their id predated the awaited one
        #: (observable evidence that a late reply arrived and was *not*
        #: misdelivered; the desync regression test asserts on it).
        self.stale_replies = 0
        self._closed = False
        self._request_id = HANDSHAKE_ID
        host_conn, worker_conn = ctx.Pipe(duplex=True)
        self.connection = host_conn
        self.process = ctx.Process(
            target=target,
            args=(worker_conn, *args),
            name=name,
            daemon=True,
        )
        self.process.start()
        # Drop the host's copy of the worker end; the worker holds the
        # only live reference now.
        worker_conn.close()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._closed and self.process.is_alive()

    @property
    def closed(self) -> bool:
        return self._closed

    def _died(self) -> WorkerDied:
        try:
            exitcode = self.process.exitcode
        except ValueError:  # process object already released by stop()
            exitcode = None
        return WorkerDied(self.name, exitcode)

    def _from_the_future(self, reply_id: int, expect_id: int) -> ProtocolError:
        """A reply id ahead of the host counter: host/worker mismatch."""
        self.recorder.increment("workers.protocol_errors")
        return ProtocolError(
            f"worker {self.name!r} answered request {reply_id} before it "
            f"was issued (awaiting {expect_id})"
        )

    def send(self, message: Any) -> None:
        """Ship a raw message; a closed handle or broken pipe means the
        worker is unreachable and raises :class:`WorkerDied`."""
        if self._closed:
            raise self._died()
        try:
            self.connection.send(message)
        except (BrokenPipeError, OSError) as error:
            raise self._died() from error

    def post(self, op: str, payload: Any = None) -> int:
        """Send one tagged request; returns its id for :meth:`recv_tagged`."""
        self._request_id += 1
        request_id = self._request_id
        self.send((request_id, op, payload))
        self.recorder.increment("workers.posted")
        return request_id

    def recv_tagged(
        self, expect_id: int, timeout: Optional[float] = None
    ) -> Tuple[str, Any]:
        """Wait for the reply tagged ``expect_id``, discarding stale ones.

        Watches the process the whole time: raises :class:`WorkerDied`
        if the process exits first (after draining any reply that raced
        with the death), :class:`WorkerTimeout` if a live worker
        exceeds ``timeout``, and :class:`WorkerDied` (never ``OSError``)
        if the handle is concurrently closed by :meth:`stop`.
        Replies with an id *older* than ``expect_id`` are late answers
        to requests the host already gave up on — they are counted in
        :attr:`stale_replies` and dropped, which is exactly what makes
        a post-timeout handle retry-safe.

        Each wait is one ``multiprocessing.connection.wait`` on the pipe
        and the process's sentinel, so a reply or a death ends it at
        once.  Liveness and the deadline are checked on **every** loop
        iteration, one reply at a time.  (An earlier shape
        ``continue``-d straight back to the wait after draining a stale
        reply, so a worker streaming stale replies starved the timeout
        forever and a dead-but-draining pipe was never detected — the
        flood regression test in ``tests/test_workers_protocol.py``
        pins this.)

        Deadline semantics (exact, relied on by deadline propagation in
        the serving front door): the remaining budget is checked
        *before* every wait and each wait lasts at most the remaining
        budget, so the total wait never exceeds ``timeout`` by more
        than the cost of one recv.  A ``timeout`` of zero (or an
        already-spent budget) raises :class:`WorkerTimeout` immediately
        — an expired request is shed, never slept on, even when its
        reply is queued.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._closed:
                raise self._died()
            wait = None
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0.0:
                    self.recorder.increment("workers.timeouts")
                    raise WorkerTimeout(
                        f"worker {self.name!r} gave no reply to request "
                        f"{expect_id} within {timeout}s"
                    )
            try:
                sentinel = self.process.sentinel
                ready = connection_wait([self.connection, sentinel], wait)
                if self.connection in ready:
                    reply = self._take_reply(expect_id)
                    if reply is not None:
                        return reply
            except (EOFError, OSError, ValueError) as error:
                # The pipe broke, or stop() closed the connection or the
                # process under the wait from another thread: either way
                # this worker is gone, never OSError or ValueError.
                self.recorder.increment("workers.deaths_observed")
                raise self._died() from error
            if sentinel in ready:
                # One last drain: the reply may have landed beside the
                # death.  The drain applies the *same* protocol rules as
                # the live loop — in particular a reply from the future
                # still raises :class:`ProtocolError`.  (It used to be
                # silently swallowed here, so a host/worker code mismatch
                # could be masked by a concurrent death; the drain
                # regression test in ``tests/test_workers_protocol.py``
                # pins the identical behaviour.)
                try:
                    while self.connection.poll(0):
                        reply = self._take_reply(expect_id)
                        if reply is not None:
                            return reply
                except (EOFError, OSError, ValueError):
                    pass
                self.recorder.increment("workers.deaths_observed")
                raise self._died()

    def _take_reply(self, expect_id: int) -> Optional[Tuple[str, Any]]:
        """Receive one reply: ``(kind, payload)`` when it is tagged
        ``expect_id``; ``None`` for a stale one, which is counted and
        dropped; :class:`ProtocolError` for one from the future."""
        reply_id, kind, payload = self.connection.recv()
        if reply_id == expect_id:
            return kind, payload
        if reply_id > expect_id:
            raise self._from_the_future(reply_id, expect_id)
        self.stale_replies += 1
        self.recorder.increment("workers.stale_replies")
        return None

    def request(
        self, op: str, payload: Any = None, timeout: Optional[float] = None
    ) -> Tuple[str, Any]:
        """Tagged round trip: post the request, await exactly its reply."""
        return self.recv_tagged(self.post(op, payload), timeout=timeout)

    def handshake(self, timeout: Optional[float] = None) -> Tuple[str, Any]:
        """Await the worker's unsolicited startup message (ready/fatal)."""
        return self.recv_tagged(HANDSHAKE_ID, timeout=timeout)

    # ------------------------------------------------------------------
    def stop(self, goodbye: Any = None, timeout: float = 2.0) -> None:
        """Shut the worker down: polite message, SIGTERM, then SIGKILL.

        Idempotent; never raises on an already-dead worker.  Marks the
        handle closed *before* touching the connection, so a concurrent
        :meth:`recv_tagged` on another thread surfaces
        :class:`WorkerDied` instead of an ``OSError`` from the closed
        pipe.

        Escalation ladder: the goodbye message, a ``join(timeout)``,
        ``terminate()`` (SIGTERM) with a second join, and finally
        ``kill()`` (SIGKILL) with a last join.  A worker stuck in a
        SIGTERM-ignoring or uninterruptible state therefore cannot leak
        past shutdown — SIGKILL is not maskable.  (The earlier shape
        stopped at SIGTERM, so a signal-ignoring worker survived
        ``stop()``; the immortal-worker regression test pins the
        escalation.)
        """
        already_closed = self._closed
        self._closed = True
        if not already_closed and goodbye is not None:
            try:
                if self.process.is_alive():
                    self.connection.send((HANDSHAKE_ID, goodbye, None))
            except (BrokenPipeError, OSError, ValueError):
                pass
        try:
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout)
        except ValueError:
            pass  # process object already released
        try:
            self.connection.close()
        except OSError:
            pass
        # Release the process bookkeeping (Python >= 3.7).
        try:
            self.process.close()
        except ValueError:
            pass


def default_context() -> "multiprocessing.context.BaseContext":
    """The preferred start method for serving workers.

    ``fork`` starts in milliseconds and inherits ``sys.path``, which is
    what a serving host wants for per-model worker fleets; platforms
    without it (Windows, macOS defaults notwithstanding) fall back to
    ``spawn``.  Engines accept an explicit ``start_method`` to override.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")
