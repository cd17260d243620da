"""Contract tests for the serving front door.

The load-bearing claim — putting the front door between a caller and an
engine changes *scheduling*, never *answers* — is asserted by
``tests/test_matrix.py``: it replays the micro-batches the front door
formed (via the ``batch_id``/``batch_index`` metadata in every reply)
against the backend, on every backend, with the result cache off and on;
the single-node and sharded backends, op by op, are named
configurations of it below.

Covered here: the backend protocol, the size-or-deadline flush policy,
admission control (typed ``QueueFullError``, engine outputs unaffected
by overload), SLO deadlines (expired requests are shed, never served
late; budgets narrow the backend's supervision deadline and the default
is restored), and lifecycle (drain on close, typed error after close, a
cancelled request dropped and counted).
"""

import threading
import time

import numpy as np
import pytest

from conftest import HIDDEN_DIM, M
from contracts import check_configuration, check_door
from repro.core.candidates import CandidateSet
from repro.core.pipeline import StreamedOutput
from repro.serving import (
    DeadlineExceededError,
    EngineBackend,
    FrontDoor,
    FrontDoorClosedError,
    FrontDoorError,
    InvalidRequestError,
    QueueFullError,
    is_engine_backend,
    propagates_deadlines,
)

pytestmark = pytest.mark.timeout(600)

@pytest.fixture(scope="module")
def single_node(zoo):
    return zoo[("single", "trained", "top_m", "fp64")]


@pytest.fixture(scope="module")
def sharded(zoo):
    return zoo[("u2", "trained", "top_m", "fp64")]


@pytest.fixture(scope="module")
def request_rows(zoo):
    return zoo.features[:24]


class TestEngineBackendProtocol:
    def test_all_three_backends_satisfy_the_protocol(self, single_node, sharded):
        assert is_engine_backend(single_node)
        assert is_engine_backend(sharded)
        with sharded.parallel() as engine:
            assert is_engine_backend(engine)
            assert propagates_deadlines(engine)

    def test_in_process_backends_do_not_claim_deadline_support(
        self, single_node, sharded
    ):
        assert not propagates_deadlines(single_node)
        assert not propagates_deadlines(sharded)

    def test_protocol_rejects_non_backends(self):
        assert not isinstance(object(), EngineBackend)


class TestDifferentialBitIdentity:
    """Front-door replies are bit-identical to direct backend calls on
    the same micro-batches."""

    @pytest.fixture(params=["single_node", "sharded"])
    def backend(self, request):
        return request.getfixturevalue(request.param)

    def test_streaming_rows_match_direct_call(self, backend, request_rows):
        check_door(backend, request_rows, None, M, cache=None, ops=("forward_streaming",))

    def test_top_k_and_predict_rows_match_direct_call(self, backend, request_rows):
        check_door(backend, request_rows, None, 7, cache=None, ops=("top_k", "predict"))

    def test_unit_batches_match_direct_single_row_calls(self, backend, request_rows):
        """``max_batch=1`` disables coalescing: each reply must equal a
        direct one-row backend call exactly (same shapes in, same bits
        out)."""
        check_door(backend, request_rows[:6], None, M, cache=None, max_batch=1)


class TestParallelBackendThroughTheDoor:
    def test_parallel_replies_match_sequential_backend(self, zoo, engines):
        """The fleet's replies through the door are its direct replies,
        and those the sequential model's; the supervision timeout is
        restored after every batch."""
        check_configuration(zoo, engines, ("u2", "trained", "top_m", "fp64"), rows=12)


class _RecordingBackend:
    """An EngineBackend stub that records the ``request_timeout`` in
    effect at each dispatch (what a supervised fleet would see)."""

    def __init__(self, num_categories=8, hidden_dim=4):
        self._num_categories = num_categories
        self._hidden_dim = hidden_dim
        self.request_timeout = 30.0
        self.seen_timeouts = []

    @property
    def num_categories(self):
        return self._num_categories

    @property
    def hidden_dim(self):
        return self._hidden_dim

    def forward_streaming(self, features, block_categories=None):
        self.seen_timeouts.append(self.request_timeout)
        candidates = CandidateSet(
            indices=[np.arange(2, dtype=np.intp) for _ in range(features.shape[0])]
        )
        values = np.zeros(2 * features.shape[0])
        return StreamedOutput(candidates, values, values.copy(), self._num_categories)

    def top_k(self, features, k):
        self.seen_timeouts.append(self.request_timeout)
        indices = np.zeros((features.shape[0], k), dtype=np.intp)
        return indices, np.zeros(indices.shape)

    def predict(self, features):
        self.seen_timeouts.append(self.request_timeout)
        return np.zeros(features.shape[0], dtype=np.intp)

    def close(self):
        pass


class _GatedBackend(_RecordingBackend):
    """Blocks every dispatch until the test releases the gate — lets a
    test hold the batcher busy while more requests queue up."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.dispatching = threading.Event()

    def forward_streaming(self, features, block_categories=None):
        self.dispatching.set()
        assert self.gate.wait(timeout=60), "test never released the gate"
        return super().forward_streaming(features, block_categories)


class TestDeadlinePropagation:
    def test_recording_stub_satisfies_protocol(self):
        assert is_engine_backend(_RecordingBackend())
        assert propagates_deadlines(_RecordingBackend())

    def test_slo_narrows_supervision_deadline_and_restores_default(self):
        backend = _RecordingBackend()
        row = np.zeros(backend.hidden_dim)
        with FrontDoor(backend, max_batch=1, flush_window_s=0.0) as door:
            door.call(row, slo_s=0.5, timeout=30)
            door.call(row, timeout=30)  # no SLO: fleet default applies
        assert len(backend.seen_timeouts) == 2
        assert 0.0 < backend.seen_timeouts[0] <= 0.5
        assert backend.seen_timeouts[1] == 30.0
        assert backend.request_timeout == 30.0

    def test_slo_never_widens_a_tighter_fleet_default(self):
        backend = _RecordingBackend()
        backend.request_timeout = 0.25  # fleet default tighter than SLO
        row = np.zeros(backend.hidden_dim)
        with FrontDoor(backend, max_batch=1, flush_window_s=0.0) as door:
            door.call(row, slo_s=500.0, timeout=30)
        assert backend.seen_timeouts[0] <= 0.25
        assert backend.request_timeout == 0.25

    def test_exhausted_slo_is_shed_not_served_late(self):
        """A request whose budget expires while it queues behind a slow
        dispatch is shed with a typed error; the backend never sees it."""
        backend = _GatedBackend()
        row = np.zeros(backend.hidden_dim)
        with FrontDoor(backend, max_batch=1, flush_window_s=0.0) as door:
            first = door.submit(row)  # occupies the batcher at the gate
            assert backend.dispatching.wait(timeout=30)
            late = door.submit(row, slo_s=0.005)  # expires while queued
            time.sleep(0.05)
            backend.gate.set()
            assert first.result(timeout=30).batch_size == 1
            with pytest.raises(DeadlineExceededError):
                late.result(timeout=30)
        assert len(backend.seen_timeouts) == 1  # late request never dispatched
        assert door.stats()["shed_deadline"] == 1

    def test_tight_slo_behind_incompatible_head_pulls_the_batcher_awake(self):
        """The wake-up must fold deadlines across the WHOLE queue.  A
        tight-SLO request queued behind an incompatible no-SLO head
        used to wait out the head's full flush window (the fold only
        covered the head-compatible prefix) and be shed long after its
        budget expired.  Now the deadline pulls the flush forward: the
        head is served early and the tight request is settled around
        its deadline, both well inside the window."""
        backend = _RecordingBackend()
        row = np.zeros(backend.hidden_dim)
        with FrontDoor(backend, max_batch=4, flush_window_s=0.6) as door:
            start = time.monotonic()
            head = door.submit(row)  # no SLO; window alone says t+0.6
            tight = door.submit(row, "top_k", k=2, slo_s=0.1)
            reply = head.result(timeout=30)
            head_latency = time.monotonic() - start
            with pytest.raises(DeadlineExceededError):
                tight.result(timeout=30)
            tight_latency = time.monotonic() - start
        assert reply.batch_size == 1
        # Both settle around the 0.1s deadline, nowhere near the 0.6s
        # window the old prefix-only fold slept through.
        assert head_latency < 0.4
        assert tight_latency < 0.4
        assert door.stats()["shed_deadline"] == 1
        assert door.stats()["flush_on_deadline"] >= 1

    def test_zero_budget_is_always_shed(self):
        backend = _RecordingBackend()
        with FrontDoor(backend, max_batch=1, flush_window_s=0.0) as door:
            with pytest.raises(DeadlineExceededError):
                door.call(np.zeros(backend.hidden_dim), slo_s=0.0, timeout=30)
        assert backend.seen_timeouts == []


class TestAdmissionControl:
    def test_overflow_is_shed_with_typed_error_and_queued_work_unaffected(
        self, single_node, request_rows
    ):
        """Past the high-water mark ``submit`` raises ``QueueFullError``
        immediately; the requests already admitted still produce answers
        bit-identical to a direct engine call."""
        backend = _GatedBackend(hidden_dim=HIDDEN_DIM)
        door = FrontDoor(backend, max_batch=1, flush_window_s=0.0, queue_limit=3)
        try:
            blocker = door.submit(np.zeros(HIDDEN_DIM))
            assert backend.dispatching.wait(timeout=30)
            admitted = [door.submit(row) for row in request_rows[:3]]
            with pytest.raises(QueueFullError):
                door.submit(request_rows[3])
            assert door.stats()["shed_queue_full"] == 1
            backend.gate.set()
            blocker.result(timeout=30)
            for future in admitted:
                assert future.result(timeout=30).batch_size == 1
        finally:
            backend.gate.set()
            door.close()

    def test_overload_does_not_corrupt_engine_outputs(
        self, single_node, request_rows
    ):
        """Drive a real engine past its queue limit; every admitted
        reply must still match the direct call bit for bit."""
        with FrontDoor(
            single_node, max_batch=2, flush_window_s=0.0, queue_limit=4
        ) as door:
            futures, rows = [], []
            for _ in range(20):
                for row in request_rows:
                    try:
                        futures.append(door.submit(row))
                        rows.append(row)
                    except QueueFullError:
                        pass
            for row, future in zip(rows, futures):
                reply = future.result(timeout=60)
                direct = single_node.forward_streaming(row[np.newaxis, :])
                if reply.batch_size == 1:
                    assert np.array_equal(reply.value.exact_values, direct.exact_values)
                    assert np.array_equal(
                        reply.value.approximate_values, direct.approximate_values
                    )
                else:
                    # Coalesced rows are checked by the replay tests;
                    # here it is enough that every admitted request got
                    # a well-formed answer despite the overload.
                    assert reply.value.exact_values.shape == reply.value.candidates.shape


    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_row_is_rejected_at_submit_not_in_its_batch(
        self, sharded, request_rows, bad
    ):
        """One NaN/inf row used to fail every request coalesced with it
        (the top-m selector raised on the whole micro-batch).  The door
        is the boundary: the bad row raises a typed error at ``submit``
        and the good rows it would have joined are served."""
        poison = request_rows[4].copy()
        poison[3] = bad
        with FrontDoor(sharded, max_batch=8, flush_window_s=0.05) as door:
            good = [
                door.submit(row, "forward_streaming") for row in request_rows[:4]
            ]
            with pytest.raises(InvalidRequestError) as raised:
                door.submit(poison, "forward_streaming")
            assert isinstance(raised.value, FrontDoorError)
            assert isinstance(raised.value, ValueError)
            replies = [future.result(timeout=30) for future in good]
            stats = door.stats()
        assert stats["served"] == 4 and stats["dispatch_errors"] == 0
        direct = sharded.forward_streaming(request_rows[:4])
        for index, reply in enumerate(replies):
            assert np.array_equal(
                reply.value.candidates, direct.candidates.indices[index]
            )


class TestFlushPolicyAndLifecycle:
    def test_size_trigger_forms_full_batches(self, single_node, request_rows):
        with FrontDoor(single_node, max_batch=4, flush_window_s=10.0) as door:
            futures = [door.submit(row) for row in request_rows[:8]]
            replies = [future.result(timeout=30) for future in futures]
        # A 10 s window means only the size trigger can flush the first
        # two batches of 4 within the test's lifetime.
        assert {reply.batch_size for reply in replies[:8]} == {4}
        assert door.stats()["flush_on_size"] >= 2

    def test_window_trigger_serves_partial_batches(self, single_node, request_rows):
        with FrontDoor(single_node, max_batch=64, flush_window_s=0.01) as door:
            reply = door.call(request_rows[0], timeout=30)
        assert reply.batch_size == 1
        assert door.stats()["flush_on_deadline"] >= 1

    def test_mixed_ops_never_share_a_batch(self, single_node, request_rows):
        with FrontDoor(single_node, max_batch=8, flush_window_s=0.05) as door:
            futures = []
            for i, row in enumerate(request_rows[:8]):
                op = "predict" if i % 2 else "forward_streaming"
                futures.append(door.submit(row, op))
            replies = [future.result(timeout=30) for future in futures]
        for i, reply in enumerate(replies):
            partner_ids = {
                r.batch_id for j, r in enumerate(replies) if j % 2 == i % 2
            }
            other_ids = {
                r.batch_id for j, r in enumerate(replies) if j % 2 != i % 2
            }
            assert reply.batch_id in partner_ids
            assert reply.batch_id not in other_ids

    def test_close_drains_queued_requests(self, single_node, request_rows):
        door = FrontDoor(single_node, max_batch=4, flush_window_s=5.0)
        futures = [door.submit(row) for row in request_rows[:3]]
        door.close()  # drain=True: flushes the partial batch immediately
        for future in futures:
            value = future.result(timeout=1).value
            assert value.candidates.shape == value.exact_values.shape
        with pytest.raises(FrontDoorClosedError):
            door.submit(request_rows[0])

    def test_close_without_drain_sheds_queued_requests(self):
        backend = _GatedBackend()
        door = FrontDoor(backend, max_batch=1, flush_window_s=0.0)
        blocker = door.submit(np.zeros(backend.hidden_dim))
        assert backend.dispatching.wait(timeout=30)
        queued = door.submit(np.zeros(backend.hidden_dim))
        shutdown = threading.Thread(target=door.close, kwargs={"drain": False})
        shutdown.start()
        with pytest.raises(FrontDoorClosedError):
            queued.result(timeout=30)
        backend.gate.set()
        blocker.result(timeout=30)
        shutdown.join(timeout=30)
        assert not shutdown.is_alive()

    def test_cancelled_request_is_dropped_not_fatal(self):
        """A caller's ``cancel()`` on a queued future used to make the
        batcher's ``set_result`` raise, killing the batcher thread: every
        later request hung.  ``close(drain=False)`` raised the same way."""
        backend = _GatedBackend()
        door = FrontDoor(backend, max_batch=1, flush_window_s=0.0)
        row = np.zeros(backend.hidden_dim)
        blocker = door.submit(row)
        assert backend.dispatching.wait(timeout=30)
        assert door.submit(row).cancel()
        backend.gate.set()
        blocker.result(timeout=30)
        door.submit(row).result(timeout=10)

        backend.gate.clear()
        backend.dispatching.clear()
        blocker = door.submit(row)
        assert backend.dispatching.wait(timeout=30)
        assert door.submit(row).cancel()
        threading.Timer(0.05, backend.gate.set).start()
        door.close(drain=False)
        blocker.result(timeout=30)
        stats = door.stats()
        assert (stats["submitted"], stats["served"], stats["cancelled"]) == (5, 3, 2)

    def test_submit_validates_shapes_and_ops(self, single_node):
        with FrontDoor(single_node, max_batch=2, flush_window_s=0.0) as door:
            with pytest.raises(ValueError):
                door.submit(np.zeros((2, HIDDEN_DIM)))  # two rows
            with pytest.raises(ValueError):
                door.submit(np.zeros(HIDDEN_DIM + 1))  # wrong width
            with pytest.raises(ValueError):
                door.submit(np.zeros(HIDDEN_DIM), "top_k")  # k missing
            with pytest.raises(ValueError):
                door.submit(np.zeros(HIDDEN_DIM), "nonsense")
            with pytest.raises(ValueError, match="forward_streaming"):
                door.submit(np.zeros(HIDDEN_DIM), "forward")  # no dense plane
        # A NaN budget never compares expired and, folded into the
        # batch's request_timeout, switched the worker reply deadline
        # off for every request coalesced with it.
        bad_budgets = (float("nan"), float("inf"), -1.0)
        backend = _RecordingBackend()
        row = np.zeros(backend.hidden_dim)
        for bad in bad_budgets:
            with pytest.raises(ValueError):
                FrontDoor(backend, default_slo_s=bad)
        with FrontDoor(backend, max_batch=4, flush_window_s=0.05) as door:
            good = door.submit(row, slo_s=5.0)
            for bad in bad_budgets:
                with pytest.raises(InvalidRequestError):
                    door.submit(row, slo_s=bad)
                assert door.stats()["submitted"] == 1  # refused uncounted
            good.result(timeout=30)
        assert len(backend.seen_timeouts) == 1
        assert 0.0 < backend.seen_timeouts[0] <= 5.0
        assert backend.request_timeout == 30.0

    def test_queue_depth_gauge_round_trips_to_zero(self, single_node, request_rows):
        from repro.obs import Recorder

        recorder = Recorder()
        with FrontDoor(
            single_node, max_batch=4, flush_window_s=0.01, recorder=recorder
        ) as door:
            futures = [door.submit(row) for row in request_rows[:8]]
            for future in futures:
                future.result(timeout=30)
        snapshot = recorder.snapshot()
        assert snapshot["gauges"]["serving.queue_depth"] == 0.0
        assert snapshot["counters"]["serving.served"] == 8.0
        assert snapshot["histograms"]["serving.e2e_latency_s"]["count"] == 8
