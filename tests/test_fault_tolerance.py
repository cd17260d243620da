"""Fault-injection matrix for the supervised parallel serving fleet.

Every injected fault kind (kill, delay-past-deadline, wedge, raise) is
driven through both record ops the fleet serves (``forward_streaming``
and ``top_k``) and must end in one of exactly two states:

* **bit-identical recovery** — the respawned/retried fleet answers the
  same bits as the sequential ``ShardedClassifier``, or
* **a well-formed degraded result** — a ``DegradedOutput`` whose
  missing-range report is accurate and whose surviving entries equal
  the sequential backend's.

Faults come from :mod:`repro.utils.faults` and trigger on exact request
counts, so every scenario here is deterministic (no real OOM kills, no
races on "did the signal land in time").
"""

import numpy as np
import pytest

from repro.core import ScreeningConfig
from repro.core.pipeline import DegradedOutput
from repro.data import make_task
from repro.distributed import (
    ShardedClassifier,
    WorkerDied,
    WorkerError,
    merge_streamed_outputs,
    reduce_top_k,
)
from repro.obs import Recorder
from repro.utils.faults import FaultSpec

pytestmark = pytest.mark.timeout(300)

NUM_CATEGORIES = 300
HIDDEN_DIM = 32
BATCH = 8
BACKENDS = ("forward_streaming", "top_k")
#: The ``k`` every ``top_k`` call of the matrix ranks.
K = 5

#: Supervision knobs tuned for test speed: near-instant backoff, and a
#: deadline/delay pair with wide margins on both sides (the late reply
#: must overshoot the first deadline and land inside the retry's).
FAST = dict(restart_backoff=0.01, restart_backoff_cap=0.05)
DEADLINE = 0.5
# Past the first deadline but safely inside the retry's window.  The
# delayed reply lands at ~LATE; the retry waits over [DEADLINE,
# 2*DEADLINE], so LATE sits 0.2s clear of both edges — recv_tagged now
# honors deadlines exactly (no poll-interval overshoot to hide in).
LATE = 0.8


@pytest.fixture(scope="module")
def task():
    return make_task(num_categories=NUM_CATEGORIES, hidden_dim=HIDDEN_DIM, rng=40)


@pytest.fixture(scope="module")
def model(task):
    sharded = ShardedClassifier(
        task.classifier, num_shards=2, config=ScreeningConfig(projection_dim=8)
    )
    sharded.train(task.sample_features(128, rng=41), candidates_per_shard=8, rng=42)
    return sharded


@pytest.fixture(scope="module")
def features(task):
    return task.sample_features(BATCH, rng=43)


@pytest.fixture(scope="module")
def expected(model, features):
    return {backend: run_backend(model, backend, features) for backend in BACKENDS}


def run_backend(engine_or_model, backend, features):
    if backend == "top_k":
        return engine_or_model.top_k(features, K)
    return getattr(engine_or_model, backend)(features)


def assert_same_result(backend, actual, reference):
    if backend == "top_k":
        for mine, theirs in zip(actual, reference):
            assert np.array_equal(mine, theirs)
        return
    assert np.array_equal(actual.exact_values, reference.exact_values)
    assert np.array_equal(actual.approximate_values, reference.approximate_values)
    for mine, theirs in zip(actual.candidates, reference.candidates):
        assert np.array_equal(mine, theirs)


def assert_backend_identical(backend, actual, reference):
    """Bitwise equality of a full (non-degraded) backend result."""
    assert not isinstance(actual, DegradedOutput)
    assert_same_result(backend, actual, reference)


def expected_degraded(model, features, backend, failed_shard):
    """What the degraded merge must equal: the sequential shards'
    outputs, the failed shard's left out."""
    if backend == "top_k":
        indices, scores = [], []
        for shard_id, (shard, shard_range) in enumerate(zip(model.shards, model.ranges)):
            if shard_id != failed_shard:
                shard_indices, shard_scores = shard.top_k(features, K)
                indices.append(shard_indices + shard_range.start)
                scores.append(shard_scores)
        return reduce_top_k(indices, scores, K)
    outputs = [
        None if shard_id == failed_shard else shard.forward_streaming(features)
        for shard_id, shard in enumerate(model.shards)
    ]
    return merge_streamed_outputs(outputs, model.ranges)


def assert_degraded_result(model, backend, actual, reference, failed_shard):
    """The degraded contract: accurate missing-range report + surviving
    entries identical to the sequential backend."""
    assert isinstance(actual, DegradedOutput)
    assert actual.missing_ranges == (model.ranges[failed_shard],)
    assert actual.missing_categories == len(model.ranges[failed_shard])
    assert 0.0 < actual.available_fraction < 1.0
    assert {f.shard_id for f in actual.failures} == {failed_shard}
    assert_same_result(backend, actual.result, reference)
    missing = model.ranges[failed_shard]
    columns = (
        actual.result[0] if backend == "top_k" else actual.result.candidates.flat()[1]
    )
    assert not np.any((columns >= missing.start) & (columns < missing.stop))


@pytest.mark.parametrize("backend", BACKENDS)
class TestFaultMatrix:
    def test_kill_respawns_bit_identical(self, model, features, expected, backend):
        """Kill on the 2nd request: the supervisor respawns the worker
        from the shared segments and the request completes with the
        sequential backend's exact bits."""
        faults = {1: [FaultSpec(kind="kill", at_request=2)]}
        with model.parallel(faults=faults, **FAST) as engine:
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )
            # The fault fires here; recovery is invisible to the caller.
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )
            assert engine.restarts[1] == 1
            assert not engine.closed
            # Bit-identity reasserted on the respawned fleet.
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )

    def test_delay_past_deadline_recovers_via_retry(
        self, model, features, expected, backend
    ):
        """Delay beyond the request deadline: the first wait times out,
        the re-issued request is answered, and the late reply to the
        abandoned id is discarded instead of poisoning the pipe."""
        faults = {0: [FaultSpec(kind="delay", at_request=1, seconds=LATE)]}
        with model.parallel(
            request_timeout=DEADLINE, request_retries=1, faults=faults, **FAST
        ) as engine:
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )
            assert engine.workers[0].stale_replies == 1
            assert engine.restarts[0] == 0  # retry sufficed; no respawn
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )

    def test_wedge_recovers_when_budget_allows(
        self, model, features, expected, backend
    ):
        """A one-off wedge: every retry times out, the worker is killed
        and replaced, and the request still completes bit-identically
        on the replacement."""
        faults = {1: [FaultSpec(kind="wedge", at_request=1)]}
        with model.parallel(
            request_timeout=DEADLINE, request_retries=0, faults=faults, **FAST
        ) as engine:
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )
            assert engine.restarts[1] == 1

    def test_wedge_exhausting_budget_degrades(self, model, features, backend):
        """A persistent wedge burns the restart budget; in degraded mode
        the fleet answers from the surviving shard with an accurate
        missing-range report — and keeps doing so on later requests."""
        faults = {1: [FaultSpec(kind="wedge", at_request=1, persistent=True)]}
        reference = expected_degraded(model, features, backend, failed_shard=1)
        with model.parallel(
            request_timeout=DEADLINE,
            request_retries=0,
            max_restarts=1,
            degraded=True,
            faults=faults,
            **FAST,
        ) as engine:
            actual = run_backend(engine, backend, features)
            assert_degraded_result(model, backend, actual, reference, failed_shard=1)
            assert engine.dead_shards == [1]
            # Subsequent requests skip the dead shard immediately.
            again = run_backend(engine, backend, features)
            assert_degraded_result(model, backend, again, reference, failed_shard=1)
            assert not engine.closed

    def test_raise_failfast_then_serves(self, model, features, expected, backend):
        """A request-scoped exception raises WorkerError (fail-fast
        mode); the worker survives and the next request is exact."""
        faults = {0: [FaultSpec(kind="raise", at_request=1)]}
        with model.parallel(faults=faults, **FAST) as engine:
            with pytest.raises(WorkerError, match="InjectedFault"):
                run_backend(engine, backend, features)
            assert not engine.closed
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )

    def test_raise_degrades_with_error_report(self, model, features, backend):
        faults = {0: [FaultSpec(kind="raise", at_request=1)]}
        reference = expected_degraded(model, features, backend, failed_shard=0)
        with model.parallel(degraded=True, faults=faults, **FAST) as engine:
            actual = run_backend(engine, backend, features)
            assert_degraded_result(model, backend, actual, reference, failed_shard=0)
            assert actual.failures[0].kind == "error"
            assert "InjectedFault" in actual.failures[0].detail

    def test_kill_degrades_when_budget_exhausted(self, model, features, backend):
        """A worker that dies on every incarnation's first request:
        bounded restarts stop the crash loop, degraded mode reports the
        missing range instead of raising."""
        faults = {0: [FaultSpec(kind="kill", at_request=1, persistent=True)]}
        reference = expected_degraded(model, features, backend, failed_shard=0)
        with model.parallel(
            max_restarts=1, degraded=True, faults=faults, **FAST
        ) as engine:
            actual = run_backend(engine, backend, features)
            assert_degraded_result(model, backend, actual, reference, failed_shard=0)
            assert actual.failures[0].kind == "died"
            assert engine.restarts[0] == 1


class TestSupervisionPolicy:
    def test_crash_loop_exhausts_budget_and_raises_failfast(self, model, features):
        """Fail-fast mode preserves the original contract once the
        restart budget is spent: close everything, raise WorkerDied."""
        faults = {0: [FaultSpec(kind="kill", at_request=1, persistent=True)]}
        engine = model.parallel(max_restarts=2, faults=faults, **FAST)
        try:
            with pytest.raises(WorkerDied):
                engine.forward_streaming(features)
            assert engine.restarts[0] == 2
            assert engine.closed
        finally:
            engine.close()

    def test_zero_restarts_is_failfast(self, model, features):
        faults = {0: [FaultSpec(kind="kill", at_request=1)]}
        engine = model.parallel(max_restarts=0, faults=faults)
        try:
            with pytest.raises(WorkerDied):
                engine.forward_streaming(features)
            assert engine.closed
        finally:
            engine.close()

    def test_top_k_degrades_over_survivors(self, model, features):
        faults = {0: [FaultSpec(kind="kill", at_request=1, persistent=True)]}
        with model.parallel(
            max_restarts=0, degraded=True, faults=faults, **FAST
        ) as engine:
            result = engine.top_k(features, k=5)
            assert isinstance(result, DegradedOutput)
            indices, scores = result.result
            assert indices.shape == (BATCH, 5)
            surviving = model.ranges[1]
            assert np.all((indices >= surviving.start) & (indices < surviving.stop))
            # Survivor scores are the sequential shard's exact bits.
            shard_out = model.shards[1].forward(features)
            rows = np.arange(BATCH)[:, None]
            assert np.array_equal(
                scores, np.sort(shard_out.logits, axis=1)[:, ::-1][:, :5]
            )

    def test_predict_marks_unscored_rows(self, model, features):
        """With every shard down, predict returns -1 (no surviving
        scores) instead of crashing on an all-NaN argmax."""
        faults = {
            0: [FaultSpec(kind="kill", at_request=1, persistent=True)],
            1: [FaultSpec(kind="kill", at_request=1, persistent=True)],
        }
        with model.parallel(
            max_restarts=0, degraded=True, faults=faults, **FAST
        ) as engine:
            assert np.array_equal(
                engine.predict(features), np.full(BATCH, -1, dtype=np.intp)
            )

    def test_predict_over_survivors_is_their_argmax(self, model, features):
        """With one shard down, predict is the argmax over the columns
        that answered (lowest index among ties) — and on a healthy
        engine the argmax of the merged plane."""
        faults = {0: [FaultSpec(kind="kill", at_request=2, persistent=True)]}
        with model.parallel(
            max_restarts=0, degraded=True, faults=faults, **FAST
        ) as engine:
            assert np.array_equal(
                engine.predict(features),
                np.argmax(model.forward(features).logits, axis=1),
            )
            surviving = model.shards[1].forward(features).logits
            assert np.array_equal(
                engine.predict(features),
                model.ranges[1].start + np.argmax(surviving, axis=1),
            )
            assert engine.degraded_requests == 1

    def test_respawn_preserves_io_regrowth(self, model, task):
        """A respawned worker attaches the *current* I/O layout lazily,
        including planes regrown after its predecessor died."""
        small = task.sample_features(3, rng=44)
        large = task.sample_features(20, rng=45)
        with model.parallel(max_batch=4, **FAST) as engine:
            engine.forward_streaming(small)
            engine.workers[0].process.kill()
            actual = engine.forward_streaming(large)  # respawn + regrow in one request
            assert engine.restarts[0] == 1
            assert_backend_identical(
                "forward_streaming", actual, model.forward_streaming(large)
            )

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="explode", at_request=1)
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(kind="kill", at_request=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec(kind="delay", at_request=1, seconds=-1.0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestReplicaGroupFaults:
    """The replica extension of the matrix: a shard with a sibling
    replica must keep serving *full* (non-degraded) output through any
    single-replica fault, and only degrade when the whole group dies."""

    def test_replica_kill_fails_over_to_sibling(
        self, model, features, expected, backend
    ):
        """Kill replica 0 of shard 1 with no restart budget: dispatch
        fails over to replica 1 inside the same request and the output
        is the sequential backend's exact bits."""
        faults = {(1, 0): [FaultSpec(kind="kill", at_request=1)]}
        with model.parallel(
            replicas={1: 2}, max_restarts=0, faults=faults, **FAST
        ) as engine:
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )
            assert engine.failovers == 1
            assert engine.dead_shards == []
            assert engine.restarts[1] == 0
            stats = engine.stats()
            assert stats["failovers"] == 1
            shard_stats = stats["shards"][1]
            assert shard_stats["replicas"] == 2
            assert [w["dead"] for w in shard_stats["replica_workers"]] == [
                True,
                False,
            ]
            # The survivor keeps answering without further recovery.
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )
            assert engine.failovers == 1

    def test_replica_wedge_fails_over_to_sibling(
        self, model, features, expected, backend
    ):
        """A wedged replica times out, burns its (zero) budget share
        and the request completes on the sibling — full output, no
        degradation, no caller-visible latency cliff beyond the one
        deadline."""
        faults = {(1, 0): [FaultSpec(kind="wedge", at_request=1)]}
        with model.parallel(
            replicas={1: 2},
            request_timeout=DEADLINE,
            request_retries=0,
            max_restarts=0,
            faults=faults,
            **FAST,
        ) as engine:
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )
            assert engine.failovers == 1
            assert engine.dead_shards == []

    def test_replica_kill_respawns_within_budget(
        self, model, features, expected, backend
    ):
        """With budget left the killed replica is respawned in place
        (no failover) and the group returns to full strength."""
        faults = {(1, 0): [FaultSpec(kind="kill", at_request=1)]}
        with model.parallel(replicas={1: 2}, faults=faults, **FAST) as engine:
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )
            assert engine.restarts[1] == 1
            assert engine.failovers == 0
            group = engine.replica_groups[1]
            assert [r.dead for r in group.replicas] == [False, False]
            assert_backend_identical(
                backend, run_backend(engine, backend, features), expected[backend]
            )

    def test_whole_group_dead_degrades_with_accurate_report(
        self, model, features, backend
    ):
        """Persistent kills on every replica of shard 0: the group dies
        shard-wide and the degraded report names exactly shard 0's
        category range."""
        faults = {
            (0, 0): [FaultSpec(kind="kill", at_request=1, persistent=True)],
            (0, 1): [FaultSpec(kind="kill", at_request=1, persistent=True)],
        }
        reference = expected_degraded(model, features, backend, failed_shard=0)
        with model.parallel(
            replicas={0: 2}, max_restarts=1, degraded=True, faults=faults, **FAST
        ) as engine:
            actual = run_backend(engine, backend, features)
            assert_degraded_result(model, backend, actual, reference, failed_shard=0)
            assert engine.dead_shards == [0]
            # Later requests skip the dead group immediately.
            again = run_backend(engine, backend, features)
            assert_degraded_result(model, backend, again, reference, failed_shard=0)
            assert not engine.closed


class TestReplicaConfiguration:
    def test_replica_fault_key_validation(self, model):
        with pytest.raises(ValueError, match="unknown shard 9"):
            model.parallel(faults={9: [FaultSpec(kind="kill", at_request=1)]})
        with pytest.raises(ValueError, match="replica 1 but shard 0 runs 1"):
            model.parallel(faults={(0, 1): [FaultSpec(kind="kill", at_request=1)]})
        with pytest.raises(ValueError, match="unknown shards"):
            model.parallel(replicas={7: 2})
        with pytest.raises(ValueError, match=">= 1 replica"):
            model.parallel(replicas={0: 0})

    def test_answered_counts_reconcile(self, model, features):
        """Sum of per-replica answered counts equals the engine's
        request count for every healthy shard — the stats() invariant
        the benchmark's reconciliation check relies on."""
        with model.parallel(replicas=2, **FAST) as engine:
            for _ in range(4):
                engine.forward_streaming(features)
            stats = engine.stats()
            assert stats["requests"] == 4
            assert stats["replica_counts"] == [2, 2]
            for shard_stats in stats["shards"]:
                assert shard_stats["answered"] == 4
                served = [w["served"] for w in shard_stats["replica_workers"]]
                assert sum(served) == 4
                assert sorted(served) == [2, 2]  # least-loaded spread


class TestElasticSupervision:
    """Supervision fixes: per-incident respawn backoff and
    dispatch-count replica picking."""

    def test_respawn_backoff_resets_per_incident(self, model, features, expected):
        """Two separate crash incidents each start at the *base*
        backoff.  The old policy used the shard-lifetime restart count
        as the exponent, so a crash after a long healthy stretch
        inherited an escalated delay from incidents long resolved."""
        recorder = Recorder()
        faults = {0: [FaultSpec(kind="kill", at_request=1)]}
        with model.parallel(faults=faults, recorder=recorder, **FAST) as engine:
            # Incident 1: the injected kill; the respawned worker
            # serves the retried request bit-identically.
            assert_backend_identical(
                "forward_streaming",
                engine.forward_streaming(features),
                expected["forward_streaming"],
            )
            assert engine.restarts[0] == 1
            # Incident 2, much later in worker-lifetime terms: kill the
            # *respawned* process by hand.
            engine.workers[0].process.kill()
            assert_backend_identical(
                "forward_streaming",
                engine.forward_streaming(features),
                expected["forward_streaming"],
            )
            assert engine.restarts[0] == 2
        backoffs = recorder.snapshot()["histograms"]["parallel.respawn_backoff_s"]
        assert backoffs["count"] == 2
        # Both first attempts sleep the base backoff.  The lifetime-
        # exponent bug made the second incident sleep 2x the base
        # (sum == 3 * base instead of 2 * base).
        assert backoffs["sum"] == pytest.approx(2 * FAST["restart_backoff"])

    def test_pick_charges_dispatches_not_answers(self, model, features, expected):
        """A replica sitting on a timing-out request must not stay
        "least loaded".  Picking by answered count did exactly that —
        the delayed replica never answered, so it attracted every new
        request.  Dispatch-count picking charges the work when it is
        handed out."""
        faults = {
            (0, 0): [
                FaultSpec(kind="delay", at_request=1, seconds=LATE),
                FaultSpec(kind="delay", at_request=3, seconds=LATE),
            ]
        }
        with model.parallel(
            replicas={0: 2},
            request_timeout=DEADLINE,
            request_retries=1,
            max_restarts=0,
            faults=faults,
            **FAST,
        ) as engine:
            for _ in range(6):
                assert_backend_identical(
                    "forward_streaming",
                    engine.forward_streaming(features),
                    expected["forward_streaming"],
                )
            assert engine.dead_shards == []
            group = engine.replica_groups[0]
            # Dispatch-count picking routes around the delayed replica:
            # the healthy sibling ends up answering most requests.
            # Answer-count picking converges to an even [3, 3] split
            # because the delayed replica always looks least loaded.
            assert [r.served for r in group.replicas] == [2, 4]
