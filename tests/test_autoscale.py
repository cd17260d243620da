"""Elastic replica scaling: policy, mechanics, and the bit-identity bar.

Three layers, tested separately and then end to end:

* the pure load math in :mod:`repro.distributed.sharding`
  (``normalize_loads`` / ``load_drift`` / ``suggest_replicas_for_loads``
  and the ``ShardPlan`` views over them);
* the :class:`~repro.distributed.autoscale.AutoScaler` policy — replan
  on drift, single latency steps, budget and per-shard caps, dead-shard
  exclusion — driven with hand-built signals (no processes);
* the engine mechanics (``scale_up`` / ``scale_down`` /
  ``autoscale_tick``) and the acceptance bar itself: under a
  deterministic drifting Zipf mix, an autoscaling fleet must answer
  ``forward`` / ``top_k`` / ``predict`` **bit-identically** to a static
  fleet while recording at least one scale-up and one re-plan.
  Scaling moves placement, never bits.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import ScreeningConfig
from repro.core.candidates import CandidateSelector
from repro.data import make_task
from repro.distributed import (
    AutoScaler,
    ScaleDecision,
    ShardPlan,
    ShardSignal,
    ShardedClassifier,
    load_drift,
    normalize_loads,
    suggest_replicas_for_loads,
)
from repro.distributed import parallel
from repro.serving import DriftingZipfianMix, FrontDoor, supports_autoscaling
from repro.utils.workers import WorkerTimeout

pytestmark = pytest.mark.timeout(600)

NUM_CATEGORIES = 240
HIDDEN_DIM = 24
CANDIDATES_PER_SHARD = 8


@pytest.fixture(scope="module")
def task():
    return make_task(num_categories=NUM_CATEGORIES, hidden_dim=HIDDEN_DIM, rng=50)


@pytest.fixture(scope="module")
def model(task):
    """Two shards with *threshold* candidate selectors.

    Threshold selection is what makes load drift observable: per-shard
    exact-phase work tracks how many candidates each shard's stripe
    produces under the query mix, instead of being pinned to a fixed
    top-m per shard.
    """
    sharded = ShardedClassifier(
        task.classifier, num_shards=2, config=ScreeningConfig(projection_dim=8)
    )
    sharded.train(
        task.sample_features(128, rng=51),
        candidates_per_shard=CANDIDATES_PER_SHARD,
        rng=52,
    )
    calibration = task.sample_features(64, rng=53)
    for shard in sharded.shards:
        selector = CandidateSelector(
            mode="threshold", num_candidates=CANDIDATES_PER_SHARD
        )
        selector.calibrate(shard.screener.approximate_logits(calibration))
        shard.selector = selector
    return sharded


@pytest.fixture(scope="module")
def features(task):
    return task.sample_features(6, rng=54)


def signal(shard_id, *, replicas=1, work=1.0, answered=10,
           latency=float("nan"), dead=False):
    return ShardSignal(
        shard_id=shard_id,
        replicas=replicas,
        observed_work=work,
        answered=answered,
        mean_latency_s=latency,
        dead=dead,
    )


# ----------------------------------------------------------------------
# Load math
# ----------------------------------------------------------------------


class TestLoadHelpers:
    def test_normalize_loads_fractions(self):
        assert normalize_loads([2.0, 1.0, 1.0]) == (0.5, 0.25, 0.25)

    def test_normalize_zero_mass_degrades_to_uniform(self):
        assert normalize_loads([0.0, 0.0]) == (0.5, 0.5)

    def test_normalize_rejects_bad_loads(self):
        with pytest.raises(ValueError):
            normalize_loads([])
        with pytest.raises(ValueError):
            normalize_loads([1.0, -0.1])
        with pytest.raises(ValueError):
            normalize_loads([1.0, float("nan")])

    def test_load_drift_zero_when_matching(self):
        assert load_drift([0.5, 0.5], [1.0, 1.0]) == 0.0

    def test_load_drift_known_value(self):
        # |0.75 - 0.5| / 0.5 = 0.5 — the worst shard is off by half
        # its expected share.
        assert load_drift([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.5)

    def test_load_drift_floors_tiny_reference_shares(self):
        # The zero-reference shard's deviation is measured against the
        # uniform floor (1/2), not against 0 — no infinite drift.
        assert load_drift([0.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_load_drift_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="observed loads"):
            load_drift([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_suggest_replicas_greedy_by_effective_load(self):
        assert suggest_replicas_for_loads([0.7, 0.2, 0.1], 2) == [3, 1, 1]

    def test_suggest_replicas_respects_per_shard_cap(self):
        assert suggest_replicas_for_loads(
            [0.7, 0.2, 0.1], 2, max_per_shard=2
        ) == [2, 2, 1]

    def test_suggest_replicas_tie_breaks_to_lower_shard(self):
        assert suggest_replicas_for_loads([0.5, 0.5], 1) == [2, 1]

    def test_suggest_replicas_stops_when_everyone_capped(self):
        assert suggest_replicas_for_loads([0.6, 0.4], 10, max_per_shard=2) == [2, 2]

    def test_suggest_replicas_validation(self):
        with pytest.raises(ValueError, match="extra_workers"):
            suggest_replicas_for_loads([1.0], -1)
        with pytest.raises(ValueError, match="max_per_shard"):
            suggest_replicas_for_loads([1.0], 1, max_per_shard=0)


class TestShardPlanLoadViews:
    def test_shard_loads_aggregates_frequencies(self):
        plan = ShardPlan.uniform(10, 2)
        frequencies = [1.0] * 5 + [0.0] * 5
        assert plan.shard_loads(frequencies) == (1.0, 0.0)

    def test_shard_loads_rejects_wrong_length(self):
        plan = ShardPlan.uniform(10, 2)
        with pytest.raises(ValueError, match="frequencies"):
            plan.shard_loads([1.0] * 9)

    def test_drift_measures_against_plan_loads(self):
        plan = ShardPlan.uniform(10, 2)  # loads (0.5, 0.5)
        assert plan.drift([0.5, 0.5]) == 0.0
        assert plan.drift([1.0, 0.0]) == pytest.approx(1.0)

    def test_with_loads_keeps_partition_and_reweights(self):
        plan = ShardPlan.uniform(10, 2)
        replanned = plan.with_loads([3.0, 1.0])
        assert replanned.ranges == plan.ranges
        assert replanned.loads == (0.75, 0.25)
        assert replanned.source == "observed"
        # The original is an immutable value object, untouched.
        assert plan.loads == (0.5, 0.5)
        with pytest.raises(AttributeError):
            plan.loads = (1.0, 0.0)


# ----------------------------------------------------------------------
# The policy, with hand-built signals
# ----------------------------------------------------------------------


class TestAutoScalerPolicy:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="interval_requests"):
            AutoScaler(interval_requests=0)
        with pytest.raises(ValueError, match="drift_threshold"):
            AutoScaler(drift_threshold=-0.1)
        with pytest.raises(ValueError, match="max_total_workers"):
            AutoScaler(max_total_workers=0)
        with pytest.raises(ValueError, match="max_replicas"):
            AutoScaler(max_replicas=0)
        with pytest.raises(ValueError, match="overload_latency_ratio"):
            AutoScaler(overload_latency_ratio=1.0)
        with pytest.raises(ValueError, match="idle_latency_ratio"):
            AutoScaler(idle_latency_ratio=1.0)

    def test_short_window_returns_none(self):
        scaler = AutoScaler(interval_requests=32)
        decision = scaler.evaluate(
            [signal(0), signal(1)], sizing_loads=(0.5, 0.5), window_requests=31
        )
        assert decision is None

    def test_signal_load_length_mismatch_raises(self):
        scaler = AutoScaler(interval_requests=1)
        with pytest.raises(ValueError, match="sizing loads"):
            scaler.evaluate(
                [signal(0)], sizing_loads=(0.5, 0.5), window_requests=10
            )

    def test_empty_work_window_is_a_noop(self):
        scaler = AutoScaler(interval_requests=1)
        decision = scaler.evaluate(
            [signal(0, work=0.0), signal(1, work=0.0)],
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        assert decision.empty
        assert decision.reason == "no work observed"

    def test_drift_triggers_replan_with_scale_up(self):
        scaler = AutoScaler(
            interval_requests=1, drift_threshold=0.5, max_total_workers=4
        )
        decision = scaler.evaluate(
            [signal(0, work=9.0), signal(1, work=1.0)],
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        assert decision.replan
        assert decision.drift == pytest.approx(0.8)
        # Greedy over observed (0.9, 0.1) with 2 spare workers: both
        # land on the hot shard.
        assert decision.scale_up == (0, 0)
        assert decision.scale_down == ()
        assert decision.sizing_loads == pytest.approx((0.9, 0.1))

    def test_replan_reconciles_down_as_well_as_up(self):
        scaler = AutoScaler(
            interval_requests=1, drift_threshold=0.5, max_total_workers=4
        )
        # Shard 1 holds 3 replicas from an earlier hot phase, but the
        # head has moved to shard 0.
        decision = scaler.evaluate(
            [signal(0, replicas=1, work=9.0), signal(1, replicas=3, work=1.0)],
            sizing_loads=(0.1, 0.9),
            window_requests=10,
        )
        assert decision.replan
        assert decision.scale_up == (0, 0)
        assert decision.scale_down == (1, 1)

    def test_none_budget_freezes_current_total(self):
        scaler = AutoScaler(
            interval_requests=1, drift_threshold=0.5, max_total_workers=None
        )
        decision = scaler.evaluate(
            [signal(0, work=9.0), signal(1, work=1.0)],
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        # 2 replicas total stays 2: the replan re-baselines the drift
        # reference without spawning anything.
        assert decision.replan
        assert decision.scale_up == ()
        assert decision.scale_down == ()

    def test_replan_excludes_dead_shards(self):
        scaler = AutoScaler(
            interval_requests=1, drift_threshold=0.1, max_total_workers=5
        )
        decision = scaler.evaluate(
            [
                signal(0, work=9.0),
                signal(1, work=1.0),
                signal(2, work=0.5, dead=True),
            ],
            sizing_loads=(1 / 3, 1 / 3, 1 / 3),
            window_requests=10,
        )
        assert decision.replan
        assert 2 not in decision.scale_up
        assert 2 not in decision.scale_down

    def test_latency_overload_gains_one_replica(self):
        scaler = AutoScaler(
            interval_requests=1,
            drift_threshold=10.0,  # never replan in this test
            max_total_workers=4,
            overload_latency_ratio=1.5,
        )
        decision = scaler.evaluate(
            [signal(0, latency=1.0), signal(1, latency=0.1)],
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        assert not decision.replan
        assert decision.scale_up == (0,)
        assert decision.scale_down == ()
        assert decision.reason == "latency imbalance"

    def test_latency_idle_retires_one_replica(self):
        scaler = AutoScaler(
            interval_requests=1, drift_threshold=10.0, idle_latency_ratio=0.25
        )
        decision = scaler.evaluate(
            [signal(0, latency=1.0), signal(1, replicas=2, latency=0.01)],
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        assert decision.scale_down == (1,)

    def test_idle_never_drops_a_single_replica_shard(self):
        scaler = AutoScaler(
            interval_requests=1, drift_threshold=10.0, idle_latency_ratio=0.25
        )
        decision = scaler.evaluate(
            [signal(0, latency=1.0), signal(1, replicas=1, latency=0.01)],
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        assert decision.scale_down == ()

    def test_budget_cap_blocks_latency_scale_up(self):
        scaler = AutoScaler(
            interval_requests=1,
            drift_threshold=10.0,
            max_total_workers=2,
            overload_latency_ratio=1.5,
        )
        decision = scaler.evaluate(
            [signal(0, latency=1.0), signal(1, latency=0.1)],
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        assert decision.scale_up == ()

    def test_per_shard_cap_blocks_latency_scale_up(self):
        scaler = AutoScaler(
            interval_requests=1,
            drift_threshold=10.0,
            max_total_workers=10,
            max_replicas=2,
            overload_latency_ratio=1.5,
        )
        decision = scaler.evaluate(
            [signal(0, replicas=2, latency=1.0), signal(1, latency=0.1)],
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        assert decision.scale_up == ()

    def test_latency_step_needs_two_reporting_shards(self):
        scaler = AutoScaler(
            interval_requests=1, drift_threshold=10.0, overload_latency_ratio=1.5
        )
        decision = scaler.evaluate(
            [signal(0, latency=1.0), signal(1)],  # shard 1 reports NaN
            sizing_loads=(0.5, 0.5),
            window_requests=10,
        )
        assert decision.empty
        assert decision.reason == "balanced"


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def _hang_main(connection, *args):
    """A worker that starts but never sends its handshake."""
    time.sleep(60)


class TestEngineScaleMechanics:
    def test_manual_scale_cycle_preserves_bits_and_reconciles(
        self, model, features
    ):
        """scale_up → serve → scale_down → serve: outputs stay
        bit-identical to the sequential model and the per-shard
        ``answered == requests`` invariant survives the retirement via
        ``retired_served``."""
        reference = model.forward(features)
        with model.parallel() as engine:
            before = engine.forward(features)
            assert np.array_equal(before.logits, reference.logits)

            new_idx = engine.scale_up(0)
            assert new_idx == 1
            assert engine.replica_counts == [2, 1]
            during = engine.forward(features)
            assert np.array_equal(during.logits, reference.logits)
            assert np.array_equal(
                during.approximate_logits, reference.approximate_logits
            )

            assert engine.scale_down(0)
            assert engine.replica_counts == [1, 1]
            after = engine.forward(features)
            assert np.array_equal(after.logits, reference.logits)

            stats = engine.stats()
            assert stats["scale_ups"] == 1
            assert stats["scale_downs"] == 1
            assert stats["requests"] == 3
            for shard_stats in stats["shards"]:
                assert shard_stats["answered"] == 3

    def test_scale_down_never_removes_last_replica(self, model, features):
        with model.parallel() as engine:
            assert not engine.scale_down(0)
            assert engine.replica_counts == [1, 1]
            assert engine.scale_downs == 0

    def test_scale_validation(self, model):
        with model.parallel() as engine:
            with pytest.raises(ValueError, match="unknown shard"):
                engine.scale_up(9)
            with pytest.raises(ValueError, match="unknown shard"):
                engine.scale_down(-1)
        with pytest.raises(RuntimeError, match="closed"):
            engine.scale_up(0)
        with pytest.raises(RuntimeError, match="closed"):
            engine.scale_down(0)

    def test_scale_up_stops_a_worker_that_never_handshakes(
        self, model, features, monkeypatch
    ):
        """A scale-up whose handshake *raises* (the new worker hangs
        during start-up) used to leave the process running and in no
        group, out of ``close()``'s reach."""
        reference = model.forward(features)
        with model.parallel(spawn_timeout=0.5) as engine:
            monkeypatch.setattr(parallel, "_worker_main", _hang_main)
            with pytest.raises(WorkerTimeout):
                engine.scale_up(0)
            assert engine.replica_counts == [1, 1]
            assert engine.scale_ups == 0
            assert np.array_equal(engine.forward(features).logits, reference.logits)
        assert multiprocessing.active_children() == []

    def test_tick_is_none_without_autoscaler(self, model, features):
        with model.parallel() as engine:
            engine.forward(features)
            assert engine.autoscale_tick() is None
            assert engine.stats()["autoscaling"] is False

    def test_tick_accumulates_until_interval(self, model, features):
        scaler = AutoScaler(interval_requests=3, drift_threshold=10.0)
        with model.parallel(autoscaler=scaler) as engine:
            engine.forward(features)
            assert engine.autoscale_tick() is None  # window of 1 < 3
            engine.forward(features)
            engine.forward(features)
            decision = engine.autoscale_tick()
            assert isinstance(decision, ScaleDecision)
            # Threshold 10 means no replan; a fresh balanced fleet
            # makes no move, but the window was consumed.
            assert engine.autoscale_tick() is None


# ----------------------------------------------------------------------
# The acceptance bar: bit identity under autoscaling
# ----------------------------------------------------------------------


class TestAutoscaleDifferential:
    def test_drifting_load_scales_fleet_without_changing_bits(self, model):
        """THE elastic-serving contract.  A deterministic drifting Zipf
        mix is replayed request-by-request against a static fleet and
        an autoscaling fleet; every ``forward`` / ``top_k`` /
        ``predict`` answer must match bit for bit while the autoscaler
        records at least one scale-up and one re-plan."""
        mix = DriftingZipfianMix(
            HIDDEN_DIM, pool_size=64, s=1.2, seed=3, shift_every=12
        )
        rows = [mix.sample() for _ in range(36)]
        assert mix.shifts_applied >= 2  # the head really moved

        scaler = AutoScaler(
            interval_requests=6,
            drift_threshold=0.05,
            max_total_workers=4,
            max_replicas=3,
        )
        with model.parallel() as static, model.parallel(
            autoscaler=scaler
        ) as elastic:
            for row in rows:
                batch = row[np.newaxis, :]

                want = static.forward(batch)
                got = elastic.forward(batch)
                assert np.array_equal(got.logits, want.logits)
                assert np.array_equal(
                    got.approximate_logits, want.approximate_logits
                )
                for mine, theirs in zip(got.candidates, want.candidates):
                    assert np.array_equal(mine, theirs)

                want_idx, want_scores = static.top_k(batch, k=5)
                got_idx, got_scores = elastic.top_k(batch, k=5)
                assert np.array_equal(got_idx, want_idx)
                assert np.array_equal(got_scores, want_scores)

                assert np.array_equal(
                    elastic.predict(batch), static.predict(batch)
                )

                elastic.autoscale_tick()

            assert elastic.replans >= 1
            assert elastic.scale_ups >= 1
            assert static.scale_ups == 0 and static.replans == 0

            # Fleet shape changed, accounting did not: every shard
            # still answered every request exactly once.
            stats = elastic.stats()
            assert sum(stats["replica_counts"]) <= 4
            for shard_stats in stats["shards"]:
                assert shard_stats["answered"] == stats["requests"]


# ----------------------------------------------------------------------
# Front-door tick plumbing
# ----------------------------------------------------------------------


class _TickingBackend:
    """An autoscaling EngineBackend stub: counts ticks, optionally
    raising to prove the batcher survives a broken policy."""

    def __init__(self, fail=False):
        self.autoscaler = object()  # supports_autoscaling looks for truthiness
        self.ticks = 0
        self.fail = fail
        self._num_categories = 8
        self._hidden_dim = 4

    @property
    def num_categories(self):
        return self._num_categories

    @property
    def hidden_dim(self):
        return self._hidden_dim

    def autoscale_tick(self):
        self.ticks += 1
        if self.fail:
            raise RuntimeError("policy exploded")
        return None

    def forward(self, features):
        from repro.core.candidates import CandidateSet
        from repro.core.pipeline import ScreenedOutput

        logits = np.zeros((features.shape[0], self._num_categories))
        candidates = CandidateSet(
            indices=[
                np.arange(2, dtype=np.intp) for _ in range(features.shape[0])
            ]
        )
        return ScreenedOutput.from_planes(logits, logits.copy(), candidates)

    def forward_streaming(self, features, block_categories=None):
        return self.forward(features)

    def top_k(self, features, k):
        indices = np.zeros((features.shape[0], k), dtype=np.intp)
        return indices, np.zeros(indices.shape)

    def predict(self, features):
        return np.zeros(features.shape[0], dtype=np.intp)

    def close(self):
        pass


class TestFrontDoorAutoscaleTick:
    def test_supports_autoscaling_detection(self, model):
        with model.parallel() as engine:
            assert not supports_autoscaling(engine)
        with model.parallel(autoscaler=AutoScaler()) as engine:
            assert supports_autoscaling(engine)
        assert supports_autoscaling(_TickingBackend())
        assert not supports_autoscaling(object())

    def test_batcher_ticks_between_batches_and_when_idle(self):
        backend = _TickingBackend()
        with FrontDoor(
            backend, max_batch=4, flush_window_s=0.001, autoscale_interval_s=0.005
        ) as door:
            door.call(np.zeros(backend.hidden_dim), timeout=30)
            deadline = time.monotonic() + 5.0
            # Idle heartbeat: ticks keep coming with no traffic at all.
            while backend.ticks < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            stats = door.stats()
        assert backend.ticks >= 3
        assert stats["autoscaling"] is True
        assert stats["autoscale_ticks"] == backend.ticks
        assert stats["autoscale_errors"] == 0

    def test_tick_errors_are_counted_not_fatal(self):
        backend = _TickingBackend(fail=True)
        with FrontDoor(
            backend, max_batch=4, flush_window_s=0.001, autoscale_interval_s=0.005
        ) as door:
            reply = door.call(np.zeros(backend.hidden_dim), timeout=30)
            assert reply.batch_size == 1
            deadline = time.monotonic() + 5.0
            while backend.ticks < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            # The door keeps serving after the policy blew up.
            assert door.call(
                np.zeros(backend.hidden_dim), timeout=30
            ).batch_size == 1
            stats = door.stats()
        assert stats["autoscale_errors"] >= 1

    def test_non_autoscaling_backend_never_ticks(self, model, features):
        with model.parallel() as engine:
            with FrontDoor(
                engine, max_batch=4, flush_window_s=0.001,
                autoscale_interval_s=0.005,
            ) as door:
                door.call(features[0], timeout=30)
                time.sleep(0.05)
                stats = door.stats()
        assert stats["autoscaling"] is False
        assert stats["autoscale_ticks"] == 0

    def test_batcher_driven_scaling_serves_identically(self, model, features):
        """End to end through the door: the batcher thread's ticks may
        reshape the fleet mid-stream; replies stay identical to the
        sequential model."""
        mix = DriftingZipfianMix(
            HIDDEN_DIM, pool_size=64, s=1.2, seed=3, shift_every=12
        )
        scaler = AutoScaler(
            interval_requests=6,
            drift_threshold=0.05,
            max_total_workers=4,
            max_replicas=3,
        )
        with model.parallel(autoscaler=scaler) as engine:
            with FrontDoor(
                engine, max_batch=4, flush_window_s=0.001,
                autoscale_interval_s=0.002,
            ) as door:
                for _ in range(30):
                    row = mix.sample()
                    reply = door.call(row, timeout=60)
                    direct = model.forward(row[np.newaxis, :])
                    assert np.array_equal(
                        reply.value.logits, direct.logits[0]
                    )
                door_stats = door.stats()
            stats = engine.stats()
        assert door_stats["autoscale_ticks"] >= 1
        assert door_stats["autoscale_errors"] == 0
        # The drifting mix must have produced at least one evaluation
        # with a real decision; scale events are recorded in stats.
        assert stats["autoscaling"] is True
        for shard_stats in stats["shards"]:
            assert shard_stats["answered"] == stats["requests"]
