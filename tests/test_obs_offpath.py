"""Observability must be free when off and honest when on.

The off-path contract: the default recorder is :data:`NULL_RECORDER`,
and — with it or with a live recorder attached — instrumentation changes
no output bit (recorder on ≡ off on every op of the in-process
pipelines is asserted by ``tests/test_matrix.py``) and the streaming
workspace's steady-state zero-allocation contract still holds.  The
on-path contract: the counters a recording engine reports reconcile
exactly with the requests it served, per shard and in total, and the
trace contains the nested per-tile streaming spans.
"""

import numpy as np
import pytest

from conftest import M
from contracts import check_configuration
from repro.core import ApproximateScreeningClassifier
from repro.obs import NULL_RECORDER, Recorder, validate_chrome_events

pytestmark = pytest.mark.timeout(600)

BLOCK = 100


@pytest.fixture(scope="module")
def model(zoo):
    return zoo[("u2", "trained", "top_m", "fp64")]


@pytest.fixture(scope="module")
def features(zoo):
    return zoo.features[:16]


def build_pipeline(zoo, recorder=None):
    return ApproximateScreeningClassifier(
        zoo.tasks["multi"].classifier,
        zoo.trained("multi"),
        num_candidates=M,
        recorder=recorder,
    )


class TestBitIdentityOffAndOn:
    """The pipeline's side of the off path; its bit identity is the
    matrix's (``tests/test_matrix.py``), of which the two ``*_bits_*``
    tests are named configurations."""

    def test_default_recorder_is_null(self, zoo):
        model = build_pipeline(zoo)
        assert model.recorder is NULL_RECORDER
        assert model.screener.recorder is NULL_RECORDER

    def test_forward_bits_unchanged_by_recording(self, zoo, engines):
        check_configuration(zoo, engines, ("multi", "trained", "top_m", "fp64"), rows=16)

    def test_streaming_bits_unchanged_by_recording(self, zoo, engines):
        check_configuration(
            zoo, engines, ("multi", "trained", "threshold", "int8"), rows=16, block=BLOCK
        )

    @pytest.mark.parametrize("recording", [False, True])
    def test_streaming_steady_state_allocations_flat(self, zoo, features, recording):
        """The zero-allocation steady state survives instrumentation:
        after warm-up, repeated streaming calls take every buffer from
        the workspace arena — recorder on or off."""
        recorder = Recorder(trace=True) if recording else None
        model = build_pipeline(zoo, recorder=recorder)
        model.forward_streaming(features, block_categories=BLOCK)  # warm-up
        allocations = model.workspace.allocations
        requests_before = model.workspace.requests
        for _ in range(5):
            model.forward_streaming(features, block_categories=BLOCK)
        assert model.workspace.allocations == allocations
        assert model.workspace.requests > requests_before
        if recording:
            snap = model.recorder.snapshot()
            assert snap["gauges"]["pipeline.workspace_allocations"] == allocations
            model.set_recorder(NULL_RECORDER)

    def test_streaming_trace_has_nested_tile_spans(self, zoo, features):
        recorder = Recorder(trace=True)
        model = build_pipeline(zoo, recorder=recorder)
        model.forward_streaming(features, block_categories=BLOCK)
        names = recorder.tracer.span_names()
        # One screen/select span pair per *canonical column tile* (the
        # GEMM granularity that makes streaming bit-identical to dense)
        # a prescreen did not skip, regardless of the selection block.
        tiles = len(model.screener.tile_bounds())
        skipped = recorder.snapshot()["counters"].get("pipeline.tiles_skipped", 0)
        assert tiles >= 2
        assert names.count("streaming.screen_tile") == tiles - skipped
        assert names.count("streaming.select_tile") == tiles - skipped
        assert names.count("streaming.exact") == 1
        assert names.count("forward_streaming") == 1
        events = validate_chrome_events(recorder.tracer.chrome_events())
        outer = next(e for e in events if e["name"] == "forward_streaming")
        for event in events:
            if event["name"].startswith("streaming."):
                assert event["ts"] >= outer["ts"]
                assert event["ts"] + event["dur"] <= (
                    outer["ts"] + outer["dur"] + 1e-6
                )
        assert recorder.tracer.open_spans() == 0
        model.set_recorder(NULL_RECORDER)


class TestEngineReconciliation:
    def test_engine_outputs_unchanged_by_recording(self, model, features):
        sequential = model.forward_streaming(features)
        with model.parallel(recorder=Recorder(trace=True)) as engine:
            parallel = engine.forward_streaming(features)
        assert np.array_equal(parallel.candidates.counts, sequential.candidates.counts)
        assert np.array_equal(parallel.candidates.columns(), sequential.candidates.columns())
        assert np.array_equal(parallel.exact_values, sequential.exact_values)
        assert np.array_equal(parallel.approximate_values, sequential.approximate_values)

    def test_counters_reconcile_with_requests(self, model, features):
        requests = 3
        with model.parallel(recorder=Recorder(trace=True)) as engine:
            for _ in range(requests):
                engine.forward_streaming(features)
            stats = engine.stats()
        assert stats["recording"] is True
        assert stats["requests"] == requests
        assert stats["retries"] == 0
        assert stats["respawns"] == 0
        assert stats["degraded_requests"] == 0
        assert stats["deadline_overruns"] == 0
        assert stats["stale_replies"] == 0
        counters = stats["metrics"]["counters"]
        assert counters["parallel.requests"] == requests
        # Every serving request fans out to every shard exactly once on
        # a clean run: the per-shard answered counts sum to
        # requests x num_shards, and each shard's latency histogram saw
        # exactly one observation per request.
        per_shard = [shard["requests"] for shard in stats["shards"]]
        assert sum(per_shard) == requests * engine.num_shards
        for shard in stats["shards"]:
            assert shard["requests"] == requests
            summary = shard["latency_s"]
            assert summary["count"] == requests
            assert 0.0 <= summary["p50"] <= summary["p95"] <= summary["p99"]
            assert not shard["dead"]
            assert shard["respawns"] == 0
        # The posted-request protocol counter agrees with the fan-out.
        assert counters["workers.posted"] == requests * engine.num_shards

    def test_stats_available_without_recorder(self, model, features):
        with model.parallel() as engine:
            engine.forward_streaming(features)
            stats = engine.stats()
        assert stats["recording"] is False
        assert "metrics" not in stats
        assert stats["requests"] == 1
        assert stats["shards"][0]["respawns"] == 0
        assert "latency_s" not in stats["shards"][0]

    def test_engine_trace_exports_valid_chrome_json(
        self, model, features, tmp_path
    ):
        with model.parallel(recorder=Recorder(trace=True)) as engine:
            engine.forward_streaming(features)
            engine.top_k(features, k=5)
            path = tmp_path / "engine_trace.json"
            count = engine.write_trace(path)
        assert count > 0
        import json

        events = validate_chrome_events(json.loads(path.read_text()))
        names = [event["name"] for event in events]
        assert "engine.forward_streaming" in names
        assert "engine.top_k" in names
        assert "engine.scatter_gather" in names
        assert "engine.merge" in names

    def test_write_trace_without_tracer_raises(self, model, features):
        with model.parallel() as engine:
            with pytest.raises(RuntimeError, match="no tracer"):
                engine.write_trace("/dev/null")
