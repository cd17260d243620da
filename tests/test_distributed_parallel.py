"""Behaviour of the process-parallel serving engine.

That :class:`ParallelShardedEngine` is the *same function* as the
sequential ``ShardedClassifier`` — every candidate record and top-k
reduce bit-identical, a 1-shard engine the single-node pipeline —
is asserted by ``tests/test_matrix.py`` across selectors, stores, feature
widths and shard plans; the corners this suite is named for are held
below as named configurations of it.  Here also: buffer reuse across
calls, the spawn start method, input-plane regrowth, requests refused
before scatter, and the worker-failure contract (``WorkerDied``, never a
hang; every shared segment released).
"""

import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest
from contracts import check_configuration

from repro.distributed import ShardedClassifier, WorkerDied

# A reintroduced protocol hang must fail fast, not stall the suite
# (enforced when pytest-timeout is installed, as in CI).
pytestmark = pytest.mark.timeout(600)


@pytest.fixture(scope="module")
def model(zoo):
    return zoo[("u2", "trained", "top_m", "fp64")]


@pytest.fixture(scope="module")
def features(zoo):
    return zoo.features[:16]


def assert_outputs_identical(actual, expected):
    """Bitwise equality of everything a StreamedOutput exposes."""
    assert actual.num_categories == expected.num_categories
    assert actual.candidates.batch_size == expected.candidates.batch_size
    for mine, theirs in zip(actual.candidates, expected.candidates):
        assert np.array_equal(mine, theirs)
    for name in ("exact_values", "approximate_values"):
        assert getattr(actual, name).dtype == getattr(expected, name).dtype
        assert np.array_equal(getattr(actual, name), getattr(expected, name))


SELECTORS = ("top_m", "threshold")
#: Caller feature widths; every call casts to float64 at the door.
FEATURE_DTYPES = ("float64", "float32")
SHARD_COUNTS = (1, 2, 4)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
@pytest.mark.parametrize("selector_mode", SELECTORS)
class TestParallelMatchesSequential:
    def test_bit_identical(self, zoo, engines, selector_mode, feature_dtype, shards):
        check_configuration(
            zoo, engines, (f"u{shards}", "trained", selector_mode, "fp64"),
            rows=16, dtype=feature_dtype, k="m+5",
        )


class TestSingleNodeEquivalence:
    """A 1-shard fleet is the single-node pipeline, bit for bit."""

    def test_parallel_matches_single_node(self, zoo, engines):
        check_configuration(zoo, engines, ("u1", "trained", "top_m", "fp64"), rows=16)

    def test_candidate_entries_match_exact_classifier(self, zoo, engines):
        """Across shard counts, every candidate entry equals the exact
        full-classifier score (the sharded pipelines compute them from
        sliced planes, so this is allclose, not bitwise)."""
        for shards in SHARD_COUNTS:
            check_configuration(zoo, engines, (f"u{shards}", "trained", "top_m", "fp64"), rows=16)


class TestParallelEngineBehavior:
    def test_repeated_calls_are_stable(self, model, features):
        """Buffer reuse across calls must not leak state between batches."""
        with model.parallel() as engine:
            first = engine.forward_streaming(features)
            shuffled = features[::-1].copy()
            middle = engine.forward_streaming(shuffled)
            second = engine.forward_streaming(features)
            assert_outputs_identical(second, first)
            assert not np.array_equal(first.exact_values, middle.exact_values)

    def test_io_plane_regrowth(self, model, zoo):
        """Batches beyond max_batch reallocate the shared input plane."""
        small, large = zoo.features[:3], zoo.features[20:60]
        with model.parallel(max_batch=4) as engine:
            assert_outputs_identical(
                engine.forward_streaming(small), model.forward_streaming(small)
            )
            assert_outputs_identical(
                engine.forward_streaming(large), model.forward_streaming(large)
            )
            # The live segments are the parameter packs plus one input
            # segment; the outgrown input segment was unlinked at
            # regrowth time.
            live = {p.name for p in engine._param_packs} | {engine._io_input.name}
            outgrown = set(engine.segment_names()) - live
            assert len(outgrown) == 1
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=outgrown.pop())

    def test_spawn_start_method(self, model, features):
        """Fresh-interpreter workers compute the same bits as forked ones."""
        sequential = model.forward_streaming(features)
        with model.parallel(start_method="spawn") as engine:
            assert_outputs_identical(engine.forward_streaming(features), sequential)

    def test_single_vector_input(self, model, zoo):
        vector = zoo.features[23]
        with model.parallel() as engine:
            assert_outputs_identical(
                engine.forward_streaming(vector), model.forward_streaming(vector)
            )

    def test_top_k_beyond_category_count_rejected_before_scatter(
        self, model, features
    ):
        """Same ``ValueError`` as the sequential and single-node
        backends, raised before any worker sees the request; ``k``
        beyond one shard still clamps per shard."""
        with model.parallel() as engine:
            l = engine.num_categories
            with pytest.raises(ValueError, match=f"k={l + 1} exceeds score dimension {l}"):
                engine.top_k(features, k=l + 1)
            assert engine.stats()["requests"] == 0
            par_indices, par_scores = engine.top_k(features, k=l)
            seq_indices, seq_scores = model.top_k(features, k=l)
            assert np.array_equal(par_indices, seq_indices)
            assert np.array_equal(par_scores, seq_scores)
            engine.predict(features)

    @pytest.mark.parametrize("degraded", (False, True))
    def test_non_positive_block_rejected_before_scatter(self, model, features, degraded):
        """``block_categories=0`` is the caller's error, not the workers':
        the same ``ValueError`` as the sequential backend, no degraded
        request counted, and the workers serve the next call."""
        with pytest.raises(ValueError, match="block_categories must be positive, got 0"):
            model.forward_streaming(features, block_categories=0)
        with model.parallel(degraded=degraded) as engine:
            with pytest.raises(ValueError, match="block_categories must be positive, got 0"):
                engine.forward_streaming(features, block_categories=0)
            stats = engine.stats()
            assert stats["requests"] == 0 and stats["degraded_requests"] == 0
            streamed = engine.forward_streaming(features, block_categories=7)
            want = model.forward_streaming(features, block_categories=7)
            assert np.array_equal(streamed.candidates.flat()[1], want.candidates.flat()[1])
            assert np.array_equal(streamed.exact_values, want.exact_values)
            assert np.array_equal(streamed.approximate_values, want.approximate_values)

    def test_untrained_model_rejected(self, zoo):
        model = ShardedClassifier(zoo.stacked, num_shards=2)
        with pytest.raises(RuntimeError, match="train"):
            model.parallel()

    def test_forward_after_close_rejected(self, model, features):
        engine = model.parallel()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.forward_streaming(features)


class TestWorkerFailure:
    """Fail-fast mode (``max_restarts=0``): the pre-supervision contract.

    The supervised recovery paths (respawn, retry, degraded results)
    are covered by ``tests/test_fault_tolerance.py``.
    """

    def test_killed_worker_raises_not_hangs(self, model, features):
        engine = model.parallel(max_restarts=0)
        try:
            engine.forward_streaming(features)
            engine.workers[1].process.kill()
            with pytest.raises(WorkerDied) as excinfo:
                engine.forward_streaming(features)
            assert excinfo.value.worker == "enmc-shard-1"
            assert engine.closed
        finally:
            engine.close()
        for name in engine.segment_names():
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_killed_worker_respawns_by_default(self, model, features):
        """With the default restart budget the same kill is absorbed:
        the replacement worker rebuilds from the shared segments and
        the fleet keeps answering bit-identically."""
        sequential = model.forward_streaming(features)
        with model.parallel() as engine:
            engine.workers[1].process.kill()
            assert_outputs_identical(engine.forward_streaming(features), sequential)
            assert engine.restarts[1] == 1
            assert not engine.closed

    def test_death_mid_request_raises(self, model, features):
        """A worker that dies after the batch was scattered (request in
        flight, no reply coming) must surface as WorkerDied."""
        engine = model.parallel(max_restarts=0)
        try:
            engine.forward_streaming(features)
            # Test hook: the worker exits without replying, exactly as a
            # crash between recv() and send() would.
            engine.workers[0].post("die", 17)
            with pytest.raises(WorkerDied):
                engine.forward_streaming(features)
            assert engine.closed
        finally:
            engine.close()

    def test_close_is_idempotent_and_releases_segments(self, model, features):
        engine = model.parallel()
        engine.forward_streaming(features)
        names = engine.segment_names()
        engine.close()
        engine.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_no_resource_tracker_warnings(self, tmp_path):
        """Full lifecycle — including a worker kill — leaks nothing.

        Runs in a subprocess with ``-W error`` so any stray
        ResourceWarning (and the resource_tracker's stderr complaints
        about leaked shared_memory segments) fails the test.
        """
        script = tmp_path / "lifecycle.py"
        script.write_text(
            textwrap.dedent(
                """
                import numpy as np
                from repro.core import ScreeningConfig
                from repro.data import make_task
                from repro.distributed import ShardedClassifier, WorkerDied

                def main():
                    task = make_task(num_categories=200, hidden_dim=32, rng=4)
                    model = ShardedClassifier(
                        task.classifier, num_shards=2,
                        config=ScreeningConfig(projection_dim=8),
                    )
                    model.train(task.sample_features(128),
                                candidates_per_shard=8, rng=5)
                    features = task.sample_features(4, rng=6)

                    # Clean lifecycle.
                    with model.parallel() as engine:
                        engine.forward_streaming(features)

                    # Kill-mid-service lifecycle (fail-fast mode).
                    engine = model.parallel(max_restarts=0)
                    engine.forward_streaming(features)
                    engine.workers[0].process.kill()
                    try:
                        engine.forward_streaming(features)
                    except WorkerDied:
                        pass
                    else:
                        raise SystemExit("expected WorkerDied")
                    print("LIFECYCLE-OK")

                if __name__ == "__main__":
                    main()
                """
            )
        )
        result = subprocess.run(
            [sys.executable, "-W", "error", str(script)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "LIFECYCLE-OK" in result.stdout
        for needle in ("resource_tracker", "leaked", "Warning"):
            assert needle not in result.stderr, result.stderr[-2000:]
