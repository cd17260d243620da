"""Differential test harness for the process-parallel serving engine.

The contract under test: :class:`ParallelShardedEngine` is the *same
function* as the sequential ``ShardedClassifier`` — every output plane,
candidate list and top-k reduce is bit-identical, across candidate
selectors, feature widths and shard counts.  The engine ships
because these tests say so, not because the implementation looks right.

Also covered: single-node equivalence (a 1-shard parallel engine is the
single-node ``ApproximateScreeningClassifier`` behind process
indirection), the spawn start method, I/O-plane regrowth, and the
worker-failure contract (``WorkerDied``, never a hang; every shared
segment released).
"""

import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
from repro.core.candidates import CandidateSelector
from repro.data import make_task
from repro.distributed import ShardedClassifier, WorkerDied
from repro.utils.rng import spawn_rngs

# A reintroduced protocol hang must fail fast, not stall the suite
# (enforced when pytest-timeout is installed, as in CI).
pytestmark = pytest.mark.timeout(600)

NUM_CATEGORIES = 600
HIDDEN_DIM = 32
PROJECTION_DIM = 8
CANDIDATES_PER_SHARD = 8
TRAIN_RNG = 5

SELECTORS = ("top_m", "threshold")
#: Caller feature widths; every call casts to float64 at the door.
FEATURE_DTYPES = ("float64", "float32")
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def task():
    return make_task(num_categories=NUM_CATEGORIES, hidden_dim=HIDDEN_DIM, rng=4)


@pytest.fixture(scope="module")
def features(task):
    return task.sample_features(16, rng=6)


@pytest.fixture(scope="module")
def calibration(task):
    return task.sample_features(128, rng=9)


@pytest.fixture(scope="module")
def train_features(task):
    return task.sample_features(256, rng=7)


@pytest.fixture(scope="module")
def model_zoo(task, calibration, train_features):
    """Trained sequential models, one per (shards, selector).

    Training is deterministic in the shard count, so the zoo is the
    single source of truth both backends are built from.
    """
    zoo = {}
    for shards in SHARD_COUNTS:
        for selector_mode in SELECTORS:
            model = ShardedClassifier(
                task.classifier,
                num_shards=shards,
                config=ScreeningConfig(projection_dim=PROJECTION_DIM),
            )
            model.train(
                train_features,
                candidates_per_shard=CANDIDATES_PER_SHARD,
                rng=TRAIN_RNG,
            )
            if selector_mode == "threshold":
                for shard in model.shards:
                    selector = CandidateSelector(
                        mode="threshold",
                        num_candidates=CANDIDATES_PER_SHARD,
                    )
                    selector.calibrate(
                        shard.screener.approximate_logits(calibration)
                    )
                    shard.selector = selector
            zoo[(shards, selector_mode)] = model
    return zoo


def assert_outputs_identical(actual, expected):
    """Bitwise equality of everything a ScreenedOutput exposes."""
    assert actual.logits.dtype == expected.logits.dtype
    assert np.array_equal(actual.logits, expected.logits)
    assert np.array_equal(actual.approximate_logits, expected.approximate_logits)
    assert actual.candidates.batch_size == expected.candidates.batch_size
    for mine, theirs in zip(actual.candidates, expected.candidates):
        assert np.array_equal(mine, theirs)
    assert actual.exact_count == expected.exact_count


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("feature_dtype", FEATURE_DTYPES)
@pytest.mark.parametrize("selector_mode", SELECTORS)
class TestParallelMatchesSequential:
    def test_bit_identical(self, model_zoo, features, selector_mode, feature_dtype, shards):
        model = model_zoo[(shards, selector_mode)]
        features = features.astype(feature_dtype)
        sequential = model.forward(features)
        with model.parallel() as engine:
            parallel = engine.forward(features)
            assert_outputs_identical(parallel, sequential)

            seq_indices, seq_scores = model.top_k(features, k=7)
            par_indices, par_scores = engine.top_k(features, k=7)
            assert np.array_equal(par_indices, seq_indices)
            assert np.array_equal(par_scores, seq_scores)

            assert np.array_equal(
                engine.predict(features), model.predict(features)
            )


class TestParallelEngineBehavior:
    def test_repeated_calls_are_stable(self, model_zoo, features):
        """Buffer reuse across calls must not leak state between batches."""
        model = model_zoo[(2, "top_m")]
        with model.parallel() as engine:
            first = engine.forward(features)
            shuffled = features[::-1].copy()
            middle = engine.forward(shuffled)
            second = engine.forward(features)
            assert np.array_equal(first.logits, second.logits)
            assert not np.array_equal(first.logits, middle.logits)

    def test_io_plane_regrowth(self, model_zoo, task):
        """Batches beyond max_batch reallocate the shared I/O planes."""
        model = model_zoo[(2, "top_m")]
        small = task.sample_features(3, rng=21)
        large = task.sample_features(40, rng=22)
        with model.parallel(max_batch=4) as engine:
            assert_outputs_identical(engine.forward(small), model.forward(small))
            assert_outputs_identical(engine.forward(large), model.forward(large))
            # The outgrown segments were unlinked at regrowth time.
            live = {engine._io_input.name, engine._io_output.name}
            for name in set(engine.segment_names()) - live:
                if name in {p.name for p in engine._param_packs}:
                    continue
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)

    def test_spawn_start_method(self, model_zoo, features):
        """Fresh-interpreter workers compute the same bits as forked ones."""
        model = model_zoo[(2, "top_m")]
        sequential = model.forward(features)
        with model.parallel(start_method="spawn") as engine:
            assert_outputs_identical(engine.forward(features), sequential)

    def test_single_vector_input(self, model_zoo, task):
        model = model_zoo[(2, "top_m")]
        vector = task.sample_features(1, rng=23)[0]
        with model.parallel() as engine:
            assert_outputs_identical(engine.forward(vector), model.forward(vector))

    def test_top_k_beyond_category_count_rejected_before_scatter(
        self, model_zoo, features
    ):
        """Same ``ValueError`` as the sequential and single-node
        backends, raised before any worker sees the request; ``k``
        beyond one shard still clamps per shard."""
        model = model_zoo[(2, "top_m")]
        with model.parallel() as engine:
            l = engine.num_categories
            with pytest.raises(ValueError, match=f"k={l + 1} exceeds score dimension {l}"):
                engine.top_k(features, k=l + 1)
            assert engine.stats()["requests"] == 0
            par_indices, par_scores = engine.top_k(features, k=l)
            seq_indices, seq_scores = model.top_k(features, k=l)
            assert np.array_equal(par_indices, seq_indices)
            assert np.array_equal(par_scores, seq_scores)

    def test_untrained_model_rejected(self, task):
        model = ShardedClassifier(task.classifier, num_shards=2)
        with pytest.raises(RuntimeError, match="train"):
            model.parallel()

    def test_forward_after_close_rejected(self, model_zoo, features):
        model = model_zoo[(2, "top_m")]
        engine = model.parallel()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.forward(features)


class TestSingleNodeEquivalence:
    """A 1-shard fleet is the single-node pipeline, bit for bit."""

    def test_parallel_matches_single_node(
        self, task, features, model_zoo, train_features
    ):
        model = model_zoo[(1, "top_m")]
        # Rebuild the single-node classifier exactly as train() does for
        # its one shard: same spawned rng, same config, same solver.
        screener = train_screener(
            task.classifier,
            train_features,
            config=ScreeningConfig(projection_dim=PROJECTION_DIM),
            solver="lstsq",
            rng=spawn_rngs(TRAIN_RNG, 1)[0],
        )
        single = ApproximateScreeningClassifier(
            task.classifier, screener, num_candidates=CANDIDATES_PER_SHARD
        )
        expected = single.forward(features)
        with model.parallel() as engine:
            assert_outputs_identical(engine.forward(features), expected)

    def test_candidate_entries_match_exact_classifier(
        self, task, features, model_zoo
    ):
        """Across shard counts, every candidate entry equals the exact
        full-classifier score (the sharded pipelines compute them from
        sliced planes, so this is allclose, not bitwise)."""
        exact = task.classifier.logits(features)
        for shards in SHARD_COUNTS:
            model = model_zoo[(shards, "top_m")]
            with model.parallel() as engine:
                output = engine.forward(features)
            for row, indices in enumerate(output.candidates):
                assert np.allclose(
                    output.logits[row, indices],
                    exact[row, indices],
                    rtol=1e-10,
                    atol=1e-10,
                )


class TestWorkerFailure:
    """Fail-fast mode (``max_restarts=0``): the pre-supervision contract.

    The supervised recovery paths (respawn, retry, degraded results)
    are covered by ``tests/test_fault_tolerance.py``.
    """

    def test_killed_worker_raises_not_hangs(self, model_zoo, features):
        model = model_zoo[(2, "top_m")]
        engine = model.parallel(max_restarts=0)
        try:
            engine.forward(features)
            engine.workers[1].process.kill()
            with pytest.raises(WorkerDied) as excinfo:
                engine.forward(features)
            assert excinfo.value.worker == "enmc-shard-1"
            assert engine.closed
        finally:
            engine.close()
        for name in engine.segment_names():
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_killed_worker_respawns_by_default(self, model_zoo, features):
        """With the default restart budget the same kill is absorbed:
        the replacement worker rebuilds from the shared segments and
        the fleet keeps answering bit-identically."""
        model = model_zoo[(2, "top_m")]
        sequential = model.forward(features)
        with model.parallel() as engine:
            engine.workers[1].process.kill()
            assert_outputs_identical(engine.forward(features), sequential)
            assert engine.restarts[1] == 1
            assert not engine.closed

    def test_death_mid_request_raises(self, model_zoo, features):
        """A worker that dies after the batch was scattered (request in
        flight, no reply coming) must surface as WorkerDied."""
        model = model_zoo[(2, "top_m")]
        engine = model.parallel(max_restarts=0)
        try:
            engine.forward(features)
            # Test hook: the worker exits without replying, exactly as a
            # crash between recv() and send() would.
            engine.workers[0].post("die", 17)
            with pytest.raises(WorkerDied):
                engine.forward(features)
            assert engine.closed
        finally:
            engine.close()

    def test_close_is_idempotent_and_releases_segments(self, model_zoo, features):
        model = model_zoo[(2, "top_m")]
        engine = model.parallel()
        engine.forward(features)
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
                        engine.forward(features)

                    # Kill-mid-service lifecycle (fail-fast mode).
                    engine = model.parallel(max_restarts=0)
                    engine.forward(features)
                    engine.workers[0].process.kill()
                    try:
                        engine.forward(features)
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
