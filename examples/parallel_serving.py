#!/usr/bin/env python
"""Process-parallel sharded serving with shared-memory parameters.

Builds on ``distributed_scaleout.py``: instead of running the shards
sequentially in one process, ``ShardedClassifier.parallel()`` spawns
one persistent worker process per shard.  Each worker attaches the
shard's classifier and screener planes from a shared-memory segment
(zero-copy — the weights exist once in physical memory no matter how
many workers map them), screens its slice of the category space, and
the host merges the per-shard candidate records through the same reduce
path the sequential backend uses.  The two backends are bit-identical,
which this example checks on every output it prints.  The fleet serves
records and top-k pairs, never a ``batch × l`` plane: the dense plane
is ``ShardedClassifier.forward``'s, in-process.

The second half demonstrates the supervision layer: a worker is killed
mid-service and transparently respawned from the still-live shared
segments (bit-identical afterwards), then a degraded-mode fleet keeps
answering with the surviving shards plus a structured report of the
missing category ranges.

Run:  python examples/parallel_serving.py
"""

import time

import numpy as np

from repro.core import ScreeningConfig
from repro.core.pipeline import DegradedOutput
from repro.data import make_task
from repro.distributed import ShardedClassifier
from repro.utils.faults import FaultSpec


def main() -> None:
    task = make_task(num_categories=8000, hidden_dim=64, rng=11)
    sharded = ShardedClassifier(
        task.classifier, num_shards=4,
        config=ScreeningConfig(projection_dim=16),
    )
    sharded.train(task.sample_features(768), candidates_per_shard=16, rng=12)
    features = task.sample_features(64, rng=13)

    sequential = sharded.forward_streaming(features)

    def same_record(output, reference):
        return (
            np.array_equal(output.candidates.counts, reference.candidates.counts)
            and np.array_equal(
                output.candidates.columns(), reference.candidates.columns()
            )
            and np.array_equal(output.exact_values, reference.exact_values)
            and np.array_equal(
                output.approximate_values, reference.approximate_values
            )
        )

    start = time.perf_counter()
    with sharded.parallel() as engine:
        startup_ms = 1e3 * (time.perf_counter() - start)
        segments = len(engine.segment_names())
        print(f"fleet: {engine!r}")
        print(f"started {engine.num_shards} workers in {startup_ms:.1f} ms "
              f"({segments} shared-memory segments)")

        parallel = engine.forward_streaming(features)
        print(f"parallel record bit-identical to sequential: "
              f"{same_record(parallel, sequential)}")

        indices, scores = engine.top_k(features[:2], k=5)
        seq_indices, _ = sharded.top_k(features[:2], k=5)
        print(f"global top-5 of row 0: {indices[0].tolist()} "
              f"(matches sequential: {np.array_equal(indices, seq_indices)})")

        agreement = np.mean(
            engine.predict(features) == task.classifier.predict(features)
        )
        print(f"top-1 agreement with the exact classifier: {agreement:.3f}")

        repeats = 5
        for name, call in (
            ("forward_streaming", lambda backend: backend.forward_streaming(features)),
            ("top_k(16)", lambda backend: backend.top_k(features, 16)),
        ):
            timings = []
            for backend in (sharded, engine):
                start = time.perf_counter()
                for _ in range(repeats):
                    call(backend)
                timings.append(1e3 * (time.perf_counter() - start) / repeats)
            print(f"{name} (batch=64): sequential {timings[0]:.2f} ms, "
                  f"parallel {timings[1]:.2f} ms")
        print("(speedup tracks available cores; bench/run.py "
              "--workload parallel_cycle measures it)")

    print(f"after close: {engine!r}, segments unlinked")

    # --- fault tolerance: respawn ------------------------------------
    print("\n-- supervision: kill a worker mid-service --")
    with sharded.parallel(restart_backoff=0.01) as engine:
        engine.forward_streaming(features)
        engine.workers[2].process.kill()
        start = time.perf_counter()
        recovered = engine.forward_streaming(features)
        recovery_ms = 1e3 * (time.perf_counter() - start)
        print(f"shard 2 killed; next request answered in {recovery_ms:.1f} ms "
              f"(restarts per shard: {engine.restarts})")
        print(f"post-respawn record bit-identical to sequential: "
              f"{same_record(recovered, sequential)}")

    # --- fault tolerance: graceful degradation -----------------------
    print("\n-- degraded mode: serve with a shard permanently down --")
    # Deterministic injection: shard 1 crashes on every incarnation's
    # first request, so the restart budget drains and the shard is
    # declared dead instead of raising.
    faults = {1: [FaultSpec(kind="kill", at_request=1, persistent=True)]}
    with sharded.parallel(
        degraded=True, max_restarts=1, restart_backoff=0.01, faults=faults
    ) as engine:
        result = engine.forward_streaming(features)
        assert isinstance(result, DegradedOutput)
        ranges = [f"[{r.start}, {r.stop})" for r in result.missing_ranges]
        print(f"degraded result: {result.available_fraction:.0%} of "
              f"categories served, missing {', '.join(ranges)}")
        for failure in result.failures:
            print(f"  shard {failure.shard_id}: {failure.kind} "
                  f"(categories [{failure.categories.start}, "
                  f"{failure.categories.stop}))")
        # The record simply has no entries in the missing range; every
        # surviving entry is the sequential backend's.
        missing = result.missing_ranges[0]
        columns = sequential.candidates.columns()
        kept = (columns < missing.start) | (columns >= missing.stop)
        identical = np.array_equal(
            result.result.candidates.columns(), columns[kept]
        ) and np.array_equal(result.result.exact_values, sequential.exact_values[kept])
        print(f"surviving entries bit-identical to sequential: {identical} "
              f"({np.count_nonzero(~kept)} entries of the missing range dropped)")


if __name__ == "__main__":
    main()
