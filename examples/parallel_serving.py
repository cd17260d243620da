#!/usr/bin/env python
"""Process-parallel sharded serving with shared-memory parameters.

Builds on ``distributed_scaleout.py``: instead of running the shards
sequentially in one process, ``ShardedClassifier.parallel()`` spawns
one persistent worker process per shard.  Each worker attaches the
shard's classifier and screener planes from a shared-memory segment
(zero-copy — the weights exist once in physical memory no matter how
many workers map them), screens its slice of the category space, and
the host merges the per-shard results through the same reduce path the
sequential backend uses.  The two backends are bit-identical, which
this example checks on every output it prints.

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

    sequential = sharded.forward(features)

    start = time.perf_counter()
    with sharded.parallel() as engine:
        startup_ms = 1e3 * (time.perf_counter() - start)
        segments = len(engine.segment_names())
        print(f"fleet: {engine!r}")
        print(f"started {engine.num_shards} workers in {startup_ms:.1f} ms "
              f"({segments} shared-memory segments)")

        parallel = engine.forward(features)
        identical = (
            np.array_equal(parallel.logits, sequential.logits)
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(
                    parallel.candidates, sequential.candidates
                )
            )
        )
        print(f"parallel output bit-identical to sequential: {identical}")

        indices, scores = engine.top_k(features[:2], k=5)
        seq_indices, _ = sharded.top_k(features[:2], k=5)
        print(f"global top-5 of row 0: {indices[0].tolist()} "
              f"(matches sequential: {np.array_equal(indices, seq_indices)})")

        agreement = np.mean(
            engine.predict(features) == task.classifier.predict(features)
        )
        print(f"top-1 agreement with the exact classifier: {agreement:.3f}")

        repeats = 5
        start = time.perf_counter()
        for _ in range(repeats):
            engine.forward(features)
        parallel_ms = 1e3 * (time.perf_counter() - start) / repeats
        start = time.perf_counter()
        for _ in range(repeats):
            sharded.forward(features)
        sequential_ms = 1e3 * (time.perf_counter() - start) / repeats
        print(f"forward (batch=64): sequential {sequential_ms:.2f} ms, "
              f"parallel {parallel_ms:.2f} ms "
              f"(speedup tracks available cores; bench/run.py "
              f"--workload parallel_cycle measures it)")

    print(f"after close: {engine!r}, segments unlinked")

    # --- fault tolerance: respawn ------------------------------------
    print("\n-- supervision: kill a worker mid-service --")
    with sharded.parallel(restart_backoff=0.01) as engine:
        engine.forward(features)
        engine.workers[2].process.kill()
        start = time.perf_counter()
        recovered = engine.forward(features)
        recovery_ms = 1e3 * (time.perf_counter() - start)
        print(f"shard 2 killed; next request answered in {recovery_ms:.1f} ms "
              f"(restarts per shard: {engine.restarts})")
        print(f"post-respawn output bit-identical to sequential: "
              f"{np.array_equal(recovered.logits, sequential.logits)}")

    # --- fault tolerance: graceful degradation -----------------------
    print("\n-- degraded mode: serve with a shard permanently down --")
    # Deterministic injection: shard 1 crashes on every incarnation's
    # first request, so the restart budget drains and the shard is
    # declared dead instead of raising.
    faults = {1: [FaultSpec(kind="kill", at_request=1, persistent=True)]}
    with sharded.parallel(
        degraded=True, max_restarts=1, restart_backoff=0.01, faults=faults
    ) as engine:
        result = engine.forward(features)
        assert isinstance(result, DegradedOutput)
        ranges = [f"[{r.start}, {r.stop})" for r in result.missing_ranges]
        print(f"degraded result: {result.available_fraction:.0%} of "
              f"categories served, missing {', '.join(ranges)}")
        for failure in result.failures:
            print(f"  shard {failure.shard_id}: {failure.kind} "
                  f"(categories [{failure.categories.start}, "
                  f"{failure.categories.stop}))")
        surviving = np.concatenate([
            result.result.logits[:, : 2000], result.result.logits[:, 4000:]
        ], axis=1)
        reference = np.concatenate([
            sequential.logits[:, : 2000], sequential.logits[:, 4000:]
        ], axis=1)
        print(f"surviving columns bit-identical to sequential: "
              f"{np.array_equal(surviving, reference)}; "
              f"missing columns are NaN: "
              f"{bool(np.isnan(result.result.logits[:, 2000:4000]).all())}")


if __name__ == "__main__":
    main()
