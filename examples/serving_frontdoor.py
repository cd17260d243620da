#!/usr/bin/env python
"""Serve single-request traffic through the micro-batching front door.

Production classifiers receive one request at a time, but the screened
engine earns its savings from batching.  The front door bridges the
two: callers submit single rows, a batcher thread coalesces them under
a size-or-deadline flush policy, and every caller gets back exactly the
row a direct batched call would have produced — plus SLO deadlines and
admission control when the system saturates.

Run:  python examples/serving_frontdoor.py
"""

import numpy as np

from repro.core import ScreeningConfig
from repro.data import make_task
from repro.distributed import ShardedClassifier
from repro.obs import Recorder
from repro.serving import (
    FrontDoor,
    QueueFullError,
    ZipfianMix,
    is_engine_backend,
    run_open_loop,
)


def main() -> None:
    # --- build an engine and put the front door in front of it ---
    task = make_task(num_categories=4000, hidden_dim=32, rng=21)
    model = ShardedClassifier(
        task.classifier, num_shards=2, config=ScreeningConfig(projection_dim=8)
    )
    model.train(task.sample_features(384, rng=22), candidates_per_shard=16, rng=23)
    assert is_engine_backend(model)

    recorder = Recorder()
    with FrontDoor(
        model, max_batch=16, flush_window_s=0.002, recorder=recorder
    ) as door:
        # --- single requests, batched answers ---
        rows = task.sample_features(6, rng=24)
        futures = [door.submit(row, "top_k", k=5) for row in rows]
        for i, future in enumerate(futures):
            reply = future.result(timeout=30)
            indices, _scores = reply.value
            print(
                f"request {i}: top-5 {indices.tolist()} "
                f"(batch of {reply.batch_size}, "
                f"{reply.latency_s * 1e3:.2f} ms end to end)"
            )

        # --- the same answer a direct batched call produces ---
        direct_indices, _ = model.top_k(rows, k=5)
        reply = door.call(rows[0], "top_k", k=5, timeout=30)
        assert np.array_equal(reply.value[0], direct_indices[0])
        print("front-door rows match the direct engine call bit for bit")

        # --- open-loop Zipfian load with a 50 ms SLO ---
        mix = ZipfianMix(hidden_dim=32, pool_size=128, s=1.1, seed=25)
        report = run_open_loop(
            door, mix, rate_rps=300.0, duration_s=1.0, slo_s=0.05
        )
        print(
            f"open loop: {report.offered} offered -> {report.served} served "
            f"at {report.throughput_rps:.0f} rps, "
            f"p50 {report.latency_percentile(50) * 1e3:.2f} ms, "
            f"p99 {report.latency_percentile(99) * 1e3:.2f} ms, "
            f"mean batch {report.mean_batch_size:.1f}, "
            f"{report.shed_deadline} shed on deadline"
        )

        # --- admission control under a deliberately tiny queue ---
    with FrontDoor(model, max_batch=4, flush_window_s=0.1, queue_limit=2) as tiny:
        admitted, shed = 0, 0
        for row in task.sample_features(12, rng=26):
            try:
                tiny.submit(row)  # the default op: a RowStreamed reply
                admitted += 1
            except QueueFullError:
                shed += 1
        print(f"tiny queue: {admitted} admitted, {shed} shed with QueueFullError")

    depth = recorder.snapshot()["gauges"]["serving.queue_depth"]
    flushes = recorder.snapshot()["counters"]
    print(
        f"gauges drained to queue_depth={depth:.0f}; "
        f"{flushes.get('serving.flush_on_size', 0):.0f} size flushes, "
        f"{flushes.get('serving.flush_on_deadline', 0):.0f} window flushes"
    )


if __name__ == "__main__":
    main()
