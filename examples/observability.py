#!/usr/bin/env python
"""Observability: metrics, per-shard latency and Chrome traces.

Serving the screening pipeline is a latency product, and the paper's
own argument is a timing breakdown (Fig. 4) — so the serving stack
carries a first-class observability layer.  By default it is off: every
instrumented component holds the no-op ``NULL_RECORDER``, outputs are
bit-identical and the hot path pays one attribute lookup.  Attaching a
:class:`repro.obs.Recorder` turns on per-phase span histograms,
counters and (optionally) a nested-span tracer whose export loads
straight into ``chrome://tracing`` / Perfetto.

This example instruments both layers:

1. a single-process pipeline — phase spans (project/quantize, screener
   GEMM per column tile, candidate selection, exact recompute) and the
   workspace gauges;
2. a process-parallel fleet — per-shard latency percentiles and the
   supervision counters through ``engine.stats()``, plus a trace file
   and a Prometheus text exposition sample.

Run:  python examples/observability.py
"""

import json
import tempfile

from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
from repro.data import make_task
from repro.distributed import ShardedClassifier
from repro.obs import Recorder, validate_chrome_events


def main() -> None:
    task = make_task(num_categories=12_000, hidden_dim=64, rng=11)
    train = task.sample_features(512)
    features = task.sample_features(64, rng=13)

    # ------------------------------------------------------------------
    # 1. Single-process pipeline: spans on the screening hot path.
    # ------------------------------------------------------------------
    screener = train_screener(
        task.classifier, train,
        config=ScreeningConfig(projection_dim=16), rng=12,
    )
    recorder = Recorder(trace=True)
    model = ApproximateScreeningClassifier(
        task.classifier, screener, num_candidates=24, recorder=recorder,
    )
    for _ in range(5):
        model.forward_streaming(features, block_categories=4096)

    snapshot = recorder.snapshot()
    print("pipeline phase timings (seconds, 5 streaming requests):")
    for name, summary in snapshot["histograms"].items():
        if name.startswith("span."):
            print(
                f"  {name:<32} count={summary['count']:<3} "
                f"p50={summary['p50']:.2e} p99={summary['p99']:.2e}"
            )
    gauges = snapshot["gauges"]
    print(
        f"workspace: {gauges['pipeline.workspace_bytes'] / 1e6:.2f} MB in "
        f"{int(gauges['pipeline.workspace_allocations'])} buffers "
        "(flat across steady-state requests)"
    )
    counters = snapshot["counters"]
    print(
        f"screened {int(counters['pipeline.rows'])} rows into "
        f"{int(counters['pipeline.exact_candidates'])} exact candidates\n"
    )

    # ------------------------------------------------------------------
    # 2. Parallel fleet: per-shard latency + supervision counters.
    # ------------------------------------------------------------------
    sharded = ShardedClassifier(
        task.classifier, num_shards=3,
        config=ScreeningConfig(projection_dim=16),
    )
    sharded.train(train, candidates_per_shard=8, rng=12)

    with sharded.parallel(recorder=Recorder(trace=True)) as engine:
        for _ in range(8):
            engine.forward_streaming(features)
        stats = engine.stats()

        print(f"fleet: {engine.num_shards} shards, "
              f"{stats['requests']} requests served")
        print(f"supervision: retries={stats['retries']} "
              f"respawns={stats['respawns']} "
              f"degraded={stats['degraded_requests']} "
              f"stale_replies={stats['stale_replies']}")
        for shard in stats["shards"]:
            latency = shard["latency_s"]
            print(
                f"  shard {shard['shard_id']} "
                f"[{shard['categories'][0]:>6}, {shard['categories'][1]:>6}): "
                f"{int(shard['requests'])} answered, "
                f"p50={latency['p50'] * 1e3:6.2f}ms "
                f"p95={latency['p95'] * 1e3:6.2f}ms "
                f"p99={latency['p99'] * 1e3:6.2f}ms"
            )

        # Chrome trace export (open in chrome://tracing or Perfetto).
        with tempfile.NamedTemporaryFile(
            mode="r", suffix=".json", delete=False
        ) as handle:
            events = engine.write_trace(handle.name)
            trace_path = handle.name
        validate_chrome_events(json.load(open(trace_path)))
        print(f"\nwrote {events} trace events -> {trace_path}")

        # Prometheus text exposition, ready for a scraper.
        exposition = engine.recorder.render_prometheus()
        sample = [
            line for line in exposition.splitlines()
            if line.startswith(("parallel_requests", "workers_posted"))
        ]
        print("prometheus sample:")
        for line in sample:
            print(f"  {line}")


if __name__ == "__main__":
    main()
