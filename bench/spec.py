"""What the benchmark measures: names come from ``/BENCHMARK.json``; the
sizes, tail percentiles and ``moves`` targets that file has no key for
live here."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Pinned to "1" by run.py before numpy is imported, and stamped.
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> List[str]:
    return [workload["name"] for workload in load_contract()["workloads"]]


#: Input sizes per workload.  ``train_rows`` feed the screener fit,
#: ``valid_rows`` the threshold calibration, ``quality_rows`` the held-out
#: top-1 agreement check.  A and B share one model and one set of batches;
#: C and D share the 100K / 2-shard model.
SIZES: Dict[str, dict] = {
    "batch_topm": dict(
        l=670_000, d=64, k=16, m=32, batch=64, batches=16,
        train_rows=512, valid_rows=16, quality_rows=256, selector="top_m",
    ),
    "batch_threshold": dict(
        l=670_000, d=64, k=16, m=32, batch=64, batches=16,
        train_rows=512, valid_rows=16, quality_rows=256, selector="threshold",
    ),
    "serve_open": dict(
        l=100_000, d=64, shards=2, m=32, train_rows=128, quality_rows=256,
        max_batch=32, flush_window_s=0.002, queue_limit=512,
        pool=512, zipf_s=1.1, rate_rps=100.0, preroll_s=1.0,
        ladder_rps=(150.0, 300.0, 450.0, 900.0), slo_ms=100.0,
    ),
    "parallel_cycle": dict(
        l=100_000, d=64, shards=2, m=32, train_rows=128, quality_rows=256,
        batch=32, batches=16, top_k=16,
    ),
}

#: ``--smoke`` sizes: same code paths, seconds not minutes.
SMOKE_SIZES: Dict[str, dict] = {
    "batch_topm": dict(SIZES["batch_topm"], l=40_000, batch=16, batches=4,
                       train_rows=128, valid_rows=8, quality_rows=64),
    "batch_threshold": dict(SIZES["batch_threshold"], l=40_000, batch=16,
                            batches=4, train_rows=128, valid_rows=8,
                            quality_rows=64),
    "serve_open": dict(SIZES["serve_open"], l=20_000, train_rows=64,
                       quality_rows=64, pool=64, preroll_s=0.2),
    "parallel_cycle": dict(SIZES["parallel_cycle"], l=20_000, train_rows=64,
                           quality_rows=64, batches=4),
}

#: ``latency_tail_ms`` is this percentile of each round, fixed per workload:
#: for the call-driven workloads the highest one that keeps >= 10 samples
#: beyond it at the operation count a whole ``run_seconds`` run reaches on
#: the reference host; for ``serve_open`` p90, because p99 and p95 did not
#: repeat between runs of one commit on the shared host (see README, Noise).
TAIL_PERCENTILE: Dict[str, float] = {
    "batch_topm": 65.0,
    "batch_threshold": 90.0,
    "serve_open": 90.0,
    "parallel_cycle": 95.0,
}

#: The models are the same on every run: the task, the screener fit, the
#: calibration rows and the batch ``call_peak_mb`` is taken on come from
#: this seed.  ``--seed`` drives the traffic (batches, request pool, arrival
#: schedule, held-out rows), so seed-to-seed spread is traffic and host
#: noise, not a differently calibrated threshold.
MODEL_SEED = 670_091

#: The measured phase runs as ROUNDS equal rounds; throughput, p50 and the
#: tail are each the mean of the per-round values over the QUIET_ROUNDS
#: rounds where they read best (why: ``measure.Measured``; the
#: numbers behind the choice: README, Noise).  Twelve rounds of a 15 s run
#: are 1.25 s each: long enough for a round's tail percentile to rest on
#: ~180 requests of serve_open, short enough that a quiet stretch of the
#: host (they last a few seconds) holds three of them.
ROUNDS = 12
QUIET_ROUNDS = 3
#: Program set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

_P50 = "latency_p50_ms"
_TAIL = "latency_tail_ms"
_TPUT = "throughput_rows_per_s"
_PEAK = "call_peak_mb"
_SETUP = "setup_s"
_OK = "ok_share"
A, B, C, D = "batch_topm", "batch_threshold", "serve_open", "parallel_cycle"

#: Which end-to-end metric, on which workload, each per-layer metric
#: should move (written down before measuring; see README).
MOVES: Dict[str, List[Tuple[str, str]]] = {
    "core.screener.prepare_ms": [(_P50, B)],
    "core.screener.score_tile_ms": [(_P50, B), (_TPUT, B)],
    "core.screener.tiles": [(_P50, B)],
    "core.screener.bytes_per_call": [(_P50, B)],
    "linalg.topk.update_ms": [(_P50, A), (_TPUT, A), (_P50, B)],
    "linalg.topk.finalize_ms": [(_P50, A)],
    "core.candidates.per_row": [(_P50, A), (_P50, B)],
    "core.classifier.exact_ms": [(_P50, A), (_P50, B)],
    "core.pipeline.exact_fraction": [(_P50, A), (_P50, B)],
    "core.pipeline.unattributed_ms": [(_P50, A), (_P50, B)],
    "core.pipeline.workspace_mb": [(_PEAK, A), (_PEAK, B)],
    "core.pipeline.steady_allocations": [(_PEAK, A), (_PEAK, B)],
    "serving.frontdoor.submit_us": [(_P50, C)],
    "serving.frontdoor.queue_wait_p50_ms": [(_P50, C)],
    "serving.frontdoor.queue_wait_p99_ms": [(_TAIL, C)],
    "serving.frontdoor.batch_size_mean": [(_P50, C), (_TAIL, C)],
    "serving.frontdoor.flush_on_size_share": [(_TAIL, C)],
    "serving.frontdoor.backend_busy_share": [(_TAIL, C)],
    "serving.frontdoor.reply_split_p50_ms": [(_P50, C)],
    "serving.frontdoor.shed_queue_full": [(_OK, C)],
    "serving.frontdoor.shed_deadline": [(_OK, C)],
    "serving.frontdoor.max_rate_rps": [(_TAIL, C)],
    "distributed.sharding.shard_ms_max": [(_P50, C), (_P50, D)],
    "distributed.sharding.merge_ms": [(_P50, C), (_P50, D)],
    "distributed.sharding.reduce_top_k_ms": [(_P50, D)],
    "distributed.sharding.seq_forward_streaming_p50_ms": [(_P50, D)],
    "distributed.sharding.seq_top_k_p50_ms": [(_P50, D)],
    "distributed.parallel.forward_streaming_p50_ms": [(_P50, D)],
    "distributed.parallel.top_k_p50_ms": [(_P50, D)],
    "distributed.parallel.speedup_forward_streaming": [(_P50, D)],
    "distributed.parallel.speedup_top_k": [(_P50, D)],
    "distributed.parallel.overhead_ms": [(_P50, D), (_TPUT, D)],
    "distributed.parallel.startup_s": [(_SETUP, D)],
    "distributed.parallel.first_request_ms": [(_SETUP, D)],
    "distributed.parallel.worker_hwm_mb": [(_PEAK, D)],
    "distributed.parallel.retries": [(_OK, D)],
    "distributed.parallel.respawns": [(_OK, D)],
    "distributed.parallel.stale_replies": [(_OK, D)],
    "distributed.parallel.failovers": [(_OK, D)],
    "distributed.parallel.degraded_requests": [(_OK, D)],
    "distributed.parallel.answered_reconciles": [(_OK, D)],
    "bench.loadgen.late_p99_ms": [(_TAIL, C)],
    "bench.datagen_s": [],
    "bench.trace_overhead_ratio": [],
}
for _rate in SIZES["serve_open"]["ladder_rps"]:
    for _suffix in ("p50_ms", "p95_ms", "slo_miss_share"):
        MOVES[f"serving.frontdoor.rate_{int(_rate)}.{_suffix}"] = [(_TAIL, C)]
