#!/usr/bin/env python
"""Microbenchmark: vectorized screening engine vs the original pipeline.

Times the screening hot path end to end — screener-only, the default
vectorized ``forward`` and the ``faithful=True`` reference mode —
against a pinned reimplementation of the original
(pre-vectorization) dataflow: dense ``P`` rebuilt on every call, a
fresh ``Quantizer`` per call, a two-op matmul + bias add, a full copy
of the score plane, per-row candidate selection and a per-row exact
loop.

The seed stack is measured as it shipped, under glibc's default
allocator; the engine paths are measured under the serving
configuration (:func:`repro.utils.memory.configure_serving_allocator`),
which this change introduces — at extreme ``l`` the default allocator
re-faults the whole score plane on every batch, and removing that
churn is part of the hot-path work being benchmarked.

Run as a script (``make bench``); writes ``BENCH_pipeline.json`` with
per-config timings and the headline ``speedup_default_vs_seed``.

``--streaming`` (``make bench-streaming``) instead measures the blocked
streaming forward against the dense vectorized engine at extreme
``l`` — wall-clock untraced, then peak *incremental* memory twice over:
tracemalloc traced-allocation peaks (the primary metric; numpy routes
data allocations through the tracked domain) and ``ru_maxrss``
high-water deltas as corroborating context (streaming runs first, since
the process high-water mark never decreases).  Writes
``BENCH_streaming.json``.

``--trace`` (``make bench-trace``) measures the observability layer
itself: the blocked streaming forward timed with the default no-op
recorder, with metrics recording on, and with metrics + span tracing
on.  It merges a ``"telemetry"`` block (overhead percentages, the
metrics snapshot) into the existing ``BENCH_pipeline.json`` —
read-modify-write, like ``bench_parallel.py --faults`` — and writes one
clean single-request Chrome trace to ``BENCH_trace.json``, validated
against the minimal trace-event schema before it lands.

``--quantized-exact`` (``make bench-streaming-quant``) measures the
block-quantized exact-weight store: FP64 vs INT8/FP16 resident bytes,
``ru_maxrss`` increments from materializing each parameter set,
per-call streaming wall-clock + tracemalloc peaks for both engines, and
streamed ``predict()`` agreement.  Merges a ``"quantized_exact"`` block
into ``BENCH_streaming.json`` (read-modify-write, keeping the existing
streaming-vs-dense numbers).

``--smoke`` shrinks any mode to seconds for CI.

This is not a pytest-benchmark module — the paper-figure benchmarks in
``benchmarks/test_*.py`` measure experiment outputs; this file measures
the serving hot path in wall-clock terms.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import tracemalloc
from typing import Callable, List

import numpy as np

from repro.core.candidates import CandidateSelector, CandidateSet
from repro.core.classifier import FullClassifier
from repro.core.pipeline import ApproximateScreeningClassifier
from repro.core.screener import ScreeningModule
from repro.linalg.projection import SparseRandomProjection
from repro.linalg.quantize import Quantizer
from repro.linalg.topk import top_k_indices
from repro.obs import NULL_RECORDER, Recorder, validate_chrome_events
from repro.utils.memory import configure_serving_allocator, reset_default_allocator

HIDDEN_DIM = 64
PROJECTION_DIM = 16
NUM_CANDIDATES = 32
CATEGORY_COUNTS = (33_000, 100_000)
BATCH_SIZES = (64, 256)
SELECTORS = ("top_m", "threshold")
REPEATS = 9
WARMUP = 2

#: The acceptance configuration: extreme-l, serving batch, the
#: comparator's native selection mode.
HEADLINE = {"num_categories": 100_000, "batch": 64, "selector": "threshold"}

#: Streaming-mode acceptance configuration (the paper's Wikipedia-670K
#: scale): the dense engine must materialize a batch × l float64 plane
#: (~1.4 GB), the streaming engine must not.
STREAM_CATEGORIES = 670_000
STREAM_BATCH = 256
STREAM_HEADLINE_SELECTOR = "top_m"
STREAM_REPEATS = 3
SMOKE_STREAM_CATEGORIES = 20_000
SMOKE_STREAM_BATCH = 16


class SeedPipeline:
    """Pinned reconstruction of the pre-vectorization forward pass.

    Mirrors the original implementation operation for operation so the
    speedup baseline stays stable even as the library evolves:

    * ``SparseRandomProjection.matrix`` was a property that rebuilt the
      dense float64 matrix from the ternary codes on every projection;
    * ``approximate_logits`` constructed a fresh :class:`Quantizer` per
      call and computed ``projected @ W.T + bias`` as two passes over
      the (batch, l) plane;
    * selection cast scores to float64 and, in top-m mode, sorted each
      row in a Python list comprehension; threshold mode scanned row by
      row;
    * ``forward`` copied the full score plane, then looped over batch
      rows gathering and mixing one row's candidates at a time.
    """

    def __init__(
        self,
        classifier: FullClassifier,
        screener: ScreeningModule,
        selector: CandidateSelector,
    ):
        self.classifier = classifier
        self.screener = screener
        self.selector = selector

    def approximate_logits(self, batch: np.ndarray) -> np.ndarray:
        projection = self.screener.projection
        matrix = projection.ternary.astype(np.float64) * projection.scale
        projected = np.asarray(batch, dtype=np.float64) @ matrix.T
        if self.screener.quantization_bits is not None:
            quantizer = Quantizer(bits=self.screener.quantization_bits, axis=0)
            projected = quantizer.fake_quantize(projected)
        return projected @ self.screener._weight_deq.T + self.screener.bias

    def select(self, scores: np.ndarray) -> CandidateSet:
        array = np.asarray(scores, dtype=np.float64)
        if self.selector.mode == "top_m":
            m = min(self.selector.num_candidates, array.shape[1])
            picked = top_k_indices(array, m, sort=False)
            return CandidateSet(indices=[np.sort(row) for row in picked])
        threshold = self.selector.threshold
        return CandidateSet(
            indices=[np.flatnonzero(row > threshold) for row in array]
        )

    def forward(self, batch: np.ndarray) -> np.ndarray:
        approx = self.approximate_logits(batch)
        candidates = self.select(approx)
        mixed = approx.copy()
        for row, indices in enumerate(candidates):
            if indices.size == 0:
                continue
            exact = self.classifier.logits_for(indices, batch[row])
            mixed[row, indices] = exact[0]
        return mixed


def build_models(num_categories: int, rng: np.random.Generator):
    weight = rng.standard_normal((num_categories, HIDDEN_DIM)) / np.sqrt(HIDDEN_DIM)
    bias = rng.standard_normal(num_categories) * 0.01
    classifier = FullClassifier(weight, bias)
    projection = SparseRandomProjection(HIDDEN_DIM, PROJECTION_DIM, rng=rng)
    screener_weight = rng.standard_normal(
        (num_categories, PROJECTION_DIM)
    ) / np.sqrt(PROJECTION_DIM)
    screener = ScreeningModule(
        projection, screener_weight, np.zeros(num_categories), quantization_bits=4
    )
    return classifier, screener


def build_cases(category_counts=CATEGORY_COUNTS, batch_sizes=BATCH_SIZES) -> List[dict]:
    cases = []
    for num_categories in category_counts:
        rng = np.random.default_rng(7)
        classifier, screener = build_models(num_categories, rng)
        screener_f32 = ScreeningModule(
            screener.projection,
            screener.weight,
            screener.bias,
            quantization_bits=4,
            compute_dtype=np.float32,
        )
        calibration = rng.standard_normal((64, HIDDEN_DIM))
        for selector_mode in SELECTORS:
            selector = CandidateSelector(
                mode=selector_mode, num_candidates=NUM_CANDIDATES
            )
            if selector_mode == "threshold":
                selector.calibrate(screener.approximate_logits(calibration))
            engine = ApproximateScreeningClassifier(classifier, screener, selector)
            engine_f32 = ApproximateScreeningClassifier(
                classifier, screener_f32, selector
            )
            seed = SeedPipeline(classifier, screener, selector)
            for batch_size in batch_sizes:
                cases.append(
                    {
                        "num_categories": num_categories,
                        "selector": selector_mode,
                        "batch": batch_size,
                        "features": rng.standard_normal((batch_size, HIDDEN_DIM)),
                        "screener": screener,
                        "engine": engine,
                        "engine_f32": engine_f32,
                        "seed": seed,
                    }
                )
    return cases


def time_ms(
    fn: Callable[[], object], repeats: int = REPEATS, warmup: int = WARMUP
) -> float:
    """Best-of-``repeats`` wall time in milliseconds."""
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return min(samples)


def run(smoke: bool = False) -> dict:
    if smoke:
        cases = build_cases(category_counts=(5_000,), batch_sizes=(16,))
        repeats, warmup = 2, 1
        headline_config = {"num_categories": 5_000, "batch": 16,
                           "selector": "threshold"}
    else:
        cases = build_cases()
        repeats, warmup = REPEATS, WARMUP
        headline_config = HEADLINE

    # The seed stack never tuned the allocator; time it as shipped.
    reset_default_allocator()
    for case in cases:
        seed, batch = case["seed"], case["features"]
        case["seed_ms"] = time_ms(lambda: seed.forward(batch), repeats, warmup)

    serving_allocator = configure_serving_allocator()
    results = []
    for case in cases:
        screener = case["screener"]
        engine = case["engine"]
        engine_f32 = case["engine_f32"]
        batch = case["features"]
        timings = {
            "seed_forward": case["seed_ms"],
            "screener_only": time_ms(
                lambda: screener.approximate_logits(batch), repeats, warmup
            ),
            "forward_default": time_ms(
                lambda: engine.forward(batch), repeats, warmup
            ),
            "forward_default_f32": time_ms(
                lambda: engine_f32.forward(batch), repeats, warmup
            ),
            "forward_faithful": time_ms(
                lambda: engine.forward(batch, faithful=True), repeats, warmup
            ),
        }
        entry = {
            "num_categories": case["num_categories"],
            "hidden_dim": HIDDEN_DIM,
            "projection_dim": PROJECTION_DIM,
            "num_candidates": NUM_CANDIDATES,
            "selector": case["selector"],
            "batch": case["batch"],
            "timings_ms": {k: round(v, 3) for k, v in timings.items()},
            "speedup_default_vs_seed": round(
                timings["seed_forward"] / timings["forward_default"], 2
            ),
            "speedup_f32_vs_seed": round(
                timings["seed_forward"] / timings["forward_default_f32"], 2
            ),
        }
        results.append(entry)
        print(
            f"l={case['num_categories']} {case['selector']:>9} "
            f"b={case['batch']:<3} "
            f"seed={timings['seed_forward']:8.2f}ms "
            f"default={timings['forward_default']:8.2f}ms "
            f"({entry['speedup_default_vs_seed']:5.2f}x) "
            f"f32={timings['forward_default_f32']:8.2f}ms "
            f"({entry['speedup_f32_vs_seed']:5.2f}x)",
            flush=True,
        )

    headline_entry = next(
        r
        for r in results
        if all(r[key] == value for key, value in headline_config.items())
    )
    return {
        "benchmark": "screening pipeline hot path",
        "machine": machine_metadata(),
        "repeats": repeats,
        "allocator": {
            "seed_forward": "glibc default (pre-change stack, as shipped)",
            "engine_paths": "configure_serving_allocator"
            if serving_allocator
            else "glibc default (tuning unavailable on this platform)",
        },
        "headline": {
            **headline_config,
            "speedup_default_vs_seed": headline_entry["speedup_default_vs_seed"],
        },
        "results": results,
    }


# ----------------------------------------------------------------------
# streaming mode: blocked forward vs the dense engine at extreme l
# ----------------------------------------------------------------------
def machine_metadata() -> dict:
    import os

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def rss_kb() -> int:
    """Process high-water RSS in kB (Linux ``ru_maxrss`` units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def traced_peak_bytes(fn: Callable[[], object]) -> int:
    """Peak incremental traced allocation of one warm call.

    One untraced warm call first (so workspaces and caches are settled),
    then the peak is measured relative to the live footprint at the
    start of the traced call — exactly the transient memory the call
    itself adds.
    """
    fn()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return max(0, peak - baseline)


def build_streaming_cases(num_categories: int, batch_size: int) -> List[dict]:
    rng = np.random.default_rng(7)
    classifier, screener = build_models(num_categories, rng)
    calibration = rng.standard_normal((64, HIDDEN_DIM))
    features = rng.standard_normal((batch_size, HIDDEN_DIM))
    cases = []
    for selector_mode in SELECTORS:
        selector = CandidateSelector(
            mode=selector_mode, num_candidates=NUM_CANDIDATES
        )
        if selector_mode == "threshold":
            selector.calibrate(screener.approximate_logits(calibration))
        cases.append(
            {
                "selector": selector_mode,
                "engine": ApproximateScreeningClassifier(
                    classifier, screener, selector
                ),
                "features": features,
            }
        )
    return cases


def run_streaming(smoke: bool = False) -> dict:
    num_categories = SMOKE_STREAM_CATEGORIES if smoke else STREAM_CATEGORIES
    batch_size = SMOKE_STREAM_BATCH if smoke else STREAM_BATCH
    repeats = 2 if smoke else STREAM_REPEATS
    cases = build_streaming_cases(num_categories, batch_size)
    serving_allocator = configure_serving_allocator()

    results = []
    rss_start = rss_kb()
    # Streaming is measured before ANY dense call: ru_maxrss is a
    # process-lifetime high-water mark, so once the dense plane exists
    # the streaming delta would read as zero regardless of its true
    # footprint.
    for case in cases:
        engine, batch = case["engine"], case["features"]
        case["streaming_ms"] = time_ms(
            lambda: engine.forward_streaming(batch), repeats, warmup=1
        )
        case["streaming_peak"] = traced_peak_bytes(
            lambda: engine.forward_streaming(batch)
        )
    rss_after_streaming = rss_kb()
    for case in cases:
        engine, batch = case["engine"], case["features"]
        case["dense_ms"] = time_ms(
            lambda: engine.forward(batch), repeats, warmup=1
        )
        case["dense_peak"] = traced_peak_bytes(lambda: engine.forward(batch))
    rss_after_dense = rss_kb()

    rss_record = {
        "streaming_increment_kb": rss_after_streaming - rss_start,
        "dense_additional_increment_kb": rss_after_dense - rss_after_streaming,
        "note": "high-water deltas; streaming measured first (context "
        "metric — tracemalloc peaks are the primary comparison)",
    }
    for case in cases:
        entry = {
            "num_categories": num_categories,
            "hidden_dim": HIDDEN_DIM,
            "projection_dim": PROJECTION_DIM,
            "num_candidates": NUM_CANDIDATES,
            "selector": case["selector"],
            "batch": batch_size,
            "timings_ms": {
                "forward_default": round(case["dense_ms"], 3),
                "forward_streaming": round(case["streaming_ms"], 3),
            },
            "peak_incremental_bytes": {
                "forward_default": case["dense_peak"],
                "forward_streaming": case["streaming_peak"],
            },
            "speedup_streaming_vs_default": round(
                case["dense_ms"] / case["streaming_ms"], 2
            ),
            "peak_memory_reduction": round(
                case["dense_peak"] / max(case["streaming_peak"], 1), 1
            ),
        }
        results.append(entry)
        print(
            f"l={num_categories} {case['selector']:>9} b={batch_size:<3} "
            f"dense={case['dense_ms']:9.2f}ms "
            f"streaming={case['streaming_ms']:9.2f}ms "
            f"({entry['speedup_streaming_vs_default']:5.2f}x)  "
            f"peak {case['dense_peak'] / 1e6:9.1f}MB -> "
            f"{case['streaming_peak'] / 1e6:7.1f}MB "
            f"({entry['peak_memory_reduction']:6.1f}x less)",
            flush=True,
        )

    headline_entry = next(
        r for r in results if r["selector"] == STREAM_HEADLINE_SELECTOR
    )
    return {
        "benchmark": "blocked streaming forward vs dense engine",
        "machine": machine_metadata(),
        "repeats": repeats,
        "allocator": (
            "configure_serving_allocator"
            if serving_allocator
            else "glibc default (tuning unavailable on this platform)"
        ),
        "ru_maxrss": rss_record,
        "headline": {
            "num_categories": num_categories,
            "batch": batch_size,
            "selector": STREAM_HEADLINE_SELECTOR,
            "speedup_streaming_vs_default": headline_entry[
                "speedup_streaming_vs_default"
            ],
            "peak_memory_reduction": headline_entry["peak_memory_reduction"],
        },
        "results": results,
    }


# ----------------------------------------------------------------------
# quantized-exact mode: block-quantized weight store vs FP64 residency
# ----------------------------------------------------------------------
def run_quantized(smoke: bool = False) -> dict:
    """Resident-set and serving cost of the block-quantized exact store.

    Measures, at the streaming scale (l=670K full, smoke-shrunk in CI):

    * exact-weight resident bytes — the FP64 plane vs the INT8 codes
      (+ per-tile scales + FP64 bias) vs raw float16, from the arrays
      that must stay resident to serve;
    * ``ru_maxrss`` increments — the process high-water delta from
      materializing the FP64 model, then the (much smaller) delta from
      building the quantized store on top of it;
    * per-call serving cost — streaming wall-clock and tracemalloc
      traced-allocation peak for the FP64 and the quantized engine
      (both stream tiles; the quantized path dequantizes into workspace
      scratch, so its per-call peak must stay in the same regime);
    * streamed ``predict()`` agreement between the two engines, per
      selector (the bounded-delta quality gate proper lives in
      ``tests/test_quantized_store.py``).
    """
    from repro.core.weightstore import QuantizedExactStore

    num_categories = SMOKE_STREAM_CATEGORIES if smoke else STREAM_CATEGORIES
    batch_size = SMOKE_STREAM_BATCH if smoke else STREAM_BATCH
    repeats = 2 if smoke else STREAM_REPEATS
    serving_allocator = configure_serving_allocator()

    # ru_maxrss is a lifetime high-water mark: build the FP64 model
    # first and the store second, so each increment isolates one of the
    # two parameter sets.
    rss_start = rss_kb()
    rng = np.random.default_rng(7)
    classifier, screener = build_models(num_categories, rng)
    rss_after_fp64 = rss_kb()
    store = QuantizedExactStore.from_classifier(classifier, kind="int8")
    rss_after_store = rss_kb()
    fp16_store = QuantizedExactStore.from_classifier(classifier, kind="float16")

    fp64_bytes = classifier.weight.nbytes + classifier.bias.nbytes
    resident = {
        "fp64_exact_bytes": fp64_bytes,
        "int8_exact_bytes": store.nbytes,
        "float16_exact_bytes": fp16_store.nbytes,
        "reduction_int8": round(fp64_bytes / store.nbytes, 2),
        "reduction_float16": round(fp64_bytes / fp16_store.nbytes, 2),
    }
    rss_record = {
        "fp64_model_increment_kb": rss_after_fp64 - rss_start,
        "quantized_store_increment_kb": rss_after_store - rss_after_fp64,
        "note": "high-water deltas: the FP64 model (classifier + "
        "screener) lands first, the INT8 store's codes/scales on top "
        "of it; a quantized-only server never pays the first delta",
    }
    del fp16_store

    calibration = rng.standard_normal((64, HIDDEN_DIM))
    features = rng.standard_normal((batch_size, HIDDEN_DIM))
    results = []
    for selector_mode in SELECTORS:
        selector = CandidateSelector(
            mode=selector_mode, num_candidates=NUM_CANDIDATES
        )
        if selector_mode == "threshold":
            selector.calibrate(screener.approximate_logits(calibration))
        fp64_engine = ApproximateScreeningClassifier(
            classifier, screener, selector
        )
        quant_engine = ApproximateScreeningClassifier(
            store, screener, selector
        )
        fp64_ms = time_ms(
            lambda: fp64_engine.forward_streaming(features), repeats, warmup=1
        )
        quant_ms = time_ms(
            lambda: quant_engine.forward_streaming(features), repeats, warmup=1
        )
        fp64_peak = traced_peak_bytes(
            lambda: fp64_engine.forward_streaming(features)
        )
        quant_peak = traced_peak_bytes(
            lambda: quant_engine.forward_streaming(features)
        )
        agreement = float(
            np.mean(
                fp64_engine.forward_streaming(features).predict()
                == quant_engine.forward_streaming(features).predict()
            )
        )
        entry = {
            "num_categories": num_categories,
            "hidden_dim": HIDDEN_DIM,
            "projection_dim": PROJECTION_DIM,
            "num_candidates": NUM_CANDIDATES,
            "selector": selector_mode,
            "batch": batch_size,
            "timings_ms": {
                "streaming_fp64": round(fp64_ms, 3),
                "streaming_int8": round(quant_ms, 3),
            },
            "peak_incremental_bytes": {
                "streaming_fp64": fp64_peak,
                "streaming_int8": quant_peak,
            },
            "predict_agreement": agreement,
        }
        results.append(entry)
        print(
            f"l={num_categories} {selector_mode:>9} b={batch_size:<3} "
            f"fp64={fp64_ms:9.2f}ms int8={quant_ms:9.2f}ms  "
            f"peak {fp64_peak / 1e6:7.1f}MB -> {quant_peak / 1e6:7.1f}MB  "
            f"agree={agreement:.3f}",
            flush=True,
        )

    print(
        f"exact weights: fp64 {fp64_bytes / 1e6:.1f}MB -> "
        f"int8 {store.nbytes / 1e6:.1f}MB "
        f"({resident['reduction_int8']}x less resident)",
        flush=True,
    )
    return {
        "benchmark": "block-quantized exact-weight store vs FP64 residency",
        "machine": machine_metadata(),
        "repeats": repeats,
        "allocator": (
            "configure_serving_allocator"
            if serving_allocator
            else "glibc default (tuning unavailable on this platform)"
        ),
        "store": {"kind": "int8", "tile_rows": store.tile_rows,
                  "num_tiles": store.num_tiles},
        "resident_bytes": resident,
        "ru_maxrss": rss_record,
        "headline": {
            "num_categories": num_categories,
            "batch": batch_size,
            "exact_weight_reduction_int8": resident["reduction_int8"],
            "predict_agreement_min": min(
                r["predict_agreement"] for r in results
            ),
        },
        "results": results,
    }


# ----------------------------------------------------------------------
# trace mode: the cost of watching, plus an exportable serving trace
# ----------------------------------------------------------------------
#: Trace-mode scale: big enough for several canonical column tiles
#: (8192 categories each), small enough to run in seconds.
TRACE_CATEGORIES = 33_000
TRACE_BATCH = 64


def run_trace(smoke: bool = False, trace_path: str = "BENCH_trace.json") -> dict:
    """Observability overhead on the streaming hot path + trace export.

    Three timings of the identical call: recorder off (the shipped
    default), metrics recording on, metrics + span tracing on.  Then
    one clean instrumented request is exported as Chrome trace-event
    JSON and schema-validated before being written.
    """
    num_categories = SMOKE_STREAM_CATEGORIES if smoke else TRACE_CATEGORIES
    batch_size = SMOKE_STREAM_BATCH if smoke else TRACE_BATCH
    repeats = 2 if smoke else REPEATS
    configure_serving_allocator()

    rng = np.random.default_rng(7)
    classifier, screener = build_models(num_categories, rng)
    selector = CandidateSelector(mode="top_m", num_candidates=NUM_CANDIDATES)
    engine = ApproximateScreeningClassifier(classifier, screener, selector)
    features = rng.standard_normal((batch_size, HIDDEN_DIM))

    def streaming():
        return engine.forward_streaming(features)

    engine.set_recorder(NULL_RECORDER)
    off_ms = time_ms(streaming, repeats, WARMUP)
    metrics_recorder = Recorder()
    engine.set_recorder(metrics_recorder)
    metrics_ms = time_ms(streaming, repeats, WARMUP)
    traced_recorder = Recorder(trace=True)
    engine.set_recorder(traced_recorder)
    traced_ms = time_ms(streaming, repeats, WARMUP)

    # One clean request for the exported trace (the timing loops above
    # left their spans behind; the artifact should be one request).
    traced_recorder.tracer.clear()
    streaming()
    events = validate_chrome_events(traced_recorder.tracer.chrome_events())
    assert traced_recorder.tracer.open_spans() == 0
    with open(trace_path, "w") as handle:
        json.dump(events, handle)
        handle.write("\n")
    engine.set_recorder(NULL_RECORDER)

    def overhead_pct(on_ms: float) -> float:
        return round((on_ms / off_ms - 1.0) * 100.0, 2)

    telemetry = {
        "benchmark": "observability overhead on the streaming forward",
        "machine": machine_metadata(),
        "config": {
            "num_categories": num_categories,
            "hidden_dim": HIDDEN_DIM,
            "projection_dim": PROJECTION_DIM,
            "num_candidates": NUM_CANDIDATES,
            "batch": batch_size,
            "repeats": repeats,
        },
        "timings_ms": {
            "observability_off": round(off_ms, 3),
            "metrics_on": round(metrics_ms, 3),
            "metrics_and_trace_on": round(traced_ms, 3),
        },
        "overhead_pct": {
            "metrics_on": overhead_pct(metrics_ms),
            "metrics_and_trace_on": overhead_pct(traced_ms),
        },
        "trace": {
            "path": trace_path,
            "events": len(events),
            "span_names": sorted({str(event["name"]) for event in events}),
        },
        "metrics_snapshot": traced_recorder.snapshot(),
    }
    print(
        f"l={num_categories} b={batch_size} streaming: "
        f"off={off_ms:8.2f}ms metrics={metrics_ms:8.2f}ms "
        f"(+{telemetry['overhead_pct']['metrics_on']}%) "
        f"trace={traced_ms:8.2f}ms "
        f"(+{telemetry['overhead_pct']['metrics_and_trace_on']}%)  "
        f"{len(events)} events -> {trace_path}",
        flush=True,
    )
    return telemetry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default=None)
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="benchmark the blocked streaming forward instead of the "
        "seed-vs-vectorized comparison",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="measure observability overhead, merge a telemetry block "
        "into the pipeline report and export a Chrome trace",
    )
    parser.add_argument(
        "--quantized-exact",
        action="store_true",
        help="measure the block-quantized exact-weight store against "
        "FP64 residency and merge a 'quantized_exact' block into the "
        "streaming report",
    )
    parser.add_argument(
        "--trace-output",
        default="BENCH_trace.json",
        help="where --trace writes the Chrome trace-event JSON",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI (seconds, not minutes)",
    )
    args = parser.parse_args()
    if args.trace:
        output_path = args.output or "BENCH_pipeline.json"
        # Read-modify-write: the telemetry block joins the existing
        # timing report rather than replacing it.
        try:
            with open(output_path) as handle:
                report = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            report = {"benchmark": "screening pipeline hot path"}
        report["telemetry"] = run_trace(
            smoke=args.smoke, trace_path=args.trace_output
        )
        with open(output_path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        overhead = report["telemetry"]["overhead_pct"]
        print(
            f"\ntelemetry: metrics +{overhead['metrics_on']}%, "
            f"metrics+trace +{overhead['metrics_and_trace_on']}% over the "
            f"no-op recorder -> {output_path} (trace: {args.trace_output})"
        )
        return 0
    if args.quantized_exact:
        output_path = args.output or "BENCH_streaming.json"
        # Read-modify-write: the quantized block joins the existing
        # streaming report rather than replacing it (same contract as
        # --trace with the pipeline report).
        try:
            with open(output_path) as handle:
                report = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            report = {"benchmark": "blocked streaming forward vs dense engine"}
        report["quantized_exact"] = run_quantized(smoke=args.smoke)
        with open(output_path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        headline = report["quantized_exact"]["headline"]
        print(
            f"\nquantized exact store: l={headline['num_categories']} "
            f"batch={headline['batch']}: int8 exact weights are "
            f"{headline['exact_weight_reduction_int8']}x smaller resident "
            f"than FP64, streamed predict agreement >= "
            f"{headline['predict_agreement_min']} -> {output_path}"
        )
        return 0
    if args.streaming:
        output_path = args.output or "BENCH_streaming.json"
        report = run_streaming(smoke=args.smoke)
        summary = report["headline"]
        closing = (
            f"\nheadline: l={summary['num_categories']} "
            f"batch={summary['batch']} {summary['selector']}: streaming is "
            f"{summary['speedup_streaming_vs_default']}x dense wall-clock at "
            f"{summary['peak_memory_reduction']}x lower peak memory "
            f"-> {output_path}"
        )
    else:
        output_path = args.output or "BENCH_pipeline.json"
        report = run(smoke=args.smoke)
        summary = report["headline"]
        closing = (
            f"\nheadline: l={summary['num_categories']} batch={summary['batch']} "
            f"{summary['selector']}: default forward is "
            f"{summary['speedup_default_vs_seed']}x the seed loop "
            f"-> {output_path}"
        )
    with open(output_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(closing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
