"""Peak memory of one warm ``forward_streaming`` call, phase by phase.

    PYTHONPATH=src python3 scripts/call_peak.py --l 670000 --rows 64 --selector top_m
    make call-peak [L=670000] [ROWS=16] [SELECTOR=threshold] [STORE=fp64]

Builds a pipeline (``make_task``, a ``train_screener(solver="lstsq")`` fit,
threshold calibration when the selector is ``threshold``, the exact weights
quantized when ``--store`` is ``int8`` or ``float16``), repeats
``forward_streaming`` on one batch of ``--rows`` rows until the workspace is
flat, counts the arena requests one more warm call makes (each a dict
lookup, and a view when its shape changed), then prints the
``tracemalloc`` peak above what was live before
(median of ``--repeats``) of:

* ``screen+select`` — the tile loop: screening, the reducer, finalize;
* ``exact``         — the exact phase over the candidates the loop chose;
* ``whole call``    — ``forward_streaming`` itself;

then the call's result — the bytes of the arrays it returns (counts,
columns, exact and approximate values), the floor any call must
allocate — and the whole call's peak over it.

Both phases run on the pipeline's own arena, as the call runs them.  One
tile of scores is printed beside them for scale: a warm call that allocates
a large share of it holds a tile-sized temporary somewhere, and the phase
lines say where.  The next two lines count the canonical tiles of one call,
how many of them a prescreen pass covered and skipped, and how many of
those its coarse and box stages skipped before the entry step, then the
rows each stage ran on — compared against a coarse bound, tested against the tile's
boxes, tested on their failing boxes' columns, scored in float64 by the
tile GEMMs (tile 0's included) — read from a ``Recorder`` on one more
call, after the peaks.  The last line is a SHA-256 digest of the batch's
``forward_streaming`` record (counts, columns, exact and approximate
values) and of its ``top_k(16)`` indices and scores, also taken after the
peaks.  The benchmark's ``call_peak_mb`` is the whole-call line at its own
sizes; put another tree's ``src`` on ``PYTHONPATH`` (``make call-peak``
puts it before this tree's ``src``) to read that tree — two trees whose
outputs are bit-identical print the same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import tracemalloc

import numpy as np

from repro.core.candidates import CandidateSelector, CandidateSet
from repro.core.pipeline import ApproximateScreeningClassifier
from repro.core.screener import TILE_CATEGORIES, ScreeningConfig
from repro.core.training import train_screener
from repro.data import make_task
from repro.obs import NULL_RECORDER, Recorder

#: Calls made to find where the workspace settles.
MAX_WARM_CALLS = 6


def build(args) -> tuple:
    rng = np.random.default_rng(args.seed)
    task = make_task(args.l, args.d, rng=rng)
    screener = train_screener(
        task.classifier,
        task.sample_features(args.train_rows, rng=rng),
        config=ScreeningConfig(projection_dim=args.k),
        solver="lstsq",
        rng=rng,
    )
    selector = CandidateSelector(mode=args.selector, num_candidates=args.m)
    if args.selector == "threshold":
        selector.calibrate(screener.approximate_logits(task.sample_features(16, rng=rng)))
    model = ApproximateScreeningClassifier(task.classifier, screener, selector)
    if args.store != "fp64":
        model.quantize_exact_weights(args.store)
    return model, task.sample_features(args.rows, rng=rng)


def peak_bytes(operation, repeats: int) -> int:
    """Median ``tracemalloc`` peak above the bytes live at the start."""
    peaks = []
    for _ in range(repeats):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            operation()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    return int(statistics.median(peaks))


def measure(model, batch, repeats: int) -> dict:
    ws = model.workspace
    calls = 0
    while calls < MAX_WARM_CALLS:
        before = ws.allocations
        model.forward_streaming(batch)
        calls += 1
        if calls >= 2 and ws.allocations == before:
            break
    requests = ws.requests
    model.forward_streaming(batch)
    requests = ws.requests - requests
    counts, cols, _ = model._screen_and_select(batch, ws)
    candidates = CandidateSet.from_flat(counts, cols)
    allocations = ws.allocations
    peaks = {
        "screen+select": peak_bytes(lambda: model._screen_and_select(batch, ws), repeats),
        "exact": peak_bytes(
            lambda: model._exact_candidate_values(batch, candidates, ws), repeats
        ),
        "whole call": peak_bytes(lambda: model.forward_streaming(batch), repeats),
    }
    recorder = Recorder()
    model.set_recorder(recorder)
    model.forward_streaming(batch)
    model.set_recorder(NULL_RECORDER)
    counters = recorder.snapshot()["counters"]
    output = model.forward_streaming(batch)
    result = dict(
        peaks=peaks,
        result_bytes=sum(
            array.nbytes
            for array in (
                output.candidates.counts, output.candidates.flat()[1],
                output.exact_values, output.approximate_values,
            )
        ),
        tiles=len(model.screener.tile_bounds()),
        prescreened=int(counters.get("pipeline.tiles_prescreened", 0)),
        skipped=int(counters.get("pipeline.tiles_skipped", 0)),
        box_skipped=int(counters.get("pipeline.tiles_box_skipped", 0)),
        stage_rows=[
            int(counters.get(f"pipeline.{name}", 0))
            for name in (
                "rows_coarse_tested", "rows_box_tested", "rows_entry_tested",
                "rows_float64_scored",
            )
        ],
        warm_calls=calls,
        steady_allocations=ws.allocations - allocations,
        requests=requests,
        workspace_bytes=ws.nbytes,
        tile_bytes=batch.shape[0] * TILE_CATEGORIES * model.screener.compute_dtype.itemsize,
        candidates=int(counts.sum()),
    )
    # Last: top_k's runner-up slots grow the arena.
    result["digest"] = output_digest(model, batch)
    return result


def output_digest(model, batch) -> str:
    """SHA-256 of ``forward_streaming(batch)``'s record — counts, columns,
    exact and approximate values — then of ``top_k(batch, 16)``'s indices
    and scores: equal digests from two trees mean equal output bits."""
    output = model.forward_streaming(batch)
    digest = hashlib.sha256()
    for array in (
        output.candidates.counts, output.candidates.flat()[1],
        output.exact_values, output.approximate_values, *model.top_k(batch, 16),
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def report(args, result: dict) -> str:
    lines = [
        f"call peak: l={args.l} rows={args.rows} k={args.k} d={args.d} m={args.m} "
        f"selector={args.selector} store={args.store}, tracemalloc peak above live, "
        f"median of {args.repeats}",
        f"{'phase':<16}{'MB':>10}{'bytes':>12}{'of a tile':>11}",
    ]
    for phase, value in result["peaks"].items():
        share = value / result["tile_bytes"]
        lines.append(f"{phase:<16}{value / 1e6:>10.3f}{value:>12,}{share:>11.3f}")
    lines.append(f"{'one tile':<16}{result['tile_bytes'] / 1e6:>10.3f}{result['tile_bytes']:>12,}")
    floor = result["result_bytes"]
    lines.append(
        f"{'result':<16}{floor / 1e6:>10.3f}{floor:>12,}   whole call ÷ result "
        f"{result['peaks']['whole call'] / floor:.2f}"
    )
    lines.append(
        f"workspace {result['workspace_bytes'] / 1e6:.3f} MB after {result['warm_calls']} "
        f"warm-up calls, {result['steady_allocations']} allocations while measured, "
        f"{result['requests']} requests per warm call, {result['candidates']} candidates"
    )
    lines.append(
        f"tiles per call {result['tiles']}: {result['prescreened']} prescreened, "
        f"{result['skipped']} skipped ({result['box_skipped']} by their boxes, "
        f"{result['skipped'] - result['box_skipped']} by their entries)"
    )
    coarse, box, entry, float64 = result["stage_rows"]
    lines.append(
        f"rows per call: {coarse} coarse / {box} box / {entry} entry / {float64} float64"
    )
    lines.append(f"output sha256 (forward_streaming record, top_k 16): {result['digest']}")
    return "\n".join(lines)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--l", type=int, default=670_000, help="categories")
    parser.add_argument("--rows", type=int, default=16, help="rows per call")
    parser.add_argument("--selector", choices=("threshold", "top_m"), default="threshold")
    parser.add_argument("--store", choices=("fp64", "int8", "float16"), default="fp64")
    parser.add_argument("--k", type=int, default=16, help="projection dim")
    parser.add_argument("--d", type=int, default=64, help="hidden dim")
    parser.add_argument("--m", type=int, default=32, help="candidates per row")
    parser.add_argument("--train-rows", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    model, batch = build(args)
    result = measure(model, batch, args.repeats)
    print(report(args, result))
    return result


if __name__ == "__main__":
    main()
