"""Set-up of a single-node pipeline, phase by phase, at 1 and 2 lanes.

    PYTHONPATH=src python3 scripts/setup_phases.py --l 670000 --selector threshold
    make setup-phases [L=670000] [K=16] [ROWS=16] [SELECTOR=threshold]

Builds the inputs once (``make_task``, a ``train_screener(solver="lstsq")``
fit, calibration rows, a few batches), then times what a program pays from
arrays in hand to a settled pipeline:

* ``plane``        — ``ScreeningModule(...)``: the fused INT4 plane;
* ``boxes``        — the same constructor's box prescreen boxes, each
  tile's largest magnitudes read and its weights rotated into the
  principal axes and reduced per chunk, then per coarse box, in the
  same lanes: the slowest lane's share, taken out of ``plane`` (0 on a
  tree without them);
* ``scores``       — ``approximate_logits`` of the ``ROWS`` calibration rows;
* ``calibration``  — ``CandidateSelector.calibrate`` on those scores
  (threshold selector only);
* ``first call``   — the pipeline's first ``forward_streaming``;
* ``second call``  — its second, on a different batch of the same shape.

Each phase is timed ``--repeats`` times (best / median, ms).  The
``allocations`` line lists how many workspace slabs each of the first
calls (re)allocated, and ``calls to flat`` counts the calls until one
allocates nothing — the warm-up a benchmark that repeats a call until its
workspace is flat pays.  The ``resident`` lines list the bytes the
screener keeps per derived array — the fused plane, the boxes, the coarse
boxes, and any other array of a megabyte or more a tree keeps beside its
master weights.  Everything runs twice, the lane rule patched to 1 lane
and then to 2 (``repro.core.screener.lane_count``, which the plane
placement and ``approximate_logits`` read; trees whose serving loop ran
in lanes also import it into ``repro.core.pipeline``, patched there too),
so a set-up change can be broken down by phase and by lane count without
running the benchmark; put another tree's ``src`` on ``PYTHONPATH``
(``make setup-phases`` puts it before this tree's ``src``) to time that
tree.  The two calls fold on one lane in this tree, so their
rows differ by lane count only on such older trees.  Timings are the
host's: a 2-lane figure needs two free cores.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import threading
import time

# One BLAS thread, as bench/run.py pins it: the lanes are the parallelism.
for _name in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_name] = "1"

import numpy as np

from repro.core import pipeline as pipeline_module
from repro.core import screener as screener_module
from repro.core.candidates import CandidateSelector
from repro.core.pipeline import ApproximateScreeningClassifier
from repro.core.screener import ScreeningConfig, ScreeningModule
from repro.core.training import train_screener
from repro.data import make_task

PHASES = ("plane", "boxes", "scores", "calibration", "first call", "second call")
#: The screener's derived arrays by attribute, as ``resident`` names them.
DERIVED = {
    "_fused_weight_t": "fused plane", "_tile_box": "boxes", "_tile_coarse": "coarse boxes"
}
#: Calls made to find where the workspace settles.
MAX_WARM_CALLS = 6


def build_inputs(args) -> dict:
    rng = np.random.default_rng(args.seed)
    task = make_task(args.l, args.d, rng=rng)
    fit = train_screener(
        task.classifier,
        task.sample_features(args.train_rows, rng=rng),
        config=ScreeningConfig(projection_dim=args.k),
        solver="lstsq",
        rng=rng,
    )
    return dict(
        task=task,
        fit=fit,
        valid=task.sample_features(args.rows, rng=rng),
        batches=[task.sample_features(args.batch, rng=rng) for _ in range(MAX_WARM_CALLS)],
    )


def set_up_once(inputs: dict, args) -> dict:
    """One set-up, timed per phase (seconds), plus the allocations of
    each warm-up call."""
    fit, clock, times = inputs["fit"], time.perf_counter, {}
    start = clock()
    with lane_clock("_place_box_tile") as boxes:
        screener = ScreeningModule(fit.projection, fit.weight, fit.bias, quantization_bits=4)
    times["boxes"] = max(boxes.values(), default=0.0)
    times["plane"] = clock() - start - times["boxes"]
    start = clock()
    scores = screener.approximate_logits(inputs["valid"])
    times["scores"] = clock() - start
    selector = CandidateSelector(mode=args.selector, num_candidates=args.m)
    start = clock()
    if args.selector == "threshold":
        selector.calibrate(scores)
    times["calibration"] = clock() - start
    model = ApproximateScreeningClassifier(inputs["task"].classifier, screener, selector)
    allocations = []
    for call, batch in enumerate(inputs["batches"]):
        before = model.workspace.allocations
        start = clock()
        model.forward_streaming(batch)
        elapsed = clock() - start
        if call < 2:
            times[("first call", "second call")[call]] = elapsed
        allocations.append(model.workspace.allocations - before)
        if call >= 1 and allocations[-1] == 0:
            break
    return dict(times=times, allocations=allocations, resident=resident_bytes(screener, fit))


def resident_bytes(screener, fit) -> dict:
    """Bytes of each array ``screener`` keeps beside the master weights
    and bias it was built from: :data:`DERIVED` by name, any other of a
    megabyte or more by attribute (such as an older tree's float32 copy
    of the plane)."""
    arrays = vars(screener)
    resident = {
        label: arrays[name].nbytes
        for name, label in DERIVED.items()
        if arrays.get(name) is not None
    }
    for name, value in arrays.items():
        if isinstance(value, np.ndarray) and name not in DERIVED and value.nbytes >= 1 << 20:
            if value is not fit.weight and value is not fit.bias:
                resident[name] = value.nbytes
    return resident


@contextlib.contextmanager
def lane_clock(name: str):
    """Seconds each placing lane (by thread) spends in the set-up step
    ``ScreeningModule.<name>`` while the block runs, timed per call (no
    time on a tree without that step)."""
    spent: dict = {}
    place = getattr(ScreeningModule, name, None)
    if place is None:
        yield spent
        return

    def timed(module, *args):
        start = time.perf_counter()
        place(module, *args)
        lane = threading.get_ident()
        spent[lane] = spent.get(lane, 0.0) + time.perf_counter() - start

    setattr(ScreeningModule, name, timed)
    try:
        yield spent
    finally:
        setattr(ScreeningModule, name, place)


#: Where the lane rule is read: the screener; older trees whose serving
#: loop ran in lanes import it into the pipeline too, and the oldest
#: define it in the pipeline only (their set-up has no lanes).
LANE_RULE_HOMES = [
    module for module in (screener_module, pipeline_module) if hasattr(module, "lane_count")
]


def force_lanes(lanes: int) -> None:
    for module in LANE_RULE_HOMES:
        module.lane_count = lambda rows, tiles: max(1, min(lanes, tiles - 1))


def measure(inputs: dict, args, lanes: int) -> dict:
    force_lanes(lanes)
    runs = [set_up_once(inputs, args) for _ in range(args.repeats)]
    return dict(
        times={
            phase: [run["times"][phase] * 1e3 for run in runs] for phase in PHASES
        },
        allocations=runs[-1]["allocations"],
        resident=runs[-1]["resident"],
    )


def report(args, results: dict) -> str:
    lanes = sorted(results)
    lines = [
        f"set-up phases: l={args.l} k={args.k} d={args.d} rows={args.rows} "
        f"batch={args.batch} selector={args.selector}, best / median of "
        f"{args.repeats} (ms)",
        f"{'phase':<14}" + "".join(f"{f'{n} lane' + ('s' if n > 1 else ''):>20}" for n in lanes),
    ]
    for phase in PHASES:
        cells = []
        for n in lanes:
            values = results[n]["times"][phase]
            cells.append(f"{min(values):9.2f} / {statistics.median(values):7.2f}")
        lines.append(f"{phase:<14}" + "".join(f"{cell:>20}" for cell in cells))
    total = {
        n: statistics.median(
            sum(results[n]["times"][phase][i] for phase in PHASES)
            for i in range(args.repeats)
        )
        for n in lanes
    }
    lines.append(f"{'total (median)':<14}" + "".join(f"{total[n]:>20.2f}" for n in lanes))
    lines.append(
        f"{'allocations':<14}"
        + "".join(f"{', '.join(map(str, results[n]['allocations'])):>20}" for n in lanes)
    )
    lines.append(
        f"{'calls to flat':<14}"
        + "".join(f"{len(results[n]['allocations']):>20}" for n in lanes)
    )
    resident = results[lanes[0]]["resident"]
    for name, size in resident.items():
        lines.append(f"resident {name}: {size / 1e6:.1f} MB ({size:,} bytes)")
    lines.append(f"resident total: {sum(resident.values()) / 1e6:.1f} MB")
    return "\n".join(lines)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--l", type=int, default=670_000, help="categories")
    parser.add_argument("--k", type=int, default=16, help="projection dim")
    parser.add_argument("--d", type=int, default=64, help="hidden dim")
    parser.add_argument("--rows", type=int, default=16, help="calibration rows")
    parser.add_argument("--batch", type=int, default=64, help="rows per call")
    parser.add_argument("--m", type=int, default=32, help="candidates per row")
    parser.add_argument("--selector", choices=("threshold", "top_m"), default="threshold")
    parser.add_argument("--train-rows", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    inputs = build_inputs(args)
    restore = [module.lane_count for module in LANE_RULE_HOMES]
    try:
        results = {lanes: measure(inputs, args, lanes) for lanes in (1, 2)}
    finally:
        for module, rule in zip(LANE_RULE_HOMES, restore):
            module.lane_count = rule
    print(report(args, results))
    return results


if __name__ == "__main__":
    main()
