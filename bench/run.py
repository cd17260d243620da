"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload, one phase; the last stdout line is the result JSON
        (this is the form BENCHMARK.json's ``command`` takes)
    python3 bench/run.py --seed N [--smoke]
        every workload, untraced then traced, each in its own process
    python3 bench/run.py --check-noise N [--workload NAME]
        N untraced runs of every workload on N seeds; spread vs bound

Also runnable as ``PYTHONPATH=src python -m bench.run``.
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import spec  # noqa: E402

# BLAS/OpenMP pools are pinned to one thread before numpy is imported
# (nothing above imports it), so a run's parallelism is only what the
# program itself spawns.
for _name in spec.THREAD_PINS:
    os.environ[_name] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    contract = spec.load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the phase (default {contract['run_seconds']}; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="small sizes, same code paths")
    parser.add_argument("--check-noise", type=int, default=0, metavar="N")
    parser.add_argument("--out", default=str(spec.OUT_DIR),
                        help="directory for result.json, trace_<workload>.json, history.jsonl")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(contract["run_seconds"])
    return args


def units() -> dict:
    contract = spec.load_contract()
    return {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}


# ----------------------------------------------------------------------
# one workload, one phase (what the driver runs)
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    from repro.utils.memory import configure_serving_allocator

    from bench.stamp import append_ledger, make_stamp
    from bench.trace import Tracer
    from bench.workloads import run_workload

    # The documented serving configuration (README "Orthogonal serving
    # knobs"): freed planes stay on the heap instead of being re-faulted.
    allocator_tuned = configure_serving_allocator()
    tracer = Tracer()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, tracer
    )
    unit = units()
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}{'  smoke' if args.smoke else ''}")
    for note in result.notes:
        print(f"# {note}")
    for problem in result.problems:
        print(f"# FAILED CHECK: {problem}", file=sys.stderr)
    metrics = {}
    if result.correct:
        for name, value in result.metrics.items():
            print(f"{name} = {value:.6g} {unit[name]}")
            metrics[name] = {"value": value, "unit": unit[name]}
    record = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = make_stamp(args.workload, args.seed, args.smoke, allocator_tuned)
    entry = dict(record, workload=args.workload, trace=args.trace,
                 seconds=args.seconds, notes=result.notes,
                 problems=result.problems, stamp=stamp)
    with open(out / "result.json", "w") as handle:
        json.dump(entry, handle, indent=1, sort_keys=True)
    if args.trace:
        tracer.write_chrome(out / f"trace_{args.workload}.json")
    append_ledger(out, entry)
    print(json.dumps(record))
    return 0 if result.correct else 1


# ----------------------------------------------------------------------
# every workload, each in its own process
# ----------------------------------------------------------------------
def child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(args.seconds),
               "--trace", str(trace), "--out", args.out]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench: {workload} (trace={trace}) failed with code {done.returncode}")
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for workload in spec.workload_names():
        for trace in (0, 1):
            results[f"{workload}.trace{trace}"] = child(args, workload, args.seed, trace)
    with open(Path(args.out) / "result.json", "w") as handle:
        json.dump({"seed": args.seed, "smoke": args.smoke, "runs": results},
                  handle, indent=1, sort_keys=True)
    return 0


def check_noise(args: argparse.Namespace) -> int:
    """Run-to-run spread of every end-to-end metric against its bound."""
    contract = spec.load_contract()
    workloads = [args.workload] if args.workload else spec.workload_names()
    values: dict = {}
    for repeat in range(args.check_noise):
        # Workloads are interleaved inside each repeat, so slow drift of
        # the shared host spreads over all of them instead of one.
        for workload in workloads:
            record = child(args, workload, args.seed + repeat, 0)
            for name, metric in record["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print(f"\n# spread = (q3 - q1) / median over {args.check_noise} runs, "
          f"seeds {args.seed}..{args.seed + args.check_noise - 1}")
    print(f"{'workload':<16} {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    exceeded = []
    for (workload, name), samples in values.items():
        q1, _, q3 = statistics.quantiles(samples, n=4)
        middle = statistics.median(samples)
        spread = (q3 - q1) / middle
        # setup_s is compared median to median, not by its spread.
        over = spread > bounds[name] and name != "setup_s"
        if over:
            exceeded.append((workload, name))
        print(f"{workload:<16} {name:<24} {middle:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.4f} {bounds[name]:>6.3f}{'  EXCEEDED' if over else ''}")
    return 1 if exceeded else 0


def stop_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The workloads close their own engines; what is left is Python's
    shared-memory ``resource_tracker``, which ``multiprocessing`` starts
    behind the program's ``SharedArrayPack`` and which otherwise outlives
    this process by a moment (it only exits on seeing our end of its pipe
    close).  Workers that a failed run could not close are killed first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe, then waitpid()s it
    while True:  # anything already dead but not yet reaped
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                break
        except ChildProcessError:
            break


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.stderr.write(f"bench: nothing to measure, {_ROOT}/src/repro is missing\n")
        return 2
    try:
        if args.check_noise:
            return check_noise(args)
        if args.workload is None:
            return run_all(args)
        return run_one(args)
    finally:
        stop_child_processes()


if __name__ == "__main__":
    sys.exit(main())
