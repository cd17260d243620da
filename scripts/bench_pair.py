"""Paired before/after runs of the repo's benchmark.

    python3 scripts/bench_pair.py --workload batch_topm --pairs 10
    make bench-pair WORKLOAD=batch_topm PAIRS=10 [PARENT=HEAD~1]

Unpacks ``--parent`` (default ``HEAD``: the commit an uncommitted change
sits on; pass ``HEAD~1`` once it is committed) into a temporary directory
with ``git archive | tar -x`` — nothing under ``.git`` is written, so it
works where a worktree cannot be added — and runs ``python3 bench/run.py
--workload W`` on it and on the working tree alternately — which side
goes first alternates too, and both sides of a pair get the same seed
(``--seed`` + pair index).  Prints each side's median and quartiles per metric and the share of
pairs the change won: the procedure in the ``choosing-metrics`` guide §8
(a gain is claimed only when the change wins at least nine tenths of the
pairs, ties counting for neither, and the medians differ by more than
the parent's own interquartile distance).  Each end-to-end metric also
gets the no-regression verdict a PR that claims no gain needs: ``WORSE``
when the change's median is worse than the parent's by more than the
metric's ``bound`` in ``BENCHMARK.json``, ``UNRESOLVED`` when the
parent's own spread (IQR / median) exceeds that bound and not every run
of the change beats every run of the parent.  ``--workload all`` runs
every workload the contract lists.

Where a tree sits is itself a variable on this benchmark: byte-identical
trees in two directories have read 1.5-6% apart on ``batch_topm`` and
``batch_threshold`` with one side winning 8-10 of 10 pairs, either way
round (ROADMAP item 1 lists the runs).  A shift that small there is
placement whatever its win share says; run an A/A beside it (a clone of
the parent as the working tree).

It only invokes ``bench/run.py``; it changes nothing under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def contract() -> dict:
    """``BENCHMARK.json``, read only."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def directions() -> dict:
    """``{metric: "higher" | "lower"}`` from ``BENCHMARK.json``."""
    spec = contract()
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def bounds() -> dict:
    """``{end-to-end metric: relative no-regression bound}``."""
    return {m["name"]: m["bound"] for m in contract()["end_to_end"]}


def materialize(revision: str, tree: Path, repo: Path = ROOT) -> None:
    """Unpack ``revision`` of the repository at ``repo`` into the new
    directory ``tree``: ``git archive revision | tar -x -C tree``."""
    archive = subprocess.run(["git", "archive", revision], cwd=repo, capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"bench_pair: git archive {revision}: {archive.stderr.decode().strip()}")
    tree.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)


def parse_record(stdout: str) -> dict:
    """The run record ``bench/run.py`` prints as its last stdout line;
    a failed record when that line is missing or is not JSON."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False}
    return record if isinstance(record, dict) else {"correct": False}


def run_side(root: Path, out: Path, args: argparse.Namespace, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run in ``root``; ``{metric: value}``."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", str(args.trace), "--out", str(out)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    record = parse_record(done.stdout)
    if done.returncode != 0 or not record.get("correct"):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench_pair: run in {root} failed (code {done.returncode})")
    return {name: metric["value"] for name, metric in record["metrics"].items()}


def run_pairs(sides: dict, scratch: Path, args: argparse.Namespace, workload: str) -> dict:
    """``args.pairs`` alternating parent / change runs of one workload;
    ``{metric: (parent samples, change samples)}``."""
    samples: dict = {}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        values = {
            side: run_side(sides[side], scratch / f"out_{side}", args, workload, args.seed + pair)
            for side in order
        }
        for name, value in values["parent"].items():
            if name in values["change"]:
                both = samples.setdefault(name, ([], []))
                both[0].append(value)
                both[1].append(values["change"][name])
        first = next(iter(values["parent"]))
        print(f"# {workload} pair {pair + 1}/{args.pairs} ({order[0]} first, "
              f"seed {args.seed + pair}): "
              f"{first} {values['parent'][first]:.5g} -> {values['change'][first]:.5g}",
              flush=True)
    return samples


def summarize(parent: list, change: list, better: str) -> dict:
    """Medians, quartiles and pairs won for one metric's paired samples."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))

    def spread(samples):
        if len(samples) < 2:
            return samples[0], samples[0], samples[0]
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return statistics.median(samples), q1, q3

    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "won": won,
        "pairs": len(parent),
        # The §8 rule: ten pairs or more, nine tenths of them won, and the
        # medians apart by more than the parent's interquartile distance.
        "gain": (
            len(parent) >= 10
            and won >= 0.9 * len(parent)
            and sign * (c_med - p_med) > p_q3 - p_q1
        ),
    }


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The no-regression reading of one end-to-end metric (simplicity-
    review guide, "Benchmark workloads"): ``WORSE``, ``UNRESOLVED`` or ``ok``."""
    sign = 1 if better == "higher" else -1
    row = summarize(parent, change, better)
    p_med, p_q1, p_q3 = row["parent"]
    if sign * (row["change"][0] - p_med) < -bound * abs(p_med):
        return "WORSE"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_q3 - p_q1 > bound * abs(p_med) and not every_run_better:
        return "UNRESOLVED"
    return "ok"


def report(samples: dict, better: dict, bound: dict) -> None:
    print(f"\n{'metric':<44} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'ratio':>7} {'won':>7}")
    for name, (parent, change) in samples.items():
        if not any(parent) and not any(change):
            continue  # a layer this workload does not execute reports 0
        row = summarize(parent, change, better.get(name, "lower"))
        (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = row["parent"], row["change"]
        ratio = f"{c_med / p_med:.3f}" if p_med else "-"
        print(f"{name:<44} {f'{p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}]':>36} "
              f"{f'{c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]':>36} {ratio:>7} "
              f"{row['won']:>3}/{row['pairs']:<3}{'  GAIN' if row['gain'] else ''}"
              + (f"  {verdict(parent, change, better[name], bound[name])}" if name in bound else ""))
    print("\n# ratio = change median / parent median; won = pairs where the change read "
          "better (ties count for neither); GAIN = guide §8 rule met; ok / WORSE / "
          "UNRESOLVED = no-regression verdict against the metric's BENCHMARK.json bound")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--seed", type=int, default=1, help="pair i runs both sides on seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    better, bound = directions(), bounds()
    workloads = ([w["name"] for w in contract()["workloads"]]
                 if args.workload == "all" else [args.workload])
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as scratch:
        tree = Path(scratch) / "parent"
        materialize(args.parent, tree)
        sides = {"parent": tree, "change": ROOT}
        for workload in workloads:
            report(run_pairs(sides, Path(scratch), args, workload), better, bound)
    return 0


if __name__ == "__main__":
    sys.exit(main())
