"""Smoke test of the benchmark itself (``pytest bench/``; not part of the
tier-1 suite, whose ``testpaths`` is ``tests``).  Runs every workload at
``--smoke`` sizes in both phases and checks the contract with
``/BENCHMARK.json``, the trace schema and that layer times reconcile."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import loadgen, models, spec  # noqa: E402
from bench.trace import Span, Tracer, self_times  # noqa: E402

CONTRACT = spec.load_contract()


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload x phase once; ``{(workload, trace): (record, out dir)}``."""
    out = tmp_path_factory.mktemp("bench_out")
    runs = {}
    for workload in spec.workload_names():
        for trace in (0, 1):
            done = run_bench("--smoke", "--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", str(trace), "--out", str(out))
            assert done.returncode == 0, done.stderr
            runs[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return runs, out


def test_prints_exactly_the_contract_names(smoke):
    runs, _ = smoke
    expected = {
        0: {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]},
        1: {m["name"]: m["unit"] for m in CONTRACT["per_layer"]},
    }
    for (workload, trace), record in runs.items():
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] is True and record["failed"] == 0, workload
        assert record["attempted"] >= 1
        units = {name: m["unit"] for name, m in record["metrics"].items()}
        assert units == expected[trace], (workload, trace)
        if trace == 0:
            assert all(m["value"] > 0 for m in record["metrics"].values()), workload
            assert record["metrics"]["quality_top1_agreement"]["value"] >= 0.98


def load_spans(path):
    events = json.loads(Path(path).read_text())["traceEvents"]
    spans = []
    for event in events:
        assert {"name", "ts", "dur", "args"} <= set(event)
        assert {"id", "parent", "op"} <= set(event["args"])
        spans.append(Span(event["args"]["id"], event["name"], event["ts"],
                          event["ts"] + event["dur"], event["args"]["parent"],
                          event["args"]["op"]))
    return spans


def test_spans_are_complete_and_self_times_reconcile(smoke):
    _, out = smoke
    for workload in spec.workload_names():
        spans = load_spans(out / f"trace_{workload}.json")
        assert spans, workload
        by_id = {span.id: span for span in spans}
        own = self_times(spans)
        total = {}
        for span in spans:
            root = span
            while root.parent is not None:
                parent = by_id[root.parent]
                assert parent.start - 1.0 <= root.start and root.end <= parent.end + 1.0
                assert parent.op == root.op
                root = parent
            total[root.id] = total.get(root.id, 0.0) + own[span.id]
        for root_id, summed in total.items():
            # microseconds; a tree's self times add up to its root's duration
            assert summed == pytest.approx(by_id[root_id].duration, rel=1e-6, abs=1.0)


def test_layer_shares_match_the_workloads_reasons(smoke):
    runs, _ = smoke
    value = lambda workload, name: runs[workload, 1]["metrics"][name]["value"]  # noqa: E731
    assert value("batch_topm", "linalg.topk.update_ms") > value(
        "batch_topm", "core.screener.score_tile_ms")
    assert value("batch_threshold", "core.screener.score_tile_ms") > value(
        "batch_threshold", "linalg.topk.update_ms")
    assert value("batch_topm", "core.pipeline.steady_allocations") == 0
    assert value("parallel_cycle", "distributed.parallel.answered_reconciles") == 1
    assert value("serve_open", "serving.frontdoor.batch_size_mean") >= 1


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in CONTRACT["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in CONTRACT["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in CONTRACT["per_layer"])
    assert len(CONTRACT["per_layer"]) <= 128
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * CONTRACT["run_seconds"] < 3420


def test_every_layer_metric_names_what_it_should_move():
    layers = {m["name"] for m in CONTRACT["per_layer"]}
    assert set(spec.MOVES) == layers
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    for targets in spec.MOVES.values():
        for metric, workload in targets:
            assert metric in end_to_end and workload in spec.workload_names()
    assert set(spec.SIZES) == set(spec.SMOKE_SIZES) == set(spec.TAIL_PERCENTILE) == set(
        spec.workload_names())


def test_self_time_is_duration_minus_covered_children():
    tracer = Tracer()
    root = tracer.record("root", 0.0, 10.0, op=0)
    tracer.record("a", 1.0, 4.0, op=0, parent=root)
    tracer.record("b", 3.0, 6.0, op=0, parent=root)  # overlaps a: counted once
    own = self_times(tracer.spans)
    assert own[root] == pytest.approx(5.0)


def test_closed_form_screener_is_the_lstsq_screener():
    from repro.core.screener import ScreeningConfig
    from repro.core.training import train_screener
    from repro.data import make_task

    task = make_task(3000, 32, rng=5)
    features = task.sample_features(96, rng=np.random.default_rng(6))
    trained = train_screener(task.classifier, features,
                             config=ScreeningConfig(projection_dim=8), solver="lstsq", rng=7)
    weight, bias = models.closed_form_screener(task.classifier, trained.projection, features)
    assert np.allclose(weight, trained.weight, rtol=1e-7, atol=1e-9)
    assert np.allclose(bias, trained.bias, rtol=1e-7, atol=1e-9)


def test_arrival_schedule_is_a_function_of_the_seed():
    first = loadgen.poisson_schedule(models.stream(9, 3), 400.0, 2.0)
    again = loadgen.poisson_schedule(models.stream(9, 3), 400.0, 2.0)
    other = loadgen.poisson_schedule(models.stream(10, 3), 400.0, 2.0)
    assert np.array_equal(first, again) and not np.array_equal(first[:5], other[:5])
    assert first[-1] < 2.0 and abs(len(first) - 800) < 120


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the command
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "batch_topm", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


#: Runs its arguments as a command with itself as the "child subreaper", so
#: a process the command orphans is re-parented here instead of to init,
#: then prints how many descendants outlived the command.
SUBREAPER = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
left = 0
while True:
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        break
    left += 1
    if pid == 0:  # still running
        break
print(code, left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_no_process_outlives_a_run(tmp_path, trace):
    """parallel_cycle starts two workers and, through shared memory,
    multiprocessing's resource tracker; all must have ended, and have been
    waited for, when the runner exits."""
    done = subprocess.run(
        [sys.executable, "-c", SUBREAPER, sys.executable, "bench/run.py", "--smoke",
         "--workload", "parallel_cycle", "--seed", "3", "--seconds", "1",
         "--trace", trace, "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.split() == ["0", "0"], done.stdout + done.stderr
