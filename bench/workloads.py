"""The four workloads.  Each knows how to generate its inputs, set the
program up, check outputs, run the untraced measured phase and run the
traced phase; ``run_workload`` strings those together.

Layer spans are recorded here, around calls into the program's public
functions, never inside ``src/``.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.candidates import CandidateSet
from repro.core.pipeline import StreamedOutput
from repro.distributed.sharding import (
    merge_streamed_outputs,
    reduce_top_k,
    shard_top_k,
)
from repro.serving.frontdoor import FrontDoor
from repro.serving.loadgen import ZipfianMix

from bench import loadgen, models, spec
from bench.measure import (
    Measured,
    Round,
    call_peak_mb,
    closed_loop,
    median,
    percentile,
)
from bench.trace import Tracer, clock, per_op_totals

#: Latency charged to a request that failed or was shed: it misses any tail.
FAILED_LATENCY_S = loadgen.DRAIN_TIMEOUT_S


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def same_streamed(a: StreamedOutput, b: StreamedOutput) -> bool:
    """Bit-for-bit equality of two candidates-only results."""
    return (
        np.array_equal(a.candidates.counts, b.candidates.counts)
        and np.array_equal(a.candidates.flat()[1], b.candidates.flat()[1])
        and np.array_equal(a.exact_values, b.exact_values)
        and np.array_equal(a.approximate_values, b.approximate_values)
    )


def top1_agreement(predict_streamed, classifier, rows: np.ndarray, chunk: int) -> float:
    """Share of held-out rows whose best exact candidate equals
    ``FullClassifier.predict`` (chunked so no ``rows x l`` plane larger
    than ``chunk x l`` is ever live)."""
    agree = 0
    for start in range(0, rows.shape[0], chunk):
        block = rows[start : start + chunk]
        agree += int(np.sum(predict_streamed(block) == classifier.predict(block)))
    return agree / rows.shape[0]


class Workload:
    """Common bookkeeping: sizes, seed, gate accounting."""

    def __init__(self, sizes: dict, seed: int):
        self.sizes = sizes
        self.seed = seed
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.checks_attempted = 0
        self.checks_failed = 0

    def wrong(self, what: str) -> None:
        """Record an incorrect output (a failed run, not a slow one)."""
        if len(self.problems) < 20:
            self.problems.append(what)

    def gate(self, passed: bool, what: str) -> bool:
        self.checks_attempted += 1
        if not passed:
            self.checks_failed += 1
            self.wrong(what)
        return passed


# ----------------------------------------------------------------------
# A / B: in-process forward_streaming at l = 670K
# ----------------------------------------------------------------------
def exact_candidate_values(classifier, batch, candidates: CandidateSet, workspace):
    """The exact phase through the classifier's public surface, choosing
    the union GEMM or the flat gather exactly as ``core.pipeline`` does
    (so the staged replay stays bit-identical to the direct call)."""
    rows, cols = candidates.flat()
    if rows.size == 0:
        return np.empty(0, dtype=np.float64)
    union = candidates.union()
    if candidates.batch_size * union.size <= 2 * rows.size:
        exact = classifier.logits_for(union, batch, workspace=workspace)
        return exact[rows, np.searchsorted(union, cols)]
    return classifier.candidate_scores(rows, cols, batch, workspace=workspace)


def staged_forward_streaming(model, batch, workspace, tracer: Tracer, op: int):
    """``forward_streaming`` replayed stage by stage with a span per layer."""
    screener, selector = model.screener, model.selector
    rows, l, compute = batch.shape[0], model.num_categories, model.screener.compute_dtype
    with tracer.span("core.pipeline.forward_streaming", op):
        with tracer.span("core.screener.prepare", op):
            augmented = screener.prepare_augmented(
                batch,
                out=workspace.buffer(
                    "augmented", (rows, screener.projection_dim + 1), compute
                ),
            )
        reducer = selector.make_block_reducer(rows, l, workspace=workspace, dtype=compute)
        for start, stop in screener.tile_bounds():
            with tracer.span("core.screener.score_tile", op):
                tile = screener.score_tile(
                    augmented, start, stop,
                    out=workspace.buffer("tile", (rows, stop - start), compute),
                )
            with tracer.span("linalg.topk.update", op):
                reducer.update(start, tile)
        with tracer.span("linalg.topk.finalize", op):
            counts, cols, approx = reducer.finalize()
            candidates = CandidateSet.from_flat(counts, cols)
        with tracer.span("core.classifier.exact", op):
            exact = exact_candidate_values(
                model.classifier, batch, candidates, workspace
            ).astype(compute, copy=False)
    return StreamedOutput(candidates, exact, approx, l)


class BatchWorkload(Workload):
    """One closed-loop caller of ``forward_streaming`` over 64-row batches."""

    def generate(self) -> None:
        self.inputs = models.generate_single_node(self.sizes, self.seed)
        self.references: Dict[int, StreamedOutput] = {}
        self.model = None

    def setup(self) -> None:
        self.model = models.build_single_node(self.inputs, self.sizes)
        batches = itertools.count()
        models.warm_until_flat(
            lambda: self.model.forward_streaming(self.batch(next(batches))),
            lambda: [self.model.workspace],
        )

    def teardown(self) -> None:
        if self.model is not None:
            self.model.close()
            self.model = None

    def batch(self, index: int) -> np.ndarray:
        return self.inputs.batches[index % len(self.inputs.batches)]

    # -- output checks --------------------------------------------------
    def valid(self, index: int, output: StreamedOutput) -> bool:
        """Structure, plus bit-equality with the first output seen for
        the same batch (the engine is deterministic per batch)."""
        sizes = self.sizes
        counts = output.candidates.counts
        cols = output.candidates.flat()[1]
        ok = (
            counts.shape == (sizes["batch"],)
            and (sizes["selector"] != "top_m" or bool(np.all(counts == sizes["m"])))
            and cols.size == int(counts.sum())
            and (cols.size == 0 or (cols.min() >= 0 and cols.max() < sizes["l"]))
            and bool(np.all(np.isfinite(output.exact_values)))
        )
        key = index % len(self.inputs.batches)
        reference = self.references.setdefault(key, output)
        return ok and (reference is output or same_streamed(reference, output))

    def gates(self) -> None:
        """Selection and exact values against definitions computed here
        from the dense scores of a 4-row sample.  The sample's GEMM shape
        differs from the batch's, so scores may differ in the last bits:
        the comparison allows that and nothing more."""
        batch = self.batch(0)
        output = self.model.forward_streaming(batch)
        self.gate(self.valid(0, output), "batch 0: malformed streaming output")
        sample = 4
        scores = self.model.screener.approximate_logits(batch[:sample])
        weight, bias = self.inputs.task.classifier.weight, self.inputs.task.classifier.bias
        offsets = np.concatenate(([0], np.cumsum(output.candidates.counts)))
        slack = 1e-9 * float(np.abs(scores).max())
        for row in range(sample):
            cols = output.candidates.indices[row]
            span = slice(offsets[row], offsets[row + 1])
            rest = np.ones(scores.shape[1], dtype=bool)
            rest[cols] = False
            if self.sizes["selector"] == "top_m":
                separated = scores[row, cols].min() >= scores[row, rest].max() - slack
            else:
                threshold = self.model.selector.threshold
                separated = (
                    (cols.size == 0 or scores[row, cols].min() > threshold - slack)
                    and scores[row, rest].max() <= threshold + slack
                )
            self.gate(bool(separated), f"row {row}: candidates are not the screener's best")
            self.gate(
                np.allclose(output.approximate_values[span], scores[row, cols], rtol=1e-9, atol=slack),
                f"row {row}: approximate values differ from dense screening",
            )
            exact = weight[cols] @ batch[row] + bias[cols]
            self.gate(
                np.allclose(output.exact_values[span], exact, rtol=1e-9, atol=1e-12),
                f"row {row}: exact values differ from W h + b",
            )

    # -- phases ---------------------------------------------------------
    def operation(self, index: int) -> float:
        batch = self.batch(index)
        start = clock()
        output = self.model.forward_streaming(batch)
        elapsed = clock() - start
        if self.valid(index, output):
            return elapsed
        self.wrong(f"call {index}: malformed, or not the first answer given for its batch")
        return -1.0

    def measured(self, seconds: float) -> Measured:
        return closed_loop(
            self.operation, self.sizes["batch"], seconds, spec.ROUNDS, spec.QUIET_ROUNDS
        )

    def peak_mb(self) -> float:
        batch = self.inputs.reference_batch
        return call_peak_mb(lambda: self.model.forward_streaming(batch))

    def quality(self) -> float:
        return top1_agreement(
            lambda block: self.model.forward_streaming(block).predict(),
            self.inputs.task.classifier,
            self.inputs.quality,
            chunk=32,
        )

    def traced(self, seconds: float, tracer: Tracer) -> Dict[str, float]:
        """Direct and staged calls alternate, so both see the same stretch
        of the shared host; the replay uses the pipeline's own arena under
        the pipeline's keys, so both touch the same memory."""
        model = self.model
        workspace = model.workspace
        allocations = workspace.allocations
        direct = Round()
        per_row: List[float] = []
        deadline = clock() + seconds
        op = 0
        while True:
            direct.record(self.operation(op), self.sizes["batch"])
            key = op % len(self.inputs.batches)
            staged = staged_forward_streaming(model, self.batch(key), workspace, tracer, op)
            self.gate(
                same_streamed(self.references[key], staged),
                f"staged replay of batch {key} differs from the direct call",
            )
            per_row.append(staged.candidates.total / staged.batch_size)
            op += 1
            if clock() >= deadline and op >= 3:
                break
        steady_allocations = workspace.allocations - allocations
        direct_p50 = median(direct.latencies_s)
        self.failed_ops = direct.failed
        self.attempted_ops = direct.attempted + op

        spans = tracer.spans
        layer = {
            name: 1e3 * median(per_op_totals(spans, name))
            for name in (
                "core.pipeline.forward_streaming",
                "core.screener.prepare",
                "core.screener.score_tile",
                "linalg.topk.update",
                "linalg.topk.finalize",
                "core.classifier.exact",
            )
        }
        staged_ms = layer.pop("core.pipeline.forward_streaming")
        attributed = sum(layer.values())
        direct_ms = 1e3 * direct_p50
        screener = model.screener
        rows, l, item = self.sizes["batch"], self.sizes["l"], screener.compute_dtype.itemsize
        tiles = len(screener.tile_bounds())
        k1 = screener.projection_dim + 1
        self.notes.append(
            f"reconcile: layers {attributed:.2f} ms / direct {direct_ms:.2f} ms = "
            f"{attributed / direct_ms:.3f} over {op} staged and {direct.attempted} direct calls"
        )
        return {
            "core.screener.prepare_ms": layer["core.screener.prepare"],
            "core.screener.score_tile_ms": layer["core.screener.score_tile"],
            "core.screener.tiles": float(tiles),
            # Computed from shapes, not measured: the fused weight plane
            # read once, the augmented input read per tile, scores written once.
            "core.screener.bytes_per_call": float(
                item * (k1 * l + tiles * rows * k1 + rows * l)
            ),
            "linalg.topk.update_ms": layer["linalg.topk.update"],
            "linalg.topk.finalize_ms": layer["linalg.topk.finalize"],
            "core.candidates.per_row": float(np.mean(per_row)),
            "core.classifier.exact_ms": layer["core.classifier.exact"],
            "core.pipeline.exact_fraction": layer["core.classifier.exact"] / staged_ms,
            "core.pipeline.unattributed_ms": direct_ms - attributed,
            "core.pipeline.workspace_mb": model.workspace.nbytes / 1e6,
            "core.pipeline.steady_allocations": float(steady_allocations),
            "bench.trace_overhead_ratio": staged_ms / direct_ms,
        }


# ----------------------------------------------------------------------
# shared by C and D: the 100K / 2-shard model
# ----------------------------------------------------------------------
class ShardedWorkload(Workload):
    def dense_gate(self, sharded, rows: np.ndarray) -> None:
        """streaming == dense ``forward`` on a 16-row sample."""
        dense = sharded.forward(rows)
        streamed = sharded.forward_streaming(rows)
        flat_rows, flat_cols = streamed.candidates.flat()
        same = (
            np.array_equal(dense.candidates.counts, streamed.candidates.counts)
            and np.array_equal(dense.candidates.flat()[1], flat_cols)
            and np.array_equal(dense.logits[flat_rows, flat_cols], streamed.exact_values)
        )
        self.gate(same, "streaming differs from dense forward on the 16-row sample")


def split_streamed(output: StreamedOutput):
    """Per-row ``(candidates, exact, approximate)`` of a batched result."""
    offsets = np.concatenate(([0], np.cumsum(output.candidates.counts)))
    return [
        (
            output.candidates.indices[row],
            output.exact_values[offsets[row] : offsets[row + 1]],
            output.approximate_values[offsets[row] : offsets[row + 1]],
        )
        for row in range(output.batch_size)
    ]


# ----------------------------------------------------------------------
# C: open-loop single-row requests through the front door
# ----------------------------------------------------------------------
class LoggingBackend:
    """``EngineBackend`` proxy over a ``ShardedClassifier``.

    While ``logging`` it replays ``forward_streaming`` as the per-shard
    calls plus ``merge_streamed_outputs`` the sequential backend makes,
    recording when each ran; otherwise it delegates untouched.
    """

    def __init__(self, sharded):
        self.sharded = sharded
        self.logging = False
        self.calls: List[dict] = []

    @property
    def num_categories(self) -> int:
        return self.sharded.num_categories

    @property
    def hidden_dim(self) -> int:
        return self.sharded.hidden_dim

    def forward_streaming(self, features, block_categories=None):
        if not self.logging:
            return self.sharded.forward_streaming(features, block_categories=block_categories)
        start = clock()
        outputs, shard_times = [], []
        for shard in self.sharded.shards:
            shard_start = clock()
            outputs.append(shard.forward_streaming(features, block_categories=block_categories))
            shard_times.append((shard_start, clock()))
        merge_start = clock()
        merged = merge_streamed_outputs(outputs, self.sharded.ranges)
        end = clock()
        self.calls.append(
            dict(start=start, end=end, rows=features.shape[0],
                 shards=shard_times, merge=(merge_start, end))
        )
        return merged

    def forward(self, features):
        return self.sharded.forward(features)

    def top_k(self, features, k):
        return self.sharded.top_k(features, k)

    def predict(self, features):
        return self.sharded.predict(features)

    def close(self) -> None:
        self.sharded.close()


class ServeOpen(ShardedWorkload):
    """Poisson arrivals at a fixed rate into ``FrontDoor`` over the
    sequential 2-shard backend; latency runs from each request's due time."""

    def generate(self) -> None:
        sizes = self.sizes
        self.inputs = models.generate_sharded(sizes, self.seed, sizes["max_batch"], 1)
        self.mix = ZipfianMix(
            sizes["d"], pool_size=sizes["pool"], s=sizes["zipf_s"], seed=self.seed
        )
        self.arrivals = models.stream(self.seed, 3)
        self.sharded = None
        self.door = None

    def setup(self) -> None:
        sizes = self.sizes
        self.sharded = models.build_sharded(self.inputs, sizes)
        self.backend = LoggingBackend(self.sharded)
        models.warm_until_flat(
            lambda: self.sharded.forward_streaming(self.inputs.batches[0]),
            lambda: [shard.workspace for shard in self.sharded.shards],
        )
        self.door = FrontDoor(
            self.backend,
            max_batch=sizes["max_batch"],
            flush_window_s=sizes["flush_window_s"],
            queue_limit=sizes["queue_limit"],
            cache=None,
        )
        # Pre-roll at the target rate, so every micro-batch size the
        # measured phase will form has been served once.
        self.offer(sizes["rate_rps"], sizes["preroll_s"])

    def teardown(self) -> None:
        if self.door is not None:
            self.door.close()
            self.door = None
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    def gates(self) -> None:
        self.dense_gate(self.sharded, self.inputs.batches[0][:16])

    # -- one open-loop phase --------------------------------------------
    def offer(self, rate_rps: float, seconds: float):
        offsets = loadgen.poisson_schedule(self.arrivals, rate_rps, seconds)
        picks = self.arrivals.choice(
            self.mix.pool.shape[0], size=len(offsets), p=self.mix.probabilities
        )
        result = loadgen.run_open_loop(self.door, self.mix.pool[picks], offsets)
        return result, picks

    def valid_replies(self, result) -> np.ndarray:
        """Structure of every reply: 32 ascending in-range candidates per
        shard, finite values."""
        expected = self.sizes["shards"] * self.sizes["m"]
        valid = np.zeros(len(result.replies), dtype=bool)
        for index, reply in enumerate(result.replies):
            if reply is None or reply.degraded:
                continue
            value = reply.value
            cols = value.candidates
            valid[index] = (
                cols.size == expected
                and cols[0] >= 0
                and cols[-1] < self.sizes["l"]
                and bool(np.all(np.diff(cols) > 0))
                and bool(np.all(np.isfinite(value.exact_values)))
                and value.exact_values.size == expected
            )
            if not valid[index]:
                self.wrong(f"reply {index} is malformed")
        return valid

    def replay_gate(self, result, picks, valid: np.ndarray, want: int = 64) -> None:
        """Every reply of enough micro-batches to cover ``want`` requests
        must equal the matching row of a direct backend call on the same
        micro-batch, bit for bit; mismatches are marked invalid."""
        members: Dict[int, List[int]] = {}
        for index, reply in enumerate(result.replies):
            if reply is not None:
                members.setdefault(reply.batch_id, []).append(index)
        covered = 0
        for batch_id in sorted(members):
            if covered >= want:
                break
            indices = sorted(members[batch_id], key=lambda i: result.replies[i].batch_index)
            if len(indices) != result.replies[indices[0]].batch_size:
                continue  # a member failed; it is already counted
            direct = split_streamed(
                self.sharded.forward_streaming(self.mix.pool[picks[indices]])
            )
            for index, (cols, exact, approx) in zip(indices, direct):
                value = result.replies[index].value
                same = (
                    np.array_equal(value.candidates, cols)
                    and np.array_equal(value.exact_values, exact)
                    and np.array_equal(value.approximate_values, approx)
                )
                if not self.gate(same, f"reply {index} differs from the direct backend call"):
                    valid[index] = False
            covered += len(indices)
        served = sum(len(indices) for indices in members.values())
        self.gate(covered >= min(want, served), f"only {covered} replies could be replayed")

    def latencies(self, result, valid: np.ndarray) -> np.ndarray:
        return np.where(valid, result.latency_s, FAILED_LATENCY_S)

    def measured(self, seconds: float) -> Measured:
        result, picks = self.offer(self.sizes["rate_rps"], seconds)
        valid = self.valid_replies(result)
        self.replay_gate(result, picks, valid)
        latency = self.latencies(result, valid)
        offsets = result.due - result.start
        length = seconds / spec.ROUNDS
        rounds = []
        for number in range(spec.ROUNDS):
            inside = (offsets >= number * length) & (offsets < (number + 1) * length)
            # Measured wall time of the round: from its first due slot to
            # the last reply to a request that was due in it, so a server
            # that falls behind the schedule shows as lower throughput.
            served = result.done[inside & valid]
            wall_s = served.max() - (result.start + number * length) if served.size else length
            rounds.append(
                Round(
                    latencies_s=list(latency[inside]),
                    wall_s=float(wall_s),
                    rows_ok=int(valid[inside].sum()),
                    attempted=int(inside.sum()),
                    failed=int((inside & ~valid).sum()),
                )
            )
        self.notes.append(
            f"generator lateness p99 {1e3 * percentile(result.late_s, 99):.3f} ms "
            f"over {len(offsets)} requests"
        )
        return Measured(rounds, spec.QUIET_ROUNDS)

    def peak_mb(self) -> float:
        batch = self.inputs.reference_batch
        return call_peak_mb(lambda: self.sharded.forward_streaming(batch))

    def quality(self) -> float:
        return top1_agreement(
            lambda block: self.sharded.forward_streaming(block).predict(),
            self.inputs.task.classifier,
            self.inputs.quality,
            chunk=32,
        )

    # -- traced phase ---------------------------------------------------
    def attribute(self, result, valid, calls, tracer: Tracer, first_op: int):
        """Split each served request's latency into generator lateness,
        submit, queue wait, backend call and reply split, as spans; returns
        the (queue_wait, backend, reply_split) seconds per request."""
        ends = np.array([call["end"] for call in calls])
        parts = []
        mismatched = 0
        for index in map(int, np.flatnonzero(valid)):
            call = calls[int(np.searchsorted(ends, result.done[index], side="right")) - 1]
            mismatched += call["rows"] != result.replies[index].batch_size
            op = first_op + index
            root = tracer.record("serving.request", result.due[index], result.done[index], op)
            enqueue = min(result.submit_end[index], call["start"])
            for name, lo, hi in (
                ("bench.loadgen.late", result.due[index], result.submit_start[index]),
                ("serving.frontdoor.submit", result.submit_start[index], enqueue),
                ("serving.frontdoor.queue_wait", enqueue, call["start"]),
                ("serving.backend_call", call["start"], call["end"]),
                ("serving.frontdoor.reply_split", call["end"], result.done[index]),
            ):
                tracer.record(name, lo, hi, op, parent=root)
            parts.append((call["start"] - enqueue, call["end"] - call["start"],
                          result.done[index] - call["end"]))
        self.gate(mismatched == 0, f"{mismatched} replies do not match a logged backend call")
        return parts

    def traced(self, seconds: float, tracer: Tracer) -> Dict[str, float]:
        """60% of the phase at the target rate, in six slices that
        alternate plain and logged (so both see the same stretch of the
        shared host); 40% on the diagnostic rate ladder."""
        sizes = self.sizes
        rate, ladder = sizes["rate_rps"], sizes["ladder_rps"]
        slices = 6
        slice_s, step_s = 0.6 * seconds / slices, 0.4 * seconds / len(ladder)

        plain_latency: List[float] = []
        logged_latency: List[float] = []
        submit_s: List[float] = []
        late_s: List[float] = []
        parts: List[tuple] = []
        calls: List[dict] = []
        counters = dict.fromkeys(("batches", "flush_on_size", "shed_queue_full", "shed_deadline"), 0)
        logged_wall = 0.0
        self.attempted_ops = self.failed_ops = 0
        for number in range(slices):
            self.backend.logging = bool(number % 2)
            before = self.door.stats()
            first_call = len(self.backend.calls)
            result, picks = self.offer(rate, slice_s)
            after = self.door.stats()
            valid = self.valid_replies(result)
            self.attempted_ops += len(valid)
            self.failed_ops += int((~valid).sum())
            if not self.backend.logging:
                plain_latency.extend(result.latency_s[valid])
                continue
            self.replay_gate(result, picks, valid, want=24)
            slice_calls = self.backend.calls[first_call:]
            parts.extend(
                self.attribute(result, valid, slice_calls, tracer, self.attempted_ops - len(valid))
            )
            for number_in_slice, call in enumerate(slice_calls):
                op = 10**6 + len(calls) + number_in_slice
                root = tracer.record("distributed.sharding.forward_streaming",
                                     call["start"], call["end"], op)
                for lo, hi in call["shards"]:
                    tracer.record("distributed.sharding.shard", lo, hi, op, parent=root)
                tracer.record("distributed.sharding.merge", *call["merge"], op, parent=root)
            calls.extend(slice_calls)
            logged_latency.extend(result.latency_s[valid])
            submit_s.extend((result.submit_end - result.submit_start)[valid])
            late_s.extend(result.late_s)
            logged_wall += float(np.nanmax(result.done)) - result.start
            for key in counters:
                counters[key] += after[key] - before[key]
        self.backend.logging = False

        queue_wait, backend_s, reply_split = (list(column) for column in zip(*parts))
        logged_p50 = median(logged_latency)
        summed = median(queue_wait) + median(backend_s) + median(reply_split)
        self.notes.append(
            f"reconcile: queue_wait + backend + reply_split medians "
            f"{1e3 * summed:.2f} ms / latency p50 {1e3 * logged_p50:.2f} ms = "
            f"{summed / logged_p50:.3f} over {len(parts)} requests, {len(calls)} batches"
        )
        metrics = {
            "serving.frontdoor.submit_us": 1e6 * median(submit_s),
            "serving.frontdoor.queue_wait_p50_ms": 1e3 * median(queue_wait),
            "serving.frontdoor.queue_wait_p99_ms": 1e3 * percentile(queue_wait, 99),
            "serving.frontdoor.batch_size_mean": float(np.mean([c["rows"] for c in calls])),
            "serving.frontdoor.flush_on_size_share": counters["flush_on_size"] / counters["batches"],
            "serving.frontdoor.backend_busy_share": sum(
                call["end"] - call["start"] for call in calls
            ) / logged_wall,
            "serving.frontdoor.reply_split_p50_ms": 1e3 * median(reply_split),
            "serving.frontdoor.shed_queue_full": float(counters["shed_queue_full"]),
            "serving.frontdoor.shed_deadline": float(counters["shed_deadline"]),
            "distributed.sharding.shard_ms_max": 1e3 * median(
                [max(hi - lo for lo, hi in call["shards"]) for call in calls]
            ),
            "distributed.sharding.merge_ms": 1e3 * median(
                [call["merge"][1] - call["merge"][0] for call in calls]
            ),
            "bench.loadgen.late_p99_ms": 1e3 * percentile(late_s, 99),
            "bench.trace_overhead_ratio": logged_p50 / median(plain_latency),
        }

        # Diagnostic rate ladder: latency at each fixed rate and the
        # highest rate at which >= 99% of requests sent met the limit.
        limit_s = sizes["slo_ms"] / 1e3
        max_rate = 0.0
        for step_rate in ladder:
            step, _ = self.offer(step_rate, step_s)
            step_latency = self.latencies(step, self.valid_replies(step))
            miss = float(np.mean(step_latency > limit_s))
            prefix = f"serving.frontdoor.rate_{int(step_rate)}"
            metrics[f"{prefix}.p50_ms"] = 1e3 * median(step_latency)
            metrics[f"{prefix}.p95_ms"] = 1e3 * percentile(step_latency, 95)
            metrics[f"{prefix}.slo_miss_share"] = miss
            if miss <= 0.01:
                max_rate = step_rate
        metrics["serving.frontdoor.max_rate_rps"] = max_rate
        return metrics


# ----------------------------------------------------------------------
# D: process-parallel engine, one cycle = forward_streaming + top_k
# ----------------------------------------------------------------------
def worker_hwm_mb(engine) -> float:
    """Largest ``VmHWM`` among the engine's worker processes."""
    peak_kb = 0
    for worker in engine.workers:
        try:
            with open(f"/proc/{worker.process.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            pass
    return peak_kb / 1e3


class ParallelCycle(ShardedWorkload):
    """One closed-loop caller of ``ParallelShardedEngine``; a cycle is
    ``forward_streaming(batch)`` then ``top_k(batch, k)`` on the same batch."""

    def generate(self) -> None:
        sizes = self.sizes
        self.inputs = models.generate_sharded(sizes, self.seed, sizes["batch"], sizes["batches"])
        self.sharded = None
        self.engine = None
        self.references: Dict[int, tuple] = {}
        self.core_bound = len(os.sched_getaffinity(0)) < 2
        if self.core_bound:
            self.notes.append(
                "core_bound: fewer than 2 cores, the two workers time-share one; "
                "parallel figures are not a scaling measurement on this host"
            )

    def setup(self) -> None:
        sizes = self.sizes
        self.sharded = models.build_sharded(self.inputs, sizes)
        start = clock()
        self.engine = self.sharded.parallel(max_batch=sizes["batch"])
        self.startup_s = clock() - start
        start = clock()
        self.engine.forward_streaming(self.inputs.batches[0])
        self.first_request_ms = 1e3 * (clock() - start)
        for index in range(3):
            self.cycle(index)

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    def cycle(self, index: int):
        batch = self.inputs.batches[index % len(self.inputs.batches)]
        return (
            self.engine.forward_streaming(batch),
            self.engine.top_k(batch, self.sizes["top_k"]),
        )

    def reference(self, index: int):
        """The sequential twin's answers for a batch (computed once)."""
        key = index % len(self.inputs.batches)
        if key not in self.references:
            batch = self.inputs.batches[key]
            self.references[key] = (
                self.sharded.forward_streaming(batch),
                self.sharded.top_k(batch, self.sizes["top_k"]),
            )
        return self.references[key]

    def valid(self, index: int, streamed, top) -> bool:
        """parallel == sequential, bit for bit, for both ops."""
        ref_streamed, (ref_indices, ref_scores) = self.reference(index)
        return (
            isinstance(streamed, StreamedOutput)
            and isinstance(top, tuple)
            and same_streamed(ref_streamed, streamed)
            and np.array_equal(ref_indices, top[0])
            and np.array_equal(ref_scores, top[1])
        )

    def gates(self) -> None:
        self.dense_gate(self.sharded, self.inputs.batches[0][:16])
        for index in range(len(self.inputs.batches)):
            self.gate(self.valid(index, *self.cycle(index)),
                      f"batch {index}: parallel engine differs from the sequential backend")

    def operation(self, index: int) -> float:
        start = clock()
        streamed, top = self.cycle(index)
        elapsed = clock() - start
        if self.valid(index, streamed, top):
            return elapsed
        self.wrong(f"cycle {index}: parallel engine differs from the sequential backend")
        return -1.0

    def measured(self, seconds: float) -> Measured:
        return closed_loop(
            self.operation, self.sizes["batch"], seconds, spec.ROUNDS, spec.QUIET_ROUNDS
        )

    def peak_mb(self) -> float:
        batch, k = self.inputs.reference_batch, self.sizes["top_k"]
        return call_peak_mb(
            lambda: (self.engine.forward_streaming(batch), self.engine.top_k(batch, k))
        )

    def quality(self) -> float:
        return top1_agreement(
            lambda block: self.engine.forward_streaming(block).predict(),
            self.inputs.task.classifier,
            self.inputs.quality,
            chunk=self.sizes["batch"],
        )

    def traced(self, seconds: float, tracer: Tracer) -> Dict[str, float]:
        """Rounds of three cycles on one batch — untraced parallel, traced
        parallel, and the sequential twin replayed in this process as the
        per-shard calls and the merge / reduce it makes — so all three see
        the same stretch of the shared host."""
        sizes, k = self.sizes, self.sizes["top_k"]
        engine, sharded = self.engine, self.sharded
        plain = Round()
        slowest_streaming: List[float] = []
        slowest_top_k: List[float] = []
        failed = 0
        deadline = clock() + seconds
        op = 0
        while True:
            batch = self.inputs.batches[op % len(self.inputs.batches)]
            plain.record(self.operation(op), sizes["batch"])

            with tracer.span("parallel_cycle", op):
                with tracer.span("distributed.parallel.forward_streaming", op):
                    streamed = engine.forward_streaming(batch)
                with tracer.span("distributed.parallel.top_k", op):
                    top = engine.top_k(batch, k)
            if not self.valid(op, streamed, top):
                failed += 1
                self.wrong(f"traced cycle {op}: parallel engine differs from the sequential backend")

            with tracer.span("sequential_cycle", op):
                with tracer.span("distributed.sharding.seq_forward_streaming", op):
                    outputs, times = [], []
                    for shard in sharded.shards:
                        with tracer.span("distributed.sharding.shard", op):
                            start = clock()
                            outputs.append(shard.forward_streaming(batch))
                            times.append(clock() - start)
                    with tracer.span("distributed.sharding.merge", op):
                        streamed = merge_streamed_outputs(outputs, sharded.ranges)
                slowest_streaming.append(max(times))
                with tracer.span("distributed.sharding.seq_top_k", op):
                    parts, times = [], []
                    for shard, shard_range in zip(sharded.shards, sharded.ranges):
                        with tracer.span("distributed.sharding.shard", op):
                            start = clock()
                            parts.append(shard_top_k(shard.forward(batch), shard_range, k))
                            times.append(clock() - start)
                    with tracer.span("distributed.sharding.reduce_top_k", op):
                        top = reduce_top_k([p[0] for p in parts], [p[1] for p in parts], k)
                slowest_top_k.append(max(times))
            if not self.valid(op, streamed, top):
                failed += 1
                self.wrong(f"cycle {op}: per-shard replay differs from the sequential backend")
            op += 1
            if clock() >= deadline and op >= 3:
                break
        self.attempted_ops = 3 * op
        self.failed_ops = failed + plain.failed
        plain_p50 = median(plain.latencies_s)

        spans = tracer.spans
        p50_ms = lambda name: 1e3 * median(per_op_totals(spans, name))  # noqa: E731
        par_streaming = p50_ms("distributed.parallel.forward_streaming")
        par_top_k = p50_ms("distributed.parallel.top_k")
        seq_streaming = p50_ms("distributed.sharding.seq_forward_streaming")
        seq_top_k = p50_ms("distributed.sharding.seq_top_k")
        slowest_ms = 1e3 * (median(slowest_streaming) + median(slowest_top_k))
        traced_cycle = p50_ms("parallel_cycle")
        self.notes.append(
            f"speedup bases: forward_streaming seq {seq_streaming:.2f} ms / par "
            f"{par_streaming:.2f} ms; top_k seq {seq_top_k:.2f} ms / par {par_top_k:.2f} ms; "
            f"{op} rounds"
        )
        self.notes.append(
            f"reconcile: forward_streaming + top_k {par_streaming + par_top_k:.2f} ms / "
            f"cycle {traced_cycle:.2f} ms = {(par_streaming + par_top_k) / traced_cycle:.3f}"
        )
        stats = engine.stats()
        return {
            "distributed.parallel.forward_streaming_p50_ms": par_streaming,
            "distributed.parallel.top_k_p50_ms": par_top_k,
            "distributed.sharding.seq_forward_streaming_p50_ms": seq_streaming,
            "distributed.sharding.seq_top_k_p50_ms": seq_top_k,
            "distributed.parallel.speedup_forward_streaming": seq_streaming / par_streaming,
            "distributed.parallel.speedup_top_k": seq_top_k / par_top_k,
            "distributed.parallel.overhead_ms": par_streaming + par_top_k - slowest_ms,
            "distributed.sharding.shard_ms_max": 1e3 * median(slowest_streaming),
            "distributed.sharding.merge_ms": p50_ms("distributed.sharding.merge"),
            "distributed.sharding.reduce_top_k_ms": p50_ms("distributed.sharding.reduce_top_k"),
            "distributed.parallel.startup_s": self.startup_s,
            "distributed.parallel.first_request_ms": self.first_request_ms,
            "distributed.parallel.worker_hwm_mb": worker_hwm_mb(engine),
            "distributed.parallel.retries": float(stats["retries"]),
            "distributed.parallel.respawns": float(stats["respawns"]),
            "distributed.parallel.stale_replies": float(stats["stale_replies"]),
            "distributed.parallel.failovers": float(stats["failovers"]),
            "distributed.parallel.degraded_requests": float(stats["degraded_requests"]),
            "distributed.parallel.answered_reconciles": float(
                all(shard["answered"] == stats["requests"] for shard in stats["shards"])
            ),
            "bench.trace_overhead_ratio": traced_cycle / (1e3 * plain_p50),
        }


WORKLOADS = {
    "batch_topm": BatchWorkload,
    "batch_threshold": BatchWorkload,
    "serve_open": ServeOpen,
    "parallel_cycle": ParallelCycle,
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, tracer: Tracer
) -> RunResult:
    """Generate, set up, gate, run one phase, tear down."""
    contract = spec.load_contract()
    sizes = (spec.SMOKE_SIZES if smoke else spec.SIZES)[name]
    workload = WORKLOADS[name](sizes, seed)
    start = clock()
    workload.generate()
    datagen_s = clock() - start

    repeats = 1 if (trace or smoke) else spec.SETUP_REPEATS
    setup_s: List[float] = []
    try:
        for _ in range(repeats):
            workload.teardown()
            start = clock()
            workload.setup()
            setup_s.append(clock() - start)
        workload.gates()
        if trace:
            metrics = {metric["name"]: 0.0 for metric in contract["per_layer"]}
            metrics.update(workload.traced(seconds, tracer))
            metrics["bench.datagen_s"] = datagen_s
            attempted, failed = workload.attempted_ops, workload.failed_ops
        else:
            measured = workload.measured(seconds)
            attempted, failed = measured.attempted, measured.failed
            tail = spec.TAIL_PERCENTILE[name]
            metrics = {
                "throughput_rows_per_s": measured.throughput_rows_per_s(),
                "latency_p50_ms": measured.latency_p50_ms(),
                "latency_tail_ms": measured.latency_tail_ms(tail),
                "ok_share": 1.0 - failed / attempted,
                "call_peak_mb": workload.peak_mb(),
                "quality_top1_agreement": workload.quality(),
                "setup_s": median(setup_s),
            }
            workload.notes.append(
                f"timing metrics: each the mean of its {spec.QUIET_ROUNDS} best of "
                f"{len(measured.rounds)} rounds (p50 and throughput over "
                f"{measured.operations()} of {measured.attempted} operations); "
                f"latency_tail_ms is a round's p{tail:g}; setup_s is the median of {len(setup_s)} set-ups; "
                f"datagen {datagen_s:.2f} s"
            )
    finally:
        workload.teardown()
    attempted += workload.checks_attempted
    failed += workload.checks_failed
    return RunResult(
        correct=not workload.problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        notes=workload.notes,
        problems=workload.problems,
    )
