"""Process-parallel sharded serving engine with fleet supervision.

:class:`ParallelShardedEngine` turns a trained
:class:`~repro.distributed.sharding.ShardedClassifier` into a fleet of
persistent worker processes — one per category shard, mirroring the
paper's Section 8 deployment where every node keeps an approximate
screener for its shard.  The data plane is built for zero-copy:

* **parameters** — each shard's ``(W, b)`` and screener planes live in
  one shared-memory segment (:class:`~repro.utils.shm.SharedArrayPack`);
  workers attach numpy views and rebuild the pipeline with
  :meth:`ApproximateScreeningClassifier.from_arrays`, so model weights
  are mapped, not pickled, and exist once in physical memory no matter
  how many workers serve them;
* **scatter** — the host writes the feature batch into a shared input
  segment once; every worker reads the same pages;
* **gather** — only the explicit dense ``forward`` op builds a plane:
  the worker writes its shard's mixed logits into its slot of a shared
  output segment and ships the tiny candidate record (counts, columns,
  pre-mix approximate values) over the pipe.  ``forward_streaming``
  ships its candidate record and ``top_k`` (hence ``predict``) its
  ``k`` ranked (index, score) pairs over the pipe alone — both run the
  worker's one tile loop, and an engine that never calls ``forward``
  never allocates the output segments;
* **reduce** — the host reconstructs per-shard
  :class:`~repro.core.pipeline.ScreenedOutput` objects and merges them
  through the *same* :func:`~repro.distributed.sharding.merge_shard_outputs`
  / :func:`~repro.distributed.sharding.reduce_top_k` code path the
  sequential backend uses.

Because workers execute the identical numpy pipeline on the identical
bytes, the engine is bit-identical to the sequential
``ShardedClassifier`` — the differential harness in
``tests/test_distributed_parallel.py`` asserts exactly that, across
selectors and shard counts.

Data plane and control plane
----------------------------
This module is the **data plane**: the worker entry point, the shared
I/O segments, scatter, collect, merge and the serving API.  Everything
*about a shard's workers* — which replica gets a request, respawn with
backoff against the shard's restart budget, failover to a sibling,
runtime scale-up / scale-down, the autoscaler's observation window —
is the **control plane** in :mod:`repro.distributed.fleet`: one
:class:`~repro.distributed.fleet.ShardGroup` per shard, reached through
``pick`` / ``post`` / ``record`` / ``recover`` / ``add`` / ``retire`` /
``signal`` and handed a ``spawn`` callable, so it owns no process.

Every pipe message carries a request id (:mod:`repro.utils.workers`),
so a late reply to an abandoned request is discarded by id and a
timed-out request is safely re-issued (``request_retries``) before the
group's ``recover`` replaces the worker.  With ``degraded=True`` a shard
whose group is dead no longer takes down the engine: serving calls
return a :class:`~repro.core.pipeline.DegradedOutput` wrapping the
merge of the surviving shards plus
:class:`~repro.core.pipeline.ShardFailure` records naming the missing
category ranges; with ``degraded=False`` (default) the engine closes
itself and raises.  Every failure path is exercised deterministically
through :mod:`repro.utils.faults` (kill / delay / wedge / raise on the
nth request), wired through the worker entry point.

The engine satisfies the :class:`~repro.serving.backend.EngineBackend`
protocol (as do the sequential backends), so it slots behind the
micro-batching serving front door (:mod:`repro.serving`) unchanged;
its mutable ``request_timeout`` is the deadline-propagation hook the
front door narrows per micro-batch.
"""

from __future__ import annotations

import os
import time
import traceback
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.candidates import CandidateSet
from repro.distributed.autoscale import AutoScaler, ScaleDecision
from repro.core.pipeline import (
    ApproximateScreeningClassifier,
    DegradedOutput,
    ScreenedOutput,
    ShardFailure,
    StreamedOutput,
)
from repro.distributed.fleet import ShardGroup
from repro.distributed.sharding import (
    ShardedClassifier,
    merge_shard_outputs,
    merge_streamed_outputs,
    reduce_top_k,
)
from repro.obs.metrics import latency_buckets
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.trace import Tracer
from repro.utils.faults import FaultInjector, FaultSpec
from repro.utils.shm import PackLayout, SharedArrayPack
from repro.utils.validation import check_batch_features, check_positive
from repro.utils.workers import (
    WorkerDied,
    WorkerHandle,
    WorkerTimeout,
    default_context,
)

import multiprocessing

__all__ = [
    "ParallelShardedEngine",
    "WorkerDied",
    "WorkerError",
    "DegradedOutput",
    "ShardFailure",
]

#: Ops that do real inference work; only these advance the fault
#: injector's request counter (control traffic stays deterministic).
_SERVING_OPS = ("forward", "top_k", "forward_streaming")


class WorkerError(RuntimeError):
    """A worker hit an exception while serving a request.

    The worker survives (its state is untouched by a failed request);
    the remote traceback is carried in the message.
    """


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(
    connection,
    shard_id: int,
    param_layout: PackLayout,
    meta: Dict[str, object],
    shard_start: int,
    fault_specs: Optional[Sequence[FaultSpec]] = None,
) -> None:
    """Entry point of one shard worker (module-level for spawn).

    Protocol: receives ``(request_id, op, payload)``, replies
    ``(request_id, kind, payload)`` echoing the id; the startup
    handshake is the only unsolicited message (id 0).
    """
    from repro.utils.workers import HANDSHAKE_ID

    params: Optional[SharedArrayPack] = None
    io_packs: Dict[str, SharedArrayPack] = {}
    injector = FaultInjector(fault_specs)
    try:
        try:
            params = SharedArrayPack.attach(param_layout)
            engine = ApproximateScreeningClassifier.from_arrays(
                params.arrays, meta
            )
            shard_range = range(
                shard_start, shard_start + engine.num_categories
            )
        except Exception:
            connection.send((HANDSHAKE_ID, "fatal", traceback.format_exc()))
            return
        connection.send((HANDSHAKE_ID, "ready", shard_id))

        while True:
            try:
                request_id, op, payload = connection.recv()
            except (EOFError, OSError):
                break
            if op == "shutdown":
                break
            if op == "detach-io":
                for pack in io_packs.values():
                    pack.close()
                io_packs.clear()
                connection.send((request_id, "ok", None))
                continue
            if op == "die":  # test hook: crash without replying
                os._exit(int(payload or 1))
            try:
                if op in _SERVING_OPS:
                    # Faults fire before the handler, so a kill never
                    # replies and a delay delays the reply — the
                    # externally observable failure shapes.
                    injector.on_request()
                    reply = _serve_request(
                        engine, shard_id, shard_range, io_packs, op, payload
                    )
                else:
                    raise ValueError(f"unknown op {op!r}")
                connection.send((request_id, "ok", reply))
            except Exception:
                connection.send((request_id, "error", traceback.format_exc()))
    finally:
        for pack in io_packs.values():
            pack.close()
        if params is not None:
            params.close()
        try:
            connection.close()
        except OSError:
            pass


def _attach_cached(
    io_packs: Dict[str, SharedArrayPack], layout: PackLayout
) -> SharedArrayPack:
    pack = io_packs.get(layout.segment)
    if pack is None:
        pack = SharedArrayPack.attach(layout)
        io_packs[layout.segment] = pack
    return pack


def _serve_request(
    engine: ApproximateScreeningClassifier,
    shard_id: int,
    shard_range: range,
    io_packs: Dict[str, SharedArrayPack],
    op: str,
    payload: Dict[str, object],
):
    input_pack = _attach_cached(io_packs, payload["input"])
    rows = int(payload["rows"])
    batch = input_pack["features"][:rows]

    if op == "forward_streaming":
        # Candidates-only: no shared output plane is touched — the
        # whole shard result is the small flat record on the pipe.
        # The worker's pipeline-owned workspace persists across
        # requests, so steady-state serving allocates no new scratch.
        streamed = engine.forward_streaming(
            batch, block_categories=payload["block"]
        )
        return {
            "counts": streamed.candidates.counts,
            "cols": streamed.candidates.flat()[1],
            "exact": streamed.exact_values,
            "approx": streamed.approximate_values,
        }

    if op == "top_k":
        # Ranked inside the tile loop: like streaming, no plane.
        indices, scores = engine.top_k(
            batch, min(int(payload["k"]), engine.num_categories)
        )
        return {"indices": indices + shard_range.start, "scores": scores}

    output = engine.forward(batch)
    output_pack = _attach_cached(io_packs, payload["output"])
    np.copyto(output_pack[f"logits{shard_id}"][:rows], output.logits)
    restore_rows, restore_cols, saved = output.candidate_restore()
    return {
        "counts": output.candidates.counts,
        "cols": restore_cols,
        "rows": restore_rows,
        "saved": saved,
    }


# ----------------------------------------------------------------------
# host side
# ----------------------------------------------------------------------
def _spawn_worker(
    context, recorder, worker_args: tuple, replica_idx: int,
    fault_specs: Sequence[FaultSpec],
) -> WorkerHandle:
    """Start one shard worker on the shard's shared parameter segment
    (the ``spawn`` callable each :class:`ShardGroup` is handed, with
    the first three arguments bound)."""
    suffix = "" if replica_idx == 0 else f".r{replica_idx}"
    return WorkerHandle(
        context,
        _worker_main,
        args=(*worker_args, list(fault_specs)),
        name=f"enmc-shard-{worker_args[0]}{suffix}",
        recorder=recorder,
    )


def _replica_fault_specs(
    replicas: Optional[Union[int, Dict[int, int]]],
    faults: Optional[Dict[object, Sequence[FaultSpec]]],
    num_shards: int,
) -> List[List[List[FaultSpec]]]:
    """One fault-spec list per replica per shard — the shape that sizes
    the fleet (``replicas``) with the injected faults slotted in."""
    if isinstance(replicas, dict):
        unknown = [sid for sid in replicas if not 0 <= sid < num_shards]
        if unknown:
            raise ValueError(
                f"replicas name unknown shards {unknown} "
                f"(fleet has {num_shards})"
            )
        counts = [int(replicas.get(sid, 1)) for sid in range(num_shards)]
    else:
        counts = [1 if replicas is None else int(replicas)] * num_shards
    if any(count < 1 for count in counts):
        raise ValueError(f"every shard needs >= 1 replica, got {counts}")
    specs = [[[] for _ in range(count)] for count in counts]
    for key, value in (faults or {}).items():
        shard_id, replica_idx = key if isinstance(key, tuple) else (key, 0)
        if not 0 <= shard_id < num_shards:
            raise ValueError(f"fault key names unknown shard {shard_id}")
        if not 0 <= replica_idx < counts[shard_id]:
            raise ValueError(
                f"fault key names replica {replica_idx} but shard "
                f"{shard_id} runs {counts[shard_id]}"
            )
        specs[shard_id][replica_idx] = list(value)
    return specs


class ParallelShardedEngine:
    """Serve a trained :class:`ShardedClassifier` with one supervised
    process per shard.

    Parameters
    ----------
    sharded:
        A trained sequential sharded classifier; its shard plan and
        parameters define the fleet.
    start_method:
        ``"fork"`` (default where available; millisecond startup) or
        ``"spawn"`` (fresh interpreters, required on Windows).
    max_batch:
        Initial capacity of the shared input/output planes in batch
        rows.  Larger batches are accepted — the engine reallocates the
        I/O segments transparently.
    request_timeout:
        Seconds to wait for a *live* worker's reply before the retry /
        respawn policy kicks in; ``None`` waits indefinitely (worker
        death is always detected regardless).  This attribute is
        mutable and re-read on every collect: the serving front door
        (:mod:`repro.serving`) narrows it to the tightest remaining
        per-request SLO budget in each micro-batch, so a request
        arriving with little budget left propagates that budget all the
        way down to the worker-pipe deadline (whose ``recv_tagged``
        honors even a zero budget without over-waiting).
    request_retries:
        How many times a timed-out request is re-issued to the same
        live worker before it is declared wedged.  Safe at any value:
        the request-id protocol discards the late replies of abandoned
        attempts.
    max_restarts:
        Per-shard respawn budget, shared by the shard's replicas.  A
        dead (or wedged-and-killed) worker is replaced from the
        existing shared parameter segments up to this many times;
        ``0`` disables supervision and restores pure fail-fast
        behaviour.
    restart_backoff / restart_backoff_cap:
        Exponential backoff before respawn attempt *n*:
        ``min(cap, backoff * 2**n)`` seconds.
    degraded:
        ``False`` (default): an irrecoverable shard closes the engine
        and raises (a fleet with a missing shard cannot answer
        *exactly*).  ``True``: serving calls return a
        :class:`~repro.core.pipeline.DegradedOutput` — the merge of the
        surviving shards plus a structured report of the missing
        category ranges — and the fleet keeps serving what it has.
    replicas:
        Replica workers per shard: an int applies fleet-wide, a
        ``{shard_id: count}`` mapping sets hot shards individually
        (missing shards default to 1) —
        :meth:`~repro.distributed.sharding.ShardPlan.suggest_replicas`
        produces exactly this shape.  Replicas attach the same shared
        parameter segments, so the exact weights and the screener's
        stored ``W̃`` are held once per shard; each worker still
        re-derives a private fused GEMM plane of fake-quantized weights
        from them, ``(k + 1) · shard_l · 8`` bytes per replica (the
        integer screening plane, ROADMAP item 3, is what would let
        that be shared too).  Requests dispatch to the least-loaded live
        replica; a replica whose share of the shard's restart budget is
        spent fails its in-flight request over to a live sibling, and
        only a fully-dead group degrades the shard.
    faults:
        Optional fault mapping injected into the workers (tests only).
        Keys are ``shard_id`` ints (replica 0 of that shard) or
        ``(shard_id, replica_idx)`` tuples; values are
        ``[FaultSpec, ...]``.  Respawned workers
        inherit only ``persistent`` specs.
    recorder:
        Optional :class:`repro.obs.Recorder`.  Default: the no-op
        recorder — zero observability overhead, outputs bit-identical.
        With a live recorder the engine records per-shard request
        latency histograms, retry/respawn/stale/degraded/overrun
        counters and (if the recorder has a tracer) request spans;
        everything is readable through :meth:`stats`.
    trace:
        ``True`` attaches a span tracer: creates a live recorder if
        ``recorder`` was not given, or adds a
        :class:`~repro.obs.Tracer` to the given one.  Export with
        :meth:`write_trace`.
    autoscaler:
        Optional :class:`~repro.distributed.autoscale.AutoScaler`.
        When set, the engine accumulates per-shard observation windows
        (exact-phase work from served candidate records, collect
        latency) and :meth:`autoscale_tick` — called between requests,
        e.g. from the serving front door's batcher thread — evaluates
        the policy and applies its decision by spawning replicas
        against the existing shared parameter segments
        (:meth:`scale_up`) or retiring them (:meth:`scale_down`).
        Scaling changes placement only, never outputs: replicas of a
        shard run the identical pipeline on the identical shared bytes,
        so the engine stays bit-identical to the sequential backend
        with the autoscaler on or off (differentially tested).

    The engine is a context manager; ``close()`` shuts workers down and
    unlinks every shared segment.
    """

    def __init__(
        self,
        sharded: ShardedClassifier,
        start_method: Optional[str] = None,
        max_batch: int = 64,
        request_timeout: Optional[float] = None,
        request_retries: int = 1,
        max_restarts: int = 2,
        restart_backoff: float = 0.05,
        restart_backoff_cap: float = 2.0,
        degraded: bool = False,
        replicas: Optional[Union[int, Dict[int, int]]] = None,
        faults: Optional[Dict[object, Sequence[FaultSpec]]] = None,
        spawn_timeout: float = 60.0,
        recorder=None,
        trace: bool = False,
        autoscaler: Optional[AutoScaler] = None,
    ):
        if not sharded.trained:
            raise RuntimeError("train the ShardedClassifier before serving it")
        check_positive("max_batch", max_batch)
        if request_retries < 0:
            raise ValueError(f"request_retries must be >= 0, got {request_retries}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.ranges = list(sharded.ranges)
        self.plan = getattr(sharded, "plan", None)
        self.hidden_dim = sharded.classifier.hidden_dim
        self.num_categories = sharded.classifier.num_categories
        self.request_timeout = request_timeout
        self.request_retries = int(request_retries)
        self.degraded = bool(degraded)
        if recorder is None:
            recorder = Recorder(trace=True) if trace else NULL_RECORDER
        elif trace and recorder.enabled and recorder.tracer is None:
            recorder.tracer = Tracer()
        self.recorder = recorder
        # Engine-level counters kept as plain ints so they are readable
        # through stats() even with the no-op recorder installed; the
        # per-shard supervision events live on the groups.
        self.requests_served = 0
        self.degraded_requests = 0
        self.retries = 0
        self.deadline_overruns = 0
        self.replans = 0
        self.closed = False
        self._max_batch = int(max_batch)
        self._io_input: Optional[SharedArrayPack] = None
        self._io_output: Optional[SharedArrayPack] = None
        self._segment_names: List[str] = []

        context = (
            multiprocessing.get_context(start_method)
            if start_method is not None
            else default_context()
        )
        self._param_packs: List[SharedArrayPack] = []
        self._groups: List[ShardGroup] = []
        num_shards = len(self.ranges)
        fault_specs = _replica_fault_specs(replicas, faults, num_shards)
        self.autoscaler = autoscaler
        #: The per-shard load distribution the current replica
        #: allocation was sized from — the drift reference a re-plan
        #: resets to the freshly observed loads.
        self._sizing_loads: Tuple[float, ...] = (
            tuple(self.plan.loads)
            if self.plan is not None
            else tuple([1.0 / num_shards] * num_shards)
        )
        #: Requests since the autoscaler last consumed the windows.
        self._window_requests = 0
        try:
            for shard_id, (shard, shard_range) in enumerate(
                zip(sharded.shards, self.ranges)
            ):
                arrays, meta = shard.export_arrays()
                pack = SharedArrayPack.create(arrays)
                self._param_packs.append(pack)
                self._segment_names.append(pack.name)
                worker_args = (shard_id, pack.layout, meta, shard_range.start)
                self._groups.append(
                    ShardGroup(
                        shard_id,
                        partial(_spawn_worker, context, self.recorder, worker_args),
                        fault_specs[shard_id],
                        max_restarts=int(max_restarts),
                        restart_backoff=float(restart_backoff),
                        restart_backoff_cap=float(restart_backoff_cap),
                        spawn_timeout=float(spawn_timeout),
                        attachable=partial(SharedArrayPack.exists, pack.layout),
                        recorder=self.recorder,
                    )
                )
            for group in self._groups:
                group.await_ready()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    @property
    def replica_groups(self) -> List[ShardGroup]:
        """The control plane: one group per shard."""
        return list(self._groups)

    @property
    def workers(self) -> List[WorkerHandle]:
        """The replica-0 worker handle of every shard — with the default
        single replica per shard, the whole fleet.  Read by the
        benchmark's per-worker memory probe (``bench/workloads.py``)
        and by per-shard test hooks
        (``engine.workers[i].process.kill()``)."""
        return [group.replicas[0].handle for group in self._groups]

    # Fleet-level views of per-group state (read-only, derived).
    @property
    def replica_counts(self) -> List[int]:
        return [len(group.replicas) for group in self._groups]

    @property
    def restarts(self) -> List[int]:
        """Respawns so far, per shard (one budget per replica group)."""
        return [group.restarts for group in self._groups]

    @property
    def dead_shards(self) -> List[int]:
        """Shards whose restart budget is exhausted (degraded mode)."""
        return [group.shard_id for group in self._groups if group.dead]

    def _events(self, event: str) -> int:
        return sum(group.events[event] for group in self._groups)

    @property
    def failovers(self) -> int:
        return self._events("failovers")

    @property
    def scale_ups(self) -> int:
        return self._events("scale_up")

    @property
    def scale_downs(self) -> int:
        return self._events("scale_down")

    def segment_names(self) -> List[str]:
        """Names of every shared-memory segment this engine created."""
        return list(self._segment_names)

    # ------------------------------------------------------------------
    # elastic scaling
    # ------------------------------------------------------------------
    def _group(self, shard_id: int) -> ShardGroup:
        if self.closed:
            raise RuntimeError("engine is closed")
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"unknown shard {shard_id}")
        return self._groups[shard_id]

    def scale_up(self, shard_id: int) -> int:
        """Spawn one additional replica for ``shard_id`` at runtime, on
        the shard's *existing* shared parameter segments; returns the
        new replica index (:meth:`ShardGroup.add`).  Must be called
        between requests (the engine serves one request at a time; the
        front door's batcher thread satisfies this)."""
        return self._group(shard_id).add()

    def scale_down(self, shard_id: int) -> bool:
        """Retire one replica of ``shard_id``; ``False`` if impossible
        (:meth:`ShardGroup.retire`: never the last live replica, never
        on a dead shard)."""
        return self._group(shard_id).retire()

    def autoscale_tick(self) -> Optional[ScaleDecision]:
        """One autoscaler evaluation over the window since the last one.

        No-op (returns ``None``) without an autoscaler, on a closed
        engine, or while the window is below the policy's
        ``interval_requests``.  Otherwise evaluates one
        :class:`~repro.distributed.autoscale.ShardSignal` per group,
        consumes the windows, applies the decision — retires first,
        then spawns, so the worker budget is never transiently exceeded
        — and returns it.  A re-plan decision re-baselines the drift
        reference to the observed loads it was sized from.

        Call between requests only: the engine is not concurrency-safe,
        and membership must not change under an in-flight scatter.  The
        serving front door calls this from its batcher thread between
        micro-batches.
        """
        if self.autoscaler is None or self.closed:
            return None
        decision = self.autoscaler.evaluate(
            [group.signal() for group in self._groups],
            sizing_loads=self._sizing_loads,
            window_requests=self._window_requests,
        )
        if decision is None:
            return None
        self._window_requests = 0
        for group in self._groups:
            group.consume_window()
        for shard_id in decision.scale_down:
            self.scale_down(shard_id)
        for shard_id in decision.scale_up:
            self.scale_up(shard_id)
        if decision.replan:
            self.replans += 1
            self.recorder.increment("parallel.replans")
            if decision.sizing_loads is not None:
                self._sizing_loads = tuple(decision.sizing_loads)
        return decision

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _scatter_gather(
        self, op: str, request
    ) -> Tuple[List[Optional[dict]], Dict[int, ShardFailure]]:
        """Send one request to every live shard, collect every reply.

        Returns per-shard payloads (``None`` where a shard failed) plus
        the failure records.  Recovery — retry on timeout, the group's
        ``recover`` on death — happens per shard during collection.  In
        fail-fast mode (``degraded=False``) an irrecoverable shard
        closes the engine and re-raises the original
        ``WorkerDied``/``WorkerTimeout``.
        """
        pending: List[Optional[Tuple[int, Optional[int]]]] = []
        failures: Dict[int, ShardFailure] = {}
        for group in self._groups:
            replica_idx = group.pick()
            if replica_idx is None:
                failures[group.shard_id] = ShardFailure(
                    group.shard_id,
                    self.ranges[group.shard_id],
                    "died",
                    "restart budget exhausted on an earlier request",
                )
                pending.append(None)
                continue
            try:
                pending.append((replica_idx, group.post(replica_idx, op, request)))
            except WorkerDied:
                # Send failed; the collect phase recovers and re-issues.
                pending.append((replica_idx, None))
        replies = [
            None
            if posted is None
            else self._collect_shard(group, *posted, op, request, failures)
            for group, posted in zip(self._groups, pending)
        ]
        error_failures = [f for f in failures.values() if f.kind == "error"]
        if error_failures and not self.degraded:
            raise WorkerError(
                f"request failed on {len(error_failures)}/{self.num_shards} "
                "workers:\n"
                + "\n".join(
                    f"shard {f.shard_id}: {f.detail}" for f in error_failures
                )
            )
        return replies, failures

    def _collect_shard(
        self,
        group: ShardGroup,
        replica_idx: int,
        request_id: Optional[int],
        op: str,
        request,
        failures: Dict[int, ShardFailure],
    ) -> Optional[dict]:
        """Await one shard's reply, applying the recovery policy.

        ``request_id is None`` means the request still needs (re)issuing
        on ``replica_idx`` — a send failed, a timed-out request is being
        retried, or ``recover`` named the replica to continue on (the
        respawned one or a sibling).

        The per-shard latency histogram covers the whole collect —
        retries, respawns and failovers included — because that is the
        latency the merge actually waits on.
        """
        shard_id = group.shard_id
        recording = self.recorder.enabled
        timing = recording or self.autoscaler is not None
        started = time.perf_counter() if timing else 0.0
        retries_left = self.request_retries
        while True:
            try:
                if request_id is None:
                    request_id = group.post(replica_idx, op, request)
                kind, payload = group.replicas[replica_idx].handle.recv_tagged(
                    request_id, timeout=self.request_timeout
                )
                break
            except WorkerTimeout as error:
                self.deadline_overruns += 1
                self.recorder.increment("parallel.deadline_overruns")
                request_id = None
                if retries_left > 0:
                    # Re-issue to the same live worker; its late answer
                    # to the abandoned id is discarded on arrival.
                    retries_left -= 1
                    self.retries += 1
                    self.recorder.increment("parallel.retries")
                    continue
                # Live but unresponsive past every retry: wedged.
                failed = ("timeout", error)
            except WorkerDied as error:
                request_id = None
                failed = ("died", error)
            # Replace the replica (heals future requests); this request
            # continues on the replacement, or on a live sibling once
            # the budget is spent — the incumbent is stopped first, so
            # whoever answers owns the shared output plane alone.
            replica_idx = group.recover(replica_idx)
            if replica_idx is None:
                if not self.degraded:
                    self.close()
                    raise failed[1]
                failures[shard_id] = ShardFailure(
                    shard_id, self.ranges[shard_id], failed[0], str(failed[1])
                )
                return None
        elapsed = (time.perf_counter() - started) if timing else 0.0
        work = None
        if self.autoscaler is not None and kind == "ok":
            # Exact-phase work actually served: candidate hits for
            # forward paths, result cells for top-k — the same signal
            # observed_category_frequencies aggregates, and the load
            # distribution the autoscaler re-plans from.
            if op == "top_k":
                work = float(payload["indices"].size)
            else:
                work = float(np.asarray(payload["counts"]).sum())
        group.record(replica_idx, work, elapsed)
        if recording:
            self.recorder.increment(f"parallel.shard.{shard_id}.requests")
            self.recorder.increment(
                f"parallel.shard.{shard_id}.replica.{replica_idx}.requests"
            )
            self.recorder.observe(
                f"parallel.shard.{shard_id}.latency_s",
                elapsed,
                bounds=latency_buckets(),
            )
        if kind == "ok":
            return payload
        # Remote exception: the worker survives; record and move on
        # (fail-fast mode raises an aggregated WorkerError after every
        # shard is collected).
        failures[shard_id] = ShardFailure(
            shard_id, self.ranges[shard_id], "error", str(payload)
        )
        return None

    def _broadcast_all(self, op: str) -> None:
        """Post a control op to *every* live replica and await replies.

        Unlike :meth:`_scatter_gather` (one replica per shard), control
        traffic like ``detach-io`` must reach each process individually
        — every replica caches its own mapping of the I/O planes.
        Failures are tolerated without recovery: a dead replica's
        mappings die with its process (the next serving request runs
        the regular recovery policy), and a worker that never detaches
        only pins the unlinked segment's memory until it attaches the
        replacement layout on its next request.
        """
        posted: List[Tuple[WorkerHandle, int]] = []
        for group in self._groups:
            for replica_idx in group.live_indices():
                handle = group.replicas[replica_idx].handle
                try:
                    posted.append((handle, handle.post(op, None)))
                except WorkerDied:
                    continue
        for handle, request_id in posted:
            try:
                handle.recv_tagged(request_id, timeout=self.request_timeout)
            except (WorkerDied, WorkerTimeout):
                continue

    # ------------------------------------------------------------------
    # shared I/O planes
    # ------------------------------------------------------------------
    def _ensure_io(self, rows: int, need_output: bool = True) -> None:
        """Size the shared I/O planes for a ``rows``-row batch.

        The output planes (per-shard dense logits) are only allocated
        when a dense ``forward`` asks for them — streaming and top-k
        requests ship candidates-only records over the pipe, so a
        streaming-only engine never materializes ``batch × l`` shared
        memory at all.
        """
        input_capacity = (
            self._io_input["features"].shape[0]
            if self._io_input is not None
            else 0
        )
        if rows > input_capacity:
            input_capacity = max(self._max_batch, rows)
            if self._io_input is not None:
                # Workers hold mappings of the old planes; have every
                # live replica detach before the segments are unlinked
                # and replaced.  Failures are tolerable here: a dead
                # worker's mapping dies with its process, and the
                # replacement attaches the new layout lazily on its
                # next request.
                self._broadcast_all("detach-io")
                self._release_io()
            self._io_input = SharedArrayPack.zeros(
                {"features": ((input_capacity, self.hidden_dim), np.float64)}
            )
            self._segment_names.append(self._io_input.name)
        if need_output and self._io_output is None:
            self._io_output = SharedArrayPack.zeros(
                {
                    f"logits{shard_id}": ((input_capacity, len(shard_range)), np.float64)
                    for shard_id, shard_range in enumerate(self.ranges)
                }
            )
            self._segment_names.append(self._io_output.name)

    def _release_io(self) -> None:
        for pack in (self._io_input, self._io_output):
            if pack is not None:
                pack.destroy()
        self._io_input = None
        self._io_output = None

    def _prepare(self, features: np.ndarray, need_output: bool) -> Dict[str, object]:
        """Stage the batch in the shared input plane; returns the base
        request every worker receives (row count + I/O layouts)."""
        if self.closed:
            raise RuntimeError("engine is closed")
        batch = check_batch_features(features, self.hidden_dim)
        rows = batch.shape[0]
        self._ensure_io(rows, need_output=need_output)
        np.copyto(self._io_input["features"][:rows], batch)
        request = {"rows": rows, "input": self._io_input.layout}
        if need_output:
            request["output"] = self._io_output.layout
        return request

    def _serve(self, op: str, features: np.ndarray, request_extra, rebuild, merge):
        """One serving request: scatter ``op`` to every shard, rebuild
        each reply into a per-shard output (``rebuild(shard_id, reply)``;
        ``None`` where the shard failed), ``merge(outputs, ranges,
        rows)`` them, and wrap the merge in a :class:`DegradedOutput`
        when any shard is missing."""
        with self.recorder.span(f"engine.{op}"):
            self.requests_served += 1
            self._window_requests += 1
            self.recorder.increment("parallel.requests")
            request = self._prepare(features, need_output=op == "forward")
            request.update(request_extra)
            with self.recorder.span("engine.scatter_gather"):
                replies, failures = self._scatter_gather(op, request)
            with self.recorder.span("engine.merge"):
                outputs = [
                    None if reply is None else rebuild(shard_id, reply)
                    for shard_id, reply in enumerate(replies)
                ]
                merged = merge(outputs, self.ranges, request["rows"])
            if failures:
                self.degraded_requests += 1
                self.recorder.increment("parallel.degraded_requests")
                return DegradedOutput(merged, failures.values(), self.num_categories)
            return merged

    # ------------------------------------------------------------------
    # serving API — mirrors the sequential backend
    # ------------------------------------------------------------------
    def forward(
        self, features: np.ndarray
    ) -> Union[ScreenedOutput, DegradedOutput]:
        """All-shard screened inference, merged to global order.

        Bit-identical to ``ShardedClassifier.forward`` on the same
        shards (differentially tested) — including across worker
        respawns, because replacement workers rebuild from the same
        shared parameter bytes.  In degraded mode a request with failed
        shards returns a :class:`DegradedOutput` whose missing columns
        are NaN.
        """

        def rebuild(shard_id: int, reply: dict) -> ScreenedOutput:
            # A view of the shared plane: merge_shard_outputs
            # concatenates, so the merged output owns its memory and
            # survives buffer reuse.
            rows = len(reply["counts"])
            return ScreenedOutput(
                logits=self._io_output[f"logits{shard_id}"][:rows],
                candidates=CandidateSet.from_flat(reply["counts"], reply["cols"]),
                restore=(reply["rows"], reply["cols"], reply["saved"]),
            )

        return self._serve("forward", features, {}, rebuild, merge_shard_outputs)

    __call__ = forward

    def forward_streaming(
        self,
        features: np.ndarray,
        block_categories: Optional[int] = None,
    ) -> Union[StreamedOutput, DegradedOutput]:
        """All-shard blocked streaming inference, merged to global order.

        Every worker streams its category stripe block by block and
        ships back only its candidate record — no shared output plane
        exists, so the engine's shared memory stays O(batch × d)
        regardless of ``l``.  Candidates and values are bit-identical
        to ``ShardedClassifier.forward_streaming`` on the same shards.
        In degraded mode a request with failed shards returns a
        :class:`DegradedOutput` whose result simply has no candidates
        from the missing ranges.
        """

        def rebuild(shard_id: int, reply: dict) -> StreamedOutput:
            return StreamedOutput(
                candidates=CandidateSet.from_flat(reply["counts"], reply["cols"]),
                exact_values=reply["exact"],
                approximate_values=reply["approx"],
                num_categories=len(self.ranges[shard_id]),
            )

        return self._serve(
            "forward_streaming",
            features,
            {"block": block_categories},
            rebuild,
            merge_streamed_outputs,
        )

    def top_k(
        self, features: np.ndarray, k: int
    ) -> Union[Tuple[np.ndarray, np.ndarray], DegradedOutput]:
        """Global top-k via per-shard top-k + host reduce.

        In degraded mode a request with failed shards reduces over the
        surviving shards only and wraps the ``(indices, scores)`` pair
        in a :class:`DegradedOutput`.
        """
        check_positive("k", k)
        if k > self.num_categories:
            raise ValueError(
                f"k={k} exceeds score dimension {self.num_categories}"
            )

        def merge(parts, ranges, rows):
            surviving = [part for part in parts if part is not None]
            if not surviving:
                return (
                    np.empty((rows, 0), dtype=np.intp),
                    np.empty((rows, 0), dtype=np.float64),
                )
            return reduce_top_k(*zip(*surviving), k)

        return self._serve(
            "top_k",
            features,
            {"k": int(k)},
            lambda shard_id, reply: (reply["indices"], reply["scores"]),
            merge,
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Argmax category per row — the first entry of :meth:`top_k`;
        ``-1`` where, under degraded operation, no shard survived to
        score the row."""
        top = self.top_k(features, 1)
        indices = (top.result if isinstance(top, DegradedOutput) else top)[0]
        if indices.shape[1] == 0:
            return np.full(indices.shape[0], -1, dtype=np.intp)
        return indices[:, 0]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Supervision and latency statistics for the whole fleet.

        Always available: the plain supervision counters (requests,
        retries, respawns, deadline overruns, degraded requests, stale
        replies, dead shards).  With a live recorder installed the
        per-shard blocks additionally carry a latency summary
        (count/mean/p50/p95/p99 seconds) from the recorder's
        histograms, and the full metrics snapshot rides along under
        ``"metrics"``.
        """
        recording = self.recorder.enabled
        snapshot = self.recorder.snapshot() if recording else {}
        histograms = snapshot.get("histograms", {})
        counters = snapshot.get("counters", {})
        shards = []
        for shard_id, group in enumerate(self._groups):
            shard = {
                "shard_id": shard_id,
                "categories": [
                    self.ranges[shard_id].start,
                    self.ranges[shard_id].stop,
                ],
                **group.stats(),
            }
            if self.plan is not None:
                shard["planned_load"] = self.plan.loads[shard_id]
            if recording:
                shard["requests"] = counters.get(
                    f"parallel.shard.{shard_id}.requests", 0
                )
                shard["latency_s"] = histograms.get(
                    f"parallel.shard.{shard_id}.latency_s", {"count": 0}
                )
            shards.append(shard)
        stats: Dict[str, object] = {
            "requests": self.requests_served,
            "degraded_requests": self.degraded_requests,
            "retries": self.retries,
            "failovers": self.failovers,
            "deadline_overruns": self.deadline_overruns,
            "respawns": sum(self.restarts),
            "stale_replies": sum(group.stale_replies() for group in self._groups),
            "dead_shards": self.dead_shards,
            "replica_counts": self.replica_counts,
            "autoscaling": self.autoscaler is not None,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "replans": self.replans,
            "plan_source": self.plan.source if self.plan is not None else None,
            "recording": recording,
            "shards": shards,
        }
        if recording:
            stats["metrics"] = snapshot
        return stats

    def write_trace(self, path) -> int:
        """Write the recorded trace as Chrome trace-event JSON.

        Returns the number of events written; raises if the engine has
        no tracer (construct with ``trace=True``).
        """
        tracer = self.recorder.tracer
        if tracer is None:
            raise RuntimeError(
                "engine has no tracer; construct with trace=True or pass "
                "a recorder whose tracer is set"
            )
        return tracer.write(path)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop all workers and unlink every shared segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for group in self._groups:
            group.close()
        self._release_io()
        for pack in self._param_packs:
            pack.destroy()
        self._param_packs = []

    def __enter__(self) -> "ParallelShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.num_shards} workers"
        return (
            f"ParallelShardedEngine(l={self.num_categories}, "
            f"d={self.hidden_dim}, {state})"
        )
