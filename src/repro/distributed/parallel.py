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
* **gather** — each worker writes its shard's mixed logits plane into
  its slot of a shared output segment and ships only the tiny candidate
  record (counts, columns, pre-mix approximate values) over the pipe;
* **reduce** — the host reconstructs per-shard
  :class:`~repro.core.pipeline.ScreenedOutput` objects and merges them
  through the *same* :func:`~repro.distributed.sharding.merge_shard_outputs`
  / :func:`~repro.distributed.sharding.reduce_top_k` code path the
  sequential backend uses.

Because workers execute the identical numpy pipeline on the identical
bytes, the engine is bit-identical to the sequential
``ShardedClassifier`` — the differential harness in
``tests/test_distributed_parallel.py`` asserts exactly that, across
selectors, compute dtypes and shard counts.

Fault tolerance (the supervision layer)
---------------------------------------
Every pipe message carries a request id (see
:mod:`repro.utils.workers`), so a request the host gave up on can never
poison the next one — late replies are discarded by id.  On that
protocol the engine builds serving-grade supervision:

* **respawn** — a worker that dies is replaced from the *same* shared
  parameter segments (nothing is re-exported or re-pickled), with
  exponential backoff and a bounded per-worker restart budget
  (``max_restarts``); a respawned fleet keeps answering bit-identically
  to the sequential backend.
* **deadlines + retries** — ``request_timeout`` bounds every reply
  wait; ``request_retries`` re-issues the request to the same live
  worker (safe, because its late first answer is discarded by id)
  before the worker is declared wedged, killed, and replaced.
* **graceful degradation** — with ``degraded=True`` an irrecoverable
  shard no longer takes down the engine: ``forward`` /
  ``forward_streaming`` / ``top_k`` return a
  :class:`~repro.core.pipeline.DegradedOutput` wrapping the merge of
  the surviving shards plus :class:`~repro.core.pipeline.ShardFailure`
  records naming the missing category ranges.  With ``degraded=False``
  (default) the engine preserves the fail-fast contract: it closes
  itself and raises.

Every failure path is exercised deterministically through
:mod:`repro.utils.faults` (kill / delay / wedge / raise on the nth
request), wired through the worker entry point.

Replica groups (Zipfian-aware serving)
--------------------------------------
Under a skewed request mix some shards are hotter than others even
after frequency-balanced planning (:class:`~repro.distributed.sharding.ShardPlan`
equalizes *estimated* load; a single ultra-hot category still pins its
whole shard).  The ``replicas`` parameter therefore runs *groups* of
interchangeable workers per shard.  Replicas attach the **same** shared
parameter segments — the model exists once in physical memory no matter
how many processes serve it — and each request is dispatched to the
least-loaded live replica (fewest dispatch attempts, ties to the lowest
index — attempts, not answers, so a replica that keeps timing out does
not keep attracting traffic).  Supervision extends naturally: a dead or wedged replica is
respawned against the shard's shared ``max_restarts`` budget, and when
its budget share is spent the request *fails over* to a live sibling;
only a shard whose replicas are all dead degrades or fails fast.
Failover is race-safe on the shared output planes because the
incumbent is always stopped (SIGTERM→SIGKILL) before a sibling serves
the same plane.

Replica groups are *elastic*: with an
:class:`~repro.distributed.autoscale.AutoScaler` attached,
:meth:`ParallelShardedEngine.autoscale_tick` (driven between
micro-batches by the serving front door) evaluates the observed
per-shard work distribution and latency, spawns additional replicas
for overloaded shards against the existing shared segments
(:meth:`~ParallelShardedEngine.scale_up`), retires idle or tombstoned
ones (:meth:`~ParallelShardedEngine.scale_down`), and re-plans the
whole allocation when the observed load drifts away from the plan that
sized the fleet.  Scaling moves placement only — outputs stay
bit-identical with the autoscaler on or off.

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.candidates import CandidateSet
from repro.distributed.autoscale import AutoScaler, ScaleDecision, ShardSignal
from repro.core.pipeline import (
    ApproximateScreeningClassifier,
    DegradedOutput,
    ScreenedOutput,
    ShardFailure,
    StreamedOutput,
)
from repro.distributed.sharding import (
    ShardedClassifier,
    merge_shard_outputs,
    merge_streamed_outputs,
    reduce_top_k,
    shard_top_k,
)
from repro.obs.metrics import latency_buckets
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.trace import Tracer
from repro.utils.faults import FaultInjector, FaultSpec, surviving_specs
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


class _ReplicaGroup:
    """One shard's replica set: interchangeable workers over the same
    shared parameter segments.

    The engine serves one request at a time, so "least loaded" reduces
    to the replica with the fewest *dispatch attempts* — posts, not
    successful answers.  Counting answers alone has a failure mode: a
    replica that keeps timing out never advances its count, stays at
    the minimum, and keeps attracting every new request while its
    healthy siblings idle.  Dispatch attempts charge the replica for
    the work it was handed whether or not it delivered, so a slow or
    flaky replica drains traffic toward its siblings instead of
    monopolizing it.  The balance a round-robin over live replicas
    converges to is unchanged for healthy groups, and the signal stays
    robust to replicas joining late (a respawn or scale-up) or leaving
    early (death or scale-down).

    Group size is dynamic: :meth:`add` grows the set (autoscaler
    scale-up) and :meth:`remove` retires a slot (scale-down), folding
    the retiree's answer count into ``retired_served`` so the shard's
    lifetime ``answered()`` reconciliation survives membership churn.
    """

    __slots__ = ("shard_id", "handles", "dead", "served", "dispatched",
                 "retired_served")

    def __init__(self, shard_id: int, handles: Sequence[WorkerHandle]):
        self.shard_id = shard_id
        self.handles: List[WorkerHandle] = list(handles)
        #: Per-replica "restart budget share spent" flags; the shard is
        #: only dead when every entry is True.
        self.dead: List[bool] = [False] * len(self.handles)
        #: Requests answered per replica (the reconciliation signal).
        self.served: List[int] = [0] * len(self.handles)
        #: Dispatch attempts per replica (the load signal for pick()).
        self.dispatched: List[int] = [0] * len(self.handles)
        #: Answers delivered by replicas since removed via scale-down.
        self.retired_served: int = 0

    @property
    def num_replicas(self) -> int:
        return len(self.handles)

    def live_indices(self) -> List[int]:
        return [idx for idx, dead in enumerate(self.dead) if not dead]

    def pick(self) -> Optional[int]:
        """Least-loaded live replica; ``None`` when all are dead."""
        live = self.live_indices()
        if not live:
            return None
        return min(live, key=lambda idx: (self.dispatched[idx], idx))

    def add(self, handle: WorkerHandle) -> int:
        """Grow the group by one live replica; returns its index."""
        self.handles.append(handle)
        self.dead.append(False)
        self.served.append(0)
        self.dispatched.append(0)
        return len(self.handles) - 1

    def remove(self, replica_idx: int) -> WorkerHandle:
        """Retire one replica slot, preserving ``answered()`` history.

        The caller owns stopping the returned handle; later replicas
        shift down one index (their counters travel with them).
        """
        self.retired_served += self.served[replica_idx]
        handle = self.handles.pop(replica_idx)
        del self.dead[replica_idx]
        del self.served[replica_idx]
        del self.dispatched[replica_idx]
        return handle

    def answered(self) -> int:
        """Requests this shard has answered over its lifetime, summed
        over current replicas plus slots retired by scale-down."""
        return sum(self.served) + self.retired_served


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
        flat_rows, flat_cols = streamed.candidates.flat()
        return {
            "counts": streamed.candidates.counts,
            "cols": flat_cols,
            "rows": flat_rows,
            "exact": streamed.exact_values,
            "approx": streamed.approximate_values,
        }

    output = engine.forward(batch)
    if op == "top_k":
        indices, scores = shard_top_k(output, shard_range, int(payload["k"]))
        return {"indices": indices, "scores": scores}

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
        Per-worker respawn budget.  A dead (or wedged-and-killed)
        worker is replaced from the existing shared parameter segments
        up to this many times; ``0`` disables supervision and restores
        pure fail-fast behaviour.
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
        parameter segments, so extra replicas cost processes, not
        model memory.  Requests dispatch to the least-loaded live
        replica; a replica whose share of the shard's restart budget is
        spent fails its in-flight request over to a live sibling, and
        only a fully-dead group degrades the shard.
    faults:
        Optional fault mapping injected into the workers (tests /
        ``bench_parallel.py --faults`` only).  Keys are ``shard_id``
        ints (replica 0 of that shard) or ``(shard_id, replica_idx)``
        tuples; values are ``[FaultSpec, ...]``.  Respawned workers
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
        self.max_restarts = int(max_restarts)
        self.restart_backoff = float(restart_backoff)
        self.restart_backoff_cap = float(restart_backoff_cap)
        self.degraded = bool(degraded)
        self.spawn_timeout = float(spawn_timeout)
        if recorder is None:
            recorder = Recorder(trace=True) if trace else NULL_RECORDER
        elif trace and recorder.enabled and recorder.tracer is None:
            recorder.tracer = Tracer()
        self.recorder = recorder
        # Supervision counters kept as plain ints so they are readable
        # through stats() even with the no-op recorder installed.
        self.requests_served = 0
        self.degraded_requests = 0
        self.retries = 0
        self.failovers = 0
        self.deadline_overruns = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.replans = 0
        self.closed = False
        self._max_batch = int(max_batch)
        self._io_input: Optional[SharedArrayPack] = None
        self._io_output: Optional[SharedArrayPack] = None
        self._segment_names: List[str] = []

        self._context = (
            multiprocessing.get_context(start_method)
            if start_method is not None
            else default_context()
        )

        self._compute_dtypes: List[np.dtype] = [
            shard.screener.compute_dtype for shard in sharded.shards
        ]
        self._param_packs: List[SharedArrayPack] = []
        self._worker_args: List[tuple] = []
        num_shards = len(self.ranges)
        self.replica_counts = self._normalize_replicas(replicas, num_shards)
        self._fault_specs: List[List[List[FaultSpec]]] = [
            [[] for _ in range(count)] for count in self.replica_counts
        ]
        for key, specs in (faults or {}).items():
            shard_id, replica_idx = key if isinstance(key, tuple) else (key, 0)
            if not 0 <= shard_id < num_shards:
                raise ValueError(f"fault key names unknown shard {shard_id}")
            if not 0 <= replica_idx < self.replica_counts[shard_id]:
                raise ValueError(
                    f"fault key names replica {replica_idx} but shard "
                    f"{shard_id} runs {self.replica_counts[shard_id]}"
                )
            self._fault_specs[shard_id][replica_idx] = list(specs)
        #: Respawns performed so far, per shard (observable supervision
        #: state; the budget is shared across a shard's replica group).
        self.restarts: List[int] = [0] * num_shards
        self._dead: List[bool] = [False] * num_shards
        self._groups: List[_ReplicaGroup] = []
        # --- elastic scaling state -----------------------------------
        self.autoscaler = autoscaler
        #: The per-shard load distribution the current replica
        #: allocation was sized from — the drift reference a re-plan
        #: resets to the freshly observed loads.
        self._sizing_loads: Tuple[float, ...] = (
            tuple(self.plan.loads)
            if self.plan is not None
            else tuple([1.0 / num_shards] * num_shards)
        )
        # Observation-window accumulators (lifetime totals; each tick
        # diffs against the baseline captured at the last evaluation).
        self._work_totals: List[float] = [0.0] * num_shards
        self._lat_totals: List[float] = [0.0] * num_shards
        self._lat_counts: List[int] = [0] * num_shards
        self._work_baseline: List[float] = [0.0] * num_shards
        self._lat_total_baseline: List[float] = [0.0] * num_shards
        self._lat_count_baseline: List[int] = [0] * num_shards
        self._answered_baseline: List[int] = [0] * num_shards
        self._tick_requests_baseline = 0
        try:
            for shard_id, (shard, shard_range) in enumerate(
                zip(sharded.shards, self.ranges)
            ):
                arrays, meta = shard.export_arrays()
                pack = SharedArrayPack.create(arrays)
                self._param_packs.append(pack)
                self._segment_names.append(pack.name)
                self._worker_args.append(
                    (shard_id, pack.layout, meta, shard_range.start)
                )
                handles = [
                    self._spawn_worker(
                        shard_id,
                        replica_idx,
                        self._fault_specs[shard_id][replica_idx],
                    )
                    for replica_idx in range(self.replica_counts[shard_id])
                ]
                self._groups.append(_ReplicaGroup(shard_id, handles))
            for group in self._groups:
                for worker in group.handles:
                    kind, payload = worker.handshake(timeout=self.spawn_timeout)
                    if kind == "fatal":
                        raise RuntimeError(
                            f"worker {worker.name} failed to start:\n{payload}"
                        )
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _normalize_replicas(
        replicas: Optional[Union[int, Dict[int, int]]], num_shards: int
    ) -> List[int]:
        if replicas is None:
            counts = [1] * num_shards
        elif isinstance(replicas, dict):
            unknown = [sid for sid in replicas if not 0 <= sid < num_shards]
            if unknown:
                raise ValueError(
                    f"replicas name unknown shards {unknown} "
                    f"(fleet has {num_shards})"
                )
            counts = [int(replicas.get(sid, 1)) for sid in range(num_shards)]
        else:
            counts = [int(replicas)] * num_shards
        if any(count < 1 for count in counts):
            raise ValueError(f"every shard needs >= 1 replica, got {counts}")
        return counts

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    @property
    def workers(self) -> List[WorkerHandle]:
        """The primary (replica-0 slot) worker handle of every shard.

        Kept for the pre-replica surface: with the default single
        replica per shard this *is* the fleet, and per-shard test
        hooks (``engine.workers[i].process.kill()``) keep working.
        """
        return [group.handles[0] for group in self._groups]

    @property
    def replica_groups(self) -> List["_ReplicaGroup"]:
        return list(self._groups)

    @property
    def dead_shards(self) -> List[int]:
        """Shards whose restart budget is exhausted (degraded mode)."""
        return [sid for sid, dead in enumerate(self._dead) if dead]

    def segment_names(self) -> List[str]:
        """Names of every shared-memory segment this engine created."""
        return list(self._segment_names)

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _spawn_worker(
        self, shard_id: int, replica_idx: int, fault_specs: Sequence[FaultSpec]
    ) -> WorkerHandle:
        suffix = "" if replica_idx == 0 else f".r{replica_idx}"
        return WorkerHandle(
            self._context,
            _worker_main,
            args=(*self._worker_args[shard_id], list(fault_specs)),
            name=f"enmc-shard-{shard_id}{suffix}",
            recorder=self.recorder,
        )

    def _respawn_replica(self, shard_id: int, replica_idx: int) -> bool:
        """Replace one replica of shard ``shard_id`` from the shared
        segments.

        Bounded by the shard's *shared* ``max_restarts`` budget with
        exponential backoff; returns ``True`` once a replacement worker
        completes its handshake.  On a spent budget the replica is
        marked dead (the shard only dies with its last replica) and
        ``False`` returns.  The dead or wedged incumbent is terminated
        first either way — the invariant that makes failing over to a
        sibling replica safe: no stopped process can later write the
        shard's shared output plane under a sibling's answer.
        """
        group = self._groups[shard_id]
        group.handles[replica_idx].stop(timeout=0.1)
        if not SharedArrayPack.exists(self._worker_args[shard_id][1]):
            # The parameter segment is gone — the engine was torn down
            # concurrently; no replacement worker could ever attach.
            return self._replica_spent(group, replica_idx)
        specs = surviving_specs(self._fault_specs[shard_id][replica_idx])
        # Backoff escalates within THIS incident only and resets on a
        # successful handshake: a worker that crashes again after a
        # long healthy stretch starts over at the base backoff instead
        # of inheriting the capped maximum from old incidents.  The
        # shard-lifetime ``restarts`` count still enforces the shared
        # ``max_restarts`` budget.
        attempt = 0
        while self.restarts[shard_id] < self.max_restarts:
            self.restarts[shard_id] += 1
            self.recorder.increment("parallel.respawns")
            self.recorder.increment(f"parallel.shard.{shard_id}.respawns")
            delay = min(
                self.restart_backoff_cap, self.restart_backoff * (2 ** attempt)
            )
            attempt += 1
            self.recorder.observe("parallel.respawn_backoff_s", delay)
            time.sleep(delay)
            worker = self._spawn_worker(shard_id, replica_idx, specs)
            try:
                kind, _ = worker.handshake(timeout=self.spawn_timeout)
            except (WorkerDied, WorkerTimeout):
                worker.stop(timeout=0.1)
                continue
            if kind != "ready":
                worker.stop(timeout=0.1)
                continue
            group.handles[replica_idx] = worker
            return True
        return self._replica_spent(group, replica_idx)

    def _replica_spent(self, group: _ReplicaGroup, replica_idx: int) -> bool:
        group.dead[replica_idx] = True
        if not group.live_indices():
            self._dead[group.shard_id] = True
        return False

    def _failover(self, shard_id: int, to_replica: int) -> None:
        self.failovers += 1
        self.recorder.increment("parallel.failovers")
        self.recorder.increment(f"parallel.shard.{shard_id}.failovers")

    # ------------------------------------------------------------------
    # elastic scaling
    # ------------------------------------------------------------------
    def scale_up(self, shard_id: int) -> int:
        """Spawn one additional replica for ``shard_id`` at runtime.

        The replica attaches the shard's *existing* shared parameter
        segments — no re-export, no new model memory — and joins the
        group with zero dispatch load, so the least-loaded pick routes
        new traffic to it immediately.  Returns the new replica index.
        Must be called between requests (the engine serves one request
        at a time; the front door's batcher thread satisfies this).
        """
        if self.closed:
            raise RuntimeError("engine is closed")
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"unknown shard {shard_id}")
        if self._dead[shard_id]:
            raise RuntimeError(
                f"shard {shard_id} is dead (restart budget exhausted); "
                "scaling cannot revive it"
            )
        group = self._groups[shard_id]
        replica_idx = group.num_replicas
        worker = self._spawn_worker(shard_id, replica_idx, [])
        kind, payload = worker.handshake(timeout=self.spawn_timeout)
        if kind != "ready":
            worker.stop(timeout=0.1)
            raise RuntimeError(
                f"scale-up replica for shard {shard_id} failed to start:"
                f"\n{payload}"
            )
        self._fault_specs[shard_id].append([])
        group.add(worker)
        self.replica_counts[shard_id] += 1
        self.scale_ups += 1
        self.recorder.increment("parallel.scale_up")
        self.recorder.increment(f"parallel.shard.{shard_id}.scale_up")
        return replica_idx

    def scale_down(self, shard_id: int) -> bool:
        """Retire one replica of ``shard_id``; ``False`` if impossible.

        Victim choice: the highest-index dead tombstone if the group
        carries one (reclaiming a spent slot costs nothing), else the
        highest-index live replica — but never the last live one, and
        never anything on a dead shard.  The retiree's answer count is
        folded into the group's ``retired_served`` so the per-shard
        ``answered == requests`` reconciliation survives the removal.
        """
        if self.closed:
            raise RuntimeError("engine is closed")
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"unknown shard {shard_id}")
        if self._dead[shard_id]:
            return False
        group = self._groups[shard_id]
        tombstones = [idx for idx, dead in enumerate(group.dead) if dead]
        if tombstones:
            victim = tombstones[-1]
        else:
            live = group.live_indices()
            if len(live) <= 1:
                return False
            victim = live[-1]
        handle = group.remove(victim)
        handle.stop(goodbye="shutdown")
        del self._fault_specs[shard_id][victim]
        self.replica_counts[shard_id] -= 1
        self.scale_downs += 1
        self.recorder.increment("parallel.scale_down")
        self.recorder.increment(f"parallel.shard.{shard_id}.scale_down")
        return True

    def autoscale_tick(self) -> Optional[ScaleDecision]:
        """One autoscaler evaluation over the window since the last one.

        No-op (returns ``None``) without an autoscaler, on a closed
        engine, or while the window is below the policy's
        ``interval_requests``.  Otherwise builds one
        :class:`~repro.distributed.autoscale.ShardSignal` per shard
        from the window accumulators, applies the decision — retires
        first, then spawns, so the worker budget is never transiently
        exceeded — and returns it.  A re-plan decision re-baselines the
        drift reference to the observed loads it was sized from.

        Call between requests only: the engine is not concurrency-safe,
        and membership must not change under an in-flight scatter.  The
        serving front door calls this from its batcher thread between
        micro-batches.
        """
        if self.autoscaler is None or self.closed:
            return None
        window = self.requests_served - self._tick_requests_baseline
        signals = []
        for shard_id in range(self.num_shards):
            group = self._groups[shard_id]
            lat_count = (
                self._lat_counts[shard_id] - self._lat_count_baseline[shard_id]
            )
            lat_total = (
                self._lat_totals[shard_id] - self._lat_total_baseline[shard_id]
            )
            signals.append(
                ShardSignal(
                    shard_id=shard_id,
                    replicas=len(group.live_indices()),
                    observed_work=(
                        self._work_totals[shard_id]
                        - self._work_baseline[shard_id]
                    ),
                    answered=(
                        group.answered() - self._answered_baseline[shard_id]
                    ),
                    mean_latency_s=(
                        lat_total / lat_count if lat_count else float("nan")
                    ),
                    dead=self._dead[shard_id],
                )
            )
        decision = self.autoscaler.evaluate(
            signals,
            sizing_loads=self._sizing_loads,
            window_requests=window,
        )
        if decision is None:
            return None
        # The window was consumed by an evaluation — re-baseline so the
        # next decision sees fresh observations only.
        self._tick_requests_baseline = self.requests_served
        self._work_baseline = list(self._work_totals)
        self._lat_total_baseline = list(self._lat_totals)
        self._lat_count_baseline = list(self._lat_counts)
        self._answered_baseline = [
            group.answered() for group in self._groups
        ]
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
        """Send one request to every live worker, collect every reply.

        Returns per-shard payloads (``None`` where a shard failed) plus
        the failure records.  Recovery — retry on timeout, respawn on
        death — happens per shard during collection.  In fail-fast mode
        (``degraded=False``) an irrecoverable shard closes the engine
        and re-raises the original ``WorkerDied``/``WorkerTimeout``.
        """
        pending: List[Optional[Tuple[int, Optional[int]]]] = []
        failures: Dict[int, ShardFailure] = {}
        for shard_id, group in enumerate(self._groups):
            if self._dead[shard_id]:
                failures[shard_id] = ShardFailure(
                    shard_id,
                    self.ranges[shard_id],
                    "died",
                    "restart budget exhausted on an earlier request",
                )
                pending.append(None)
                continue
            replica_idx = group.pick()
            # Dispatch attempts are charged up front (not on answer):
            # pick() must see the load a slow replica is sitting on.
            group.dispatched[replica_idx] += 1
            try:
                pending.append(
                    (replica_idx, group.handles[replica_idx].post(op, request))
                )
            except WorkerDied:
                # Send failed; the collect phase respawns (or fails
                # over) and re-issues.
                pending.append((replica_idx, None))
        replies: List[Optional[dict]] = []
        for shard_id in range(self.num_shards):
            if shard_id in failures:
                replies.append(None)
                continue
            replica_idx, request_id = pending[shard_id]
            replies.append(
                self._collect_shard(
                    shard_id, replica_idx, request_id, op, request, failures
                )
            )
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
        shard_id: int,
        replica_idx: int,
        request_id: Optional[int],
        op: str,
        request,
        failures: Dict[int, ShardFailure],
    ) -> Optional[dict]:
        """Await one shard's reply, applying the recovery policy.

        ``request_id is None`` means the request still needs (re)issuing
        on ``replica_idx`` — the initial send failed, a replacement
        worker came up, or the request failed over to a sibling replica.

        The per-shard latency histogram covers the whole collect —
        retries, respawns and failovers included — because that is the
        latency the merge actually waits on.
        """
        group = self._groups[shard_id]
        recording = self.recorder.enabled
        timing = recording or self.autoscaler is not None
        started = time.perf_counter() if timing else 0.0
        retries_left = self.request_retries
        while True:
            worker = group.handles[replica_idx]
            try:
                if request_id is None:
                    group.dispatched[replica_idx] += 1
                    request_id = worker.post(op, request)
                kind, payload = worker.recv_tagged(
                    request_id, timeout=self.request_timeout
                )
            except WorkerTimeout as error:
                self.deadline_overruns += 1
                self.recorder.increment("parallel.deadline_overruns")
                if retries_left > 0:
                    # Re-issue to the same live worker; its late answer
                    # to the abandoned id is discarded on arrival.
                    retries_left -= 1
                    self.retries += 1
                    self.recorder.increment("parallel.retries")
                    try:
                        group.dispatched[replica_idx] += 1
                        request_id = worker.post(op, request)
                    except WorkerDied:
                        request_id = None
                    continue
                # Live but unresponsive past every retry: wedged.
                # Replace it (heals future requests); this request can
                # still complete on the replacement if the budget
                # allows, or on a live sibling replica otherwise (the
                # wedged incumbent is already stopped, so the sibling
                # owns the shared output plane alone).
                if self._respawn_replica(shard_id, replica_idx):
                    request_id = None
                    continue
                failover = group.pick()
                if failover is not None:
                    self._failover(shard_id, failover)
                    replica_idx = failover
                    request_id = None
                    continue
                return self._shard_failed(shard_id, "timeout", str(error), error, failures)
            except WorkerDied as error:
                if self._respawn_replica(shard_id, replica_idx):
                    request_id = None
                    continue
                failover = group.pick()
                if failover is not None:
                    self._failover(shard_id, failover)
                    replica_idx = failover
                    request_id = None
                    continue
                return self._shard_failed(shard_id, "died", str(error), error, failures)
            group.served[replica_idx] += 1
            elapsed = (time.perf_counter() - started) if timing else 0.0
            if self.autoscaler is not None and kind == "ok":
                # Exact-phase work actually served: candidate hits for
                # forward paths, result cells for top-k — the same
                # signal observed_category_frequencies aggregates, and
                # the load distribution the autoscaler re-plans from.
                if op == "top_k":
                    work = float(payload["indices"].size)
                else:
                    work = float(np.asarray(payload["counts"]).sum())
                self._work_totals[shard_id] += work
                self._lat_totals[shard_id] += elapsed
                self._lat_counts[shard_id] += 1
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
            # (fail-fast mode raises an aggregated WorkerError after
            # every shard is collected).
            failures[shard_id] = ShardFailure(
                shard_id, self.ranges[shard_id], "error", str(payload)
            )
            return None

    def _shard_failed(
        self,
        shard_id: int,
        kind: str,
        detail: str,
        error: Exception,
        failures: Dict[int, ShardFailure],
    ) -> None:
        """Record an irrecoverable shard; fail-fast mode closes + raises."""
        if not self.degraded:
            self.close()
            raise error
        failures[shard_id] = ShardFailure(
            shard_id, self.ranges[shard_id], kind, detail
        )
        return None

    def _broadcast_all(self, op: str) -> None:
        """Post a control op to *every* live replica and await replies.

        Unlike :meth:`_scatter_gather` (one replica per shard), control
        traffic like ``detach-io`` must reach each process individually
        — every replica caches its own mapping of the I/O planes.
        Failures are tolerated without recovery: a dead replica's
        mappings die with its process (the next serving request runs
        the regular respawn/failover policy), and a worker that never
        detaches only pins the unlinked segment's memory until it
        attaches the replacement layout on its next request.
        """
        posted: List[Tuple[WorkerHandle, int]] = []
        for group in self._groups:
            for replica_idx in group.live_indices():
                handle = group.handles[replica_idx]
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
                    f"logits{shard_id}": (
                        (input_capacity, len(shard_range)),
                        dtype,
                    )
                    for shard_id, (shard_range, dtype) in enumerate(
                        zip(self.ranges, self._compute_dtypes)
                    )
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
        """Argmax category per row; ``-1`` for rows with no surviving
        scores under degraded operation."""
        output = self.forward(features)
        if isinstance(output, DegradedOutput):
            logits = output.result.logits
            best = np.full(logits.shape[0], -1, dtype=np.intp)
            valid = ~np.all(np.isnan(logits), axis=1)
            if np.any(valid):
                best[valid] = np.nanargmax(logits[valid], axis=1)
            return best
        return np.argmax(output.logits, axis=-1)

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
        for shard_id in range(self.num_shards):
            group = self._groups[shard_id]
            shard = {
                "shard_id": shard_id,
                "categories": [
                    self.ranges[shard_id].start,
                    self.ranges[shard_id].stop,
                ],
                "replicas": group.num_replicas,
                # Reconciliation invariant for a healthy shard: the
                # replies its replicas delivered sum to the engine's
                # request count (each request is answered by exactly
                # one replica of each shard).
                "answered": group.answered(),
                "respawns": self.restarts[shard_id],
                "stale_replies": sum(h.stale_replies for h in group.handles),
                "dead": self._dead[shard_id],
                "retired_served": group.retired_served,
                "replica_workers": [
                    {
                        "replica": replica_idx,
                        "name": handle.name,
                        "served": group.served[replica_idx],
                        "dispatched": group.dispatched[replica_idx],
                        "stale_replies": handle.stale_replies,
                        "dead": group.dead[replica_idx],
                    }
                    for replica_idx, handle in enumerate(group.handles)
                ],
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
            "stale_replies": sum(
                handle.stale_replies
                for group in self._groups
                for handle in group.handles
            ),
            "dead_shards": self.dead_shards,
            "replica_counts": list(self.replica_counts),
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

    def trace_events(self) -> List[Dict[str, object]]:
        """Chrome trace events recorded so far (empty without a tracer)."""
        tracer = self.recorder.tracer
        return tracer.chrome_events() if tracer is not None else []

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
            for worker in group.handles:
                worker.stop(goodbye="shutdown")
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
