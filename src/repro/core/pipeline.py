"""End-to-end approximate-screening inference (paper Fig. 6).

``ApproximateScreeningClassifier`` composes the pieces:

1. screening — the quantized screener computes approximate scores
   ``z̃`` for all ``l`` categories;
2. filtering — a :class:`CandidateSelector` picks the key candidates;
3. candidates-only computation — the full classifier recomputes exact
   scores for the candidates only;
4. mixing — the final pre-normalization vector keeps the approximate
   values everywhere except the candidate positions, which get the
   accurate values (Fig. 6, step 5).

Scale correction: the screener is trained to match the full logits in
L2, but INT4 quantization introduces a per-batch scale drift between
approximate and exact entries.  Mixing raw values is exactly what the
hardware does, so we do the same; the candidate set is what protects
top-K quality.

One tile loop, one call contract: the Screener's filter consumes score
tiles as they stream past (paper Sections 5.1–5.2), and every serving
call runs that loop on the arena the pipeline keeps between calls.
:meth:`~ApproximateScreeningClassifier.forward_streaming` overwrites
one tile buffer and returns candidate entries only;
:meth:`~ApproximateScreeningClassifier.top_k` (behind ``predict``) does
the same with ``k`` runner-up slots in the reducer and ranks the few
entries it kept into ``(indices, scores)``;
:meth:`ApproximateScreeningClassifier.forward` lets each tile land in
the ``batch × l`` plane it returns and mixes every candidate in one
scatter.  Same GEMM calls, same reducer, same exact-phase kernel, so
their candidate entries are identical bits.  Which call allocates what:
``forward`` and ``predict_proba`` (which normalizes the plane by
definition) the plane, everything else only the few entries it returns.

Lanes: ENMC is a rank-level design — every rank screens its own slice
of the category space and the host only merges index buffers.  A call
with enough work (:func:`~repro.core.screener.lane_count`) runs the
loop the same way: tile 0 folds on the caller, the remaining tiles are
cut into contiguous runs, and each run but the caller's folds on a
thread started for this call
(:func:`~repro.core.screener.run_in_lanes`, which the screener's
set-up loops share), into a fork of the reducer carrying the floor
tile 0 set and a child arena of the call's own.  A tile is scored,
filtered and dropped on the core that made it; absorbing the forks
left to right keeps the reducer's total order, so the record — and
every output bit — is the single-lane loop's for any lane count.
Threads are joined before the call returns or raises; none lives
between calls.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.candidates import CandidateSelector, CandidateSet
from repro.core.classifier import FullClassifier
from repro.core.screener import (
    TILE_CATEGORIES,
    ScreeningModule,
    lane_count,
    run_in_lanes,
)
from repro.core.weightstore import QuantizedExactStore
from repro.linalg.functional import sigmoid, softmax, taylor_softmax
from repro.obs.recorder import NULL_RECORDER
from repro.utils.memory import PHASE_SCRATCH, Workspace
from repro.utils.validation import check_batch_features, check_positive


class ScreenedOutput:
    """Everything produced by one screened inference pass.

    ``logits`` is the mixed approximate/accurate score matrix;
    ``candidates`` records which entries are accurate.  ``exact_count``
    is the number of exact weight rows gathered (the quantity that
    drives computation and DRAM-traffic savings).

    Dense ``forward`` mixes in place and hands this object a small
    ``restore`` record (the reducer's approximate values) instead of
    a full copy of the score plane; ``approximate_logits`` is then
    materialized lazily on first access.  Constructing with an explicit
    ``approximate_logits`` array behaves exactly as before.
    """

    def __init__(
        self,
        logits: np.ndarray,
        approximate_logits: Optional[np.ndarray] = None,
        candidates: Optional[CandidateSet] = None,
        restore: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ):
        if candidates is None:
            raise ValueError("ScreenedOutput requires a candidate set")
        if approximate_logits is None and restore is None:
            raise ValueError(
                "ScreenedOutput needs approximate_logits or a restore record"
            )
        self.logits = logits
        self.candidates = candidates
        self._approximate_logits = approximate_logits
        self._restore = restore

    @property
    def approximate_logits(self) -> np.ndarray:
        """The pure screener scores ``z̃`` (materialized lazily)."""
        if self._approximate_logits is None:
            rows, cols, values = self._restore
            approx = self.logits.copy()
            approx[rows, cols] = values
            self._approximate_logits = approx
        return self._approximate_logits

    def candidate_restore(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, approximate values)`` for every candidate.

        This is the compact complement of ``logits``: scattering
        ``values`` back over ``(rows, cols)`` recovers the pure
        screener plane.  The sharded reducers merge these records
        instead of materializing every shard's approximate plane.
        """
        if self._restore is not None:
            return self._restore
        rows, cols = self.candidates.flat()
        return rows, cols, self.approximate_logits[rows, cols]

    @property
    def batch_size(self) -> int:
        return self.logits.shape[0]

    @property
    def num_categories(self) -> int:
        return self.logits.shape[1]

    @property
    def exact_count(self) -> int:
        return self.candidates.total

    @property
    def exact_fraction(self) -> float:
        """Fraction of (batch × category) outputs computed exactly."""
        return self.exact_count / self.logits.size

    def __repr__(self) -> str:
        return (
            f"ScreenedOutput(batch={self.batch_size}, "
            f"l={self.num_categories}, exact={self.exact_count})"
        )


class StreamedOutput:
    """The candidates-only result of a blocked streaming forward pass.

    Mirrors the hardware dataflow: the Screener's threshold filter
    consumes score tiles as they stream past and only candidate
    entries ever leave the pipeline, so no ``batch × l`` plane exists.

    ``exact_values`` are the recomputed full-classifier scores and
    ``approximate_values`` the screener scores, both float64 and aligned
    with ``candidates.flat()`` (row-major, columns ascending within a
    row) — exactly the entries a dense :class:`ScreenedOutput` would
    carry at the candidate positions (bit-identical, differentially
    tested).
    """

    def __init__(
        self,
        candidates: CandidateSet,
        exact_values: np.ndarray,
        approximate_values: np.ndarray,
        num_categories: int,
    ):
        self.candidates = candidates
        self.exact_values = exact_values
        self.approximate_values = approximate_values
        self.num_categories = num_categories

    @property
    def batch_size(self) -> int:
        return self.candidates.batch_size

    @property
    def exact_count(self) -> int:
        return self.candidates.total

    @property
    def exact_fraction(self) -> float:
        return self.exact_count / (self.batch_size * self.num_categories)

    def predict(self) -> np.ndarray:
        """Argmax category per row over the candidate entries (the
        screened serving decision); ``-1`` for rows with no candidates."""
        best = np.full(self.batch_size, -1, dtype=np.intp)
        offset = 0
        for row, indices in enumerate(self.candidates):
            if indices.size:
                values = self.exact_values[offset : offset + indices.size]
                best[row] = indices[int(np.argmax(values))]
            offset += indices.size
        return best

    def __repr__(self) -> str:
        return (
            f"StreamedOutput(batch={self.batch_size}, "
            f"l={self.num_categories}, exact={self.exact_count})"
        )


class ShardFailure:
    """One shard's unrecoverable failure during a degraded request.

    ``kind`` is the failure class the supervisor observed — ``"died"``
    (process gone, restart budget exhausted), ``"timeout"`` (live but
    unresponsive past every retry) or ``"error"`` (request-scoped
    exception; the worker survives).  ``categories`` is the global
    category range the shard owned, i.e. the columns the result is
    missing.
    """

    def __init__(self, shard_id: int, categories: range, kind: str, detail: str = ""):
        self.shard_id = shard_id
        self.categories = categories
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return (
            f"ShardFailure(shard={self.shard_id}, "
            f"categories=[{self.categories.start}, {self.categories.stop}), "
            f"kind={self.kind!r})"
        )


class DegradedOutput:
    """A partial serving result plus a structured report of what is missing.

    Returned (instead of raising) by a fleet running in graceful-
    degradation mode when one or more shards could not answer:
    ``result`` is the merge of the *surviving* shards — a
    :class:`ScreenedOutput` whose missing columns are NaN, a
    :class:`StreamedOutput` with no candidates from the missing ranges,
    or a ``(indices, scores)`` top-k pair reduced over survivors only —
    and ``failures`` records exactly which category ranges are absent
    and why.  Callers that can tolerate partial answers (the Amazon-
    scale XC deployments this models) read ``result`` and log the
    report; callers that cannot should check ``missing_ranges`` and
    fall back.
    """

    def __init__(
        self,
        result,
        failures,
        num_categories: int,
    ):
        self.result = result
        self.failures = tuple(failures)
        self.num_categories = int(num_categories)

    @property
    def missing_ranges(self) -> Tuple[range, ...]:
        """Global category ranges with no answer, ascending."""
        return tuple(
            sorted(
                (failure.categories for failure in self.failures),
                key=lambda r: r.start,
            )
        )

    @property
    def missing_categories(self) -> int:
        return sum(len(r) for r in self.missing_ranges)

    @property
    def available_fraction(self) -> float:
        """Fraction of the category space the result covers."""
        return 1.0 - self.missing_categories / self.num_categories

    def __repr__(self) -> str:
        return (
            f"DegradedOutput({len(self.failures)} shard failure(s), "
            f"{self.available_fraction:.1%} of {self.num_categories} "
            "categories available)"
        )


class ApproximateScreeningClassifier:
    """The paper's candidates-only classifier (screen → filter → exact → mix).

    Threading: every serving call is re-entrant, on either exact store —
    it takes all its scratch from an arena no other call in flight
    holds (:meth:`_call_arena`).  Inside one call the tile loop may fold
    runs of tiles on helper threads (module docstring,
    :func:`~repro.core.screener.lane_count`), each on a child arena of
    the call's own, all joined before the call returns or raises.
    """

    def __init__(
        self,
        classifier,
        screener: ScreeningModule,
        selector: Optional[CandidateSelector] = None,
        num_candidates: int = 32,
        softmax_taylor_order: Optional[int] = None,
        recorder=None,
    ):
        if screener.num_categories != classifier.num_categories:
            raise ValueError(
                f"screener covers {screener.num_categories} categories, classifier "
                f"has {classifier.num_categories}"
            )
        if screener.hidden_dim != classifier.hidden_dim:
            raise ValueError(
                f"screener hidden dim {screener.hidden_dim} != classifier "
                f"{classifier.hidden_dim}"
            )
        self.classifier = classifier
        self.screener = screener
        self.selector = selector or CandidateSelector(
            mode="top_m", num_candidates=num_candidates
        )
        #: When set, softmax uses the Executor SFU's Taylor-approximated
        #: exponential of this order instead of exact exp.
        self.softmax_taylor_order = softmax_taylor_order
        #: The arena kept between calls, and how many times
        #: :meth:`close` ran (both under the lock).
        self._arena: Optional[Workspace] = None
        self._closes = 0
        self._arena_lock = threading.Lock()
        #: Observability sink (phase spans + counters); the no-op
        #: :data:`~repro.obs.recorder.NULL_RECORDER` unless a recorder
        #: is supplied — with the default, outputs are bit-identical to
        #: an uninstrumented pipeline and no metrics state exists.
        self.recorder = NULL_RECORDER
        if recorder is not None:
            self.set_recorder(recorder)

    def set_recorder(self, recorder) -> "ApproximateScreeningClassifier":
        """Attach (or detach, with :data:`NULL_RECORDER`) a recorder.

        The screener shares the pipeline's recorder so its
        project/quantize and GEMM spans nest under the pipeline's
        request spans in one trace.
        """
        self.recorder = recorder
        self.screener.recorder = recorder
        return self

    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        return self.classifier.num_categories

    @property
    def hidden_dim(self) -> int:
        return self.classifier.hidden_dim

    @property
    def workspace(self) -> Workspace:
        """The scratch arena kept between calls — the one the next
        serving call takes (:meth:`_call_arena`) — created lazily.

        For callers that come one at a time every call runs on it, so
        after the first call at a given batch shape its ``allocations``
        counter stays flat (the zero-allocation steady-state contract,
        tested) — helper lanes' child arenas included: when a threshold
        fork is absorbed, its arena gets room for the whole record it
        joined, so the second call of a multi-lane loop allocates
        nothing either."""
        with self._arena_lock:
            if self._arena is None:
                self._arena = Workspace()
            return self._arena

    @contextmanager
    def _call_arena(self):
        """The arena one serving call takes all its scratch from.

        The call takes the kept arena, else (none yet, or another call
        holds it) a new one.  When it returns or raises, its arena is kept for the
        next call — unless another call already left one, or
        :meth:`close` ran meanwhile: then the arena is released.  So two
        calls in flight never share an arena, at most one arena outlives
        its call, none outlives :meth:`close`, and a warm call from one
        thread at a time allocates no scratch, not even its tile."""
        with self._arena_lock:
            arena, self._arena = self._arena, None
            closes = self._closes
        if arena is None:
            arena = Workspace()
        try:
            yield arena
        finally:
            with self._arena_lock:
                kept = self._arena is None and self._closes == closes
                if kept:
                    self._arena = arena
            if not kept:
                arena.release()

    # ------------------------------------------------------------------
    # array-level (de)construction — the parallel engine's wire format
    # ------------------------------------------------------------------
    def export_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Split the pipeline into raw parameter arrays + scalar metadata.

        The arrays are exactly the planes a serving host places in
        shared memory (classifier ``W``/``b``, screener ``W̃``/``b̃``,
        the 2-bit ternary projection); the metadata dict is small plain
        data.  :meth:`from_arrays` inverts this without pickling a
        single numpy array, so workers can be built zero-copy from
        shared buffers.

        A pipeline running on a :class:`QuantizedExactStore` exports the
        INT8/FP16 codes (plus per-tile scales) instead of the FP64
        weight plane — the shared segment shrinks ~4-8x and the metadata
        gains ``exact_store``/``exact_store_tile_rows`` keys so
        :meth:`from_arrays` rebuilds the same store zero-copy.
        """
        screener = self.screener
        if isinstance(self.classifier, QuantizedExactStore):
            arrays, store_meta = self.classifier.export_arrays()
            arrays = dict(arrays)
        else:
            arrays = {
                "weight": self.classifier.weight,
                "bias": self.classifier.bias,
            }
            store_meta = {"normalization": self.classifier.normalization}
        arrays.update(
            screener_weight=screener.weight,
            screener_bias=screener.bias,
            projection_ternary=screener.projection.ternary,
        )
        meta = {
            **store_meta,
            "quantization_bits": screener.quantization_bits,
            "projection_density": screener.projection.density,
            "selector_mode": self.selector.mode,
            "selector_num_candidates": self.selector.num_candidates,
            "selector_threshold": self.selector.threshold,
            "softmax_taylor_order": self.softmax_taylor_order,
        }
        return arrays, meta

    @classmethod
    def from_arrays(
        cls,
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, object],
    ) -> "ApproximateScreeningClassifier":
        """Rebuild a pipeline from :meth:`export_arrays` output.

        Float64/int8 inputs (e.g. shared-memory views) pass straight
        through as the live parameter planes — no copies, no pickle.
        The reconstructed pipeline computes bit-identically to the
        exported one: all derived state (quantized weight view, fused
        GEMM plane) is re-derived by the constructors from the same
        parameters.

        Metadata carrying an ``exact_store`` key (see
        :meth:`export_arrays`) rebuilds a :class:`QuantizedExactStore`
        over the shipped codes instead of a :class:`FullClassifier` —
        the path parallel workers take when the host quantized its
        exact weights before exporting the shared segments.
        """
        if meta.get("exact_store"):
            classifier = QuantizedExactStore.from_arrays(arrays, meta)
        else:
            classifier = FullClassifier(
                arrays["weight"],
                arrays["bias"],
                normalization=str(meta["normalization"]),
            )
        from repro.linalg.projection import SparseRandomProjection

        projection = SparseRandomProjection.from_ternary(
            arrays["projection_ternary"],
            density=float(meta["projection_density"]),  # type: ignore[arg-type]
        )
        screener = ScreeningModule(
            projection,
            arrays["screener_weight"],
            arrays["screener_bias"],
            quantization_bits=meta["quantization_bits"],  # type: ignore[arg-type]
        )
        selector = CandidateSelector(
            mode=str(meta["selector_mode"]),
            num_candidates=int(meta["selector_num_candidates"]),  # type: ignore[arg-type]
            threshold=meta["selector_threshold"],  # type: ignore[arg-type]
        )
        return cls(
            classifier,
            screener,
            selector=selector,
            softmax_taylor_order=meta.get("softmax_taylor_order"),  # type: ignore[arg-type]
        )

    def quantize_exact_weights(
        self, kind: str = "int8", tile_rows: int = TILE_CATEGORIES
    ) -> "ApproximateScreeningClassifier":
        """Swap the FP64 exact weights for a block-quantized store.

        In place: the exact phase subsequently dequantizes INT8 (or
        FP16) tiles into workspace scratch instead of touching an FP64
        weight plane, cutting the resident exact-weight footprint ~8x
        (~4x for float16).  Screening, selection and mixing are
        untouched.  Idempotent when the store already matches ``kind``;
        the original FP64 plane is dropped (reload it from the training
        artifact if needed).
        """
        if isinstance(self.classifier, QuantizedExactStore):
            if self.classifier.kind != kind:
                raise ValueError(
                    f"exact weights already quantized as "
                    f"{self.classifier.kind!r}; cannot requantize to "
                    f"{kind!r} (quantization is lossy)"
                )
            return self
        self.classifier = QuantizedExactStore.from_classifier(
            self.classifier, kind=kind, tile_rows=tile_rows
        )
        return self

    # ------------------------------------------------------------------
    def forward(self, features: np.ndarray) -> ScreenedOutput:
        """Run the full screened pipeline on a feature batch.

        Runs the tile loop of :meth:`forward_streaming` with each tile
        landing in the ``batch × l`` plane it returns, then mixes every
        candidate in one scatter.
        """
        recorder = self.recorder
        with recorder.span("forward"):
            batch = check_batch_features(features, self.hidden_dim)
            plane = np.empty((batch.shape[0], self.num_categories))
            with self._call_arena() as ws:
                counts, cols, approx_values = self._screen_and_select(
                    batch, ws, plane=plane
                )
                candidates = CandidateSet.from_flat(counts, cols)
                with recorder.span("exact"):
                    exact = self._exact_candidate_values(batch, candidates, ws)
            with recorder.span("merge"):
                rows, cols = candidates.flat()
                plane[rows, cols] = exact
            output = ScreenedOutput(
                plane, candidates=candidates, restore=(rows, cols, approx_values)
            )
            recorder.increment("pipeline.forward_requests")
            recorder.increment("pipeline.rows", batch.shape[0])
            recorder.increment("pipeline.exact_candidates", output.exact_count)
            return output

    __call__ = forward

    def _screen_and_select(
        self,
        batch: np.ndarray,
        ws: Workspace,
        block_categories: Optional[int] = None,
        plane: Optional[np.ndarray] = None,
        runner_ups: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one tile loop: screen each canonical tile, fold it into
        the running reducer, return the reducer's flat record — per-row
        ``counts``, then the candidates' ``cols`` and approximate
        ``values`` in row order (plus each row's best ``runner_ups``
        non-candidates, for :meth:`top_k`).

        A tile lands in ``plane[:, t0:t1]`` when the caller wants the
        score plane kept (dense :meth:`forward`), else in the phase
        scratch of ``ws`` (:data:`~repro.utils.memory.PHASE_SCRATCH`),
        overwritten by the next tile and then by the exact phase; all other
        scratch comes from ``ws`` either way.  ``block_categories`` sets
        the selection granularity (default: one update per tile).
        """
        recorder = self.recorder
        screener = self.screener
        rows = batch.shape[0]
        l = self.num_categories
        block = block_categories if block_categories is not None else l

        augmented = screener.prepare_augmented(
            batch, out=ws.buffer("augmented", (rows, screener.projection_dim + 1))
        )
        reducer = self.selector.make_block_reducer(
            rows, l, workspace=ws, runner_ups=runner_ups
        )
        tiles = screener.tile_bounds()
        lanes = lane_count(rows, len(tiles))
        if recorder.enabled:
            recorder.set_gauge("pipeline.lanes", lanes)
        self._fold_in_lanes(reducer, ws, tiles, lanes, augmented, block, plane)
        with recorder.span("streaming.select_finalize"):
            return reducer.finalize()

    def _fold(self, reducer, ws: Workspace, tiles, augmented, block, plane) -> None:
        """The tile loop's body: screen each of ``tiles`` into ``ws``
        scratch (or its slice of ``plane``) and fold it into ``reducer``."""
        recorder = self.recorder
        for t0, t1 in tiles:
            with recorder.span("streaming.screen_tile"):
                if plane is None:
                    out = ws.buffer(PHASE_SCRATCH, (len(augmented), t1 - t0))
                else:
                    out = plane[:, t0:t1]
                tile = self.screener.score_tile(augmented, t0, t1, out=out)
            # Selection updates at block_categories granularity; block
            # boundaries are absolute, so a tile may span several
            # blocks and vice versa.
            with recorder.span("streaming.select_tile"):
                start = t0
                while start < t1:
                    stop = min(t1, (start // block + 1) * block)
                    reducer.update(start, tile[:, start - t0 : stop - t0])
                    start = stop

    def _fold_in_lanes(
        self, reducer, ws: Workspace, tiles, lanes: int, augmented, block, plane
    ) -> None:
        """Fold tile 0 here — it pays the reducer's one first fill — then
        the rest as ``lanes`` contiguous runs (:func:`run_in_lanes`): run
        0 here into ``reducer``, each other run on a thread of its own
        into a fork of ``reducer`` carrying the floor tile 0 set, on a
        child arena of ``ws`` — a tile is scored, filtered and dropped on
        the core that made it, as each ENMC rank screens its own slice.
        Absorbing the forks left to right keeps the reducer's total
        order, so the record is the single-lane one.  One lane is the
        plain loop on the caller."""
        self._fold(reducer, ws, tiles[:1], augmented, block, plane)
        arenas = [ws] + [ws.lane(lane) for lane in range(1, lanes)]
        reducers = [reducer] + [reducer.fork(arena) for arena in arenas[1:]]
        runs = run_in_lanes(
            lambda lane, run: self._fold(
                reducers[lane], arenas[lane], run, augmented, block, plane
            ),
            tiles[1:],
            lanes,
        )
        for fork, run in zip(reducers[1:], runs[1:]):
            reducer.absorb(fork, run[0][0])

    def _exact_candidate_values(
        self,
        batch: np.ndarray,
        candidates: CandidateSet,
        workspace: Workspace,
    ) -> np.ndarray:
        """Exact classifier scores for every candidate, flat-aligned.

        The single exact-phase kernel both the dense mix and the
        streaming path call, so their candidate entries are identical
        bits by construction.  The values come from either a gathered
        union matmul — the batched hardware dataflow, efficient when
        rows share candidates — or a flat per-candidate gather when the
        union would force the matmul to compute mostly unwanted
        ``(row, category)`` pairs.

        Both forms go through the exact store's polymorphic surface
        (``logits_for`` / ``candidate_scores``), so the same kernel
        serves FP64 weights and a :class:`QuantizedExactStore`; the
        flat gather takes its chunk-sized operands from ``workspace``
        on both (a quantized store dequantizes into it), keeping the
        steady state allocation-flat.
        """
        rows, cols = candidates.flat()
        if rows.size == 0:
            return np.empty(0, dtype=np.float64)
        union = candidates.union()
        # The union matmul computes batch×union exact entries to use
        # only ``rows.size`` of them; prefer it only when candidate
        # overlap keeps that overcompute within a small factor.
        if candidates.batch_size * union.size <= 2 * rows.size:
            exact = self.classifier.logits_for(union, batch, workspace=workspace)
            return exact[rows, np.searchsorted(union, cols)]
        return self.classifier.candidate_scores(
            rows, cols, batch, workspace=workspace
        )

    def forward_streaming(
        self,
        features: np.ndarray,
        block_categories: Optional[int] = None,
    ) -> StreamedOutput:
        """Blocked streaming forward: screen, select and mix per block.

        The software analogue of the hardware dataflow (paper Sections
        5.1–5.2): the compiler tiles the category space and the
        Screener's filter consumes each tile's scores as they stream
        past, so the full ``batch × l`` score plane never exists.  The
        screener GEMM runs per canonical column tile
        (:data:`repro.core.screener.TILE_CATEGORIES`); a running per-row
        reducer folds each ``block_categories``-wide segment into the
        candidate set; the exact phase then recomputes only the final
        candidates.  Dense :meth:`forward` runs this same loop and the
        same exact-phase kernel, hence identical bits.

        ``block_categories`` sets the selection granularity (defaults
        to one update per tile).  Results are independent of it — the
        reducer maintains a total order, so any partition yields the
        dense selection — and bit-identical to :meth:`forward`.

        Returns a :class:`StreamedOutput` (candidates + their exact and
        approximate values only); callers that need the full score
        plane ask :meth:`forward` for it explicitly.

        All recurring scratch comes from the call's arena
        (:meth:`_call_arena`), so steady-state calls perform zero new
        workspace allocations after warm-up.
        """
        recorder = self.recorder
        with recorder.span("forward_streaming"):
            batch = check_batch_features(features, self.hidden_dim)
            if block_categories is not None and block_categories < 1:
                raise ValueError(
                    f"block_categories must be positive, got {block_categories}"
                )
            with self._call_arena() as ws:
                counts, cols, approx_values = self._screen_and_select(
                    batch, ws, block_categories
                )
                candidates = CandidateSet.from_flat(counts, cols)
                recorder.increment("pipeline.streaming_requests")
                recorder.increment("pipeline.rows", batch.shape[0])
                recorder.increment("pipeline.exact_candidates", candidates.total)
                if recorder.enabled:
                    recorder.set_gauge("pipeline.workspace_bytes", ws.nbytes)
                    recorder.set_gauge("pipeline.workspace_allocations", ws.allocations)
                with recorder.span("streaming.exact"):
                    exact_values = self._exact_candidate_values(
                        batch, candidates, ws
                    )
            return StreamedOutput(
                candidates=candidates,
                exact_values=exact_values,
                approximate_values=approx_values,
                num_categories=self.num_categories,
            )

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Normalized probabilities from the mixed score vector."""
        output = self.forward(features)
        if self.classifier.normalization == "sigmoid":
            return sigmoid(output.logits)
        if self.softmax_taylor_order is not None:
            return taylor_softmax(output.logits, order=self.softmax_taylor_order)
        return softmax(output.logits, axis=-1)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Argmax category per row (always inside the candidate set by
        construction when the screener is reasonable, but taken over
        the mixed vector exactly as the hardware would): the first
        entry of :meth:`top_k`, lowest index among ties."""
        return self.top_k(features, 1)[0][:, 0]

    def top_k(self, features: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(indices, scores)`` of each row's ``k`` best mixed scores
        (beam search / P@k consumers) under ``(score desc, index asc)``,
        ranked inside the tile loop — no ``batch × l`` plane.

        The top-k of the mixed output can only hold candidates (at
        their exact values) and the best ``k`` non-candidates by
        approximate score, so the reducer keeps those runner-ups next
        to the candidates and one stable rank of the few entries per
        row finishes the job.  Bit-identical — indices, scores, order —
        to ranking :meth:`forward`'s ``logits`` with
        :func:`~repro.distributed.sharding.shard_top_k`.
        """
        if k > self.num_categories:
            raise ValueError(f"k={k} exceeds score dimension {self.num_categories}")
        recorder = self.recorder
        with recorder.span("top_k"):
            batch = check_batch_features(features, self.hidden_dim)
            check_positive("k", k)
            k = int(k)
            with self._call_arena() as ws:
                counts, cols, values = self._screen_and_select(
                    batch, ws, runner_ups=k
                )
                rows = np.repeat(np.arange(batch.shape[0]), counts)
                chosen = self.selector.is_candidate(values, batch.shape[0])
                candidates = CandidateSet.from_flat(
                    np.bincount(rows[chosen], minlength=batch.shape[0]), cols[chosen]
                )
                with recorder.span("exact"):
                    values[chosen] = self._exact_candidate_values(
                        batch, candidates, ws
                    )
            with recorder.span("rank"):
                order = np.lexsort((cols, -values, rows))
                first = np.cumsum(counts) - counts
                best = order[first[:, None] + np.arange(k)]
            recorder.increment("pipeline.top_k_requests")
            recorder.increment("pipeline.rows", batch.shape[0])
            recorder.increment("pipeline.exact_candidates", candidates.total)
            return cols[best], values[best]

    # ------------------------------------------------------------------
    # EngineBackend conformance (repro.serving.backend)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release serving resources: the kept arena (a call still in
        flight releases its own arena when it returns).

        Part of the :class:`~repro.serving.backend.EngineBackend`
        contract so a single-node pipeline is interchangeable with the
        sharded backends behind the serving front door.  Idempotent;
        the pipeline stays usable (the next call creates a new arena).
        """
        with self._arena_lock:
            arena, self._arena = self._arena, None
            self._closes += 1
        if arena is not None:
            arena.release()

    def __enter__(self) -> "ApproximateScreeningClassifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ApproximateScreeningClassifier(l={self.num_categories}, "
            f"d={self.hidden_dim}, k={self.screener.projection_dim}, "
            f"selector={self.selector!r})"
        )
