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
one tile buffer and returns the candidate record only
(:class:`StreamedOutput`);
:meth:`~ApproximateScreeningClassifier.top_k` (behind ``predict``) does
the same with ``k`` runner-up slots in the reducer and ranks the few
entries it kept into ``(indices, scores)``;
:meth:`ApproximateScreeningClassifier.forward` scores the ``batch ×
l`` plane first, folds its tiles, and returns the same record plus that
plane with every candidate mixed in one scatter (:class:`ScreenedOutput`).
Same GEMM calls, same reducer, same exact-phase kernel, so their
records are identical bits.  Which call allocates what:
``forward`` and ``predict_proba`` (which normalizes the plane by
definition) the plane, everything else only the few entries it returns.
The two calls without a plane may leave rows of a tile out: bounded
first by cheaper stages (:class:`~repro.core.screener.TilePrescreen`),
a row proven to hold nothing above the reducer's bound in that tile is
neither scored in float64 nor folded, and a tile with no row left is
skipped — those rows would have recorded nothing, and every other row
gets the batch GEMM's bits, so the bits are the plane's.

Every call folds its tiles on the caller's thread and starts no thread,
but for dense ``forward``'s plane pass
(:meth:`~repro.core.screener.ScreeningModule.score_plane`), which runs
in lanes when the plane is big enough.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.candidates import CandidateSelector, CandidateSet, entry_rows
from repro.core.classifier import FullClassifier
from repro.core.screener import (
    TILE_CATEGORIES,
    ScreeningModule,
    TilePrescreen,
)
from repro.core.weightstore import QuantizedExactStore
from repro.linalg.functional import sigmoid, softmax
from repro.obs.recorder import NULL_RECORDER
from repro.utils.memory import PHASE_SCRATCH, Workspace
from repro.utils.validation import check_batch_features, check_positive

#: The tile loop's per-call counters: the prescreen's, in the order of
#: :attr:`~repro.core.screener.TilePrescreen.tallies` — tiles a pass
#: covered, tiles skipped, tiles the box stages skipped before the entry
#: step, the rows each stage tested (against a coarse bound, against the
#: tile's boxes, on their failing boxes' columns) — then the rows the
#: float64 tile GEMMs scored (tile 0's included, a lone row's partner not).
_TALLIES = tuple(
    f"pipeline.{name}"
    for name in (
        "tiles_prescreened",
        "tiles_skipped",
        "tiles_box_skipped",
        "rows_coarse_tested",
        "rows_box_tested",
        "rows_entry_tested",
        "rows_float64_scored",
    )
)

#: Workspace key of the rows of the augmented input a partly proven
#: tile's float64 GEMM runs on.
_GATHERED = ("fold", "gathered")

#: Workspace keys of the exact phase's scratch — the sorted copy of the
#: candidate columns and its change mask, which count the union, and each
#: candidate's row — and of :meth:`ApproximateScreeningClassifier.top_k`'s
#: record rows and rank positions.
_SORTED, _CHANGE, _ROWS = ("exact", "sorted"), ("exact", "change"), ("exact", "rows")
_RECORD_ROWS, _RANK = ("rank", "rows"), ("rank", "positions")


def _gather_rows(ws: Workspace, augmented: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``augmented[rows]`` in ``ws`` scratch, the left operand of a partly
    proven tile's float64 GEMM.  A lone row is scored beside another row
    of the call: a 1-row ``np.matmul`` takes BLAS's gemv path, whose bits
    differ from that row's in the batch GEMM, and a GEMM of two or more
    rows gives each row the batch's bits
    (``tests/test_core_screener.py`` guards it)."""
    gathered = ws.buffer(_GATHERED, (max(len(rows), 2), augmented.shape[1]))
    np.take(augmented, rows, axis=0, out=gathered[: len(rows)], mode="clip")
    if len(rows) == 1:
        gathered[1] = augmented[(rows[0] + 1) % len(augmented)]
    return gathered


class StreamedOutput:
    """The candidate record of one screened pass: which entries are
    accurate, and their exact and approximate values.

    Mirrors the hardware dataflow: the Screener's threshold filter
    consumes score tiles as they stream past and only candidate
    entries ever leave the pipeline, so no ``batch × l`` plane exists.

    ``exact_values`` are the recomputed full-classifier scores and
    ``approximate_values`` the screener scores, both float64 and aligned
    with ``candidates.flat()`` (row-major; the pipeline's columns
    ascend within a row).  ``exact_count`` is the number of exact weight rows gathered
    (the quantity that drives computation and DRAM-traffic savings).
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
        """Fraction of (batch × category) outputs computed exactly."""
        return self.exact_count / (self.batch_size * self.num_categories)

    def predict(self) -> np.ndarray:
        """Argmax category per row over the candidates' exact values
        (the screened serving decision); ``-1`` for rows with no
        candidates.  On a :class:`ScreenedOutput` too this is not
        ``argmax(logits)``: a non-candidate's approximate score can top
        the mixed row."""
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
            f"{type(self).__name__}(batch={self.batch_size}, "
            f"l={self.num_categories}, exact={self.exact_count})"
        )


class ScreenedOutput(StreamedOutput):
    """A dense screened result: the candidate record plus ``logits``,
    the mixed plane — the approximate plane with the exact values at
    the candidates (Fig. 6, step 5).

    ``approximate_logits``, the pure screener plane ``z̃``, is rebuilt
    on first access by scattering ``approximate_values`` back over
    ``candidates.flat()``; :meth:`from_planes` keeps a producer's own
    plane instead.
    """

    def __init__(
        self,
        candidates: CandidateSet,
        exact_values: np.ndarray,
        approximate_values: np.ndarray,
        logits: np.ndarray,
    ):
        super().__init__(candidates, exact_values, approximate_values, logits.shape[1])
        self.logits = logits
        self._approximate_logits: Optional[np.ndarray] = None

    @classmethod
    def from_planes(
        cls,
        logits: np.ndarray,
        approximate_logits: np.ndarray,
        candidates: CandidateSet,
    ) -> "ScreenedOutput":
        """The output of a producer that holds both planes: the record
        is read off them at ``candidates.flat()``, and
        ``approximate_logits`` is kept as the cached plane."""
        flat = candidates.flat()
        output = cls(candidates, logits[flat], approximate_logits[flat], logits)
        output._approximate_logits = approximate_logits
        return output

    @property
    def approximate_logits(self) -> np.ndarray:
        """The pure screener scores ``z̃`` (materialized lazily)."""
        if self._approximate_logits is None:
            approx = self.logits.copy()
            approx[self.candidates.flat()] = self.approximate_values
            self._approximate_logits = approx
        return self._approximate_logits


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
    ``result`` is the merge of the *surviving* shards — either a
    :class:`StreamedOutput` with no candidates from the missing ranges
    or a ``(indices, scores)`` top-k pair reduced over survivors only,
    never a dense plane (the fleet serves none) — and ``failures``
    records exactly which category ranges are absent and why.  Callers that can tolerate partial answers (the Amazon-
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
    holds (:meth:`_call_arena`), and folds its tiles on its own thread.
    """

    def __init__(
        self,
        classifier,
        screener: ScreeningModule,
        selector: Optional[CandidateSelector] = None,
        num_candidates: int = 32,
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
        tested)."""
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
        return cls(classifier, screener, selector=selector)

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

        Scores the ``batch × l`` plane it returns, runs the tile loop of
        :meth:`forward_streaming` over it, then mixes every candidate in
        one scatter.
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
                plane[candidates.flat()] = exact
            output = ScreenedOutput(candidates, exact, approx_values, plane)
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

        When the caller wants the score plane kept (dense
        :meth:`forward`), the whole ``plane`` is scored first and its
        tiles are folded from it; else each tile lands in the phase
        scratch of ``ws`` (:data:`~repro.utils.memory.PHASE_SCRATCH`),
        overwritten by the next tile and then by the exact phase.  All
        other scratch comes from ``ws`` either way.  ``block_categories`` sets
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
        if plane is None:
            screen = TilePrescreen.for_call(screener, augmented, ws)
        else:
            screen = None
            screener.score_plane(augmented, plane)
        float64_rows = self._fold(reducer, ws, augmented, block, plane, screen)
        tallies = (0,) * 6 if screen is None else screen.tallies
        for name, count in zip(_TALLIES, (*tallies, float64_rows)):
            recorder.increment(name, count)
        with recorder.span("streaming.select_finalize"):
            return reducer.finalize()

    def _fold(self, reducer, ws: Workspace, augmented, block, plane, screen) -> int:
        """The tile loop's body: screen each canonical tile into ``ws``
        scratch (or read it from ``plane``, scored already) and fold it
        into ``reducer``; returns the rows the float64 tile GEMMs scored
        (a lone row's partner not).

        With a ``screen`` (the streaming path on a boxed screener), the
        loop asks it which rows of each tile to score, telling it what the
        last tile scored recorded
        (:meth:`~repro.core.screener.TilePrescreen.rows_to_score`); the
        rule of where prescreen passes start, and their tallies, are the
        screen's.  The rows it leaves out would record nothing, so the
        float64 GEMM and the update run on only the rows left, gathered
        from ``augmented`` into ``ws`` scratch, and on none when no row
        is."""
        recorder = self.recorder
        rows = len(augmented)
        float64_rows = 0
        if screen is not None:
            # Whichever tiles and rows the prescreen leaves, the scratch
            # a tile takes is sized up front.
            screen.reserve(ws)
            reducer.reserve(min(TILE_CATEGORIES, self.num_categories, block))
            ws.buffer(_GATHERED, augmented.shape)
        recorded = 0
        for index, (t0, t1) in enumerate(self.screener.tile_bounds()):
            left = None if screen is None else screen.rows_to_score(ws, index, reducer, recorded)
            if left is not None and not len(left):
                continue
            scored = rows if left is None else len(left)
            if plane is None:
                with recorder.span("streaming.screen_tile"):
                    source = augmented if left is None else _gather_rows(ws, augmented, left)
                    out = ws.buffer(PHASE_SCRATCH, (len(source), t1 - t0))
                    tile = self.screener.score_tile(source, t0, t1, out=out)[:scored]
            else:
                tile = plane[:, t0:t1]
            float64_rows += scored
            # Selection updates at block_categories granularity; block
            # boundaries are absolute, so a tile may span several
            # blocks and vice versa.
            with recorder.span("streaming.select_tile"):
                recorded = 0
                start = t0
                while start < t1:
                    stop = min(t1, (start // block + 1) * block)
                    recorded += reducer.update(start, tile[:, start - t0 : stop - t0], left)
                    start = stop
        return float64_rows

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
        cols = candidates.columns()
        if cols.size == 0:
            return np.empty(0, dtype=np.float64)
        # The union matmul computes batch×union exact entries to use
        # only ``cols.size`` of them; prefer it only when candidate
        # overlap keeps that overcompute within a small factor.  The
        # union is counted on a sorted copy in scratch and built only then.
        ordered = workspace.buffer(_SORTED, cols.shape, np.intp)
        np.copyto(ordered, cols)
        ordered.sort()
        change = workspace.buffer(_CHANGE, (cols.size - 1,), bool)
        np.not_equal(ordered[1:], ordered[:-1], out=change)
        rows = entry_rows(candidates.counts, workspace.buffer(_ROWS, cols.shape, np.intp))
        if candidates.batch_size * (1 + np.count_nonzero(change)) <= 2 * cols.size:
            union = candidates.union()
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
            size = batch.shape[0]
            with self._call_arena() as ws:
                counts, cols, values = self._screen_and_select(
                    batch, ws, runner_ups=k
                )
                rows = entry_rows(counts, ws.buffer(_RECORD_ROWS, cols.shape, np.intp))
                chosen = self.selector.is_candidate(values, size, ws)
                exact_count = int(np.count_nonzero(chosen))
                with recorder.span("exact"):
                    # The candidate set is gone before the rank.
                    values[chosen] = self._exact_candidate_values(
                        batch,
                        CandidateSet.from_flat(
                            np.bincount(rows[chosen], minlength=size), cols[chosen]
                        ),
                        ws,
                    )
                with recorder.span("rank"):
                    # Ascending on -values, negated in place and back.
                    np.negative(values, out=values)
                    order = np.lexsort((cols, values, rows))
                    np.negative(values, out=values)
                    # Each row's first k: its first entry plus 0 … k − 1,
                    # both spread to (size, k) so the sum broadcasts nothing.
                    first, step = ws.buffer(_RANK, (2, size, k), np.intp)
                    np.copyto(first, (np.cumsum(counts) - counts)[:, None])
                    np.copyto(step, np.arange(k))
                    first += step
                    best = np.take(order, first, out=step, mode="wrap")
                    indices, scores = np.take(cols, best), np.take(values, best)
            recorder.increment("pipeline.top_k_requests")
            recorder.increment("pipeline.rows", size)
            recorder.increment("pipeline.exact_candidates", exact_count)
            return indices, scores

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
