"""The screening module ``z̃ = W̃ P h + b̃`` (paper Eq. 3).

The screener is the approximate classifier: a fixed sparse random
projection ``P`` (k×d, ternary) followed by a learned low-dimensional
weight ``W̃ ∈ R^{l×k}`` and bias ``b̃``.  At inference the screener runs
quantized (INT4 by default) to model the ENMC Screener's fixed-point
MAC array.

Inference-path engineering: all per-call derived state (the bias-fused
transposed plane of fake-quantized weights, the input quantizer) is
built once and cached on the module, and the hot matmul folds ``b̃``
into one extra weight column — the same trick the compiler uses when
tiling for the hardware — so one GEMM writes the full score matrix.
The module holds two planes, the FP64 master ``weight`` and that fused
plane — ``(k + 1)·l·8`` private bytes beside the master.  The fused
plane is placed one canonical tile at a time, each block of categories
transposed into a tile of scratch and quantized from there straight
into its columns of the plane, so construction (training, a worker's
start or respawn, a load from disk) holds the plane and a tile or two
per lane, never a plane-sized temporary.  The fake-quantized ``(l, k)``
view the compiler lowers from (``_weight_deq``, the same values
quantized whole) is derived on demand, not kept as a third copy.

Lanes: ENMC gives every rank its own slice of the screener, and the
ranks work at once.  Every tile loop here and in the pipeline — placing
the plane, scoring a dense plane (threshold calibration), the serving
loop — runs contiguous runs of canonical tiles on per-call threads when
it brings enough work (:func:`lane_count`, :func:`run_in_lanes`).  A
tile gets the same operations in any lane, so every bit is the
single-lane one; no thread outlives the call that started it.

Every screening GEMM computes in float64, which keeps the bit-level
agreement with the functional DIMM simulator.  The screener's low
precision is the INT4 grid its weights and inputs are fake-quantized
onto (paper Fig. 12b), not the host float width.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.linalg.projection import SparseRandomProjection
from repro.linalg.quantize import Quantizer
from repro.obs.recorder import NULL_RECORDER
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_batch_features, check_positive

#: Canonical column-tile width of the screening GEMM.  Both the dense
#: plane and the blocked streaming path compute scores one fixed,
#: absolute-aligned tile at a time through the *same* ``np.matmul``
#: call, so their results are bit-identical by construction for every
#: streaming block size — BLAS GEMMs are only deterministic for
#: identical call shapes, not across different column slicings (edge
#: kernels and panel splits depend on the operand geometry).  8192
#: float64 columns at batch 256 is a 16 MB tile: L3-sized, wide enough
#: that per-call overhead is negligible against the MACs.
TILE_CATEGORIES = 8192

#: Scores (rows × tiles × tile width) a tile loop must bring per lane
#: before it runs in lanes — :func:`lane_count`.  2 lanes against 1 on
#: the 2-core reference host with both cores free, ``forward_streaming``
#: calls per second, d = 64, k = 16, m = 32, one BLAS thread (range of six
#: alternating 0.6 s stretches; README "Lanes" has the medians):
#:
#:     rows × l     scores   top-m          threshold    lanes picked
#:     32 × 50K     1.8M     0.80–0.88×     0.91–1.25×   1
#:     64 × 50K     3.7M     0.99–1.15×     1.17–1.30×   1
#:     16 × 200K    3.3M     0.86–1.36×     1.31–1.55×   1
#:     64 × 200K    13M      1.36–1.60×     1.49–1.72×   2
#:     64 × 670K    43M      1.39–1.62×     1.50–1.71×   2
#:
#: When the scheduler leaves both lanes on one CPU, 2 lanes cost 3–12%
#: over 1: above the floor both selectors gain more than that with both
#: cores free, just under it only the threshold selector does.  Set-up
#: counts ``k`` as its rows: the fused plane of a 670K × 16 screener is
#: placed in 2 lanes, one of 100K in 1.
MIN_LANE_WORK = 1 << 22


def lane_count(rows: int, tiles: int) -> int:
    """How many lanes a tile loop of ``rows`` rows over ``tiles``
    screening tiles runs in: one per core this process may use, never
    more than the tiles left after the first, and only as many as bring
    :data:`MIN_LANE_WORK` scores each.  Read per call, so CPU affinity is
    the operator's control: a worker pinned to one core is single-lane.
    Where there is no affinity mask to read (macOS, Windows) every core
    counts."""
    work = rows * tiles * TILE_CATEGORIES // MIN_LANE_WORK
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, tiles - 1, work))


def run_in_lanes(fold: Callable[[int, list], None], tiles: list, lanes: int) -> list:
    """Cut ``tiles`` into ``lanes`` contiguous runs and call
    ``fold(lane, run)`` on each — run 0 on the caller, every other on a
    thread started for this call — and return the runs, left to right.

    Each run brings its own scratch (``fold`` picks it by ``lane``).  A
    helper thread runs in a copy of the caller's context, so NumPy's
    error state holds in every lane.  Every thread is joined before this
    returns or raises; then the caller's own error, else the first one a
    helper raised, is raised.  No thread lives past the call — a process
    that forks after set-up or between calls forks no lane — and one
    lane starts no thread at all.
    """
    cuts = [len(tiles) * lane // lanes for lane in range(lanes + 1)]
    runs = [tiles[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    errors: list = []

    def helper(lane: int) -> None:
        try:
            fold(lane, runs[lane])
        except BaseException as error:  # raised by the caller after the joins
            errors.append(error)

    threads = []
    try:
        for lane in range(1, lanes):
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(helper, lane)
            )
            thread.start()
            threads.append(thread)
        fold(0, runs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return runs


@dataclass(frozen=True)
class ScreeningConfig:
    """Hyper-parameters of the screening module.

    ``projection_dim`` is the reduced hidden size ``k``.  The paper's
    chosen operating point is a parameter-reduction scale of 0.25
    (Fig. 12a), i.e. ``k = d / 4``, with 4-bit quantization (Fig. 12b).
    ``quantization_bits=None`` runs the screener in floating point
    (the FP32 point of the Fig. 12b sweep).
    """

    projection_dim: int
    quantization_bits: Optional[int] = 4
    projection_density: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        check_positive("projection_dim", self.projection_dim)
        if self.quantization_bits is not None:
            check_positive("quantization_bits", self.quantization_bits)

    @classmethod
    def from_scale(
        cls,
        hidden_dim: int,
        scale: float = 0.25,
        quantization_bits: Optional[int] = 4,
    ) -> "ScreeningConfig":
        """Build a config from a parameter-reduction scale ``k/d``."""
        check_positive("hidden_dim", hidden_dim)
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        k = max(1, int(round(hidden_dim * scale)))
        return cls(projection_dim=k, quantization_bits=quantization_bits)


class ScreeningModule:
    """The trained screener: projection + reduced-dimension classifier.

    Construct via :func:`repro.core.training.train_screener`, which
    runs Algorithm 1; direct construction is useful for tests and for
    loading saved parameters.
    """

    def __init__(
        self,
        projection: SparseRandomProjection,
        weight: np.ndarray,
        bias: np.ndarray,
        quantization_bits: Optional[int] = 4,
    ):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"screener weight must be 2-D (l, k), got {weight.shape}")
        if weight.shape[1] != projection.output_dim:
            raise ValueError(
                f"screener weight k={weight.shape[1]} != projection k="
                f"{projection.output_dim}"
            )
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"bias shape {bias.shape} incompatible with l={weight.shape[0]}")

        self.projection = projection
        self.weight = weight
        self.bias = bias
        self.quantization_bits = quantization_bits
        #: Observability sink for the screening phases (no-op default;
        #: the pipeline propagates its recorder here).
        self.recorder = NULL_RECORDER
        self._refresh_quantized_weight()

    @property
    def _weight_deq(self) -> np.ndarray:
        """``W̃`` on its deployment grid: FP64 fake-quantized values, one
        scale per category (``weight`` itself in floating-point mode).

        Derived on every read — the serving path multiplies the fused
        plane (the same values, placed tile by tile), so only the
        compiler's tile lowering asks for this.
        """
        if self.quantization_bits is None:
            return self.weight
        return Quantizer(bits=self.quantization_bits, axis=0).fake_quantize(
            self.weight
        )

    def _refresh_quantized_weight(self) -> None:
        """Re-derive all cached inference state after a weight update."""
        # Bias folded in as one extra column (trailing 1 in the feature)
        # so the hot path is a single GEMM, mirroring the compiler's tile
        # layout.  Stored pre-transposed and contiguous.
        k, l = self.projection_dim, self.num_categories
        fused = np.empty((k + 1, l))
        if self.quantization_bits is None:
            self._input_quantizer: Optional[Quantizer] = None
            per_category = None
        else:
            # One scale per batch row: each inference quantizes its own
            # feature vector independently, as the hardware does.
            self._input_quantizer = Quantizer(bits=self.quantization_bits, axis=0)
            per_category = Quantizer(bits=self.quantization_bits, axis=1)

        def place(lane: int, run: list) -> None:
            # ``W̃`` takes one scale per category and is placed one
            # canonical tile at a time: a block of categories is
            # transposed into this lane's tile of scratch (categories are
            # its columns now) and quantized from there into its columns
            # of the plane, so set-up holds the plane and a tile or two
            # per lane, never a second plane.
            tile = np.empty((k, min(TILE_CATEGORIES, l)))
            for start, stop in run:
                block = tile[:, : stop - start]
                block[...] = self.weight[start:stop].T
                if per_category is None:
                    fused[:-1, start:stop] = block
                else:
                    per_category.fake_quantize(block, out=fused[:-1, start:stop])

        tiles = self.tile_bounds()
        run_in_lanes(place, tiles, lane_count(k, len(tiles)))
        fused[-1] = self.bias
        self._fused_weight_t = fused

    # ------------------------------------------------------------------
    # shapes / cost
    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        return self.weight.shape[0]

    @property
    def hidden_dim(self) -> int:
        """Input dimensionality ``d`` (pre-projection)."""
        return self.projection.input_dim

    @property
    def projection_dim(self) -> int:
        """Reduced dimensionality ``k``."""
        return self.projection.output_dim

    @property
    def compute_dtype(self) -> np.dtype:
        """Arithmetic width of every screening GEMM: float64, the only one."""
        return np.dtype(np.float64)

    @property
    def nbytes(self) -> float:
        """Deployed parameter bytes: quantized W̃ + FP bias + 2-bit P."""
        bits = self.quantization_bits if self.quantization_bits is not None else 32
        return self.weight.size * bits / 8.0 + self.bias.size * 4 + self.projection.nbytes

    def parameter_scale(self, classifier_hidden_dim: Optional[int] = None) -> float:
        """Parameter count relative to the full classifier (Fig. 12a x-axis)."""
        d = classifier_hidden_dim if classifier_hidden_dim is not None else self.hidden_dim
        return self.weight.size / (self.num_categories * d)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def project(self, features: np.ndarray) -> np.ndarray:
        """Apply ``P`` only (the host-side or on-the-fly projection)."""
        batch = check_batch_features(features, self.hidden_dim)
        return self.projection(batch)

    def prepare_augmented(self, features: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Quantized, bias-augmented GEMM input ``[q(Ph) | 1]``.

        This is the left operand of every screening GEMM — computed
        once per batch and reused across all column tiles.  ``out``
        lets the streaming engine supply a workspace buffer.
        """
        with self.recorder.span("screen.project_quantize"):
            projected = self.project(features)
            if self._input_quantizer is not None:
                self._input_quantizer.fake_quantize(projected, out=projected)
        if out is None:
            out = np.empty((projected.shape[0], self.projection_dim + 1))
        out[:, :-1] = projected
        out[:, -1] = 1.0
        return out

    def tile_bounds(self):
        """The canonical ``[start, stop)`` column tiles of this screener.

        Fixed and absolute-aligned (see :data:`TILE_CATEGORIES`): every
        scoring path must enumerate exactly these tiles so the per-tile
        GEMM calls — and therefore the score bits — are identical
        between the dense plane and any blocked traversal.
        """
        l = self.num_categories
        return [
            (start, min(start + TILE_CATEGORIES, l))
            for start in range(0, l, TILE_CATEGORIES)
        ]

    def score_tile(
        self, augmented: np.ndarray, start: int, stop: int, out: np.ndarray
    ) -> np.ndarray:
        """Scores for canonical tile ``[start, stop)`` into ``out``.

        ``(start, stop)`` must be a tile from :meth:`tile_bounds`;
        ``augmented`` comes from :meth:`prepare_augmented`.  Writing
        through ``out`` (contiguous scratch or a dense-plane slice)
        does not change the computed bits.
        """
        np.matmul(augmented, self._fused_weight_t[:, start:stop], out=out)
        return out

    def approximate_logits(self, features: np.ndarray) -> np.ndarray:
        """The screener's approximate scores ``z̃`` for a feature batch.

        When ``quantization_bits`` is set, both the projected features
        and the screener weights pass through fake quantization,
        modeling the INT4 datapath of the hardware Screener; the scores
        are float64.  Computed per canonical
        column tile (see :data:`TILE_CATEGORIES`) — the same GEMM calls
        the blocked streaming path issues, which is what makes the two
        modes bit-identical.  A batch with enough work scores runs of
        tiles in lanes (:func:`lane_count`), each straight into its
        columns — same calls, same bits.
        """
        augmented = self.prepare_augmented(features)
        scores = np.empty((augmented.shape[0], self.num_categories))

        def score(lane: int, run: list) -> None:
            for start, stop in run:
                self.score_tile(augmented, start, stop, out=scores[:, start:stop])

        tiles = self.tile_bounds()
        with self.recorder.span("screen.gemm"):
            run_in_lanes(score, tiles, lane_count(len(augmented), len(tiles)))
        return scores

    def __call__(self, features: np.ndarray) -> np.ndarray:
        return self.approximate_logits(features)

    def __repr__(self) -> str:
        return (
            f"ScreeningModule(l={self.num_categories}, d={self.hidden_dim}, "
            f"k={self.projection_dim}, bits={self.quantization_bits})"
        )


def draw_projection(
    hidden_dim: int, config: ScreeningConfig, rng: RngLike = None
) -> SparseRandomProjection:
    """The fixed sparse random projection ``P`` (Section 4.2) of a
    screener with this config — the first thing every construction path
    draws from its generator, so a seed names one ``P``."""
    return SparseRandomProjection(
        input_dim=hidden_dim,
        output_dim=config.projection_dim,
        density=config.projection_density,
        rng=rng,
    )


def initialize_screener(
    num_categories: int,
    hidden_dim: int,
    config: ScreeningConfig,
    rng: RngLike = None,
) -> ScreeningModule:
    """An untrained screener with the paper's initialization.

    ``P`` follows standard sparse random projection (Section 4.2); the
    learnable ``W̃``/``b̃`` start at small Gaussian / zero.
    """
    generator = ensure_rng(rng)
    projection = draw_projection(hidden_dim, config, generator)
    weight = generator.standard_normal((num_categories, config.projection_dim))
    weight *= 1.0 / np.sqrt(config.projection_dim)
    bias = np.zeros(num_categories)
    return ScreeningModule(
        projection, weight, bias, quantization_bits=config.quantization_bits
    )
