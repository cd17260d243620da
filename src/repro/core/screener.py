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
The module holds five arrays: the FP64 master ``weight``, that fused
plane — ``(k + 1)·l·8`` private bytes beside the master — the fused
plane's values rounded to float32, the *screen plane* (``(k + 1)·l·4``
bytes), the *boxes* (``_tile_box``, ``(2k + 1)·⌈l / 8⌉·8`` bytes) and
the *coarse boxes* (``_tile_coarse``, ``(2k + 1)·8·⌈l / 8192⌉·8``
bytes).  All four derived arrays are placed one canonical tile at a
time, each block of categories transposed into a tile of scratch,
quantized from there straight into its columns of the fused plane,
rounded from those into the screen plane's, rotated from them into its
boxes and reduced from those into its coarse boxes, so construction (training, a worker's start or respawn, a load from disk)
holds the arrays and a tile or two per lane, never a plane-sized
temporary.  The fake-quantized ``(l, k)`` view the compiler lowers from
(``_weight_deq``, the same values quantized whole) is derived on
demand, not kept as another copy.

The float32 prescreen (:class:`TilePrescreen`): once a streaming call's
reducer holds a bound — its threshold, or with runner-ups each row's
floor — a tile whose every float64 score is at most that bound would
record nothing, so the loop may leave it out.  The screen plane proves
as much at half the GEMM cost: scored in float32, a row of a tile is
proven when its largest float32 score is at most ``bound − E`` rounded
down, and the tile is left out when every row is, where ``E`` bounds |float32 score − float64 :meth:`score_tile`
score| for that row and tile.  Per entry, over the ``n = k + 1``
products ``a_j f_j`` of the augmented input and the fused plane, the
gap is at most ``relative · P + mixed · Q + absolute`` with ``P =
Σ|a_j f_j|`` and ``Q = Σ(|a_j| + |f_j|)``: rounding both operands to
float32, both GEMMs' summation error in any order (``γ_n = n u / (1 −
n u)`` at each width's unit roundoff ``u``) and float32 underflow
(``_screen_error_terms`` derives the three coefficients).  Set-up keeps
each tile's largest weight and bias magnitudes; a call sums ``|a_j|``
per row, and ``P`` and ``Q`` follow — one multiply-add per row and
tile.  A call whose magnitudes could overflow float32 (any operand past
``2**100``, or a sum past ``2**125``) screens no such tile.  Which tiles
are prescreened is the loop's prescreen rule: tile 1, a tile after one
that recorded nothing, and a tile after one whose prescreen proved a
row, never tile 0 — on a frequency-ordered label space, every tile past
the head.  A left-out row leaves the reducer's record unchanged
(:meth:`~repro.linalg.topk.BlockwiseThreshold.update`), so every output
bit is the full loop's by construction; dense ``forward``, which keeps
the score plane, never leaves a row out.

The box stages, ahead of the float32 one: set-up takes the principal
axes ``Q`` of the head tile's weights (``eigh`` of their ``k × k``
Gram), rotates every quantized weight column into them, ``ỹ = Qᵀw``,
and keeps per :data:`BOX_CATEGORIES` contiguous columns each axis's max
and min and the largest bias, and the same per
:data:`COARSE_CATEGORIES` columns, reduced from those.  A call rotates
its input, ``c̃ = aQ``; one GEMM of ``[max(c̃, 0) | min(c̃, 0) | 1]``
against boxes bounds every score in each box from above, and a row of
a tile is proven when its largest box bound is at most ``bound − E_box``
rounded down.  ``E_box`` (``_box_error_terms``) covers the two
rotations' and the box GEMM's rounding, the float64 tile GEMM's,
underflow, and the axes' departure from orthogonality through ``a·w =
(Qᵀa)·(Qᵀw) + aᵀ(I − QQᵀ)w``; it has the float32 stage's shape, one
multiply-add per row and tile.  It covers the coarse boxes unchanged:
its terms use only the tile's largest ``|w|`` and ``|b|``, the row's
``Σ|a_j|`` and the axes, and a max or min of box extremes is exact, so
a coarse box's extremes are attained by its own columns.  On a
frequency-ordered label space the bias is smooth in the index and W̃ is
strongly low-rank, so a tile's boxes prove most of what its 8,192
float32 scores prove, and its 8 coarse boxes most of that.

The stages prove rows, not tiles: each returns the rows it could not
prove, and the next runs on only those — the coarse bounds (scored for
every remaining tile in one GEMM at the call's first box test, then one
compare per row and tile), the tile's boxes, then its float32 scores —
a tile is left out once every row is proven by some stage, and the
float64 GEMM and the fold run on only the rows none proved.  A call
tests boxes only once it has skipped a tile, and before that a tile's
float32 scores on every row; a call that never skips (a flat-prior
shard) never builds a box query.

Lanes: ENMC gives every rank its own slice of the screener, and the
ranks work at once.  The plane-sized loops here — placing the plane and
scoring a dense plane (:meth:`ScreeningModule.score_plane`: threshold
calibration, dense ``forward``) — run contiguous runs of canonical tiles
on per-call threads when they bring enough work (:func:`lane_count`,
:func:`run_in_lanes`).  A tile gets the same operations in any lane, so
every bit is the single-lane one; no thread outlives the call that
started it.  The serving loop folds on the caller's thread.

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
from typing import Callable, Optional, Tuple

import numpy as np

from repro.linalg.projection import SparseRandomProjection
from repro.linalg.quantize import Quantizer
from repro.obs.recorder import NULL_RECORDER
from repro.utils.memory import PHASE_SCRATCH
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

#: Scores (rows × tiles × tile width) a plane-sized loop must bring per
#: lane before it runs in lanes — :func:`lane_count`.  Set-up counts
#: ``k`` as its rows: the fused plane of a 670K × 16 screener is placed
#: in 2 lanes, one of 100K in 1; a 64 × 670K dense plane is scored in 2.
#: DESIGN §6 "Lanes" has the set-up and plane-pass timings at 1 and 2
#: lanes.
MIN_LANE_WORK = 1 << 22


#: The float32 prescreen's range: a call screens a tile only when every
#: operand magnitude is at most ``_SCREEN_MAGNITUDE`` and no row's
#: ``Σ|a_j| max|w| + max|b|`` exceeds ``_SCREEN_SUM``, so no float32
#: operand, product or partial sum can overflow (float32's largest finite
#: value is just under 2**128).  A tile magnitude out of range is stored
#: as ``_SCREEN_GUARD``, which fails the sum test for every call.
_SCREEN_MAGNITUDE = 2.0**100
_SCREEN_SUM = 2.0**125
_SCREEN_GUARD = 2.0**126


#: Categories per box of the box prescreen (:class:`TilePrescreen`): the
#: width of the contiguous chunks whose per-axis extremes in the screener's
#: principal axes bound a tile before its float32 scores do.  Measured on
#: the ``batch_topm`` model (64 × 670K, k = 16, m = 32, tile-0 floor; seeds
#: 1–4; tiles proven empty of the 81 past tile 0):
#:
#:     width    proven     per call
#:     8        67–74      fastest
#:     16       63–73      no faster
#:     32       52–70      no faster
#:
#: The same boxes in the original axes, or under a random rotation,
#: prove none.
BOX_CATEGORIES = 8

#: Categories per coarse box, the box prescreen's first level: per
#: :data:`COARSE_CATEGORIES` contiguous columns, each principal axis's max
#: and min and the largest bias, taken over that many columns' boxes, so a
#: tile has ``TILE_CATEGORIES // COARSE_CATEGORIES`` of them and a row's
#: coarse bound of a tile is the largest of theirs.  Measured on the
#: ``batch_threshold`` / ``batch_topm`` model (64 × 670K, k = 16, m = 32;
#: seed 1, 16 calls, 2 lanes, one BLAS thread; rows per call each later
#: stage runs on, and the median call over 6 alternating rounds):
#:
#:     width     8-wide rows       float32 rows    per call (ms)
#:     (none)    4,536 / 4,940     278 / 215       28.2 / 25.3
#:     512         752 / 597       278 / 215       24.2 / 18.2
#:     1024        941 / 792       278 / 215       24.0 / 18.8
#:     2048      1,135 / 1,016     278 / 215       24.4 / 19.8
#:     4096      1,345 / 1,275     278 / 215       24.2 / 18.9
#:     8192      1,547 / 1,530     278 / 215       23.6 / 19.5
#:
#: Every width from 512 to 8192 is within the noise of the others; 1024
#: leaves the 8-wide stage 61% of the rows 8192 does, for a coarse level
#: of ``(2k + 1)·8·⌈l / 8192⌉·8`` bytes (173 KB at 670K × 16).
COARSE_CATEGORIES = 1024
_COARSE_PER_TILE = TILE_CATEGORIES // COARSE_CATEGORIES

#: The largest rigorous ``‖I − QQᵀ‖_F`` bound of principal axes ``Q``
#: that a screener box-tests under; past it no tile is box-tested.
_BOX_DELTA = 2.0**-20


def _screen_error_terms(k: int) -> Tuple[float, float, float]:
    """``(relative, mixed, absolute)``: the bound on |float32 tile score
    − float64 :meth:`ScreeningModule.score_tile` score| for one entry,
    ``relative·P + mixed·Q + absolute``, over ``n = k + 1`` products
    ``a_j f_j`` with ``P = Σ|a_j f_j|`` and ``Q = Σ(|a_j| + |f_j|)``.

    With float32 unit roundoff ``u`` and underflow unit ``η`` (half its
    least subnormal), rounding the operands to float32 costs
    ``(2u + u²) P + η(1 + u) Q + n η²``; the float32 GEMM adds
    ``γ_n P' + 2 n η`` over the rounded operands (``γ_n = n u / (1 − n u)``,
    any summation order, with or without FMA; ``P'`` is at most ``P``
    plus the rounding just counted); the float64 GEMM adds ``γ_n P +
    2 n η`` at float64's ``u`` and ``η``.  The sum, in the three
    coefficients returned, is raised by ``2**-20`` of itself, which
    covers the float64 rounding of the few operations a call spends
    deriving ``E`` from them (fewer than ``2**30`` terms).
    """
    n = k + 1

    def gamma(unit: float) -> float:
        return n * unit / (1.0 - n * unit)

    unit32, tiny32 = 2.0**-24, 2.0**-150
    unit64, tiny64 = 2.0**-53, 2.0**-1074
    rounding = 2.0 * unit32 + unit32**2
    gamma32 = gamma(unit32)
    relative = (1.0 + gamma32) * rounding + gamma32 + gamma(unit64)
    mixed = (1.0 + gamma32) * tiny32 * (1.0 + unit32)
    absolute = (1.0 + gamma32) * n * tiny32**2 + 2.0 * n * (tiny32 + tiny64)
    slack = 1.0 + 2.0**-20
    return relative * slack, mixed * slack, absolute * slack


def _principal_axes(head: np.ndarray) -> Optional[np.ndarray]:
    """``Q``: the eigenvectors of the ``k × k`` Gram of the head tile's
    weight rows ``head`` — the axes a box prescreen's boxes are taken in
    — or ``None`` when that Gram is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = head.T @ head
    if not np.isfinite(gram).all():
        return None
    return np.linalg.eigh(gram)[1]


def _box_error_terms(axes: np.ndarray) -> Optional[Tuple[float, float, float]]:
    """``(slope, offset, absolute)``: with ``W`` and ``B`` a tile's largest
    weight and bias magnitudes and ``A = Σ|a_j|`` a row's, a box bound
    ``V`` (below) is within ``slope · W · A + offset · B + absolute`` of
    every float64 :meth:`ScreeningModule.score_tile` score of the tile
    it is taken over; ``None`` when ``axes`` cannot be box-tested under.

    For axes ``Q`` (``k × k``), ``a·w = (Qᵀa)·(Qᵀw) + aᵀ(I − QQᵀ)w``
    exactly.  Set-up rotates every weight column, ``ỹ = Qᵀw``, and keeps
    each chunk's per-axis max ``ỹ⁺`` and min ``ỹ⁻`` and its largest
    bias; a call rotates its input, ``c̃ = aQ``, and the box bound is
    ``V = Σ_i max(c̃_i, 0) ỹ⁺_i + min(c̃_i, 0) ỹ⁻_i + max b``, at least
    ``c̃·ỹ + b`` for every column of the chunk.  What separates ``V``
    from the float64 score, with ``γ_n = n u / (1 − n u)`` at float64's
    ``u``, ``q = max_i Σ_j |Q_ji|`` and ``r = max_j Σ_i |Q_ji|`` (so
    ``|ỹ_i| ≤ qW`` and ``Σ_i |c̃_i| ≤ (1 + γ_k) r A``):

    * rounding ``c̃``: ``Σ_i |δc̃_i| |ỹ_i| ≤ γ_k r A · (1 + γ_k) q W``;
    * rounding ``ỹ``: ``Σ_i |c̃_i| |δỹ_i| ≤ (1 + γ_k) r A · γ_k q W``;
    * the box GEMM over ``2k + 1`` products: ``γ_{2k+1}((1 + γ_k) r A ·
      (1 + γ_k) q W + B)``;
    * the axes' departure from orthogonality: ``|aᵀ(I − QQᵀ)w| ≤ k δ W A``
      for any ``δ ≥ ‖I − QQᵀ‖_F``, bounded here from the computed
      ``QQᵀ`` and its own rounding;
    * the float64 tile GEMM over ``k + 1`` products: ``γ_{k+1}(A W + B)``;
    * underflow: every product and rounding above may lose ``η = 2**-1074``
      absolutely; under the call's magnitude guards (``A``, ``W``, ``B``
      at most ``2**100``, ``|Q_ji| ≤ 2``) those losses sum to under
      ``(k + 1)**3 · 2**-960``, the ``absolute`` term.

    Each coefficient is raised by ``2**-20`` of itself, as in
    :func:`_screen_error_terms`.  Axes that are not finite, have an
    entry past 2 in magnitude or whose ``δ`` exceeds :data:`_BOX_DELTA`
    get ``None``.
    """
    k = axes.shape[0]
    if not (np.isfinite(axes).all() and np.abs(axes).max(initial=0.0) <= 2.0):
        return None

    def gamma(n: int) -> float:
        return n * 2.0**-53 / (1.0 - n * 2.0**-53)

    magnitudes = np.abs(axes)
    columns = float(magnitudes.sum(axis=0).max())
    rows = float(magnitudes.sum(axis=1).max())
    # Each entry of the computed I − QQᵀ is within the GEMM's γ_k (its
    # products are at most 4 each), the subtraction's rounding and
    # underflow of the exact one; k times the largest bounds the norm.
    departure = np.abs(np.eye(k) - axes @ axes.T).max(initial=0.0)
    entry = departure + 4 * k * gamma(k) + (1 + 5 * k) * 2.0**-53 + 2.0**-1000
    delta = k * entry
    if not delta <= _BOX_DELTA:
        return None
    input_reach = (1.0 + gamma(k)) * rows  # Σ_i |c̃_i| per unit of A
    weight_reach = (1.0 + gamma(k)) * columns  # |ỹ_i| per unit of W
    slope = (
        weight_reach * (gamma(k) * rows + gamma(2 * k + 1) * input_reach)
        + input_reach * gamma(k) * columns
        + k * delta
        + gamma(k + 1)
    )
    offset = gamma(2 * k + 1) + gamma(k + 1)
    slack = 1.0 + 2.0**-20
    return slope * slack, offset * slack, (k + 1) ** 3 * 2.0**-960


def _chunk_tree(pick, values: np.ndarray, out: np.ndarray, levels: np.ndarray) -> None:
    """``out[:, c] = pick`` over the :data:`BOX_CATEGORIES` columns
    ``values[:, 8c : 8c + 8]``, the last box as wide as the columns left
    (``pick`` is ``np.maximum`` or ``np.minimum``).  Whole boxes pair
    neighbours level by level, each level a contiguous block of the flat
    scratch ``levels`` — strided elementwise passes, over an order of
    magnitude faster than a reduction over a ``(…, 8)`` reshape, and no
    two operands' bounds overlap, so NumPy copies none of them."""
    whole = values.shape[1] - values.shape[1] % BOX_CATEGORIES
    if whole < values.shape[1]:  # a last, narrower box
        pick.reduce(values[:, whole:], axis=1, out=out[:, -1])
    if not whole:
        return
    level, used, out = values[:, :whole], 0, out[:, : whole // BOX_CATEGORIES]
    while level.shape[1] > 2 * out.shape[1]:
        width = level.shape[1] // 2
        paired = levels[used : used + len(level) * width].reshape(len(level), width)
        pick(level[:, 0::2], level[:, 1::2], out=paired)
        level, used = paired, used + paired.size
    pick(level[:, 0::2], level[:, 1::2], out=out)


def lane_count(rows: int, tiles: int) -> int:
    """How many lanes a plane-sized loop of ``rows`` rows over ``tiles``
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


def run_in_lanes(fold: Callable[[list], None], tiles: list, lanes: int) -> None:
    """Cut ``tiles`` into ``lanes`` contiguous runs and call ``fold(run)``
    on each — run 0 on the caller, every other on a thread started for
    this call.

    Each run brings its own scratch.  A helper thread runs in a copy of
    the caller's context, so NumPy's error state holds in every lane.
    Every thread is joined before this returns or raises; then the
    caller's own error, else the first one a helper raised, is raised.
    No thread lives past the call — a process that forks after set-up or
    between calls forks no lane — and one lane starts no thread at all.
    """
    cuts = [len(tiles) * lane // lanes for lane in range(lanes + 1)]
    runs = [tiles[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    errors: list = []

    def helper(run: list) -> None:
        try:
            fold(run)
        except BaseException as error:  # raised by the caller after the joins
            errors.append(error)

    threads = []
    try:
        for run in runs[1:]:
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(helper, run)
            )
            thread.start()
            threads.append(thread)
        fold(runs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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
        tiles = self.tile_bounds()
        fused = np.empty((k + 1, l))
        self._screen_plane_t = np.empty((k + 1, l), dtype=np.float32)
        self._tile_tops = np.empty((2, len(tiles)))
        if self.quantization_bits is None:
            self._input_quantizer: Optional[Quantizer] = None
            per_category = None
        else:
            # One scale per batch row: each inference quantizes its own
            # feature vector independently, as the hardware does.
            self._input_quantizer = Quantizer(bits=self.quantization_bits, axis=0)
            per_category = Quantizer(bits=self.quantization_bits, axis=1)

        axes = _principal_axes(self.weight[:TILE_CATEGORIES])
        box_terms = None if axes is None else _box_error_terms(axes)
        #: ``Qᵀ`` (contiguous: the set-up GEMM reads it 30% faster) and
        #: the boxes, or ``None`` when no tile of this screener is boxed.
        self._box_axes_t = None if box_terms is None else np.ascontiguousarray(axes.T)
        self._tile_box = self._tile_coarse = None
        if box_terms is not None:
            self._tile_box = np.empty((2 * k + 1, -(-l // BOX_CATEGORIES)))
            self._tile_coarse = np.empty((len(tiles) * _COARSE_PER_TILE, 2 * k + 1))

        def place(run: list) -> None:
            # ``W̃`` takes one scale per category and is placed one
            # canonical tile at a time: a block of categories is
            # transposed into this lane's tile of scratch (categories are
            # its columns now) and quantized from there into its columns
            # of the plane, so set-up holds the plane and a tile or two
            # per lane, never a second plane.
            # Room, too, for half a tile rotated and its boxes' trees
            # (7/4 of a half: under a tile).
            half = min(TILE_CATEGORIES // 2, l)
            tile = np.empty(k * max(min(TILE_CATEGORIES, l), 2 * half - half // 4))
            for start, stop in run:
                block = tile[: k * (stop - start)].reshape(k, stop - start)
                block[...] = self.weight[start:stop].T
                if per_category is None:
                    fused[:-1, start:stop] = block
                else:
                    per_category.fake_quantize(block, out=fused[:-1, start:stop])
                self._place_screen_tile(fused, start, stop)
                if self._tile_box is not None:
                    self._place_box_tile(fused, start, stop, tile)

        run_in_lanes(place, tiles, lane_count(k, len(tiles)))
        fused[-1] = self.bias
        self._fused_weight_t = fused
        # Per tile, E = Σ|a_j| · slope + offset (TilePrescreen), for the
        # float32 stage and, with boxes, the box stage.
        relative, mixed, absolute = _screen_error_terms(k)
        weight_top, bias_top = self._tile_tops
        self._tile_error = np.stack((
            relative * weight_top + mixed,
            relative * bias_top + mixed * (1.0 + k * weight_top + bias_top) + absolute,
        ))
        self._box_error = None
        if box_terms is not None:
            slope, offset, absolute = box_terms
            self._box_error = np.stack((slope * weight_top, offset * bias_top + absolute))

    def _place_screen_tile(self, fused: np.ndarray, start: int, stop: int) -> None:
        """Tile ``[start, stop)`` of the float32 screen plane: the fused
        plane's values (weights just placed, and the bias) rounded to
        float32, and bounds on the tile's largest weight and bias
        magnitudes — a bound past :data:`_SCREEN_MAGNITUDE` (or NaN) is
        stored as :data:`_SCREEN_GUARD`, which no call screens under."""
        index = start // TILE_CATEGORIES
        tile = self._screen_plane_t[:, start:stop]
        with np.errstate(over="ignore"):  # such a tile is never screened
            tile[:-1] = fused[:-1, start:stop]
            tile[-1] = self.bias[start:stop]
        for row, values in enumerate((tile[:-1], tile[-1])):
            # Rounding to float32 lowered a magnitude by at most 2**-24
            # of it, or by 2**-150 below float32's normal range.
            top = float(max(values.max(), -values.min())) * (1.0 + 2.0**-23) + 2.0**-149
            self._tile_tops[row, index] = top if top <= _SCREEN_MAGNITUDE else _SCREEN_GUARD

    def _place_box_tile(self, fused: np.ndarray, start: int, stop: int, scratch) -> None:
        """The boxes of tile ``[start, stop)``: its quantized weight
        columns rotated into the principal axes (``ỹ = Qᵀw``) half a tile
        at a time, while they are still in cache, then per
        :data:`BOX_CATEGORIES` columns each axis's max and min, and the
        largest bias, each by a pairwise tree (:func:`_chunk_tree`).  The
        rotated half and the trees' levels share the lane's flat
        ``scratch``, so the boxes take no memory beyond it.  Half tiles,
        not smaller blocks: the placing lanes share the interpreter lock
        between NumPy calls, and at 670K × 16 two lanes of quarter tiles
        took 47–52 ms against 27–32 ms.

        Then the tile's coarse boxes, from its boxes while they are in
        cache: per :data:`COARSE_CATEGORIES` columns the max of their
        maxima and biases and the min of their minima (exact, so each
        extreme is some column's); a last tile with fewer coarse boxes
        repeats its last one."""
        k, half = self.projection_dim, TILE_CATEGORIES // 2
        boxes = self._tile_box[:, start // BOX_CATEGORIES : -(-stop // BOX_CATEGORIES)]
        index = start // TILE_CATEGORIES
        coarse = self._tile_coarse[index * _COARSE_PER_TILE : (index + 1) * _COARSE_PER_TILE]
        starts = np.arange(0, boxes.shape[1], COARSE_CATEGORIES // BOX_CATEGORIES)
        with np.errstate(over="ignore", invalid="ignore"):  # such a tile is never boxed
            for low in range(start, stop, half):
                width = min(half, stop - low)
                rotated = scratch[: k * width].reshape(k, width)
                np.matmul(self._box_axes_t, fused[:-1, low : low + width], out=rotated)
                first = (low - start) // BOX_CATEGORIES
                columns = slice(first, first + -(-width // BOX_CATEGORIES))
                _chunk_tree(np.maximum, rotated, boxes[:k, columns], scratch[k * width :])
                _chunk_tree(np.minimum, rotated, boxes[k:-1, columns], scratch[k * width :])
        _chunk_tree(np.maximum, self.bias[None, start:stop], boxes[-1:], scratch)
        used = coarse[: len(starts)]
        np.maximum.reduceat(boxes[:k], starts, axis=1, out=used[:, :k].T)
        np.minimum.reduceat(boxes[k:-1], starts, axis=1, out=used[:, k:-1].T)
        np.maximum.reduceat(boxes[-1:], starts, axis=1, out=used[:, -1:].T)
        coarse[len(starts) :] = used[-1]

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
        modes bit-identical.
        """
        augmented = self.prepare_augmented(features)
        return self.score_plane(augmented, np.empty((len(augmented), self.num_categories)))

    def score_plane(self, augmented: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Every canonical tile of ``augmented`` scored into its columns of
        the ``rows × l`` plane ``out`` (:meth:`score_tile`, one call per
        tile).  A batch with enough work scores runs of tiles in lanes
        (:func:`lane_count`) — same calls, same bits."""

        def score(run: list) -> None:
            for start, stop in run:
                self.score_tile(augmented, start, stop, out=out[:, start:stop])

        tiles = self.tile_bounds()
        with self.recorder.span("screen.gemm"):
            run_in_lanes(score, tiles, lane_count(len(augmented), len(tiles)))
        return out

    def __call__(self, features: np.ndarray) -> np.ndarray:
        return self.approximate_logits(features)

    def __repr__(self) -> str:
        return (
            f"ScreeningModule(l={self.num_categories}, d={self.hidden_dim}, "
            f"k={self.projection_dim}, bits={self.quantization_bits})"
        )


#: Workspace keys of the prescreen: per call its float32 input, each
#: tile's bound per row and whether the tile can be screened, with the
#: scratch they are derived in; the rows a stage gathers (its scores take
#: the phase scratch), and the box stages' query, bound and coarse
#: bounds, built at the call's first box test.
_SCREEN_INPUT, _SCREEN_ERROR, _SCREEN_OK, _SCREEN_ABS, _SCREEN_SUMS, _SCREEN_RANGE = (
    ("screen", name) for name in ("input", "error", "ok", "abs", "sums", "range")
)
_SCREEN_GATHERED = ("screen", "gathered")
_BOX_ROTATED, _BOX_QUERY, _BOX_ERROR, _BOX_COARSE, _BOX_GATHERED = (
    ("box", name) for name in ("rotated", "query", "error", "coarse", "gathered")
)


class TilePrescreen:
    """One streaming call's prescreen of the screener's tiles (module
    docstring), in three stages that each prove rows of a tile empty and
    return the rows they could not prove, for the next stage to run on:
    the coarse boxes (:meth:`coarse_left`), one compare per row; the
    tile's boxes (:meth:`box_left`), a row max over one GEMM; and its
    float32 scores (:meth:`float32_left`), a row max over another.  A
    tile with no row left would record nothing.  Per call: the augmented
    input rounded to float32 and per tile and row the float32 stage's
    bound ``E``, all in the call's arena.

    Built once per call before its first tile; each stage tests in
    scratch of the call's arena (:meth:`reserve`).  What a stage keeps
    per row — its largest score, its limit, the rows it leaves — is a
    NumPy temporary of at most ``rows`` entries: an arena request costs
    more than the compare it would serve.
    """

    def __init__(self, screener: "ScreeningModule", augmented: np.ndarray, ws) -> None:
        rows, width = augmented.shape
        tiles = screener._tile_tops.shape[1]
        self._plane = screener._screen_plane_t
        self._screener = screener
        self._augmented = augmented
        #: Whether the box stages can prove anything for this screener.
        self.boxed = screener._tile_box is not None
        self.input = ws.buffer(_SCREEN_INPUT, (rows, width), np.float32)
        self.error = ws.buffer(_SCREEN_ERROR, (tiles, rows))
        self.screenable = ws.buffer(_SCREEN_OK, (tiles,), bool)
        magnitudes = ws.buffer(_SCREEN_ABS, (rows, width - 1))
        self.row_sums = ws.buffer(_SCREEN_SUMS, (rows,))
        largest_sum = ws.buffer(_SCREEN_RANGE, (tiles,))
        np.abs(augmented[:, :-1], out=magnitudes)
        np.sum(magnitudes, axis=1, out=self.row_sums)
        largest = self.row_sums.max(initial=0.0)
        if not largest <= _SCREEN_MAGNITUDE:  # NaN included
            self.screenable.fill(False)
            return
        self.input[...] = augmented
        # No float32 operand, product or partial sum can overflow when
        # the largest row's Σ|a_j| · max|w| + max|b| is in range.
        weight_top, bias_top = screener._tile_tops
        np.multiply(weight_top, largest, out=largest_sum)
        largest_sum += bias_top
        np.less_equal(largest_sum, _SCREEN_SUM, out=self.screenable)
        slope, offset = screener._tile_error
        np.multiply.outer(slope, self.row_sums, out=self.error)
        self.error += offset[:, None]

    def reserve(self, ws) -> None:
        """Size the call's scratch in its arena ``ws`` up front, at its
        full row count — the phase scratch a tile is tested or
        scored in, float32 or float64, the rows a stage gathers, and the
        box stages' query, bound and coarse bounds — so whether, where,
        in which stage and on how many rows a call prescreens never
        allocates."""
        rows, width = self.input.shape
        tiles = len(self.error)
        scratch = min(TILE_CATEGORIES, self._plane.shape[1])
        ws.buffer(_SCREEN_GATHERED, (rows, width), np.float32)
        if self.boxed:
            k = width - 1
            scratch = max(scratch, tiles * _COARSE_PER_TILE)
            ws.buffer(_BOX_ROTATED, (rows, k))
            ws.buffer(_BOX_QUERY, (rows, 2 * k + 1))
            ws.buffer(_BOX_GATHERED, (rows, 2 * k + 1))
            ws.buffer(_BOX_ERROR, (tiles, rows))
            ws.buffer(_BOX_COARSE, (tiles, rows))
        ws.buffer(PHASE_SCRATCH, (rows, scratch))

    def float32_left(self, start: int, stop: int, bound, ws, rows=None) -> Optional[np.ndarray]:
        """The rows of ``rows`` (every row when ``None``) not proven to
        have every float64 score of canonical tile ``[start, stop)`` at
        most ``bound`` (a scalar or one per row) by its float32 scores:
        a row is proven when its largest float32 score is at most
        ``bound − E`` rounded down.  The rows are gathered first unless
        they are every row, and the scores take the first half of the
        phase scratch of ``ws``, which the tile's float64 scores
        overwrite when they are needed.  ``None`` when the tile is not
        screened: no ``bound`` (``None``), or magnitudes out of the
        float32 range."""
        index = start // TILE_CATEGORIES
        if bound is None or not self.screenable[index]:
            return None
        source = self.input
        if rows is not None and len(rows) < len(source):
            gathered = ws.buffer(_SCREEN_GATHERED, (len(rows), source.shape[1]), np.float32)
            source = np.take(source, rows, axis=0, out=gathered, mode="clip")
        tile = ws.buffer(PHASE_SCRATCH, (len(source), stop - start))
        scores = tile.reshape(-1).view(np.float32)[: tile.size].reshape(tile.shape)
        np.matmul(source, self._plane[:, start:stop], out=scores)
        return _left(scores.max(axis=1), bound, self.error[index], rows)

    def query_boxes(self, ws, first: int, stop: int) -> tuple:
        """The box stages' per-call operands, built in the call's arena
        ``ws`` at its first box test: the query ``[max(c̃, 0) | min(c̃, 0)
        | 1]`` with ``c̃ = aQ``; per tile and row the bound ``E_box`` on
        how far a box bound may sit under a float64 score
        (:func:`_box_error_terms`); and per row the coarse bound of each
        tile ``first`` to ``stop`` (indices), the largest of the tile's
        coarse boxes' bounds — one GEMM for all of them."""
        screener, augmented = self._screener, self._augmented
        rows, k = len(augmented), screener.projection_dim
        rotated = ws.buffer(_BOX_ROTATED, (rows, k))
        np.matmul(augmented[:, :-1], screener._box_axes_t.T, out=rotated)
        query = ws.buffer(_BOX_QUERY, (rows, 2 * k + 1))
        np.maximum(rotated, 0.0, out=query[:, :k])
        np.minimum(rotated, 0.0, out=query[:, k : 2 * k])
        query[:, -1] = 1.0
        slope, offset = screener._box_error
        error = ws.buffer(_BOX_ERROR, (len(self.error), rows))
        np.multiply.outer(slope, self.row_sums, out=error)
        error += offset[:, None]
        coarse = ws.buffer(_BOX_COARSE, (len(self.error), rows))
        boxes = screener._tile_coarse[first * _COARSE_PER_TILE : stop * _COARSE_PER_TILE]
        scores = ws.buffer(PHASE_SCRATCH, (len(boxes), rows))
        with np.errstate(over="ignore", invalid="ignore"):  # unscreenable tiles' boxes
            np.matmul(boxes, query.T, out=scores)
        scores = scores.reshape(stop - first, _COARSE_PER_TILE, rows)
        np.max(scores, axis=1, out=coarse[first:stop])
        return query, error, coarse

    def coarse_left(self, start: int, bound, boxes: tuple) -> Optional[np.ndarray]:
        """:meth:`float32_left` of every row, proven from the coarse
        bounds :meth:`query_boxes` built (``boxes``) instead: a row is
        proven when its coarse bound of the tile starting at ``start`` is
        at most ``bound − E_box`` rounded down — one compare per row."""
        index = start // TILE_CATEGORIES
        if bound is None or not self.screenable[index]:
            return None
        _, error, coarse = boxes
        return _left(coarse[index], bound, error[index], None)

    def box_left(self, start: int, stop: int, bound, ws, boxes: tuple, rows) -> np.ndarray:
        """:meth:`float32_left` of the ``rows`` :meth:`coarse_left` left,
        proven from the tile's boxes instead: a row is proven when its
        largest box bound — one GEMM of the gathered query rows and the
        tile's boxes, a :data:`BOX_CATEGORIES`-th of its columns — is at
        most ``bound − E_box`` rounded down."""
        query, error, _ = boxes
        if len(rows) < len(query):
            gathered = ws.buffer(_BOX_GATHERED, (len(rows), query.shape[1]))
            query = np.take(query, rows, axis=0, out=gathered, mode="clip")
        tile = self._screener._tile_box[:, start // BOX_CATEGORIES : -(-stop // BOX_CATEGORIES)]
        scores = ws.buffer(PHASE_SCRATCH, (len(query), tile.shape[1]))
        np.matmul(query, tile, out=scores)
        return _left(scores.max(axis=1), bound, error[start // TILE_CATEGORIES], rows)


def _left(top: np.ndarray, bound, error: np.ndarray, rows) -> np.ndarray:
    """The rows of ``rows`` (every row when ``None``) whose ``top`` is not
    at most ``bound − error`` rounded down (``nextafter`` toward −inf):
    every float64 score the bounds cover in any other row is at most
    ``bound``.  ``bound`` (a scalar or one per row) and ``error`` are per
    row of the call, ``top`` per row of ``rows``."""
    limit = np.subtract(bound, error)
    np.nextafter(limit, -np.inf, out=limit)
    if rows is None or len(rows) == len(limit):
        return np.flatnonzero(~(top <= limit))  # a NaN is never proven
    return rows[~(top <= limit[rows])]


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
