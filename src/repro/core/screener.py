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
The module holds four arrays: the FP64 master ``weight``, that fused
plane — ``(k + 1)·l·8`` private bytes beside the master — the *boxes*
(``_tile_box``, ``(2k + 1)·⌈l / 8⌉·8`` bytes) and the *coarse boxes*
(``_tile_coarse``, ``(2k + 1)·8·⌈l / 8192⌉·8`` bytes).  All three
derived arrays are placed one canonical tile at a time, each block of
categories transposed into a tile of scratch, quantized from there
straight into its columns of the fused plane, rotated from those into
its boxes and reduced from those into its coarse boxes, so construction
(training, a worker's start or respawn, a load from disk) holds the
arrays and a tile or two per lane, never a plane-sized temporary.  The
fake-quantized ``(l, k)`` view the compiler lowers from (``_weight_deq``,
the same values quantized whole) is derived on demand, not kept as
another copy.

The prescreen (:class:`TilePrescreen`): once a streaming call's reducer
holds a bound — its threshold, or with runner-ups each row's floor — a
row of a tile whose every float64 :meth:`~ScreeningModule.score_tile`
score is at most that bound would record nothing, so the loop may leave
it out.  Set-up takes the principal axes ``Q`` of the head tile's
weights (``eigh`` of their ``k × k`` Gram), rotates every quantized
weight column into them, ``ỹ = Qᵀw``, and keeps per
:data:`BOX_CATEGORIES` contiguous columns each axis's max and min and the
largest bias, and the same per :data:`COARSE_CATEGORIES` columns,
reduced from those.  A call rotates its input, ``c̃ = aQ``; one GEMM of
``[max(c̃, 0) | min(c̃, 0) | 1]`` against boxes bounds every score in
each box from above.  The prescreen runs in passes
(:meth:`TilePrescreen.pass_left`): a pass takes the reducer's bound at
the tile it starts at — a bound for every later tile too, since the
threshold never moves and a floor only rises — and three stages prove
(tile, row) pairs, each on the pairs the one before left, and each
against the one limit ``bound − E_box`` rounded down (:func:`_limit`):

* the coarse boxes: a pair is proven when the row's largest coarse bound
  of the tile is at most its limit — the coarse bounds of every tile
  scored in one GEMM at the call's first pass, and compared with every
  remaining tile's limits at once per pass;
* the boxes: the same test on each of the tile's boxes, one GEMM per
  tile on the rows its coarse bounds left, each row reduced to its
  largest box bound before any mask is built;
* the entries: a pair the boxes leave names the boxes above its limit —
  a median of one of the tile's 1,024 — and only their columns are
  scored, for every pair of the pass in one step, gathered from the
  fused plane against the row's input in float64 and in any order; the
  pair is proven when each score is at most its limit.

A pass covers tiles until the first on which the coarse and box stages
prove no row, that tile included.

``E_box`` (``_box_error_terms``) covers the two rotations' and the box
GEMM's rounding, the float64 tile GEMM's, underflow, and the axes'
departure from orthogonality through ``a·w = (Qᵀa)·(Qᵀw) + aᵀ(I −
QQᵀ)w``.  It is one multiply-add per row and tile, from the tile's
largest ``|w|`` and ``|b|`` (``W``, ``B``) and the row's ``A = Σ|a_j|``.
It covers the coarse boxes unchanged, since a max or min of box extremes
is exact, and the entry step too: a gathered score and the tile GEMM's
are two any-order float64 sums of the same ``k + 1`` products, and
``E_box`` holds at least twice the tile GEMM's rounding term.  A
gathered score never records: its bits are not the tile GEMM's, so a
row the entries leave is scored by the tile GEMM.  A call whose
magnitudes are past :data:`_SCREEN_MAGNITUDE` prescreens no tile, and a
tile past it is never prescreened.

A tile is left out once every row is proven by some stage; else the
float64 GEMM and the fold run on only the rows none proved.  A left-out
row leaves the reducer's record unchanged
(:meth:`~repro.linalg.topk.BlockwiseThreshold.update`), so every output
bit is the full loop's by construction; dense ``forward``, which keeps
the score plane, never leaves a row out.  Where passes start is the
prescreen's rule (:meth:`TilePrescreen.rows_to_score`): tile 1, a tile
after one that recorded nothing, and a tile after a pass's last whose
prescreen proved a row, never tile 0 — on a frequency-ordered label
space, one pass covers every tile past the head.  On such a space the
bias is smooth in the index and W̃ is strongly low-rank, so a tile's
boxes prove most rows and its coarse boxes most of those.  A screener
whose axes cannot bound (non-finite, or off orthogonal by more than
:data:`_BOX_DELTA`) has no boxes and prescreens nothing.

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
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.linalg.projection import SparseRandomProjection
from repro.linalg.quantize import Quantizer
from repro.obs.recorder import NULL_RECORDER
from repro.utils.memory import PHASE_SCRATCH, per_row
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


#: The prescreen's range: a call prescreens a tile only when every row's
#: ``Σ|a_j|`` and the tile's largest weight and bias magnitudes are at most
#: ``_SCREEN_MAGNITUDE`` (NaN never is) — the range the absolute term of
#: ``E_box`` is derived under, far inside float64's.
_SCREEN_MAGNITUDE = 2.0**100


#: Categories per box of the box prescreen (:class:`TilePrescreen`): the
#: width of the contiguous chunks whose per-axis extremes in the screener's
#: principal axes bound a tile's scores, and the columns the entry step
#: scores per box a row fails.  Measured on
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
#: seed 1, 16 calls, 2 lanes, one BLAS thread; rows per call the 8-wide
#: stage runs on — the stage after it ran on the same rows at every width
#: — and the median call over 6 alternating rounds):
#:
#:     width     8-wide rows       per call (ms)
#:     (none)    4,536 / 4,940     28.2 / 25.3
#:     512         752 / 597       24.2 / 18.2
#:     1024        941 / 792       24.0 / 18.8
#:     2048      1,135 / 1,016     24.4 / 19.8
#:     4096      1,345 / 1,275     24.2 / 18.9
#:     8192      1,547 / 1,530     23.6 / 19.5
#:
#: Every width from 512 to 8192 is within the noise of the others; 1024
#: leaves the 8-wide stage 61% of the rows 8192 does, for a coarse level
#: of ``(2k + 1)·8·⌈l / 8192⌉·8`` bytes (173 KB at 670K × 16).
COARSE_CATEGORIES = 1024
_COARSE_PER_TILE = TILE_CATEGORIES // COARSE_CATEGORIES
_BOXES_PER_TILE = TILE_CATEGORIES // BOX_CATEGORIES

#: The largest rigorous ``‖I − QQᵀ‖_F`` bound of principal axes ``Q``
#: that a screener box-tests under; past it no tile is box-tested.
_BOX_DELTA = 2.0**-20


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

    Each coefficient is raised by ``2**-20`` of itself, which covers the
    float64 rounding of the few operations a call spends deriving
    ``E_box`` from them (fewer than ``2**30`` terms).  Axes that are not
    finite, have an entry past 2 in magnitude or whose ``δ`` exceeds
    :data:`_BOX_DELTA` get ``None``.

    ``E_box`` also covers the entry step, which proves a score from the
    same ``k + 1`` products ``a_j f_j`` (``Σ|a_j f_j| ≤ A W + B``) summed
    in float64 in any order: two such sums are within ``2γ_{k+1}(A W +
    B)`` plus ``4(k + 1)η`` of underflow of each other.  Every singular
    value of ``Q`` is at least ``√(1 − δ)``, so both reaches are at least
    ``1 − 2**-20`` and the slope at least ``γ_{k+1} + γ_{2k+1}(1 −
    2**-20) ≥ 2γ_{k+1}``; the offset ``γ_{2k+1} + γ_{k+1}`` is at least
    ``2γ_{k+1}``; and ``(k + 1)**3 · 2**-960`` is at least ``4(k + 1) ·
    2**-1074``.
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
        # Per tile, its largest weight and bias magnitudes (boxed only).
        tops = np.empty((2, len(tiles)))
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
                if self._tile_box is not None:
                    self._place_box_tile(fused, start, stop, tile, tops)

        run_in_lanes(place, tiles, lane_count(k, len(tiles)))
        fused[-1] = self.bias
        self._fused_weight_t = fused
        # Per tile, E_box = Σ|a_j| · slope + offset (TilePrescreen), and
        # whether the tile is in the prescreen's range.
        self._box_error = self._tile_in_range = None
        if box_terms is not None:
            weight_top, bias_top = tops
            slope, offset, absolute = box_terms
            self._box_error = np.stack((slope * weight_top, offset * bias_top + absolute))
            self._tile_in_range = tops.max(axis=0) <= _SCREEN_MAGNITUDE

    def _place_box_tile(self, fused: np.ndarray, start: int, stop: int, scratch, tops) -> None:
        """The largest weight and bias magnitudes of tile ``[start,
        stop)``, read from its columns of the fused plane into ``tops``,
        and its boxes: its quantized weight
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
        for row, values in enumerate((fused[:-1, start:stop], self.bias[start:stop])):
            tops[row, index] = np.maximum(values.max(), -values.min())  # NaN stays NaN
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


#: Workspace keys of the prescreen: per call each row's ``Σ|a_j|`` and the
#: scratch it is summed in, and the boxes' rotated input, query, ``E_box``
#: and coarse bounds, built at the call's first pass; per pass the limit of
#: each *cell* — a (tile, row) pair, at ``(tile − first)·rows + row`` — and
#: whether the pass leaves it, the box query rows a tile's box test gathers
#: and the boxes each row it leaves fails, and the failing boxes held for
#: the entry step (their weights, inputs and scores take the phase scratch).
_SCREEN_ABS, _SCREEN_SUMS = (("screen", name) for name in ("abs", "sums"))
_BOX_ROTATED, _BOX_QUERY, _BOX_ERROR, _BOX_COARSE, _BOX_GATHERED, _BOX_ABOVE = (
    ("box", name) for name in ("rotated", "query", "error", "coarse", "gathered", "above")
)
_CELL_LIMITS, _CELL_LEFT, _HELD_BOXES = ("cell", "limits"), ("cell", "left"), ("held", "boxes")


class PassLeft(NamedTuple):
    """What one pass of :meth:`TilePrescreen.pass_left` left: it covered
    tiles ``first`` to ``stop − 1``, and the rows left of tile ``first + i``
    are ``left[ends[i] : ends[i + 1]]``, ascending.  Beside them, the pairs
    of a tile and a row the box stage and the entry step ran on, and the
    covered tiles the coarse and box stages proved on every row."""

    first: int
    stop: int
    ends: list
    left: np.ndarray
    box_tested: int
    entry_tested: int
    box_skipped: int

    def rows(self, index: int) -> np.ndarray:
        """The rows left of covered tile ``index``."""
        i = index - self.first
        return self.left[self.ends[i] : self.ends[i + 1]]


class TilePrescreen:
    """One streaming call's prescreen of a boxed screener's tiles (module
    docstring) and its rule: which rows of each tile the loop scores,
    given what the last tile scored recorded (:meth:`rows_to_score`).

    Passes (:meth:`pass_left`) start at tile 1, at a tile after one that
    recorded nothing, and at a tile after a pass's last tile whose
    prescreen proved a row — never at tile 0, where the head of a
    frequency-ordered label space sits and top-m has no bound yet.  A pass
    takes the reducer's bound at the tile it starts at; from there the
    coarse bounds of every tile left are compared at once, each covered
    tile's boxes are tested on the rows its coarse bounds left, and the
    columns of the boxes each (tile, row) pair the boxes left fails are
    scored in one entry step for the whole pass, every stage under the one
    limit ``bound − E_box`` rounded down.  A pass covers tiles until the
    first on which the coarse and box stages prove no row, that tile
    included, and is one ``streaming.box_tile`` span.  :attr:`tallies`
    counts, in order, the tiles the passes covered, skipped, and skipped
    before the entry step, and the rows each stage tested — against a
    coarse bound, against the tile's boxes, on their failing boxes'
    columns.

    Built once per call before its first tile; a pass works in scratch of
    the call's arena, sized up front (:meth:`reserve`) for every cell.
    What a pass keeps per tile — the rows it tested, their largest box
    bounds and limits, the cells it leaves, the failing boxes' positions
    (NumPy compacts into no given buffer) — is a NumPy temporary of at most
    ``rows`` entries, or :attr:`pairs`: an arena request costs more than
    the compare it would serve.
    """

    @classmethod
    def for_call(cls, screener: "ScreeningModule", augmented: np.ndarray, ws):
        """The call's prescreen, or ``None`` when ``screener`` has no boxes
        and so prescreens nothing."""
        return None if screener._tile_box is None else cls(screener, augmented, ws)

    def __init__(self, screener: "ScreeningModule", augmented: np.ndarray, ws) -> None:
        rows, width = augmented.shape
        self._screener = screener
        self._augmented = augmented
        magnitudes = ws.buffer(_SCREEN_ABS, (rows, width - 1))
        self.row_sums = ws.buffer(_SCREEN_SUMS, (rows,))
        np.abs(augmented[:, :-1], out=magnitudes)
        np.sum(magnitudes, axis=1, out=self.row_sums)
        #: Whether every row is in the prescreen's range (NaN is not).
        self.in_range = bool(self.row_sums.max(initial=0.0) <= _SCREEN_MAGNITUDE)
        tiles = len(screener._tile_in_range)
        #: Columns per row of the phase scratch the call reserves: a
        #: tile's, or one per coarse box, whichever is more.
        self.scratch = max(
            min(TILE_CATEGORIES, screener.num_categories), tiles * _COARSE_PER_TILE
        )
        # Phase scratch per failing box the entry step scores: the box's
        # columns of the fused plane, the row's input, the scores.
        self._floats = (BOX_CATEGORIES + 1) * width + BOX_CATEGORIES
        #: Failing boxes that fit a row of that scratch, and those that fit
        #: all of it: the most the entry step scores per row of a tile, and
        #: per tile and at once.
        self.share = self.scratch // self._floats
        self.pairs = rows * self.share
        # The box query, E_box and coarse bounds: built at the first pass.
        self._query = self._errors = self._coarse = None
        #: Tiles covered, skipped and box-skipped; rows coarse-, box- and
        #: entry-tested: this call's so far.
        self.tallies = [0] * 6
        # The rule's state: the pass covering the last tile named, and that
        # tile's rows left when a stage proved some.
        self._covering = self._left = None

    def rows_to_score(self, ws, index: int, reducer, recorded: int) -> Optional[np.ndarray]:
        """The rows of canonical tile ``index`` the loop scores in float64
        and folds, ascending: ``None`` for every row, none when the tile is
        skipped.  Tiles are named in order, and ``recorded`` is what the
        last one scored recorded.  A pass starts here, under
        ``reducer.bound``, when none covers the tile and the tile before it
        was tile 0, recorded nothing or had a row proven."""
        covering = self._covering
        if covering is not None and index == covering.stop:
            covering = None
        if covering is None and index and (index == 1 or not recorded or self._left is not None):
            with self._screener.recorder.span("streaming.box_tile"):
                covering = self.pass_left(ws, index, reducer.bound)
            if covering is not None:
                covered, rows = covering.stop - index, len(self._augmented)
                counts = (covered, 0, covering.box_skipped, covered * rows,
                          covering.box_tested, covering.entry_tested)
                self.tallies = [tally + count for tally, count in zip(self.tallies, counts)]
        self._covering = covering
        self._left = None if covering is None else covering.rows(index)
        if self._left is not None and not len(self._left):
            self.tallies[1] += 1
        elif self._left is not None and len(self._left) == len(self._augmented):
            self._left = None
        return self._left

    def reserve(self, ws) -> None:
        """Size the call's scratch in its arena ``ws`` up front, at its
        full row count and for passes over every tile — the boxes' query,
        ``E_box`` and coarse bounds, a pass's cells and held boxes, the
        gathered query rows and failing boxes of a tile, and the phase
        scratch a tile is tested or scored in — so whether, where, how far
        and on how many rows a call prescreens never allocates."""
        rows, width = self._augmented.shape
        tiles = len(self._screener._tile_in_range)
        ws.buffer(_BOX_ROTATED, (rows, width - 1))
        ws.buffer(_BOX_QUERY, (rows, 2 * width - 1))
        ws.buffer(_BOX_ERROR, (tiles, rows))
        ws.buffer(_BOX_COARSE, (tiles, rows))
        self._pass_buffers(ws)

    def _pass_buffers(self, ws) -> tuple:
        """A pass's scratch, the same every pass: per cell of every tile
        its limit and whether the pass leaves it (first, whether its
        coarse bound fails); per failing box held for the entry step its
        cell, its box, its row and its columns; the gathered query rows
        and the failing-box mask of a tile; the phase scratch."""
        rows, width = self._augmented.shape
        cells = len(self._screener._tile_in_range) * rows
        boxes = -(-min(TILE_CATEGORIES, self._screener.num_categories) // BOX_CATEGORIES)
        return (
            ws.buffer(_CELL_LIMITS, (cells,)),
            ws.buffer(_CELL_LEFT, (cells,), bool),
            ws.buffer(_HELD_BOXES, (BOX_CATEGORIES + 3, self.pairs), np.intp),
            ws.buffer(_BOX_GATHERED, (rows, 2 * width - 1)),
            ws.buffer(_BOX_ABOVE, (rows * boxes,), bool),
            ws.buffer(PHASE_SCRATCH, (rows * self.scratch,)),
        )

    def _build_query(self, ws, first: int) -> None:
        """The boxes' per-call operands, built in the call's arena ``ws``
        at its first pass: the query ``[max(c̃, 0) | min(c̃, 0) | 1]`` with
        ``c̃ = aQ``; per tile and row ``E_box``, the bound on how far a box
        bound may sit under a float64 score (:func:`_box_error_terms`); and
        per row the coarse bound of each tile from index ``first`` on, the
        largest of the tile's coarse boxes' bounds — one GEMM for all of
        them."""
        screener, augmented = self._screener, self._augmented
        rows, k = len(augmented), screener.projection_dim
        tiles = len(screener._tile_in_range)
        rotated = ws.buffer(_BOX_ROTATED, (rows, k))
        np.matmul(augmented[:, :-1], screener._box_axes_t.T, out=rotated)
        query = ws.buffer(_BOX_QUERY, (rows, 2 * k + 1))
        np.maximum(rotated, 0.0, out=query[:, :k])
        np.minimum(rotated, 0.0, out=query[:, k : 2 * k])
        query[:, -1] = 1.0
        # E_box: slope · A + offset, per tile × row.
        errors = ws.buffer(_BOX_ERROR, (tiles, rows))
        spread = ws.buffer(PHASE_SCRATCH, (tiles, rows))
        np.copyto(errors, self.row_sums)
        with np.errstate(over="ignore", invalid="ignore"):  # out-of-range tiles
            for terms, combine in zip(screener._box_error, (np.multiply, np.add)):
                per_row(combine, errors, terms[:, None], errors, spread)
        coarse = ws.buffer(_BOX_COARSE, (tiles, rows))
        boxes = screener._tile_coarse[first * _COARSE_PER_TILE :]
        scores = ws.buffer(PHASE_SCRATCH, (len(boxes), rows))
        with np.errstate(over="ignore", invalid="ignore"):  # out-of-range tiles' boxes
            np.matmul(boxes, query.T, out=scores)
        scores = scores.reshape(tiles - first, _COARSE_PER_TILE, rows)
        np.max(scores, axis=1, out=coarse[first:])
        self._query, self._errors, self._coarse = query, errors, coarse

    def pass_left(self, ws, first: int, bound) -> Optional[PassLeft]:
        """One pass from the canonical tile of index ``first`` under
        ``bound`` (a scalar, or one per row: the reducer's at ``first``,
        which bounds every later tile too, since it never falls): the rows
        of each tile it covers not proven to have every float64 score at
        most ``bound``.  ``None`` when tile ``first`` is not prescreened: no
        ``bound`` (``None``), or magnitudes past :data:`_SCREEN_MAGNITUDE`.

        Every cell's limit ``bound − E_box`` rounded down is taken in one
        :func:`_limit`, and every tile's coarse bounds compared to them in
        one operation.  Then tile by tile, each on only the rows its coarse
        bounds left, one GEMM of the gathered query rows and the tile's
        boxes gives each row's box bounds; a row whose largest is at most
        its limit is proven, and for the others the boxes above it are
        collected.  The pass covers tiles until the first on which the
        coarse and box stages prove no row (that tile included), and stops
        before a tile past :data:`_SCREEN_MAGNITUDE`.  Last, the entry step
        scores the collected boxes' columns against their rows' inputs —
        gathered from the fused plane, in float64 and any order — and a
        cell is proven when each score is at most its limit, the same one.
        A tile's failing boxes are all scored when they fit the phase
        scratch (:attr:`pairs`), and else only those of the rows whose own
        fit a row of it (:attr:`share`): the other rows are left.  The
        entry step scores at most :attr:`pairs` boxes at once."""
        in_range = self._screener._tile_in_range
        if bound is None or not (self.in_range and in_range[first]):
            return None
        if self._query is None:
            self._build_query(ws, first)
        rows, tiles = len(self._augmented), len(in_range)
        limits, left, held_boxes, gathered, above, scratch = self._pass_buffers(ws)
        count = (tiles - first) * rows
        limits, left = limits[:count], left[:count]
        with np.errstate(invalid="ignore"):  # out-of-range tiles' errors
            _limit(bound, self._errors[first:], out=limits.reshape(tiles - first, rows))
        # The cells the coarse bounds leave; from here on ``left`` holds
        # the cells the pass leaves.
        np.less_equal(self._coarse[first:].reshape(-1), limits, out=left)
        np.logical_not(left, out=left)
        tested = np.flatnonzero(left)
        ends = np.searchsorted(tested, np.arange(rows, count + 1, rows)).tolist()
        left[:] = False
        entries = (limits, left, held_boxes, scratch)
        held = box_tested = entry_tested = box_skipped = low = 0
        stop = tiles
        for tile in range(first, tiles):
            if tile > first and not in_range[tile]:
                stop = tile
                break
            high = ends[tile - first]
            box_tested += high - low
            cells, fails = self._box_test(tile, tested[low:high], (tile - first) * rows, limits,
                                          gathered, above, scratch)
            low = high
            if not len(cells):
                box_skipped += 1
                continue
            entry_tested += len(cells)
            if np.count_nonzero(fails) > self.pairs:
                for row, boxes in enumerate(fails):
                    if np.count_nonzero(boxes) > self.share:  # left unscored
                        boxes[:] = False
                        left[cells[row]] = True
            held = self._collect(np.flatnonzero(fails), fails.shape[1], cells,
                                 tile * _BOXES_PER_TILE, held, entries)
            if len(cells) == rows:  # the coarse and box stages proved no row
                stop = tile + 1
                break
        if held:
            self._score_entries(held, entries)
        covered = (stop - first) * rows
        cells = np.flatnonzero(left[:covered])
        ends = np.searchsorted(cells, np.arange(0, covered + 1, rows)).tolist()
        return PassLeft(first, stop, ends, cells % rows, box_tested, entry_tested, box_skipped)

    def _box_test(self, tile: int, cells, offset: int, limits, gathered, above, scratch):
        """The box stage of canonical tile ``tile`` on its cells ``cells``
        (``offset`` plus the row) the coarse bounds left: one GEMM of the
        gathered query rows and the tile's boxes, each row reduced to its
        largest box bound, compared with its cell's limit in ``limits``.
        Returns the cells left and, only for those, the mask of the boxes
        above their limit (a view of ``above``)."""
        count = len(cells)
        if not count:
            return cells, None
        rows = cells - offset
        query = self._query
        if count < len(query):
            query = np.take(query, rows, axis=0, out=gathered[:count], mode="clip")
        boxes = self._screener._tile_box[:, tile * _BOXES_PER_TILE : (tile + 1) * _BOXES_PER_TILE]
        width = boxes.shape[1]
        # The box bounds, then the left rows' copy and the scratch their
        # limits are compared through (tested rows at most, each).
        scores = scratch[: 3 * count * width].reshape(3 * count, width)
        np.matmul(query, boxes, out=scores[:count])
        limit = np.take(limits, cells)
        left = np.flatnonzero(~(scores[:count].max(axis=1) <= limit))
        if not len(left):
            return left, None
        kept = scores[count : count + len(left)]
        np.take(scores[:count], left, axis=0, out=kept, mode="clip")
        fails = above[: kept.size].reshape(kept.shape)
        spread = scores[2 * count : 2 * count + len(left)]
        per_row(np.less_equal, kept, limit[left, None], fails, spread)
        np.logical_not(fails, out=fails)
        return cells[left], fails

    def _collect(self, found, width: int, cells, first_box: int, held: int, entries) -> int:
        """Add the failing boxes ``found`` (flat in a tile's mask ``width``
        boxes wide, whose rows are the cells ``cells`` and whose first box
        is ``first_box``) to the ``held`` ones, scoring the held ones first
        whenever :attr:`pairs` are; returns how many are held."""
        boxes = entries[2]
        done = 0
        while done < len(found):
            if held == self.pairs:
                self._score_entries(held, entries)
                held = 0
            take = min(len(found) - done, self.pairs - held)
            into = slice(held, held + take)
            np.divmod(found[done : done + take], width, out=(boxes[0, into], boxes[1, into]))
            np.take(cells, boxes[0, into], out=boxes[0, into])  # buffered: safe in place
            boxes[1, into] += first_box
            held, done = held + take, done + take
        return held

    def _score_entries(self, count: int, entries) -> None:
        """The entry step on the ``count`` held failing boxes: their
        columns are gathered from the fused plane and scored against their
        cells' rows' augmented inputs in the phase scratch, and a cell with
        a score not at most its limit is left."""
        limits, left, boxes, scratch = entries
        screener, rows, width = self._screener, *self._augmented.shape
        cells, indices, owners = boxes[:3, :count]
        columns = boxes[3:].reshape(-1)[: BOX_CATEGORIES * count].reshape(count, BOX_CATEGORIES)
        # Column by column: a broadcast operand costs a NumPy buffer.
        np.multiply(indices, BOX_CATEGORIES, out=columns[:, 0])
        for column in range(1, BOX_CATEGORIES):
            np.add(columns[:, 0], column, out=columns[:, column])
        np.minimum(columns, screener.num_categories - 1, out=columns)  # a narrower last box
        np.remainder(cells, rows, out=owners)
        used = BOX_CATEGORIES * width * count
        weights = scratch[:used].reshape(width, count, BOX_CATEGORIES)
        inputs = scratch[used : used + width * count].reshape(count, 1, width)
        scores = scratch[used + width * count : count * self._floats].reshape(count, BOX_CATEGORIES)
        np.take(screener._fused_weight_t, columns, axis=1, out=weights, mode="clip")
        np.take(self._augmented, owners, axis=0, out=inputs[:, 0], mode="clip")
        np.matmul(inputs, weights.transpose(1, 0, 2), out=scores[:, None])
        unproven = np.flatnonzero(~(scores.max(axis=1) <= np.take(limits, cells)))
        left[np.take(cells, unproven)] = True


def _limit(bound, error: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``bound − error`` per row of the call, rounded down (``nextafter``
    toward −inf), into ``out``: a value within ``error`` of a row's float64
    scores, or above them by at least that, proves them at most ``bound``
    when it is at most this limit.  A NaN limit proves nothing, since no
    compare with it holds.  ``bound`` is a scalar or one per row, the last
    axis of ``error``, spread over ``out`` first (a broadcast operand costs
    a 64 KB NumPy buffer)."""
    np.copyto(out, bound)
    np.subtract(out, error, out=out)
    return np.nextafter(out, -np.inf, out=out)


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
