"""Block-quantized exact-weight store (INT8 / FP16 tiles, optional mmap).

The exact phase is the memory wall at extreme ``l``: the FP64 weight
matrix ``W ∈ R^{l×d}`` alone is ~343 MB at the paper's Wikipedia-670K
operating point and tens of GB at the 100M regime — far past what one
serving host can keep resident per shard.  ELMO (PAPERS.md) shows the
large-output-space layer runs correctly in low precision with careful
peak-memory management; this module is the serving-side analogue for
the *exact* phase:

* weights are held as INT8 codes with one symmetric scale per canonical
  category tile (:data:`~repro.core.screener.TILE_CATEGORIES` rows, the
  same tiles the screening GEMM streams), or as raw float16;
* every access dequantizes into caller-supplied
  :class:`~repro.utils.memory.Workspace` scratch, so steady-state
  serving stays allocation-flat — no dequantized copy of ``W`` ever
  exists;
* the codes can live in a memory-mapped ``.npy`` sidecar
  (:meth:`QuantizedExactStore.load` with ``mmap=True``), so a shard
  larger than RAM pages in on demand and the OS keeps only the hot
  tiles resident.

:class:`QuantizedExactStore` is surface-compatible with
:class:`~repro.core.classifier.FullClassifier` everywhere the serving
pipeline touches the exact weights (``logits`` / ``logits_for`` /
``candidate_scores`` plus the shape properties), so it drops into
:class:`~repro.core.pipeline.ApproximateScreeningClassifier`,
:class:`~repro.distributed.sharding.ShardedClassifier` and the parallel
engine's shared-memory export without touching the screening or
selection stages.  It is *not* a trainer: quantize a trained
``FullClassifier`` with :meth:`from_classifier`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import NORMALIZATIONS, gathered_candidate_scores
from repro.core.screener import TILE_CATEGORIES
from repro.linalg.functional import sigmoid, softmax
from repro.linalg.quantize import TileQuantized, quantize_tiles
from repro.utils.validation import check_batch_features, check_positive

#: Supported storage kinds for the exact weights.
STORE_KINDS = ("int8", "float16")

#: Bit width backing the ``"int8"`` kind.
INT8_BITS = 8


class QuantizedExactStore:
    """Exact classifier weights in block-quantized storage.

    Parameters
    ----------
    codes:
        ``(l, d)`` stored weights — ``int8`` codes for ``kind="int8"``,
        raw ``float16`` for ``kind="float16"``.  May be a shared-memory
        view or a read-only ``np.memmap``; the store never writes it.
    scales:
        Per-tile dequantization scales (``int8`` kind only; ``None``
        for float16).
    bias:
        FP64 bias ``b ∈ R^l`` (small; always resident).
    kind:
        ``"int8"`` or ``"float16"``.
    tile_rows:
        Rows per scale tile; defaults to the canonical
        :data:`~repro.core.screener.TILE_CATEGORIES`.
    normalization:
        ``"softmax"`` or ``"sigmoid"``, as on ``FullClassifier``.
    """

    def __init__(
        self,
        codes: np.ndarray,
        scales: Optional[np.ndarray],
        bias: np.ndarray,
        kind: str = "int8",
        tile_rows: int = TILE_CATEGORIES,
        normalization: str = "softmax",
    ):
        if kind not in STORE_KINDS:
            raise ValueError(
                f"kind must be one of {STORE_KINDS}, got {kind!r}"
            )
        if normalization not in NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {NORMALIZATIONS}, got "
                f"{normalization!r}"
            )
        check_positive("tile_rows", tile_rows)
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D (l, d), got shape {codes.shape}")
        expected = np.int8 if kind == "int8" else np.float16
        if codes.dtype != np.dtype(expected):
            raise ValueError(
                f"{kind} store needs {np.dtype(expected)} codes, got "
                f"{codes.dtype}"
            )
        self.kind = kind
        self.tile_rows = int(tile_rows)
        num_tiles = max(1, -(-codes.shape[0] // self.tile_rows))
        if kind == "int8":
            if scales is None:
                raise ValueError("int8 store needs per-tile scales")
            scales = np.asarray(scales, dtype=np.float64)
            if scales.shape != (num_tiles,):
                raise ValueError(
                    f"expected {num_tiles} tile scales for "
                    f"{codes.shape[0]} rows at tile_rows={self.tile_rows}, "
                    f"got shape {scales.shape}"
                )
            self._tiles: Optional[TileQuantized] = TileQuantized(
                values=codes, scales=scales, bits=INT8_BITS,
                tile_rows=self.tile_rows,
            )
        else:
            if scales is not None:
                raise ValueError("float16 store takes no scales")
            self._tiles = None
        self.codes = codes
        self.scales = scales
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.bias.shape != (codes.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} incompatible with "
                f"l={codes.shape[0]}"
            )
        self.normalization = normalization

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_classifier(
        cls,
        classifier,
        kind: str = "int8",
        tile_rows: int = TILE_CATEGORIES,
    ) -> "QuantizedExactStore":
        """Quantize a trained ``FullClassifier``'s weights into a store."""
        if kind == "int8":
            tiles = quantize_tiles(
                classifier.weight, bits=INT8_BITS, tile_rows=tile_rows
            )
            return cls(
                tiles.values,
                tiles.scales,
                classifier.bias,
                kind="int8",
                tile_rows=tile_rows,
                normalization=classifier.normalization,
            )
        if kind == "float16":
            return cls(
                np.asarray(classifier.weight, dtype=np.float16),
                None,
                classifier.bias,
                kind="float16",
                tile_rows=tile_rows,
                normalization=classifier.normalization,
            )
        raise ValueError(f"kind must be one of {STORE_KINDS}, got {kind!r}")

    # ------------------------------------------------------------------
    # shapes / cost
    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        return self.codes.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.codes.shape[1]

    @property
    def num_tiles(self) -> int:
        return max(1, -(-self.num_categories // self.tile_rows))

    @property
    def nbytes(self) -> int:
        """Resident parameter bytes: codes + scales + FP64 bias."""
        scale_bytes = self.scales.nbytes if self.scales is not None else 0
        return self.codes.nbytes + scale_bytes + self.bias.nbytes

    def tile_bounds(self):
        """Canonical ``[start, stop)`` row tiles (scale granularity)."""
        l = self.num_categories
        return [
            (start, min(start + self.tile_rows, l))
            for start in range(0, l, self.tile_rows)
        ]

    # ------------------------------------------------------------------
    # dequantization primitives
    # ------------------------------------------------------------------
    def dequantize_tile(
        self, start: int, stop: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """FP64 weight rows ``[start, stop)`` of one canonical tile."""
        if self._tiles is not None:
            return self._tiles.dequantize_tile(start, stop, out=out)
        if out is None:
            out = np.empty((stop - start, self.hidden_dim), dtype=np.float64)
        np.copyto(out, self.codes[start:stop])
        return out

    def gather_rows(
        self,
        indices: np.ndarray,
        out: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Dequantized FP64 weight rows for arbitrary category indices.

        ``out`` (and ``scratch``, of its shape, for the codes and the row
        scales) lets the exact phase reuse workspace scratch; rows keep their tile's
        scale, so the result is bit-identical to gathering from
        :meth:`dequantize_tile` outputs.
        """
        if self._tiles is not None:
            return self._tiles.dequantize_rows(indices, out=out, scratch=scratch)
        index_array = np.asarray(indices, dtype=np.intp)
        if out is None:
            out = np.empty((index_array.size, self.hidden_dim), dtype=np.float64)
        np.copyto(out, self.codes[index_array])
        return out

    def _scratch(self, workspace, key: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Workspace-backed (or fresh, without one) FP64 scratch.

        Uses the growable slab so a fluctuating candidate count under
        the threshold selector amortizes growth instead of reallocating
        on every high-water request — the allocation-flat steady state
        the streaming engine asserts.
        """
        if workspace is None:
            return np.empty(shape, dtype=np.float64)
        size = int(np.prod(shape, dtype=np.int64))
        return workspace.growable(key, size, np.float64)[:size].reshape(shape)

    # ------------------------------------------------------------------
    # FullClassifier-compatible serving surface
    # ------------------------------------------------------------------
    def logits(self, features: np.ndarray, workspace=None) -> np.ndarray:
        """Exact scores ``W h + b``, streamed one weight tile at a time.

        Only one dequantized tile exists at any moment (workspace
        scratch when provided), so peak memory stays
        ``O(tile_rows × d)`` regardless of ``l``.
        """
        batch = check_batch_features(features, self.hidden_dim)
        scores = np.empty((batch.shape[0], self.num_categories), dtype=np.float64)
        for start, stop in self.tile_bounds():
            tile = self._scratch(
                workspace, "exact_store.tile", (stop - start, self.hidden_dim)
            )
            self.dequantize_tile(start, stop, out=tile)
            np.matmul(batch, tile.T, out=scores[:, start:stop])
        scores += self.bias
        return scores

    def logits_for(
        self,
        indices: Sequence[int],
        features: np.ndarray,
        workspace=None,
    ) -> np.ndarray:
        """Exact scores for selected categories only (gathered form)."""
        batch = check_batch_features(features, self.hidden_dim)
        index_array = np.asarray(indices, dtype=np.intp)
        if index_array.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {index_array.shape}")
        shape = (index_array.size, self.hidden_dim)
        rows = self._scratch(workspace, "exact_store.gather", shape)
        scales = self._scratch(workspace, "exact_store.scales", shape)
        self.gather_rows(index_array, out=rows, scratch=scales)
        return batch @ rows.T + self.bias[index_array]

    def candidate_scores(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        batch: np.ndarray,
        workspace=None,
    ) -> np.ndarray:
        """Per-candidate exact scores (flat gather form): one dot
        product per ``(row, col)`` pair, dequantized a chunk of
        candidates at a time into ``workspace`` scratch
        (:func:`~repro.core.classifier.gathered_candidate_scores`)."""
        return gathered_candidate_scores(self, rows, cols, batch, workspace)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Normalized output probabilities (FullClassifier surface)."""
        scores = self.logits(features)
        if self.normalization == "softmax":
            return softmax(scores, axis=-1)
        return sigmoid(scores)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(features), axis=-1)

    # ------------------------------------------------------------------
    # (de)construction — shared-memory wire format
    # ------------------------------------------------------------------
    def export_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Raw parameter arrays + plain-data metadata (shm wire format).

        The codes array ships at its stored width, so a quantized
        shard's shared segment is ~4-8x smaller than the FP64 export —
        cheaper to create and cheaper to respawn workers against.
        """
        arrays = {"weight_codes": self.codes, "bias": self.bias}
        if self.scales is not None:
            arrays["weight_scales"] = self.scales
        meta = {
            "exact_store": self.kind,
            "exact_store_tile_rows": self.tile_rows,
            "normalization": self.normalization,
        }
        return arrays, meta

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "QuantizedExactStore":
        """Rebuild a store from :meth:`export_arrays` output (zero-copy
        for shared-memory views)."""
        kind = str(meta["exact_store"])
        return cls(
            arrays["weight_codes"],
            arrays.get("weight_scales") if kind == "int8" else None,
            arrays["bias"],
            kind=kind,
            tile_rows=int(meta["exact_store_tile_rows"]),  # type: ignore[arg-type]
            normalization=str(meta["normalization"]),
        )

    def __repr__(self) -> str:
        return (
            f"QuantizedExactStore(l={self.num_categories}, "
            f"d={self.hidden_dim}, kind={self.kind!r}, "
            f"tiles={self.num_tiles}, nbytes={self.nbytes})"
        )
