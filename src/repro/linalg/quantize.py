"""Symmetric fixed-point quantization.

The ENMC Screener runs at INT4 (Section 5.2); the paper's Fig. 12(b)
sweeps quantization levels of the screening module.  We implement a
per-tensor / per-row symmetric linear quantizer:

    q = clip(round(x / scale), -2^(b-1), 2^(b-1) - 1)
    x̂ = q * scale

with ``scale`` chosen from the maximum absolute value, which matches
the straightforward post-training quantization the paper describes
("Both the input features and the screening parameters are further
quantized at inference time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.memory import per_row
from repro.utils.validation import check_positive

#: Bit-widths accepted by the hardware model (INT2 appears only in the
#: Fig. 12(b) sensitivity sweep; the shipped Screener uses INT4).
SUPPORTED_BITS = (2, 3, 4, 6, 8, 16)


def _qrange(bits: int) -> tuple:
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported bit width {bits}; expected one of {SUPPORTED_BITS}")
    qmax = 2 ** (bits - 1) - 1
    qmin = -(2 ** (bits - 1))
    return qmin, qmax


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor plus the scale(s) required to dequantize it.

    ``scale`` is either a scalar (per-tensor) or an array broadcastable
    against ``values`` along the quantization axis (per-row).
    """

    values: np.ndarray
    scale: np.ndarray
    bits: int

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def nbytes(self) -> float:
        """Storage cost in bytes at the nominal bit width (fractional for sub-byte)."""
        return self.values.size * self.bits / 8.0

    def dequantize(self) -> np.ndarray:
        """Reconstruct the floating-point approximation."""
        return self.values.astype(np.float64) * self.scale


@dataclass(frozen=True)
class TileQuantized:
    """Integer codes with one symmetric scale per row tile.

    The tile axis is axis 0 (the category axis of an ``(l, d)`` weight
    matrix): rows ``[t * tile_rows, (t+1) * tile_rows)`` share scale
    ``scales[t]``.  This is the layout the block-quantized exact-weight
    store uses — the streaming exact phase walks the same canonical
    category tiles as the screening GEMM, so one scale load dequantizes
    a whole tile.
    """

    values: np.ndarray
    scales: np.ndarray
    bits: int
    tile_rows: int

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def num_tiles(self) -> int:
        return self.scales.shape[0]

    @property
    def nbytes(self) -> int:
        """Actual storage bytes (codes at their container width + scales)."""
        return self.values.nbytes + self.scales.nbytes

    def row_scales(self, indices: np.ndarray) -> np.ndarray:
        """The per-row dequantization scale for arbitrary row indices."""
        return self.scales[np.asarray(indices, dtype=np.intp) // self.tile_rows]

    def dequantize_rows(
        self,
        indices: np.ndarray,
        out: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gathered rows reconstructed in float64.

        ``out`` (shape ``(len(indices), d)``) lets callers reuse
        workspace scratch so the gather stays allocation-flat, and
        ``scratch`` (float64, of the same shape; fresh when ``None``)
        takes the gathered codes, then the row scales spread out, so
        neither the gather copies nor the multiply broadcasts.
        """
        index_array = np.asarray(indices, dtype=np.intp)
        if out is None:
            out = np.empty((index_array.size, self.values.shape[1]))
        if scratch is None:
            scratch = np.empty(out.shape)
        size = len(self.values)
        if index_array.size and not -size <= index_array.min() <= index_array.max() < size:
            raise IndexError(f"index out of bounds for axis of size {size}")
        codes = scratch.reshape(-1).view(self.values.dtype)[: out.size].reshape(out.shape)
        np.take(self.values, index_array, axis=0, out=codes, mode="wrap")
        np.copyto(out, codes, casting="unsafe")
        return per_row(np.multiply, out, self.row_scales(index_array)[:, None], out, scratch)

    def dequantize_tile(
        self, start: int, stop: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One row tile ``[start, stop)`` reconstructed in float64.

        ``[start, stop)`` must lie inside a single tile (the canonical
        traversal always passes tile-aligned bounds).
        """
        tile = start // self.tile_rows
        if stop > min((tile + 1) * self.tile_rows, self.values.shape[0]):
            raise ValueError(
                f"rows [{start}, {stop}) cross a {self.tile_rows}-row tile "
                "boundary"
            )
        if out is None:
            out = np.empty((stop - start, self.values.shape[1]))
        np.copyto(out, self.values[start:stop], casting="unsafe")
        out *= self.scales[tile]
        return out

    def dequantize(self) -> np.ndarray:
        """The full reconstructed matrix (tests / small stores only)."""
        out = np.empty(self.values.shape)
        for tile in range(self.num_tiles):
            start = tile * self.tile_rows
            stop = min(start + self.tile_rows, self.values.shape[0])
            self.dequantize_tile(start, stop, out=out[start:stop])
        return out


def quantize_tiles(
    tensor: np.ndarray,
    bits: int = 8,
    tile_rows: int = 8192,
) -> TileQuantized:
    """Quantize a 2-D tensor symmetrically with one scale per row tile.

    Each block of ``tile_rows`` consecutive rows gets its own max-abs
    symmetric scale; an all-zero tile quantizes to zero codes with the
    neutral scale ``1.0`` (so dequantization is exact).  Codes land in
    ``int8`` for ``bits <= 8`` and ``int16`` above, clipped to
    ``[qmin, qmax]`` — at the boundary, the most negative representable
    code is ``-qmax`` (max-abs scaling never reaches ``qmin``).
    """
    array = np.asarray(tensor, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"quantize_tiles needs a 2-D tensor, got {array.shape}")
    check_positive("tile_rows", tile_rows)
    qmin, qmax = _qrange(bits)
    rows = array.shape[0]
    num_tiles = max(1, -(-rows // tile_rows))
    scales = np.empty(num_tiles, dtype=np.float64)
    dtype = np.int8 if bits <= 8 else np.int16
    codes = np.empty(array.shape, dtype=dtype)
    for tile in range(num_tiles):
        start = tile * tile_rows
        stop = min(start + tile_rows, rows)
        block = array[start:stop]
        max_abs = float(np.max(np.abs(block))) if block.size else 0.0
        # Neutral scale for all-zero tiles, and for subnormal tiles
        # whose max_abs / qmax underflows to 0.0 (a zero scale would
        # turn dequantization into divide-by-zero).
        scale = max_abs / qmax
        if not scale > 0:
            scale = 1.0
        scales[tile] = scale
        np.clip(np.round(block / scale), qmin, qmax, out=codes[start:stop], casting="unsafe")
    return TileQuantized(values=codes, scales=scales, bits=bits, tile_rows=int(tile_rows))


def quantize_symmetric(
    tensor: np.ndarray,
    bits: int = 4,
    axis: Optional[int] = None,
) -> QuantizedTensor:
    """Quantize ``tensor`` symmetrically to ``bits`` bits.

    ``axis=None`` uses one scale for the whole tensor; an integer axis
    computes one scale per slice along that axis (e.g. ``axis=1`` on an
    ``(l, k)`` weight matrix gives per-output-row scales, which is what
    a per-row MAC pipeline naturally supports).
    """
    array = np.asarray(tensor, dtype=np.float64)
    qmin, qmax = _qrange(bits)
    scale = _symmetric_scale(array, qmax, axis)
    q = np.clip(np.round(array / scale), qmin, qmax)
    dtype = np.int8 if bits <= 8 else np.int16
    return QuantizedTensor(values=q.astype(dtype), scale=np.asarray(scale), bits=bits)


def dequantize(quantized: QuantizedTensor) -> np.ndarray:
    """Module-level alias of :meth:`QuantizedTensor.dequantize`."""
    return quantized.dequantize()


def quantization_error(tensor: np.ndarray, bits: int, axis: Optional[int] = None) -> float:
    """Root-mean-square reconstruction error of quantizing ``tensor``."""
    array = np.asarray(tensor, dtype=np.float64)
    if array.size == 0:
        return 0.0
    reconstructed = quantize_symmetric(array, bits=bits, axis=axis).dequantize()
    return float(np.sqrt(np.mean((array - reconstructed) ** 2)))


def _symmetric_scale(
    array: np.ndarray, qmax: int, axis: Optional[int]
) -> np.ndarray:
    """The max-abs symmetric scale, per tensor or per slice of ``axis``.

    The neutral scale ``1.0`` stands in wherever ``max_abs / qmax`` is
    not a positive number — all-zero slices, and slices of subnormal
    magnitude whose quotient underflows to ``0.0`` (dividing by it
    would produce inf/nan codes); such values quantize to zero codes.
    """
    if axis is None:
        max_abs = np.max(np.abs(array)) if array.size else 0.0
        scale = max_abs / qmax
        return np.asarray(scale if scale > 0 else 1.0)
    reduce_axes = tuple(i for i in range(array.ndim) if i != axis % array.ndim)
    max_abs = np.max(np.abs(array), axis=reduce_axes, keepdims=True)
    scale = max_abs / qmax
    return np.where(scale > 0, scale, 1.0)


class Quantizer:
    """A reusable quantization policy (bit width + axis).

    Hardware units hold a ``Quantizer`` describing their datapath; the
    algorithm-level pipeline uses it to emulate fixed-point inference.
    The bit range is resolved once at construction so per-call overhead
    stays off the inference hot path.
    """

    def __init__(self, bits: int = 4, axis: Optional[int] = None):
        check_positive("bits", bits)
        self.qmin, self.qmax = _qrange(bits)
        self.bits = bits
        self.axis = axis

    def __call__(self, tensor: np.ndarray) -> QuantizedTensor:
        return quantize_symmetric(tensor, bits=self.bits, axis=self.axis)

    def fake_quantize(
        self, tensor: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Quantize then immediately dequantize (simulated fixed point).

        This stays in the float domain — ``clip(round(x/s)) * s`` —
        producing values bit-identical to an int round-trip without
        materializing the integer tensor, which matters on the per-call
        inference path.  Every step works in ``out`` (float64, same shape;
        may be ``tensor`` itself), which carries the codes and then the
        result, so the call allocates nothing the size of the tensor but
        ``|x|``.
        """
        array = np.asarray(tensor, dtype=np.float64)
        scale = _symmetric_scale(array, self.qmax, self.axis)
        if out is None:
            out = np.empty(array.shape)
        np.divide(array, scale, out=out)
        np.rint(out, out=out)  # np.round at zero decimals, minus its wrapper
        np.clip(out, self.qmin, self.qmax, out=out)
        return np.multiply(out, scale, out=out)

    def __repr__(self) -> str:
        return f"Quantizer(bits={self.bits}, axis={self.axis})"
