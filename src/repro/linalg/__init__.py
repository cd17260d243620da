"""Numerical building blocks shared by the algorithm and hardware models:
quantizers, projections, activations, optimizers and candidate selection
(dense top-k / threshold primitives and one streaming reducer,
:class:`BlockwiseThreshold`, for both selection modes)."""

from repro.linalg.quantize import (
    QuantizedTensor,
    Quantizer,
    TileQuantized,
    dequantize,
    quantize_symmetric,
    quantize_tiles,
)
from repro.linalg.projection import SparseRandomProjection, gaussian_projection
from repro.linalg.functional import (
    log_softmax,
    sigmoid,
    softmax,
    taylor_exp,
    taylor_softmax,
)
from repro.linalg.sgd import SGD, Adam
from repro.linalg.topk import (
    BlockwiseThreshold,
    select_above_threshold,
    stable_top_m_indices,
    top_k_indices,
)

__all__ = [
    "Quantizer",
    "QuantizedTensor",
    "TileQuantized",
    "quantize_symmetric",
    "quantize_tiles",
    "dequantize",
    "SparseRandomProjection",
    "gaussian_projection",
    "softmax",
    "log_softmax",
    "sigmoid",
    "taylor_exp",
    "taylor_softmax",
    "SGD",
    "Adam",
    "top_k_indices",
    "select_above_threshold",
    "stable_top_m_indices",
    "BlockwiseThreshold",
]
