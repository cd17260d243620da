"""Save/load trained screening modules and classifiers (.npz).

The screener is the artifact a deployment ships (the paper's workflow
trains it offline, then loads it into ENMC status registers and DRAM);
round-tripping it exactly matters because the INT4 grid is derived from
the stored weights.

Format history
--------------
* **version 1** — ``screener`` and ``classifier`` kinds.
* **version 2** — the ``quantized_classifier`` kind serializes a
  :class:`~repro.core.weightstore.QuantizedExactStore`.  Its codes live
  in a raw ``<stem>.codes.npy`` sidecar next to the ``.npz`` (scales /
  bias / metadata), because a zip member cannot be memory-mapped —
  :func:`load_quantized_store` with ``mmap=True`` maps the sidecar
  read-only so a shard larger than RAM pages in on demand.  Screener
  files of earlier builds also carry a ``compute_dtype`` (float32 or
  float64); the screener computes in float64 only, so that key is no
  longer written and is ignored on load — files of either version, from
  any build, load.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.core.classifier import FullClassifier
from repro.core.screener import ScreeningModule
from repro.core.weightstore import QuantizedExactStore
from repro.linalg.projection import SparseRandomProjection

PathLike = Union[str, "os.PathLike[str]"]

_FORMAT_VERSION = 2


def save_screener(path: PathLike, screener: ScreeningModule) -> None:
    """Serialize a screening module to a compressed .npz file."""
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        kind=np.str_("screener"),
        weight=screener.weight,
        bias=screener.bias,
        projection_ternary=screener.projection.ternary,
        projection_density=np.float64(screener.projection.density),
        quantization_bits=np.int64(
            -1 if screener.quantization_bits is None else screener.quantization_bits
        ),
    )


def load_screener(path: PathLike) -> ScreeningModule:
    """Load a screening module saved by :func:`save_screener` (the
    ``compute_dtype`` key of earlier builds' files is ignored)."""
    with np.load(path, allow_pickle=False) as data:
        _check_format(data, "screener", path)
        projection = SparseRandomProjection.from_ternary(
            data["projection_ternary"], float(data["projection_density"])
        )
        bits = int(data["quantization_bits"])
        return ScreeningModule(
            projection,
            data["weight"],
            data["bias"],
            quantization_bits=None if bits < 0 else bits,
        )


def save_classifier(path: PathLike, classifier: FullClassifier) -> None:
    """Serialize a full classifier to a compressed .npz file."""
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        kind=np.str_("classifier"),
        weight=classifier.weight,
        bias=classifier.bias,
        normalization=np.str_(classifier.normalization),
    )


def load_classifier(path: PathLike) -> FullClassifier:
    """Load a classifier saved by :func:`save_classifier`."""
    with np.load(path, allow_pickle=False) as data:
        _check_format(data, "classifier", path)
        return FullClassifier(
            data["weight"],
            data["bias"],
            normalization=str(data["normalization"]),
        )


def _quantized_paths(path: PathLike) -> tuple:
    """``(npz_path, codes_sidecar_path)`` for a quantized-store artifact.

    ``np.savez`` appends ``.npz`` when missing, so the canonical form is
    resolved here once and shared by save and load.
    """
    base = os.fspath(path)
    if not base.endswith(".npz"):
        base += ".npz"
    return base, base[: -len(".npz")] + ".codes.npy"


def save_quantized_store(path: PathLike, store: QuantizedExactStore) -> None:
    """Serialize a block-quantized exact-weight store.

    Writes two files: ``<stem>.npz`` with the small arrays (per-tile
    scales, FP64 bias) and metadata, and ``<stem>.codes.npy`` holding
    the INT8/FP16 codes as a raw ``.npy`` — raw so
    :func:`load_quantized_store` can memory-map it (zip members cannot
    be mapped).
    """
    npz_path, codes_path = _quantized_paths(path)
    np.savez_compressed(
        npz_path,
        format_version=np.int64(_FORMAT_VERSION),
        kind=np.str_("quantized_classifier"),
        store_kind=np.str_(store.kind),
        tile_rows=np.int64(store.tile_rows),
        scales=(
            store.scales
            if store.scales is not None
            else np.empty(0, dtype=np.float64)
        ),
        bias=store.bias,
        normalization=np.str_(store.normalization),
        codes_shape=np.asarray(store.codes.shape, dtype=np.int64),
        codes_dtype=np.str_(store.codes.dtype.name),
    )
    np.save(codes_path, store.codes)


def load_quantized_store(
    path: PathLike, mmap: bool = False
) -> QuantizedExactStore:
    """Load a store saved by :func:`save_quantized_store`.

    ``mmap=True`` maps the codes sidecar read-only instead of reading
    it into memory: accesses page in on demand and the OS keeps only
    the hot tiles resident, so a shard's codes may exceed RAM.  Scores
    are bit-identical either way — the mapping serves the same bytes.
    """
    npz_path, codes_path = _quantized_paths(path)
    with np.load(npz_path, allow_pickle=False) as data:
        _check_format(data, "quantized_classifier", npz_path)
        store_kind = str(data["store_kind"])
        scales = data["scales"] if store_kind == "int8" else None
        bias = data["bias"]
        tile_rows = int(data["tile_rows"])
        normalization = str(data["normalization"])
        codes_shape = tuple(int(n) for n in data["codes_shape"])
        codes_dtype = np.dtype(str(data["codes_dtype"]))
    codes = np.load(codes_path, mmap_mode="r" if mmap else None)
    if codes.shape != codes_shape or codes.dtype != codes_dtype:
        raise ValueError(
            f"{codes_path!s} holds {codes.dtype} array of shape "
            f"{codes.shape}; the artifact metadata expects {codes_dtype} "
            f"{codes_shape} (sidecar does not match its .npz)"
        )
    return QuantizedExactStore(
        codes,
        scales,
        bias,
        kind=store_kind,
        tile_rows=tile_rows,
        normalization=normalization,
    )


def _check_format(data, expected_kind: str, path: PathLike) -> None:
    if "format_version" not in data or "kind" not in data:
        raise ValueError(f"{path!s} is not a repro-enmc artifact")
    version = int(data["format_version"])
    if version > _FORMAT_VERSION:
        raise ValueError(
            f"{path!s} uses format version {version}; this build reads "
            f"<= {_FORMAT_VERSION}"
        )
    kind = str(data["kind"])
    if kind != expected_kind:
        raise ValueError(f"{path!s} holds a {kind!r}, expected {expected_kind!r}")
