"""Save/load trained screening modules and classifiers (.npz).

The screener is the artifact a deployment ships (the paper's workflow
trains it offline, then loads it into ENMC status registers and DRAM);
round-tripping it exactly matters because the INT4 grid is derived from
the stored weights.  Every save writes a temporary file beside its target
and moves it into place with ``os.replace``, so a reader, or a store
memory-mapped from the previous file, never sees a file half written.
A two-file artifact has one commit point, the move of its ``.npz``.

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
* **version 3** — each save writes its codes to a sidecar of its own,
  ``<stem>.<save id>.codes.npy``, and the ``.npz`` records that name
  (``codes_file``).  Before, a save moved the new ``<stem>.codes.npy``
  into place and then the new ``.npz``; a process that died between the
  two moves left new codes beside the old scales, a pair the loader
  accepted whenever shape and dtype agreed.  Version-2 pairs still load.
"""

from __future__ import annotations

import os
import uuid
import zipfile
from typing import Callable, Optional, Union

import numpy as np

from repro.core.classifier import FullClassifier
from repro.core.screener import ScreeningModule
from repro.core.weightstore import QuantizedExactStore
from repro.linalg.projection import SparseRandomProjection

PathLike = Union[str, "os.PathLike[str]"]

_FORMAT_VERSION = 3


def _npz_path(path: PathLike) -> str:
    """``path`` as ``np.savez`` names it: ``.npz`` appended when missing."""
    base = os.fspath(path)
    return base if base.endswith(".npz") else base + ".npz"


def _write_new(path: str, write: Callable) -> str:
    """Call ``write(file)`` on a file created at ``path`` (which must not
    exist) and return ``path``; the file is removed if ``write`` raises."""
    try:
        with open(path, "xb") as handle:
            write(handle)
    except BaseException:
        if os.path.exists(path):
            os.unlink(path)
        raise
    return path


def _write_beside(path: str, write: Callable) -> str:
    """:func:`_write_new` on a new temporary name in ``path``'s directory.
    Publishing it with ``os.replace`` is then atomic: a reader sees the
    old file or the new one, and a live memory map of the old one keeps
    its bytes (its inode outlives the name)."""
    return _write_new(f"{path}.{uuid.uuid4().hex}.tmp", write)


def _save_npz(path: PathLike, **arrays) -> None:
    """``np.savez_compressed`` to ``path``, published atomically."""
    target = _npz_path(path)
    os.replace(
        _write_beside(target, lambda handle: np.savez_compressed(handle, **arrays)), target
    )


def save_screener(path: PathLike, screener: ScreeningModule) -> None:
    """Serialize a screening module to a compressed .npz file."""
    _save_npz(
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
    _save_npz(
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


def _sidecar(npz_path: str, data) -> str:
    """The codes sidecar the quantized-store ``.npz`` at ``npz_path``
    (open as ``data``) names: its ``codes_file``, or for a version-2 file
    ``<stem>.codes.npy``."""
    if "codes_file" not in data:
        return npz_path[: -len(".npz")] + ".codes.npy"
    name = str(data["codes_file"])
    if os.path.basename(name) != name or name in ("", ".", ".."):
        raise ValueError(f"{npz_path!s} names {name!r}, not a file beside it")
    return os.path.join(os.path.dirname(npz_path), name)


def _live_sidecar(npz_path: str) -> Optional[str]:
    """The sidecar of the quantized store saved at ``npz_path`` now, or
    ``None`` when no readable quantized store is there."""
    try:
        with np.load(npz_path, allow_pickle=False) as data:
            if str(data["kind"]) == "quantized_classifier":
                return _sidecar(npz_path, data)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        pass
    return None


def save_quantized_store(path: PathLike, store: QuantizedExactStore) -> None:
    """Serialize a block-quantized exact-weight store.

    Writes two files: ``<stem>.npz`` with the small arrays (per-tile
    scales, FP64 bias) and metadata, and ``<stem>.<save id>.codes.npy``
    holding the INT8/FP16 codes as a raw ``.npy`` — raw so
    :func:`load_quantized_store` can memory-map it (zip members cannot
    be mapped).  The ``.npz`` records the sidecar's name.

    The sidecar is new to this save, and the ``.npz`` is written under a
    temporary name and moved into place last: that move is the commit
    point.  A save that fails or dies before it leaves the previous pair
    as it was (a save that raises also removes what it wrote), and only
    after it is the previous sidecar unlinked — a store memory-mapped
    from it keeps scoring its bytes, since the map holds the inode.
    """
    npz_path = _npz_path(path)
    previous = _live_sidecar(npz_path)
    codes_path = f"{npz_path[: -len('.npz')]}.{uuid.uuid4().hex}.codes.npy"
    _write_new(codes_path, lambda handle: np.save(handle, store.codes))
    try:
        meta = _write_beside(
            npz_path,
            lambda handle: _write_store_meta(handle, store, os.path.basename(codes_path)),
        )
        try:
            os.replace(meta, npz_path)
        except BaseException:
            os.unlink(meta)
            raise
    except BaseException:
        os.unlink(codes_path)
        raise
    if previous is not None and os.path.exists(previous):
        os.unlink(previous)


def _write_store_meta(handle, store: QuantizedExactStore, codes_file: str) -> None:
    """The ``.npz`` half of :func:`save_quantized_store`, naming the
    sidecar ``codes_file`` beside it."""
    np.savez_compressed(
        handle,
        codes_file=np.str_(codes_file),
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


def load_quantized_store(
    path: PathLike, mmap: bool = False
) -> QuantizedExactStore:
    """Load a store saved by :func:`save_quantized_store`.

    ``mmap=True`` maps the codes sidecar read-only instead of reading
    it into memory: accesses page in on demand and the OS keeps only
    the hot tiles resident, so a shard's codes may exceed RAM.  Scores
    are bit-identical either way — the mapping serves the same bytes.
    """
    npz_path = _npz_path(path)
    with np.load(npz_path, allow_pickle=False) as data:
        _check_format(data, "quantized_classifier", npz_path)
        codes_path = _sidecar(npz_path, data)
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
