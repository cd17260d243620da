"""Process-level memory management for the serving hot path.

Two tools live here:

* :func:`configure_serving_allocator` / :func:`reset_default_allocator`
  — glibc allocator tuning so large freed planes are recycled instead
  of re-faulted (see below);
* :class:`Workspace` — a reusable scratch-buffer arena for the blocked
  streaming engine, so steady-state ``forward_streaming()`` performs
  zero new workspace allocations after warm-up.

Allocator tuning: screened inference materializes a ``(batch, l)``
score plane per batch — 51 MB at ``l = 100K``, ``batch = 64`` in
float64.  glibc's default malloc serves blocks that large through
``mmap`` and returns them to the OS the moment they are freed, so
every batch re-faults (and the kernel re-zeroes) the entire plane
before a single MAC runs.  On the reference machine that page-fault
churn is ~3× the cost of the screening GEMM itself.
:func:`configure_serving_allocator` raises glibc's mmap and trim
thresholds so freed planes stay in the process heap and are recycled
by the next batch.  This is the standard HPC/numerics tuning usually
applied via ``MALLOC_MMAP_MAX_``/``MALLOC_TRIM_THRESHOLD_`` environment
variables; doing it in-process keeps the serving entry point
self-contained.
"""

from __future__ import annotations

import ctypes
import math
from typing import Dict, Tuple

import numpy as np

# glibc mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def configure_serving_allocator(threshold_bytes: int = 1 << 30) -> bool:
    """Keep allocations below ``threshold_bytes`` on the heap across frees.

    Returns ``True`` when the allocator accepted both tunings, ``False``
    on non-glibc platforms (the call is then a no-op — correctness never
    depends on it, only steady-state batch latency).
    """
    if not 0 < threshold_bytes < 2**31:
        raise ValueError(
            f"threshold_bytes must be a positive C int, got {threshold_bytes}"
        )
    try:
        libc = ctypes.CDLL("libc.so.6")
        accepted_mmap = libc.mallopt(_M_MMAP_THRESHOLD, threshold_bytes)
        accepted_trim = libc.mallopt(_M_TRIM_THRESHOLD, threshold_bytes)
    except OSError:
        return False
    return bool(accepted_mmap) and bool(accepted_trim)


#: The key of an arena's phase scratch: one slab the phases of a call take
#: turns in — each screening tile (its box bounds, the columns the entry
#: step gathers and their scores, then its float64 scores), then the exact
#: phase's gathered operands — so a later phase grows nothing an earlier
#: one sized.  A view of it is dead once its phase ends.
PHASE_SCRATCH = "tile"


#: NumPy's ufunc buffer, in elements (read once: ``np.getbufsize()`` is a
#: context lookup on every call).
_UFUNC_BUFFER = np.getbufsize()


def per_row(ufunc, array: np.ndarray, column: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """``ufunc(array, column, out=out)`` for a ``column`` of one value per
    row of the 2-D ``array``, allocating nothing.

    NumPy runs a ufunc whose operand is broadcast (stride 0) along rows
    shorter than its iterator buffer (``np.getbufsize()`` elements)
    through that buffer, 64 KB allocated per call, while ``np.copyto``
    from a broadcast source allocates none.  So on such rows the column
    is spread over ``scratch`` first: all at once when it has
    ``array``'s shape, else (contiguous, at least one row of it) as many
    rows at a time as it holds.
    """
    n = array.shape[1]
    if n >= _UFUNC_BUFFER:
        return ufunc(array, column, out=out)
    if scratch.shape == array.shape:
        np.copyto(scratch, column)
        return ufunc(array, scratch, out=out)
    step = max(1, scratch.size // n)
    flat = scratch.reshape(-1)
    for start in range(0, len(array), step):
        part = slice(start, start + step)
        rows = array[part]
        spread = flat[: rows.size].reshape(rows.shape)
        np.copyto(spread, column[part])
        ufunc(rows, spread, out=out[part])
    return out


class Workspace:
    """A keyed arena of reusable scratch buffers.

    The blocked streaming engine requests every recurring scratch array
    through a workspace instead of allocating fresh: each distinct
    ``(key, dtype)`` pair owns one flat slab that is grown to the
    largest size ever requested and then handed out as shaped views.
    After the first forward pass at a given batch shape (warm-up), no
    request grows a slab, so the steady-state hot path performs zero
    new workspace allocations — asserted in tests via the
    :attr:`allocations` counter.

    Contract
    --------
    * :meth:`buffer` returns an *uninitialized* view — the caller must
      fully overwrite it.  The view is only valid until the next
      :meth:`buffer`/:meth:`growable` call with the same key; callers
      must not hold two live views of one key.
    * :meth:`growable` returns the whole slab (capacity ≥ the request)
      and **preserves existing contents** across growth — it backs
      append-style accumulation where the caller tracks the fill count.
    * Growth never shrinks: slab capacity is the high-water mark of all
      requests, so a workspace's footprint is bounded by the largest
      batch shape it has served.
    * :attr:`allocations` counts slab (re)allocations and
      :attr:`requests` counts served requests; ``allocations`` staying
      flat while ``requests`` climbs is the steady-state guarantee.
    * One arena, one thread: nothing here is locked.
    """

    def __init__(self) -> None:
        self._slabs: Dict[Tuple[object, np.dtype], np.ndarray] = {}
        # Per ``(key, dtype as requested)``: its slab, and the shape and
        # view :meth:`buffer` served last — a repeated request is one dict
        # lookup, with no dtype normalised and no view built.  Emptied
        # whenever a slab is (re)allocated.
        self._served: Dict[Tuple[object, object], list] = {}
        self.allocations = 0
        self.requests = 0

    def _slab(self, key: object, size: int, dtype: np.dtype, preserve: bool) -> np.ndarray:
        slab_key = (key, dtype)
        slab = self._slabs.get(slab_key)
        if slab is None or slab.size < size:
            # Growable slabs double so append-style use amortizes; exact
            # sizing for plain buffers keeps shaped reuse tight.
            capacity = max(size, 2 * slab.size) if (slab is not None and preserve) else size
            grown = np.empty(capacity, dtype=dtype)
            if slab is not None and preserve:
                grown[: slab.size] = slab
            self._slabs[slab_key] = grown
            self._served.clear()
            self.allocations += 1
            slab = grown
        return slab

    def buffer(self, key: object, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized C-contiguous array of ``shape`` under ``key``."""
        self.requests += 1
        served = self._served.get((key, dtype))
        if served is not None:
            if served[1] == shape:
                return served[2]
            size = math.prod(shape)
            if size <= served[0].size:
                served[1:] = shape, served[0][:size].reshape(shape)
                return served[2]
        size = math.prod(shape)
        slab = self._slab(key, size, np.dtype(dtype), preserve=False)
        view = slab[:size].reshape(shape)
        self._served[key, dtype] = [slab, shape, view]
        return view

    def growable(self, key: object, capacity: int, dtype=np.float64) -> np.ndarray:
        """The full slab for ``key``, grown (contents preserved) to at
        least ``capacity`` elements."""
        self.requests += 1
        served = self._served.get((key, dtype))
        if served is not None and served[0].size >= capacity:
            return served[0]
        slab = self._slab(key, int(capacity), np.dtype(dtype), preserve=True)
        self._served[key, dtype] = [slab, None, None]
        return slab

    def release(self) -> None:
        """Drop every slab (footprint goes to zero).

        Serving backends call this from ``close()``.  The counters keep
        their history — a release followed by reuse shows up as new
        ``allocations``, which is exactly what the steady-state
        assertions should see.
        """
        self._slabs.clear()
        self._served.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(slab.nbytes for slab in self._slabs.values())

    def __repr__(self) -> str:
        return (
            f"Workspace(slabs={len(self._slabs)}, nbytes={self.nbytes}, "
            f"allocations={self.allocations}, requests={self.requests})"
        )


def reset_default_allocator() -> bool:
    """Restore glibc's default dynamic thresholds (128 KB starting point).

    Used by benchmarks to time the pre-tuning configuration; glibc
    resumes adjusting the thresholds dynamically from these values.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        accepted_mmap = libc.mallopt(_M_MMAP_THRESHOLD, 128 * 1024)
        accepted_trim = libc.mallopt(_M_TRIM_THRESHOLD, 128 * 1024)
    except OSError:
        return False
    return bool(accepted_mmap) and bool(accepted_trim)
