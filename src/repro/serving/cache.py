"""Bounded LRU result cache keyed on the INT4-quantized hidden vector.

Production extreme-classification traffic repeats itself: a Zipfian
query mix re-submits the hot pool's embeddings over and over, and a
deterministic front-end model re-embeds identical inputs to identical
vectors.  The screening pipeline already quantizes everything it
touches to INT4 (:mod:`repro.linalg.quantize`), which hands the cache a
canonical, compact key for free: the symmetric INT4 code array of the
hidden vector plus its scale.  Two queries share a key exactly when
they quantize identically — byte-identical repeats always do, and
near-duplicates within quantization noise of a cached query do whenever
the perturbation neither moves any coordinate across a code boundary
nor changes the max-abs coordinate (which fixes the scale).

Soundness
---------
A shared key does **not** imply identical pipeline outputs: the exact
phase consumes the *raw* float vector, so two byte-different vectors
with equal INT4 codes generally score differently.  The cache is
therefore honest by default (``verify=True``): each entry stores the
original float row, and a key hit only counts as a cache hit when the
incoming row is ``np.array_equal`` to the stored one.  A key hit that
fails verification is counted in ``collisions`` and served as a miss —
so cache-on serving is **bit-identical** to cache-off serving
unconditionally (property-tested in ``tests/test_result_cache.py``).
``verify=False`` opts into approximate serving: any key hit returns the
cached reply, trading bounded quantization error for hit rate; outputs
are then only guaranteed identical for byte-identical repeats.

Thread-safety: all operations take one lock, so the cache may sit in
front of any number of submitter threads (the front door calls ``get``
from callers' threads and ``put`` from the batcher thread).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.linalg.quantize import _qrange
from repro.obs.recorder import NULL_RECORDER
from repro.utils.validation import check_positive

__all__ = ["ResultCache", "quantized_key"]


def quantized_key(row: np.ndarray, bits: int = 4) -> Tuple[bytes, float, int]:
    """The canonical quantized key of one feature row.

    Symmetric max-abs quantization, exactly as
    :func:`repro.linalg.quantize.quantize_symmetric` computes it for a
    1-D tensor: ``scale = max|x| / qmax``, ``codes = clip(round(x /
    scale))``.  The key is ``(codes bytes, scale, length)`` — the scale
    is part of the key because the INT4 representation *is* (codes,
    scale); dropping it would alias every pair of proportional vectors
    (``x`` and ``2x`` share codes) onto one entry.

    Non-finite rows have no quantized representation: a NaN coordinate
    makes ``max_abs`` NaN (which fails the ``> 0`` check, silently
    selecting ``scale = 1.0``) and ``np.round(nan).astype(np.int8)``
    is undefined behaviour whose result varies by platform — two runs
    could key the same row differently, or two different rows
    identically.  Such rows raise :class:`ValueError`; the serving
    front door rejects them at ``submit``, before the cache sees them.
    """
    array = np.ascontiguousarray(row, dtype=np.float64).reshape(-1)
    if array.size and not np.isfinite(array).all():
        raise ValueError(
            "quantized_key requires finite values; row contains NaN/inf"
        )
    qmin, qmax = _qrange(bits)
    max_abs = float(np.max(np.abs(array))) if array.size else 0.0
    scale = max_abs / qmax if max_abs > 0 else 1.0
    codes = np.clip(np.round(array / scale), qmin, qmax)
    # The rule quantize_symmetric follows: an int8 cast would wrap codes
    # past 127 and alias rows that differ in them.
    codes = codes.astype(np.int8 if bits <= 8 else np.int16)
    return codes.tobytes(), scale, array.size


class ResultCache:
    """Bounded, thread-safe LRU cache of per-row serving replies.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least-recently-used entry is
        evicted past it.
    bits:
        Quantization width of the key (INT4 by default, matching the
        screener's datapath), one of
        :data:`~repro.linalg.quantize.SUPPORTED_BITS`.
    verify:
        ``True`` (default): exact mode — a key hit must also match the
        stored float row byte-for-byte, so cached serving is
        bit-identical to uncached serving.  ``False``: approximate mode
        — any key hit is served (near-duplicates included).
    recorder:
        ``repro.obs`` recorder; hit/miss/eviction/collision counters
        are mirrored there under ``serving.cache.*``.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        bits: int = 4,
        verify: bool = True,
        recorder=None,
    ):
        check_positive("capacity", capacity)
        _qrange(int(bits))
        self.capacity = int(capacity)
        self.bits = int(bits)
        self.verify = bool(verify)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._lock = threading.Lock()
        #: key -> (original float row, cached per-row value)
        self._entries: "OrderedDict[tuple, Tuple[np.ndarray, Any]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Key hits rejected by row verification — distinct vectors
        #: whose INT4 codes (and scale) coincide.
        self.collisions = 0

    # ------------------------------------------------------------------
    def _key(self, op: str, kwargs: Dict[str, Any], row: np.ndarray) -> tuple:
        return (
            op,
            tuple(sorted(kwargs.items())),
            quantized_key(row, self.bits),
        )

    def get(
        self, op: str, kwargs: Dict[str, Any], row: np.ndarray
    ) -> Optional[Any]:
        """The cached value for ``(op, kwargs, row)``, or ``None``.

        A hit refreshes the entry's LRU position.  ``row`` is one
        feature vector (any shape that flattens to ``hidden_dim``) and
        must be finite (:func:`quantized_key`).
        """
        flat = np.asarray(row, dtype=np.float64).reshape(-1)
        key = self._key(op, kwargs, row)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stored_row, value = entry
                if not self.verify or np.array_equal(stored_row, flat):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self.recorder.increment("serving.cache.hits")
                    return value
                self.collisions += 1
                self.recorder.increment("serving.cache.collisions")
            self.misses += 1
            self.recorder.increment("serving.cache.misses")
            return None

    def put(
        self, op: str, kwargs: Dict[str, Any], row: np.ndarray, value: Any
    ) -> None:
        """Insert (or refresh) one entry, evicting LRU entries past
        capacity.  ``value`` must be immutable from the caller's point
        of view — a hit hands the same object to every future caller.
        """
        flat = np.array(row, dtype=np.float64, copy=True).reshape(-1)
        key = self._key(op, kwargs, row)
        with self._lock:
            self._entries[key] = (flat, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self.recorder.increment("serving.cache.evictions")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list:
        """Current keys in LRU order (oldest first) — test hook for the
        eviction-order invariants."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "bits": self.bits,
                "verify": self.verify,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "collisions": self.collisions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def __repr__(self) -> str:
        return (
            f"ResultCache(capacity={self.capacity}, bits={self.bits}, "
            f"verify={self.verify}, size={len(self)})"
        )
