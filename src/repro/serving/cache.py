"""Bounded LRU result cache keyed on the request row's bytes.

Production extreme-classification traffic repeats itself: a Zipfian
query mix re-submits the hot pool's embeddings over and over, and a
deterministic front-end model re-embeds identical inputs to identical
vectors.  The cache answers such a byte-identical repeat without a
screening pass.

The key is ``(op, sorted kwargs, row bytes, length)``: the row's
float64 bytes, so two rows share an entry exactly when the backend
would be handed the same bytes, and a hit returns the reply the
backend computed for them.  Serving with the cache is therefore
bit-identical to serving without it for any request sequence
(``tests/test_matrix.py`` replays the front door with the cache on and
off).  A near-duplicate row is a miss and never evicts the row it
nearly equals.

Thread-safety: all operations take one lock, so the cache may sit in
front of any number of submitter threads (the front door calls ``get``
from callers' threads and ``put`` from the batcher thread).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

import numpy as np

from repro.obs.recorder import NULL_RECORDER
from repro.utils.validation import check_positive

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded, thread-safe LRU cache of per-row serving replies.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least-recently-used entry is
        evicted past it.
    recorder:
        ``repro.obs`` recorder; hit/miss/eviction counters are mirrored
        there under ``serving.cache.*``.
    """

    def __init__(self, capacity: int = 1024, *, recorder=None):
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._lock = threading.Lock()
        #: key -> cached per-row value
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _key(op: str, kwargs: Dict[str, Any], row: np.ndarray) -> tuple:
        flat = np.ascontiguousarray(row, dtype=np.float64).reshape(-1)
        return (op, tuple(sorted(kwargs.items())), flat.tobytes(), flat.size)

    def get(
        self, op: str, kwargs: Dict[str, Any], row: np.ndarray
    ) -> Optional[Any]:
        """The cached value for ``(op, kwargs, row)``, or ``None``.

        A hit refreshes the entry's LRU position.  ``row`` is one
        feature vector (any shape that flattens to ``hidden_dim``).
        """
        key = self._key(op, kwargs, row)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                self.recorder.increment("serving.cache.hits")
                return self._entries[key]
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
        key = self._key(op, kwargs, row)
        with self._lock:
            self._entries[key] = value
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
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def __repr__(self) -> str:
        return f"ResultCache(capacity={self.capacity}, size={len(self)})"
