"""Property and thread-hammer tests for the result cache.

The load-bearing claim (``repro.serving.cache``): serving **with** the
cache is bit-identical to serving **without** it, for any request
sequence — an entry is keyed on the op, its arguments and the row's
bytes, so a hit returns what the backend computed for those bytes
(``tests/test_matrix.py`` replays the front door with the cache off and
on on every backend; here, on Zipfian replays).  This suite pins

* the key: op and kwargs partition it, near-duplicate rows keep their
  own entries, the stored key is a copy of the row;
* LRU eviction order (via the ``keys()`` test hook);
* "degraded results are never cached";
* bounded size + consistent counters under a multi-thread hammer
  (same tight-switch-interval pattern as ``tests/test_obs_threadsafety.py``).
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.candidates import CandidateSet
from repro.core.pipeline import DegradedOutput, ShardFailure, StreamedOutput
from repro.obs import Recorder
from repro.serving import FrontDoor, ResultCache

pytestmark = pytest.mark.timeout(300)


@pytest.fixture()
def tight_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


# ----------------------------------------------------------------------
# cache semantics
# ----------------------------------------------------------------------
class TestResultCacheSemantics:
    def test_basic_hit_miss_and_stats(self):
        recorder = Recorder()
        cache = ResultCache(capacity=4, recorder=recorder)
        row = np.arange(6.0)
        assert cache.get("forward_streaming", {}, row) is None
        cache.put("forward_streaming", {}, row, "value")
        assert cache.get("forward_streaming", {}, row) == "value"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["size"] == 1 and stats["capacity"] == 4
        assert recorder.registry.counter("serving.cache.hits").value == 1
        assert recorder.registry.counter("serving.cache.misses").value == 1

    def test_op_and_kwargs_partition_the_key_space(self):
        cache = ResultCache(capacity=8)
        row = np.arange(6.0)
        cache.put("top_k", {"k": 5}, row, "k5")
        cache.put("top_k", {"k": 9}, row, "k9")
        cache.put("forward_streaming", {}, row, "fwd")
        assert cache.get("top_k", {"k": 5}, row) == "k5"
        assert cache.get("top_k", {"k": 9}, row) == "k9"
        assert cache.get("forward_streaming", {}, row) == "fwd"
        assert cache.get("predict", {}, row) is None

    def test_near_duplicates_keep_their_own_entries(self):
        """Two rows one tenth of an INT4 step apart in one coordinate
        (equal codes, equal scale) once shared a key: the second ``put``
        evicted the first, and an exact repeat of the first missed."""
        cache = ResultCache(capacity=8)
        row = np.array([1.0, 0.5, -0.25, 0.125])
        near = row.copy()
        near[2] += 0.1 * 1.0 / 7  # scale = max|row| / 7
        cache.put("forward_streaming", {}, row, "original")
        cache.put("forward_streaming", {}, near, "near")
        assert len(cache) == 2
        assert cache.get("forward_streaming", {}, row) == "original"
        assert cache.get("forward_streaming", {}, near) == "near"

    def test_stored_row_is_a_copy(self):
        cache = ResultCache(capacity=4)
        row = np.arange(4.0)
        cache.put("forward_streaming", {}, row, "value")
        row[0] = 99.0  # caller mutates its buffer after the put
        assert cache.get("forward_streaming", {}, np.array([0.0, 1.0, 2.0, 3.0])) == "value"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestEvictionOrder:
    def rows(self, n):
        return [np.full(4, float(i + 1)) for i in range(n)]

    def test_lru_eviction_is_oldest_first(self):
        cache = ResultCache(capacity=3)
        rows = self.rows(4)
        for i in range(3):
            cache.put("forward_streaming", {}, rows[i], i)
        keys_before = cache.keys()
        cache.put("forward_streaming", {}, rows[3], 3)
        assert cache.evictions == 1
        assert len(cache) == 3
        # The oldest key fell out; insertion order is preserved.
        assert cache.keys() == keys_before[1:] + [
            ("forward_streaming", (), rows[3].tobytes(), 4)
        ]
        assert cache.get("forward_streaming", {}, rows[0]) is None

    def test_hit_refreshes_lru_position(self):
        cache = ResultCache(capacity=3)
        rows = self.rows(4)
        for i in range(3):
            cache.put("forward_streaming", {}, rows[i], i)
        assert cache.get("forward_streaming", {}, rows[0]) == 0  # refresh oldest
        cache.put("forward_streaming", {}, rows[3], 3)  # evicts rows[1], not rows[0]
        assert cache.get("forward_streaming", {}, rows[0]) == 0
        assert cache.get("forward_streaming", {}, rows[1]) is None

    def test_re_put_refreshes_and_replaces(self):
        cache = ResultCache(capacity=3)
        rows = self.rows(4)
        for i in range(3):
            cache.put("forward_streaming", {}, rows[i], i)
        cache.put("forward_streaming", {}, rows[0], "updated")  # refresh + replace
        cache.put("forward_streaming", {}, rows[3], 3)
        assert cache.get("forward_streaming", {}, rows[0]) == "updated"
        assert cache.get("forward_streaming", {}, rows[1]) is None
        assert len(cache) == 3

    def test_clear_empties_but_keeps_counters(self):
        cache = ResultCache(capacity=3)
        cache.put("forward_streaming", {}, np.ones(4), "v")
        assert cache.get("forward_streaming", {}, np.ones(4)) == "v"
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.get("forward_streaming", {}, np.ones(4)) is None


# ----------------------------------------------------------------------
# thread hammer
# ----------------------------------------------------------------------
class TestThreadSafety:
    THREADS = 8
    ROUNDS = 400

    def test_hammer_bounded_size_and_consistent_counters(self, tight_switching):
        """8 threads get/put over a shared pool much larger than the
        capacity while a reader polls the size.  Invariants: size never
        exceeds capacity (torn OrderedDict state would), every get is
        accounted as exactly one hit or miss, and the cache still
        behaves after the storm."""
        capacity = 16
        cache = ResultCache(capacity=capacity)
        pool = [np.full(4, float(i + 1)) for i in range(64)]
        gets = [0] * self.THREADS
        violations = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                size = len(cache)
                if size > capacity:  # pragma: no cover - failure path
                    violations.append(size)

        def work(index):
            rng = np.random.default_rng(index)
            for _ in range(self.ROUNDS):
                row = pool[int(rng.integers(len(pool)))]
                if cache.get("forward_streaming", {}, row) is None:
                    cache.put("forward_streaming", {}, row, float(row[0]))
                gets[index] += 1

        poller = threading.Thread(target=reader)
        poller.start()
        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        poller.join()

        assert not violations
        stats = cache.stats()
        assert stats["size"] <= capacity
        assert stats["hits"] + stats["misses"] == sum(gets)
        assert stats["evictions"] > 0  # the pool overflowed capacity
        # Every surviving entry still round-trips to its own value.
        for row in pool:
            value = cache.get("forward_streaming", {}, row)
            assert value is None or value == float(row[0])


# ----------------------------------------------------------------------
# front-door integration: replay bit-identity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def backend(zoo):
    return zoo[("u2", "trained", "top_m", "fp64")]


def zipfian_replay(zoo, unique=12, length=60, seed=3):
    """A request stream with Zipfian repeats over a small query pool."""
    pool = zoo.features[-unique:]
    rng = np.random.default_rng(seed)
    weights = np.arange(1, unique + 1, dtype=np.float64) ** -1.2
    weights /= weights.sum()
    return [pool[int(i)] for i in rng.choice(unique, size=length, p=weights)]


class TestFrontDoorReplayIdentity:
    def test_cache_on_equals_cache_off(self, zoo, backend):
        """The headline property: replies to an identical replayed
        request stream are bit-identical with and without the cache,
        and the cached run actually hit."""
        replay = zipfian_replay(zoo)
        cache = ResultCache(capacity=64)
        with FrontDoor(backend, max_batch=4, flush_window_s=0.001) as plain:
            baseline = [plain.call(row, timeout=30.0) for row in replay]
        with FrontDoor(backend, max_batch=4, flush_window_s=0.001, cache=cache) as cached_door:
            cached = [cached_door.call(row, timeout=30.0) for row in replay]
            stats = cached_door.stats()

        assert stats["cached_replies"] > 0
        assert stats["cache"]["hits"] == stats["cached_replies"]
        assert stats["submitted"] == stats["served"] == len(replay)
        hit_one = False
        for mine, theirs in zip(cached, baseline):
            assert not mine.degraded and not theirs.degraded
            assert np.array_equal(mine.value.candidates, theirs.value.candidates)
            assert np.array_equal(mine.value.exact_values, theirs.value.exact_values)
            assert np.array_equal(
                mine.value.approximate_values, theirs.value.approximate_values
            )
            if mine.cached:
                hit_one = True
                assert mine.batch_id == -1
                assert mine.batch_size == 1
        assert hit_one

    def test_top_k_replay_identity(self, zoo, backend):
        replay = zipfian_replay(zoo, unique=6, length=24, seed=9)
        cache = ResultCache(capacity=32)
        with FrontDoor(backend, max_batch=4, flush_window_s=0.001) as plain:
            baseline = [plain.call(row, "top_k", k=5, timeout=30.0) for row in replay]
        with FrontDoor(backend, max_batch=4, flush_window_s=0.001, cache=cache) as door:
            cached = [door.call(row, "top_k", k=5, timeout=30.0) for row in replay]
        assert cache.hits > 0
        for mine, theirs in zip(cached, baseline):
            assert np.array_equal(mine.value[0], theirs.value[0])
            assert np.array_equal(mine.value[1], theirs.value[1])

    def test_first_occurrences_always_miss(self, zoo, backend):
        pool = zoo.features[:8]
        cache = ResultCache(capacity=32)
        with FrontDoor(backend, max_batch=2, flush_window_s=0.0005, cache=cache) as door:
            for row in pool:
                assert not door.call(row, timeout=30.0).cached
            for row in pool:
                assert door.call(row, timeout=30.0).cached
        assert cache.misses == len(pool)
        assert cache.hits == len(pool)


class _DegradedBackend:
    """Minimal EngineBackend whose every answer is degraded."""

    hidden_dim = 4
    num_categories = 6

    def forward_streaming(self, features, block_categories=None):
        batch = features.shape[0]
        empty = np.empty(0, dtype=np.intp)
        output = StreamedOutput(
            CandidateSet.from_flat(np.zeros(batch, dtype=np.intp), empty),
            np.empty(0),
            np.empty(0),
            self.num_categories,
        )
        failure = ShardFailure(0, range(0, 3), "died", "test")
        return DegradedOutput(output, (failure,), self.num_categories)

    def close(self):
        pass


class TestDegradedNeverCached:
    def test_degraded_results_do_not_populate(self):
        cache = ResultCache(capacity=8)
        row = np.ones(4)
        with FrontDoor(
            _DegradedBackend(), max_batch=1, flush_window_s=0.0, cache=cache
        ) as door:
            first = door.call(row, timeout=30.0)
            second = door.call(row, timeout=30.0)
        assert first.degraded and second.degraded
        assert not first.cached and not second.cached
        assert len(cache) == 0
        assert cache.hits == 0
