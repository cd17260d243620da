"""Property, fuzz and thread-hammer tests for the quantized result cache.

The load-bearing claim (``repro.serving.cache``): with verification on
(the default), serving **with** the cache is bit-identical to serving
**without** it, for any request sequence — a key hit only short-circuits
when the raw float row matches the stored one, so INT4 key collisions
degrade to misses, never to wrong answers.  The suite pins

* the key function itself (collisions exactly when the INT4 codes *and*
  scale coincide, fuzzed against an independent recomputation),
* the verified/approximate hit semantics and the collision counter,
* LRU eviction order (via the ``keys()`` test hook),
* cache-on vs cache-off replay bit-identity through a real
  :class:`~repro.serving.frontdoor.FrontDoor` over a trained backend,
* "degraded results are never cached",
* bounded size + consistent counters under a multi-thread hammer
  (same tight-switch-interval pattern as ``tests/test_obs_threadsafety.py``).
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import ScreeningConfig
from repro.core.candidates import CandidateSet
from repro.core.pipeline import DegradedOutput, ScreenedOutput, ShardFailure
from repro.data import make_task
from repro.distributed import ShardedClassifier
from repro.linalg.quantize import _qrange
from repro.obs import Recorder
from repro.serving import FrontDoor, ResultCache, quantized_key

pytestmark = pytest.mark.timeout(300)

NUM_CATEGORIES = 120
HIDDEN_DIM = 16


@pytest.fixture()
def tight_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def reference_key(row, bits=4):
    """Independent recomputation of the INT4 representation."""
    array = np.asarray(row, dtype=np.float64).reshape(-1)
    qmin, qmax = _qrange(bits)
    max_abs = float(np.max(np.abs(array))) if array.size else 0.0
    scale = max_abs / qmax if max_abs > 0 else 1.0
    codes = np.clip(np.round(array / scale), qmin, qmax)
    return codes.astype(np.int8 if bits <= 8 else np.int16), scale


# ----------------------------------------------------------------------
# the key function
# ----------------------------------------------------------------------
class TestQuantizedKey:
    def test_deterministic_and_shape_insensitive(self):
        row = np.linspace(-1.0, 1.0, 8)
        assert quantized_key(row) == quantized_key(row.copy())
        assert quantized_key(row) == quantized_key(row[np.newaxis, :])

    def test_scale_is_part_of_the_key(self):
        """x and 2x share INT4 codes; only the scale separates them."""
        row = np.linspace(-1.0, 1.0, 8)
        codes_1, scale_1, _ = quantized_key(row)
        codes_2, scale_2, _ = quantized_key(2.0 * row)
        assert codes_1 == codes_2
        assert scale_2 == pytest.approx(2.0 * scale_1)
        assert quantized_key(row) != quantized_key(2.0 * row)

    def test_length_is_part_of_the_key(self):
        assert quantized_key(np.ones(4)) != quantized_key(np.ones(5))

    def test_zero_vector_has_a_key(self):
        codes, scale, length = quantized_key(np.zeros(6))
        assert codes == b"\x00" * 6
        assert scale == 1.0
        assert length == 6

    def test_near_duplicate_within_code_boundary_collides(self):
        """A perturbation too small to move any coordinate across a
        rounding boundary (and not on the max-abs coordinate) leaves the
        key unchanged — the designed near-duplicate aliasing."""
        row = np.array([1.0, 0.5, -0.25, 0.125])
        _, scale, _ = quantized_key(row)
        nudged = row.copy()
        nudged[2] += scale * 0.2  # well inside the code's half-width
        assert quantized_key(nudged) == quantized_key(row)
        moved = row.copy()
        moved[2] += scale * 1.2  # across at least one boundary
        assert quantized_key(moved) != quantized_key(row)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_rows_have_no_key(self, bad):
        """NaN/inf has no INT8 code: ``np.round`` and the cast are
        platform-dependent there, so the key function refuses instead
        of silently producing an unstable key."""
        row = np.linspace(-1.0, 1.0, 8)
        row[3] = bad
        with pytest.raises(ValueError, match="finite"):
            quantized_key(row)

    def test_sixteen_bit_codes_keep_their_high_byte(self):
        """Above 8 bits the codes are int16, as in ``quantize_symmetric``:
        an int8 cast wrapped 32767 to -1 and 200 to -56, so these two
        rows shared a key."""
        a, b = np.array([1.0, 200 / 32767]), np.array([1.0, -56 / 32767])
        assert quantized_key(a, 16) != quantized_key(b, 16)
        codes, _, _ = quantized_key(a, 16)
        assert np.frombuffer(codes, dtype=np.int16).tolist() == [32767, 200]

    def test_all_nan_row_has_no_key(self):
        with pytest.raises(ValueError, match="finite"):
            quantized_key(np.full(4, np.nan))

    def test_fuzz_key_equality_iff_codes_and_scale_match(self):
        """500 random pairs: the packed key compares equal exactly when
        the independently recomputed (codes, scale) pair does."""
        rng = np.random.default_rng(42)
        for _ in range(500):
            a = rng.standard_normal(HIDDEN_DIM)
            # Mix of unrelated vectors, tiny perturbations and rescales
            # so both collision and non-collision branches are exercised.
            mode = rng.integers(3)
            if mode == 0:
                b = rng.standard_normal(HIDDEN_DIM)
            elif mode == 1:
                b = a + rng.standard_normal(HIDDEN_DIM) * 10.0 ** rng.integers(
                    -6, 0
                )
            else:
                b = a * float(rng.choice([1.0, 1.0 + 1e-9, 2.0]))
            codes_a, scale_a = reference_key(a)
            codes_b, scale_b = reference_key(b)
            same = np.array_equal(codes_a, codes_b) and scale_a == scale_b
            assert (quantized_key(a) == quantized_key(b)) == same


# ----------------------------------------------------------------------
# cache semantics
# ----------------------------------------------------------------------
class TestResultCacheSemantics:
    def test_basic_hit_miss_and_stats(self):
        recorder = Recorder()
        cache = ResultCache(capacity=4, recorder=recorder)
        row = np.arange(6.0)
        assert cache.get("forward", {}, row) is None
        cache.put("forward", {}, row, "value")
        assert cache.get("forward", {}, row) == "value"
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
        cache.put("forward", {}, row, "fwd")
        assert cache.get("top_k", {"k": 5}, row) == "k5"
        assert cache.get("top_k", {"k": 9}, row) == "k9"
        assert cache.get("forward", {}, row) == "fwd"
        assert cache.get("predict", {}, row) is None

    def test_verified_collision_served_as_miss(self):
        """Two byte-different rows with identical INT4 codes and scale:
        verify=True refuses the hit and counts a collision."""
        cache = ResultCache(capacity=4, verify=True)
        row = np.array([1.0, 0.5, -0.25, 0.125])
        _, scale, _ = quantized_key(row)
        near = row.copy()
        near[2] += scale * 0.2
        assert quantized_key(near) == quantized_key(row)
        cache.put("forward", {}, row, "original")
        assert cache.get("forward", {}, near) is None
        assert cache.collisions == 1
        assert cache.misses == 1
        # The original row still hits.
        assert cache.get("forward", {}, row) == "original"

    def test_unverified_mode_serves_near_duplicates(self):
        cache = ResultCache(capacity=4, verify=False)
        row = np.array([1.0, 0.5, -0.25, 0.125])
        _, scale, _ = quantized_key(row)
        near = row.copy()
        near[2] += scale * 0.2
        cache.put("forward", {}, row, "original")
        assert cache.get("forward", {}, near) == "original"
        assert cache.collisions == 0

    def test_unverified_sixteen_bit_cache_serves_no_other_row(self):
        cache = ResultCache(capacity=4, bits=16, verify=False)
        cache.put("forward", {}, np.array([1.0, 200 / 32767]), "a")
        assert cache.get("forward", {}, np.array([1.0, -56 / 32767])) is None

    def test_stored_row_is_a_copy(self):
        cache = ResultCache(capacity=4)
        row = np.arange(4.0)
        cache.put("forward", {}, row, "value")
        row[0] = 99.0  # caller mutates its buffer after the put
        assert cache.get("forward", {}, np.array([0.0, 1.0, 2.0, 3.0])) == "value"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_bits_validated(self):
        """An unsupported width fails at construction, not inside the
        first ``get``."""
        with pytest.raises(ValueError, match="bit width"):
            ResultCache(bits=5)


class TestEvictionOrder:
    def rows(self, n):
        return [np.full(4, float(i + 1)) for i in range(n)]

    def test_lru_eviction_is_oldest_first(self):
        cache = ResultCache(capacity=3)
        rows = self.rows(4)
        for i in range(3):
            cache.put("forward", {}, rows[i], i)
        keys_before = cache.keys()
        cache.put("forward", {}, rows[3], 3)
        assert cache.evictions == 1
        assert len(cache) == 3
        # The oldest key fell out; insertion order is preserved.
        assert cache.keys() == keys_before[1:] + [
            ("forward", (), quantized_key(rows[3]))
        ]
        assert cache.get("forward", {}, rows[0]) is None

    def test_hit_refreshes_lru_position(self):
        cache = ResultCache(capacity=3)
        rows = self.rows(4)
        for i in range(3):
            cache.put("forward", {}, rows[i], i)
        assert cache.get("forward", {}, rows[0]) == 0  # refresh oldest
        cache.put("forward", {}, rows[3], 3)  # evicts rows[1], not rows[0]
        assert cache.get("forward", {}, rows[0]) == 0
        assert cache.get("forward", {}, rows[1]) is None

    def test_re_put_refreshes_and_replaces(self):
        cache = ResultCache(capacity=3)
        rows = self.rows(4)
        for i in range(3):
            cache.put("forward", {}, rows[i], i)
        cache.put("forward", {}, rows[0], "updated")  # refresh + replace
        cache.put("forward", {}, rows[3], 3)
        assert cache.get("forward", {}, rows[0]) == "updated"
        assert cache.get("forward", {}, rows[1]) is None
        assert len(cache) == 3

    def test_clear_empties_but_keeps_counters(self):
        cache = ResultCache(capacity=3)
        cache.put("forward", {}, np.ones(4), "v")
        assert cache.get("forward", {}, np.ones(4)) == "v"
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.get("forward", {}, np.ones(4)) is None


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
                if cache.get("forward", {}, row) is None:
                    cache.put("forward", {}, row, float(row[0]))
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
        assert stats["collisions"] == 0  # pool rows are byte-distinct
        assert stats["evictions"] > 0  # the pool overflowed capacity
        # Every surviving entry still round-trips to its own value.
        for row in pool:
            value = cache.get("forward", {}, row)
            assert value is None or value == float(row[0])


# ----------------------------------------------------------------------
# front-door integration: replay bit-identity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def backend():
    task = make_task(num_categories=NUM_CATEGORIES, hidden_dim=HIDDEN_DIM, rng=4)
    model = ShardedClassifier(
        task.classifier, num_shards=2, config=ScreeningConfig(projection_dim=8)
    )
    model.train(task.sample_features(128, rng=7), candidates_per_shard=8, rng=5)
    return task, model


def zipfian_replay(task, unique=12, length=60, seed=3):
    """A request stream with Zipfian repeats over a small query pool."""
    pool = task.sample_features(unique, rng=11)
    rng = np.random.default_rng(seed)
    weights = np.arange(1, unique + 1, dtype=np.float64) ** -1.2
    weights /= weights.sum()
    return [pool[int(i)] for i in rng.choice(unique, size=length, p=weights)]


class TestFrontDoorReplayIdentity:
    def test_cache_on_equals_cache_off(self, backend):
        """The headline property: replies to an identical replayed
        request stream are bit-identical with and without the cache,
        and the cached run actually hit."""
        task, model = backend
        replay = zipfian_replay(task)
        cache = ResultCache(capacity=64)
        with FrontDoor(model, max_batch=4, flush_window_s=0.001) as plain:
            baseline = [plain.call(row, timeout=30.0) for row in replay]
        with FrontDoor(
            model, max_batch=4, flush_window_s=0.001, cache=cache
        ) as cached_door:
            cached = [cached_door.call(row, timeout=30.0) for row in replay]
            stats = cached_door.stats()

        assert stats["cached_replies"] > 0
        assert stats["cache"]["hits"] == stats["cached_replies"]
        assert stats["submitted"] == stats["served"] == len(replay)
        hit_one = False
        for mine, theirs in zip(cached, baseline):
            assert not mine.degraded and not theirs.degraded
            assert np.array_equal(mine.value.logits, theirs.value.logits)
            assert np.array_equal(mine.value.candidates, theirs.value.candidates)
            if mine.cached:
                hit_one = True
                assert mine.batch_id == -1
                assert mine.batch_size == 1
        assert hit_one

    def test_top_k_replay_identity(self, backend):
        task, model = backend
        replay = zipfian_replay(task, unique=6, length=24, seed=9)
        cache = ResultCache(capacity=32)
        with FrontDoor(model, max_batch=4, flush_window_s=0.001) as plain:
            baseline = [
                plain.call(row, "top_k", k=5, timeout=30.0) for row in replay
            ]
        with FrontDoor(
            model, max_batch=4, flush_window_s=0.001, cache=cache
        ) as door:
            cached = [door.call(row, "top_k", k=5, timeout=30.0) for row in replay]
        assert cache.hits > 0
        for mine, theirs in zip(cached, baseline):
            assert np.array_equal(mine.value[0], theirs.value[0])
            assert np.array_equal(mine.value[1], theirs.value[1])

    def test_first_occurrences_always_miss(self, backend):
        task, model = backend
        pool = task.sample_features(8, rng=13)
        cache = ResultCache(capacity=32)
        with FrontDoor(
            model, max_batch=2, flush_window_s=0.0005, cache=cache
        ) as door:
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

    def forward(self, features):
        batch = features.shape[0]
        logits = np.zeros((batch, self.num_categories))
        empty = np.empty(0, dtype=np.intp)
        output = ScreenedOutput(
            logits=logits,
            candidates=CandidateSet.from_flat(
                np.zeros(batch, dtype=np.intp), empty
            ),
            restore=(empty, empty.copy(), np.empty(0)),
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
