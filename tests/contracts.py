"""The bit-identity contracts, checked on one configuration.

The paper's screening step changes only *which* entries are computed
exactly: a candidate's score is the exact ``W_i·h + b_i`` and every other
entry keeps its approximate value.  :func:`check_configuration` takes a
model of the shared zoo (``conftest.py``), the batch's row count,
feature dtype and content, the selection block and ``k``, runs every op
(``forward``, ``forward_streaming``, ``top_k``, ``predict``) on every
backend of that model (the worker fleet and the front door serve the
record ops, not the dense plane) and asserts:

* dense ≡ streaming for every selection block, both ≡ the per-row oracle
  (``oracles.forward_per_row``, shard by shard); ``top_k`` / ``predict``
  ≡ ranking the dense plane (``oracles.rank_dense``) without calling
  ``forward``, and so does the dense reference ``shard_top_k`` +
  ``reduce_top_k``; candidates at the exact classifier's scores, every
  other entry at its approximate one;
* process-parallel ≡ sequential (every plan, the replicated one
  included), a one-shard model ≡ its shard's single-node pipeline;
* n lanes ≡ one lane, recorder on ≡ off;
* INT8 and FP16 stores: the FP64 store's candidates, values inside the
  storage half-step; memory-mapped ≡ resident;
* front-door replies ≡ the backend run on the replayed micro-batches,
  with the result cache off and on, and a cached reply ≡ the reply the
  backend computed for the same bytes.

``tests/test_matrix.py`` draws the configurations; the suites named for
a contract hold their corners of it as named tests.  Neither uses a
function-scoped fixture: lanes and recorders are patched by the context
managers here.
"""

import contextlib
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from conftest import M, SHARD_RNG, answers, assert_same, no_plane, records
from oracles import forward_per_row, merge_candidates_per_row, rank_dense

from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
from repro.core import screener as screener_module
from repro.distributed import ShardedClassifier
from repro.distributed.sharding import reduce_top_k, shard_top_k
from repro.obs import NULL_RECORDER, Recorder
from repro.serving import FrontDoor, ResultCache
from repro.utils.rng import spawn_rngs

#: Rows the front door serves (each under every op).
DOOR_ROWS = 5
DOOR_OPS = ("forward_streaming", "top_k", "predict")


@contextlib.contextmanager
def lanes(count):
    """The plane pass in ``count`` lanes (at most one per tile)."""
    def rule(rows, tiles):
        return min(count, tiles)

    with mock.patch.object(screener_module, "lane_count", rule):
        yield


@contextlib.contextmanager
def recording(pipelines):
    for pipeline in pipelines:
        pipeline.set_recorder(Recorder(trace=True))
    try:
        yield
    finally:
        for pipeline in pipelines:
            pipeline.set_recorder(NULL_RECORDER)


def check_oracles(zoo, key, model, features, got, ks):
    """``got`` (``answers`` at ``ks[-1]``) against the oracles; every
    ``k`` of ``ks`` is ranked."""
    sharded = isinstance(model, ShardedClassifier)
    shards = model.shards if sharded else [model]
    ranges = model.ranges if sharded else [range(model.num_categories)]
    logits, approx, cols = got["logits"], got["approx"], got["cols"]
    rows = np.repeat(np.arange(len(features)), got["counts"])
    assert logits.dtype == approx.dtype == np.float64
    for name in ("streamed", "blocked"):
        assert np.array_equal(got[name + ".counts"], got["counts"])
        assert np.array_equal(got[name + ".cols"], cols)
        assert np.array_equal(got[name + ".exact"], logits[rows, cols])
        assert np.array_equal(got[name + ".approx"], approx[rows, cols])
    kept = np.ones(logits.shape, dtype=bool)
    kept[rows, cols] = False
    assert np.array_equal(logits[kept], approx[kept])
    if key[3] == "fp64":
        classifier = zoo.stacked if sharded else model.classifier
        exact = classifier.logits(features.astype(np.float64))
        assert np.allclose(logits[rows, cols], exact[rows, cols], rtol=1e-10, atol=1e-10)

    oracles = [forward_per_row(shard, features) for shard in shards]
    merged = merge_candidates_per_row([o.candidates for o in oracles], ranges, len(features))
    assert np.array_equal(merged.flat()[1], cols)
    for oracle, shard_range in zip(oracles, ranges):
        columns = slice(shard_range.start, shard_range.stop)
        assert np.array_equal(approx[:, columns], oracle.approximate_logits)
        assert np.allclose(logits[:, columns], oracle.logits, rtol=0, atol=1e-12)

    for k in ks:
        if k == ks[-1]:
            top = (got["top_k.indices"], got["top_k.scores"])
        else:
            with mock.patch.object(ApproximateScreeningClassifier, "forward", no_plane):
                top = model.top_k(features, k)
        want = rank_dense(logits, k)
        for ranking in (
            top,
            # The dense reference the benchmark's traced run replays;
            # each shard ranks three past k, clamped to its width.
            reduce_top_k(
                *zip(*(shard_top_k(s.forward(features), r, k + 3) for s, r in zip(shards, ranges))),
                k,
            ),
        ):
            assert np.array_equal(ranking[0], want[0])
            assert np.array_equal(ranking[1], want[1]) and ranking[1].dtype == np.float64
    assert np.array_equal(got["predict"], np.argmax(logits, axis=1))
    l = model.num_categories
    with pytest.raises(ValueError, match=f"k={l + 1} exceeds score dimension {l}"):
        model.top_k(features, l + 1)


def check_stores(zoo, key, model, features, block, k, got):
    """A quantized store selects what the FP64 store does, its values
    within the storage half-step times the row's l1 mass; a
    memory-mapped store serves the resident one's bits."""
    size, variant, selector, store = key
    if store == "fp64":
        return
    stores = [s.classifier for s in getattr(model, "shards", [model])]
    if store == "int8_mmap":
        # The codes are a mapping of the sidecar, not an in-memory copy.
        for mapped in stores:
            base = mapped.codes
            while not isinstance(base, np.memmap):
                base = base.base
        assert_same(answers(zoo[(size, variant, selector, "int8")], features, block, k), got)
    twin = zoo[(size, variant, selector, "fp64")].forward_streaming(features)
    assert np.array_equal(twin.candidates.counts, got["streamed.counts"])
    assert np.array_equal(twin.candidates.flat()[1], got["streamed.cols"])
    assert np.array_equal(twin.approximate_values, got["streamed.approx"])
    if store == "float16":
        half_step = float(np.abs(zoo.tasks[size].classifier.weight).max()) * 2**-11
    else:
        half_step = max(float(s.scales.max()) for s in stores) / 2
    bound = half_step * np.abs(features.astype(np.float64)).sum(axis=1).max() * (1 + 1e-9)
    assert np.all(np.abs(twin.exact_values - got["streamed.exact"]) <= bound)


def row_values(op, result, size):
    """One batched result cut into per-row tuples, independently of the
    front door's own split."""
    if op == "forward_streaming":
        ends = np.cumsum(result.candidates.counts)
        return [
            (result.candidates.indices[i],)
            + tuple(values[end - count : end] for values in (result.exact_values, result.approximate_values))
            for i, (end, count) in enumerate(zip(ends, result.candidates.counts))
        ]
    if op == "top_k":
        return [(result[0][i], result[1][i]) for i in range(size)]
    return [(result[i],) for i in range(size)]


def reply_values(op, value):
    if op == "forward_streaming":
        return (value.candidates, value.exact_values, value.approximate_values)
    return tuple(value) if op == "top_k" else (value,)


def same_values(mine, theirs):
    return len(mine) == len(theirs) and all(
        np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)
        for a, b in zip(mine, theirs)
    )


def request_key(op, kwargs, row):
    return (op, tuple(sorted(kwargs.items())), row.astype(np.float64).tobytes())


def check_door(backend, features, block, k, cache, ops=DOOR_OPS, max_batch=4):
    """Replies ≡ the backend on the replayed micro-batches; with a cache,
    a second pass is all hits, each the reply the backend computed for
    the same op, arguments and bytes."""
    streaming = {} if block is None else {"block_categories": block}
    ops = [
        (op, kwargs)
        for op, kwargs in (("forward_streaming", streaming), ("top_k", {"k": k}),
                           ("top_k", {"k": 1}), ("predict", {}))
        if op in ops
    ]
    requests = [(op, kwargs, row) for op, kwargs in ops for row in features]
    with FrontDoor(backend, max_batch=max_batch, flush_window_s=0.002, cache=cache) as door:
        replies = []
        for _ in range(1 if cache is None else 2):
            wave = [door.submit(row, op, **kwargs) for op, kwargs, row in requests]
            replies.append([future.result(timeout=60) for future in wave])
        if cache is not None:
            stats = door.stats()
            hits = sum(reply.cached for wave in replies for reply in wave)
            assert stats["cached_replies"] == stats["cache"]["hits"] == hits
    batches, computed = defaultdict(list), defaultdict(list)
    for (op, kwargs, row), reply in zip(requests, replies[0]):
        assert not reply.degraded and reply.failures == ()
        if not reply.cached:
            batches[reply.batch_id].append((reply.batch_index, op, kwargs, row, reply))
            computed[request_key(op, kwargs, row)].append(reply_values(op, reply.value))
    for members in batches.values():
        members.sort(key=lambda member: member[0])
        _, op, kwargs, _, _ = members[0]
        assert [m[0] for m in members] == list(range(len(members)))
        assert {m[4].batch_size for m in members} == {len(members)} <= set(range(1, max_batch + 1))
        stacked = np.stack([m[3] for m in members])
        direct = row_values(op, getattr(backend, op)(stacked, **kwargs), len(members))
        for member, want in zip(members, direct):
            assert same_values(reply_values(op, member[4].value), want)
    for wave_index, wave in enumerate(replies):
        for (op, kwargs, row), reply in zip(requests, wave):
            assert reply.cached or wave_index == 0
            if reply.cached:
                value = reply_values(op, reply.value)
                computed_replies = computed[request_key(op, kwargs, row)]
                assert any(same_values(value, mine) for mine in computed_replies)
    assert getattr(backend, "request_timeout", None) is None


def check_configuration(
    zoo, engines, key, rows=9, dtype="float64", content="pool", seed=0, block=None, k="m"
):
    """Every op on every backend of ``zoo[key]``, every contract.

    ``k`` is ``"1"``, ``"m"``, ``"m+5"`` or ``"width"`` (a shard's), or a
    tuple of them: each is ranked, the last serves the other ops.
    """
    model = zoo[key]
    pool = zoo.features
    features = {
        "pool": pool[:rows],
        "repeat": np.repeat(pool[seed % len(pool)][np.newaxis], rows, axis=0),
        "noise": np.random.default_rng(seed).standard_normal((rows, pool.shape[1])),
    }[content].astype(dtype)
    sharded = isinstance(model, ShardedClassifier)
    pipelines = model.shards if sharded else [model]
    width = len(model.ranges[0]) if sharded else model.num_categories
    named = {"1": 1, "m": M, "m+5": M + 5, "width": width}
    ks = [named[token] for token in ((k,) if isinstance(k, str) else k)]
    k = ks[-1]

    with lanes(1):
        got = answers(model, features, block, k)
    check_oracles(zoo, key, model, features, got, ks)
    if key[2] == "nothing":
        assert got["counts"].sum() == 0
    few_rejected_pool = (key[2], content, rows, dtype) == ("few_rejected", "pool", 9, "float64")
    if few_rejected_pool and not sharded:
        rejected = model.num_categories - got["counts"]
        assert rejected.max() == 4 and rejected.min() < 4
    if any(len(p.screener.tile_bounds()) > 1 for p in pipelines):
        # Lanes cut dense forward's plane pass only; the serving loop is
        # one lane (tests/test_pipeline_lanes.py).
        with lanes(2):
            dense = model.forward(features)
        assert np.array_equal(dense.logits, got["logits"])
        assert np.array_equal(dense.approximate_logits, got["approx"])
        assert np.array_equal(dense.candidates.flat()[1], got["cols"])
    with recording(pipelines):
        assert_same(answers(model, features, block, k), got)
    check_stores(zoo, key, model, features, block, k, got)
    backend = model
    if sharded:
        if key[0] == "u1":
            # One shard is the single-node pipeline: trained by
            # train_screener on the shard's spawned seed, serving its bits.
            single = train_screener(
                zoo.stacked, zoo.train_features, config=ScreeningConfig(projection_dim=4),
                solver="lstsq", rng=spawn_rngs(SHARD_RNG, 1)[0],
            )
            assert np.array_equal(single.weight, model.shards[0].screener.weight)
            assert np.array_equal(single.bias, model.shards[0].screener.bias)
            assert_same(answers(model.shards[0], features, block, k), got)
        backend = engines[key]
        assert_same(answers(backend, features, block, k), records(got))
        for other in ks[:-1]:
            for mine, theirs in zip(backend.top_k(features, other), model.top_k(features, other)):
                assert np.array_equal(mine, theirs)
        if key[0] == "replica":
            assert backend.stats()["replica_counts"] == [2, 1, 1]
    # The door over the in-process model without a cache, and over the
    # worker fleet (or the model again) with one.
    check_door(model, features[:DOOR_ROWS], block, k, cache=None)
    check_door(backend, features[:DOOR_ROWS], block, k, cache=ResultCache())
