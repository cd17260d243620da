"""Shared fixtures: a small structured task with a trained screener, and
the model zoo every differential test serves from.

Session-scoped so the distillation cost is paid once; tests must not
mutate fixture state (make copies before editing arrays, and put back
what a context manager patches).
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.core import (
    ApproximateScreeningClassifier,
    CandidateSelector,
    FullClassifier,
    ScreeningConfig,
    ScreeningModule,
    load_quantized_store,
    save_quantized_store,
    train_screener,
)
from repro.core.screener import TILE_CATEGORIES
from repro.data import make_task
from repro.distributed import ShardPlan, ShardedClassifier

#: Candidates per row in top-m mode (per shard, on a sharded model).
M = 6
#: The seed ``ShardedClassifier.train`` spawns each shard's from.
SHARD_RNG = 5
HIDDEN_DIM = 16
SIZES = {"single": 500, "multi": TILE_CATEGORIES + 37}
#: (screener variant, selector).  ``tied``: eight columns straddling the
#: tile boundary (the middle of a single tile) score exactly 1000 and
#: eight around them exactly 900, so the candidates and the runner-ups
#: hold ties on both sides of it.  ``zeroed``: every approximate score
#: is 0.  ``few_rejected``: the fullest of the pool's first nine rows
#: keeps four entries at or under the threshold, the others fewer.
CASES = (
    ("trained", "top_m"),
    ("trained", "threshold"),
    ("tied", "top_m"),
    ("tied", "threshold"),
    ("tied", "few_rejected"),
    ("tied", "nothing"),
    ("zeroed", "top_m"),
    ("zeroed", "all_rejected"),
    ("zeroed", "none_rejected"),
)
FIXED_THRESHOLDS = {"nothing": 1e12, "all_rejected": 0.0, "none_rejected": -1.0}
STORES = ("fp64", "int8", "int8_mmap", "float16")
SINGLE_KEYS = tuple(
    (size, variant, selector, store)
    for size in SIZES
    for variant, selector in CASES
    for store in STORES
)
#: The sharded models the matrix serves; each gets one worker fleet.
#: They split a 2 x ``SIZES["multi"]`` category space (the multi-tile
#: classifier stacked over its negation), so each half of the two-shard
#: plan runs a two-tile loop.  ``replica`` is ``balanced`` served with
#: two workers on shard 0.
SHARDED_KEYS = (
    ("u1", "trained", "top_m", "fp64"),
    ("u2", "trained", "threshold", "fp64"),
    ("u4", "trained", "top_m", "int8"),
    ("balanced", "trained", "threshold", "int8"),
    ("hot", "trained", "top_m", "fp64"),
    ("replica", "trained", "threshold", "fp64"),
    ("u2", "tied", "top_m", "int8"),
    ("u2", "tied", "few_rejected", "fp64"),
    ("u2", "tied", "nothing", "fp64"),
    ("u2", "zeroed", "top_m", "fp64"),
)


def zipf_frequencies(num_categories, s=1.1):
    ranks = np.arange(1, num_categories + 1, dtype=np.float64)
    return ranks**-s


def make_plan(kind, num_categories):
    if kind[0] == "u":
        return ShardPlan.uniform(num_categories, int(kind[1:]))
    if kind in ("balanced", "replica"):
        return ShardPlan.balanced(zipf_frequencies(num_categories), 3)
    # Two tiny hot shards bracketing one huge cold shard.
    return ShardPlan.from_ranges(
        [range(0, 4), range(4, num_categories - 4), range(num_categories - 4, num_categories)]
    )


def variant_screener(trained, variant):
    if variant == "trained":
        return trained
    weight, bias = trained.weight.copy(), trained.bias.copy()
    if variant == "zeroed":
        weight[:], bias[:] = 0.0, 0.0
    else:
        l = len(bias)
        edge = TILE_CATEGORIES if l > TILE_CATEGORIES else l // 2
        weight[edge - 8 : edge + 8], bias[edge - 8 : edge + 8] = 0.0, 900.0
        bias[edge - 4 : edge + 4] = 1000.0
    return ScreeningModule(trained.projection, weight, bias)


def make_selector(selector, screener, features):
    if selector == "top_m":
        return CandidateSelector("top_m", num_candidates=M)
    chosen = CandidateSelector("threshold", num_candidates=M)
    if selector == "threshold":
        chosen.calibrate(screener.approximate_logits(features))
    elif selector == "few_rejected":
        approx = screener.approximate_logits(features[:9])
        chosen.threshold = float(np.sort(approx, axis=1)[:, 3].min())
    else:
        chosen.threshold = FIXED_THRESHOLDS[selector]
    return chosen


class Zoo(dict):
    """Models by key, each built on first use and kept for the session.

    A single-node key is ``(size, variant, selector, store)``, a sharded
    one ``(plan, variant, selector, store)``.  Every model of a size (or
    plan) shares one trained screener per shard and one classifier;
    only the variants copy and edit the screener's weights.
    """

    def __init__(self, directory):
        super().__init__()
        self.directory = directory
        self.tasks = {
            size: make_task(num_categories=l, hidden_dim=HIDDEN_DIM, rng=3)
            for size, l in SIZES.items()
        }
        multi = self.tasks["multi"].classifier
        self.stacked = FullClassifier(
            np.vstack([multi.weight, -multi.weight]),
            np.concatenate([multi.bias, multi.bias]),
        )
        #: The feature pool every test draws its rows from.
        self.features = self.tasks["multi"].sample_features(64, rng=7)
        self.train_features = self.tasks["multi"].sample_features(64, rng=1)
        self._trained = {}

    def trained(self, size):
        """The distilled screener of ``size``, or the sharded model of
        plan ``size`` as ``ShardedClassifier.train`` leaves it."""
        if size not in self._trained:
            if size in SIZES:
                self._trained[size] = train_screener(
                    self.tasks[size].classifier,
                    self.train_features,
                    config=ScreeningConfig(projection_dim=4),
                    solver="lstsq",
                    rng=2,
                )
            else:
                model = ShardedClassifier(
                    self.stacked,
                    plan=make_plan(size, self.stacked.num_categories),
                    config=ScreeningConfig(projection_dim=4),
                )
                model.train(self.train_features, candidates_per_shard=M, rng=SHARD_RNG)
                self._trained[size] = model
        return self._trained[size]

    def __missing__(self, key):
        self[key] = model = self._build(*key)
        return model

    def _build(self, size, variant, selector, store):
        if store == "int8_mmap":
            resident = self[(size, variant, selector, "int8")]
            mapped = []
            for index, pipeline in enumerate(getattr(resident, "shards", [resident])):
                path = self.directory / "-".join((size, variant, selector, str(index)))
                save_quantized_store(path, pipeline.classifier)
                mapped.append(
                    ApproximateScreeningClassifier(
                        load_quantized_store(path, mmap=True),
                        pipeline.screener,
                        make_selector(selector, pipeline.screener, self.features),
                    )
                )
            if size in SIZES:
                return mapped[0]
            model = ShardedClassifier(self.stacked, plan=resident.plan)
            model.shards = mapped
            return model
        if size not in SIZES:
            trained = self.trained(size)
            model = ShardedClassifier(self.stacked, plan=trained.plan)
            model.shards = [
                self._pipeline(shard.classifier, shard.screener, variant, selector, store)
                for shard in trained.shards
            ]
            return model
        classifier = self.tasks[size].classifier
        return self._pipeline(classifier, self.trained(size), variant, selector, store)

    def _pipeline(self, classifier, trained, variant, selector, store):
        screener = variant_screener(trained, variant)
        model = ApproximateScreeningClassifier(
            classifier, screener, make_selector(selector, screener, self.features)
        )
        if store != "fp64":
            model.quantize_exact_weights(store)
        return model


def no_plane(*args, **kwargs):
    raise AssertionError("top_k / predict called forward")


#: The dense plane's arrays in ``answers``: only the in-process models
#: serve a plane, the worker fleet serves the records alone.
DENSE_KEYS = ("logits", "approx", "counts", "cols")


def answers(backend, features, block, k):
    """Every op's arrays, by name: the dense plane's (``DENSE_KEYS``)
    where the backend serves one, then every record op's."""
    got = {}
    if hasattr(backend, "forward"):
        dense = backend.forward(features)
        got["logits"] = dense.logits
        got["approx"] = dense.approximate_logits
        got["counts"] = dense.candidates.counts
        got["cols"] = dense.candidates.flat()[1]
    for name, width in (("streamed", None), ("blocked", block)):
        streamed = backend.forward_streaming(features, block_categories=width)
        assert streamed.num_categories == backend.num_categories
        got[name + ".counts"] = streamed.candidates.counts
        got[name + ".cols"] = streamed.candidates.flat()[1]
        got[name + ".exact"] = streamed.exact_values
        got[name + ".approx"] = streamed.approximate_values
    with mock.patch.object(ApproximateScreeningClassifier, "forward", no_plane):
        got["top_k.indices"], got["top_k.scores"] = backend.top_k(features, k)
        got["predict"] = backend.predict(features)
    return got


def records(got):
    """``answers`` without the dense plane's arrays: what every backend
    serves."""
    return {name: value for name, value in got.items() if name not in DENSE_KEYS}


def assert_same(actual, expected):
    assert actual.keys() == expected.keys()
    for name, want in expected.items():
        assert actual[name].dtype == want.dtype, name
        assert np.array_equal(actual[name], want), name


@pytest.fixture(scope="session")
def zoo(tmp_path_factory):
    return Zoo(tmp_path_factory.mktemp("zoo"))


@pytest.fixture(scope="module")
def engines(zoo):
    """One worker fleet per sharded key asked for, closed at module
    teardown."""
    with contextlib.ExitStack() as stack:

        class Engines(dict):
            def __missing__(self, key):
                replicas = {0: 2} if key[0] == "replica" else None
                engine = stack.enter_context(zoo[key].parallel(replicas=replicas))
                self[key] = engine
                return engine

        yield Engines()


@pytest.fixture(scope="session")
def small_task():
    """A 2000-category, 64-dim structured task."""
    return make_task(num_categories=2000, hidden_dim=64, rng=1)


@pytest.fixture(scope="session")
def small_screener(small_task):
    """A screener distilled against the small task (k=16, INT4)."""
    features = small_task.sample_features(512)
    return train_screener(
        small_task.classifier,
        features,
        config=ScreeningConfig(projection_dim=16),
        solver="lstsq",
        rng=2,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(123)
