import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import forward_per_row

from repro.core import (
    ApproximateScreeningClassifier,
    CandidateSelector,
    FullClassifier,
)
from repro.core.metrics import candidate_recall
from repro.core.pipeline import ScreenedOutput
from repro.core.screener import TILE_CATEGORIES


@pytest.fixture()
def pipeline(small_task, small_screener):
    return ApproximateScreeningClassifier(
        small_task.classifier, small_screener, num_candidates=48
    )


class TestConstruction:
    def test_rejects_category_mismatch(self, small_screener):
        other = FullClassifier.random(100, 64, rng=0)
        with pytest.raises(ValueError, match="categories"):
            ApproximateScreeningClassifier(other, small_screener)

    def test_rejects_hidden_mismatch(self, small_task, small_screener):
        other = FullClassifier.random(2000, 32, rng=0)
        with pytest.raises(ValueError, match="hidden"):
            ApproximateScreeningClassifier(other, small_screener)

    def test_default_selector_topm(self, pipeline):
        assert pipeline.selector.mode == "top_m"


class TestForward:
    def test_output_shapes(self, pipeline, small_task):
        out = pipeline(small_task.sample_features(5))
        assert out.logits.shape == (5, 2000)
        assert out.approximate_logits.shape == (5, 2000)
        assert out.batch_size == 5
        assert out.num_categories == 2000

    def test_candidate_entries_are_exact(self, pipeline, small_task):
        features = small_task.sample_features(4)
        out = pipeline(features)
        exact = small_task.classifier.logits(features)
        for row, indices in enumerate(out.candidates):
            assert np.allclose(out.logits[row, indices], exact[row, indices])

    def test_non_candidate_entries_are_approximate(self, pipeline, small_task):
        features = small_task.sample_features(2)
        out = pipeline(features)
        for row, indices in enumerate(out.candidates):
            mask = np.ones(2000, dtype=bool)
            mask[indices] = False
            assert np.array_equal(
                out.logits[row, mask], out.approximate_logits[row, mask]
            )

    def test_exact_fraction(self, pipeline, small_task):
        out = pipeline(small_task.sample_features(3))
        assert out.exact_fraction == pytest.approx(48 / 2000)

    def test_structured_task_recall(self, pipeline, small_task):
        features = small_task.sample_features(32)
        out = pipeline(features)
        exact = small_task.classifier.logits(features)
        assert candidate_recall(exact, out, k=1) >= 0.95

    def test_predictions_match_full_on_structured_task(
        self, pipeline, small_task
    ):
        features = small_task.sample_features(32)
        assert np.mean(
            pipeline.predict(features)
            == small_task.classifier.predict(features)
        ) >= 0.95

    def test_empty_candidates_row_handled(self, small_task, small_screener):
        selector = CandidateSelector(
            mode="threshold", num_candidates=1, threshold=1e12
        )
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener, selector=selector
        )
        out = model(small_task.sample_features(2))
        assert out.exact_count == 0
        assert np.array_equal(out.logits, out.approximate_logits)


class TestEnginesAgreeOnBadAndLargeInput:
    @pytest.fixture(scope="class")
    def multi_tile(self):
        """20K categories: three screener tiles, so the streaming
        reducer runs its first fill and then the floor compare."""
        from repro.core import ScreeningConfig, train_screener
        from repro.data import make_task

        task = make_task(num_categories=20_000, hidden_dim=16, rng=3)
        screener = train_screener(
            task.classifier,
            task.sample_features(64, rng=1),
            config=ScreeningConfig(projection_dim=4),
            solver="lstsq",
            rng=2,
        )
        model = ApproximateScreeningClassifier(
            task.classifier, screener, CandidateSelector("top_m", 8)
        )
        assert len(list(screener.tile_bounds())) == 3
        return task, model

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_fails_dense_and_streaming_the_same_way(
        self, multi_tile, bad
    ):
        task, model = multi_tile
        features = task.sample_features(4, rng=5)
        features[2, 3] = bad
        for call in (
            model.forward,
            model.forward_streaming,
            lambda batch: forward_per_row(model, batch),
            lambda batch: model.top_k(batch, 3),
        ):
            with pytest.raises(ValueError, match="row 2 contains NaN/inf"):
                call(features)

    def test_multi_tile_streaming_matches_dense_and_settles(self, multi_tile):
        """After one warm call a second multi-tile top-m call performs
        zero new workspace allocations (and selects what dense does)."""
        task, model = multi_tile
        features = task.sample_features(6, rng=7)
        streamed = model.forward_streaming(features)
        dense = model.forward(features)
        for mine, theirs in zip(streamed.candidates, dense.candidates):
            assert np.array_equal(mine, theirs)
        settled = model.workspace.allocations
        requests = model.workspace.requests
        model.forward_streaming(features)
        assert model.workspace.allocations == settled
        assert model.workspace.requests > requests


    def test_every_call_reuses_the_kept_arena(self, multi_tile):
        """Called one at a time, ``forward``, ``forward_streaming`` and
        ``top_k`` each take their scratch from ``model.workspace``, and
        once warm none of them allocates."""
        task, model = multi_tile
        features = task.sample_features(6, rng=7)
        calls = (
            model.forward,
            model.forward_streaming,
            lambda batch: model.top_k(batch, 3),
        )
        for _ in range(2):
            for call in calls:
                call(features)
        workspace = model.workspace
        allocations = workspace.allocations
        for call in calls:
            requests = workspace.requests
            call(features)
            assert model.workspace is workspace
            assert workspace.requests > requests
        assert workspace.allocations == allocations

    @staticmethod
    def during_exact_phase(model, action):
        """Run ``action()`` inside ``model``'s first exact phase, while
        that call is in flight; return the arena each exact phase got."""
        arenas = []
        exact_phase = model._exact_candidate_values

        def hooked(batch, candidates, workspace):
            arenas.append(workspace)
            if len(arenas) == 1:
                action()
            return exact_phase(batch, candidates, workspace)

        model._exact_candidate_values = hooked
        return arenas

    def test_calls_in_flight_together_leave_one_spare_arena(self, pipeline, small_task):
        """A call that starts while another is in flight gets its own
        arena; when both are done one arena is kept for the next call
        and the other is released."""
        features = small_task.sample_features(4, rng=2)
        want = pipeline.forward(features).logits
        arenas = self.during_exact_phase(pipeline, lambda: pipeline.top_k(features, 3))
        assert np.array_equal(pipeline.forward(features).logits, want)
        outer, inner = arenas
        assert outer is not inner and inner.nbytes > 0
        assert pipeline._arena is inner
        assert outer.nbytes == 0

    def test_threads_never_share_a_call_arena(self, pipeline, small_task):
        """Six threads (more than cores) in ``forward`` /
        ``forward_streaming`` / ``top_k`` on one pipeline, switching every
        microsecond: each output equals the one-thread output, which two
        calls on one arena would break."""
        features = [small_task.sample_features(4, rng=seed) for seed in range(6)]

        def answers(batch):
            return (
                pipeline.forward(batch).logits,
                pipeline.forward_streaming(batch).exact_values,
                *pipeline.top_k(batch, 3),
            )

        want = [answers(batch) for batch in features]
        wrong = []

        def work(index):
            for _ in range(5):
                if not all(map(np.array_equal, answers(features[index]), want[index])):
                    wrong.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_close_releases_an_arena_still_in_flight(self, pipeline, small_task):
        features = small_task.sample_features(4, rng=2)
        want = pipeline.forward(features).logits
        arenas = self.during_exact_phase(pipeline, pipeline.close)
        assert np.array_equal(pipeline.forward(features).logits, want)
        assert pipeline._arena is None
        assert arenas[0].nbytes == 0
        assert np.array_equal(pipeline.forward(features).logits, want)
        assert pipeline._arena is arenas[1]

    @pytest.mark.parametrize("store", ["float64", "int8"])
    @pytest.mark.parametrize("mode", ["top_m", "threshold"])
    def test_warm_calls_hold_no_tile_sized_temporary(self, multi_tile, mode, store):
        """A warm ``forward_streaming`` or ``top_k`` (16 rows, three
        tiles) allocates under a quarter of one tile's scores: the first
        fill partitions in arena scratch, the exact phase gathers into
        it, and both reuse the kept arena."""
        task, base = multi_tile
        selector = CandidateSelector(mode, 32)
        if mode == "threshold":
            selector.calibrate(
                base.screener.approximate_logits(task.sample_features(64, rng=9))
            )
        model = ApproximateScreeningClassifier(task.classifier, base.screener, selector)
        if store == "int8":
            model.quantize_exact_weights("int8")
        features = task.sample_features(16, rng=8)
        tile_bytes = features.shape[0] * TILE_CATEGORIES * 8
        for name, call in (
            ("forward_streaming", model.forward_streaming),
            ("top_k", lambda batch: model.top_k(batch, 5)),
        ):
            for _ in range(2):
                call(features)
            tracemalloc.start()
            try:
                call(features)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < tile_bytes / 4, name


class TestWholePlanePassIsOracleOnly:
    def test_serving_calls_never_select_over_the_plane(
        self, pipeline, small_task, monkeypatch
    ):
        """Every serving call runs the tile loop; whole-plane screening
        and selection belong to the per-row oracle (and calibration)."""
        from repro.core import ScreeningConfig, ScreeningModule
        from repro.distributed import ShardedClassifier

        sharded = ShardedClassifier(
            small_task.classifier,
            num_shards=2,
            config=ScreeningConfig(projection_dim=16),
        )
        sharded.train(small_task.sample_features(128, rng=3), rng=4)
        features = small_task.sample_features(5, rng=6)
        expected = forward_per_row(pipeline, features)

        def whole_plane(*args, **kwargs):
            raise AssertionError("whole-plane pass on a serving call")

        monkeypatch.setattr(CandidateSelector, "select", whole_plane)
        monkeypatch.setattr(ScreeningModule, "approximate_logits", whole_plane)
        assert np.array_equal(
            pipeline.forward(features).approximate_logits,
            expected.approximate_logits,
        )
        assert pipeline.predict(features).shape == (5,)
        assert pipeline.predict_proba(features).shape == (5, 2000)
        assert pipeline.top_k(features, 3)[0].shape == (5, 3)
        assert pipeline.forward_streaming(features).exact_count == 5 * 48
        assert sharded.forward(features).logits.shape == (5, 2000)
        assert sharded.top_k(features, 3)[0].shape == (5, 3)
        with pytest.raises(AssertionError, match="whole-plane"):
            forward_per_row(pipeline, features)

        # Nor do top_k and predict build the plane at all: they answer,
        # with the dense answers, when ``forward`` itself is gone —
        # single node, sequential shards and (forked) worker op alike.
        best = np.argmax(expected.logits, axis=1)
        sharded_top = sharded.top_k(features, 3)
        monkeypatch.setattr(ApproximateScreeningClassifier, "forward", whole_plane)
        assert np.array_equal(pipeline.predict(features), best)
        assert np.array_equal(pipeline.top_k(features, 3)[0][:, 0], best)
        assert np.array_equal(sharded.top_k(features, 3)[0], sharded_top[0])
        assert np.array_equal(sharded.predict(features), sharded_top[0][:, 0])
        with sharded.parallel(start_method="fork") as engine:
            assert np.array_equal(engine.top_k(features, 3)[1], sharded_top[1])
            assert np.array_equal(engine.predict(features), sharded_top[0][:, 0])
        with pytest.raises(AssertionError, match="whole-plane"):
            pipeline.predict_proba(features)


class TestFaithfulVsVectorized:
    """The tiled ``forward`` and the per-row oracle must be
    numerically identical — same candidates, same mixed logits, and
    bit-identical approximate scores (the screening and selection
    stages are shared; only the exact-phase arithmetic differs)."""

    def _assert_identical(self, model, features):
        faithful = forward_per_row(model, features)
        default = model.forward(features)
        assert default.logits.dtype == faithful.logits.dtype
        assert np.allclose(faithful.logits, default.logits, rtol=0, atol=1e-12)
        assert np.array_equal(
            faithful.approximate_logits, default.approximate_logits
        )
        for a, b in zip(faithful.candidates, default.candidates):
            assert np.array_equal(a, b)

    def test_top_m(self, pipeline, small_task):
        self._assert_identical(pipeline, small_task.sample_features(7))

    def test_threshold(self, small_task, small_screener):
        selector = CandidateSelector(mode="threshold", num_candidates=32)
        calibration = small_screener.approximate_logits(
            small_task.sample_features(64)
        )
        selector.calibrate(calibration)
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener, selector=selector
        )
        self._assert_identical(model, small_task.sample_features(7))

    def test_threshold_with_empty_rows(self, small_task, small_screener):
        # Pick a cutoff between the per-row maxima so some rows select
        # candidates and others select none.
        features = small_task.sample_features(8)
        row_max = small_screener.approximate_logits(features).max(axis=1)
        cutoff = float(np.median(row_max))
        selector = CandidateSelector(
            mode="threshold", num_candidates=1, threshold=cutoff
        )
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener, selector=selector
        )
        counts = model.forward(features).candidates.counts
        assert (counts == 0).any() and (counts > 0).any()
        self._assert_identical(model, features)

    def test_all_rows_empty(self, small_task, small_screener):
        selector = CandidateSelector(
            mode="threshold", num_candidates=1, threshold=1e12
        )
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener, selector=selector
        )
        self._assert_identical(model, small_task.sample_features(3))

    @pytest.mark.parametrize("feature_dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "mode, threshold, picked",
        [("top_m", None, 6), ("threshold", 500.0, 8), ("threshold", 1e12, 0)],
        ids=["top_m", "threshold", "threshold_selects_nothing"],
    )
    def test_ties_straddling_the_tile_boundary(
        self, mode, threshold, picked, feature_dtype
    ):
        """l = 8192 + 37: eight columns around the canonical tile
        boundary score exactly 1000 in every row (zero weight rows, so
        the score is the bias whatever the GEMM's summation order).
        Top-6 must keep the six lowest-indexed of them — four from the
        first tile, two from the second — whatever width the features
        arrive in (they are cast to float64 at the door)."""
        from repro.core import ScreeningConfig, ScreeningModule, train_screener
        from repro.core.screener import TILE_CATEGORIES
        from repro.data import make_task

        task = make_task(num_categories=TILE_CATEGORIES + 37, hidden_dim=16, rng=3)
        trained = train_screener(
            task.classifier,
            task.sample_features(64, rng=1),
            config=ScreeningConfig(projection_dim=4),
            solver="lstsq",
            rng=2,
        )
        tied = slice(TILE_CATEGORIES - 4, TILE_CATEGORIES + 4)
        weight, bias = trained.weight.copy(), trained.bias.copy()
        weight[tied], bias[tied] = 0.0, 1000.0
        screener = ScreeningModule(trained.projection, weight, bias)
        assert len(screener.tile_bounds()) == 2
        model = ApproximateScreeningClassifier(
            task.classifier,
            screener,
            CandidateSelector(mode, num_candidates=6, threshold=threshold),
        )
        features = task.sample_features(5, rng=7).astype(feature_dtype)
        self._assert_identical(model, features)
        dense = model.forward(features)
        assert dense.logits.dtype == np.float64
        first = TILE_CATEGORIES - 4
        for indices in dense.candidates:
            assert np.array_equal(indices, np.arange(first, first + picked))
        streamed = model.forward_streaming(features)
        rows, cols = dense.candidates.flat()
        assert np.array_equal(streamed.candidates.flat()[1], cols)
        assert np.array_equal(streamed.exact_values, dense.logits[rows, cols])
        assert np.array_equal(
            streamed.approximate_values, dense.approximate_logits[rows, cols]
        )

    @given(
        seed=st.integers(0, 2**31 - 1),
        mode=st.sampled_from(["top_m", "threshold"]),
        batch=st.integers(1, 9),
    )
    @settings(max_examples=25, deadline=None)
    def test_identity_property(
        self, small_task, small_screener, seed, mode, batch
    ):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((batch, small_task.hidden_dim))
        if mode == "top_m":
            selector = CandidateSelector(mode="top_m", num_candidates=16)
        else:
            scores = small_screener.approximate_logits(features)
            # Spread thresholds around the score range so examples hit
            # empty, partial, and full selections.
            cutoff = float(np.quantile(scores, rng.uniform(0.5, 1.0)))
            selector = CandidateSelector(
                mode="threshold", num_candidates=1, threshold=cutoff
            )
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener, selector=selector
        )
        self._assert_identical(model, features)


class TestScreenedOutput:
    def test_lazy_approximate_logits_reconstruction(
        self, pipeline, small_task, small_screener
    ):
        features = small_task.sample_features(5)
        out = pipeline.forward(features)
        # The vectorized path mixes in place and rebuilds the pure
        # screener scores on demand; they must match exactly.
        assert np.array_equal(
            out.approximate_logits, small_screener.approximate_logits(features)
        )
        # Stable across repeated access and not the mixed plane.
        assert out.approximate_logits is out.approximate_logits
        if out.exact_count:
            assert not np.array_equal(out.logits, out.approximate_logits)

    def test_requires_candidates(self):
        with pytest.raises(ValueError, match="candidate"):
            ScreenedOutput(logits=np.zeros((1, 4)), approximate_logits=np.zeros((1, 4)))

    def test_requires_approx_or_restore(self, pipeline, small_task):
        candidates = pipeline.forward(small_task.sample_features(1)).candidates
        with pytest.raises(ValueError, match="restore"):
            ScreenedOutput(logits=np.zeros((1, 2000)), candidates=candidates)


class TestProbabilities:
    def test_predict_proba_distribution(self, pipeline, small_task):
        proba = pipeline.predict_proba(small_task.sample_features(3))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_sigmoid_normalization_used(self, small_screener):
        import copy

        from repro.data import make_task

        task = make_task(
            num_categories=2000, hidden_dim=64, rng=1, normalization="sigmoid"
        )
        from repro.core import train_screener, ScreeningConfig

        screener = train_screener(
            task.classifier, task.sample_features(256),
            config=ScreeningConfig(projection_dim=16), solver="lstsq", rng=0,
        )
        model = ApproximateScreeningClassifier(task.classifier, screener)
        proba = model.predict_proba(task.sample_features(2))
        assert np.all((0 <= proba) & (proba <= 1))
        assert proba.sum(axis=1)[0] != pytest.approx(1.0)

    def test_taylor_softmax_option(self, small_task, small_screener):
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener,
            num_candidates=48, softmax_taylor_order=4,
        )
        features = small_task.sample_features(3)
        proba = model.predict_proba(features)
        assert np.allclose(proba.sum(axis=1), 1.0)
        exact_model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener, num_candidates=48
        )
        # SFU approximation keeps the argmax.
        assert np.array_equal(
            np.argmax(proba, axis=1),
            np.argmax(exact_model.predict_proba(features), axis=1),
        )

    def test_top_k(self, pipeline, small_task):
        features = small_task.sample_features(2)
        top, scores = pipeline.top_k(features, 5)
        assert top.shape == scores.shape == (2, 5)
        out = pipeline(features)
        assert np.array_equal(top[:, 0], np.argmax(out.logits, axis=1))


def test_serving_calls_import_nothing(tmp_path):
    """A process's first ``forward`` / ``forward_streaming`` / ``top_k``
    costs what its second does: no module — NumPy 2 loads ``numpy.ma``
    lazily inside ``np.unique`` — is imported on the request path of a
    pipeline or of a 2-shard ``ShardedClassifier``.  In a subprocess:
    this one has long since imported everything."""
    script = tmp_path / "first_request.py"
    script.write_text(
        textwrap.dedent(
            """
            import sys
            import numpy as np
            import repro.core.pipeline
            from repro.core import ApproximateScreeningClassifier, ScreeningConfig, train_screener
            from repro.core.candidates import CandidateSelector
            from repro.data import make_task
            from repro.distributed import ShardedClassifier

            task = make_task(num_categories=300, hidden_dim=32, rng=4)
            train = task.sample_features(128, rng=5)
            config = ScreeningConfig(projection_dim=8)
            screener = train_screener(task.classifier, train, config=config, solver="lstsq", rng=6)
            # Set by hand: np.quantile itself calls np.unique, and a
            # calibration here would hide the import from the check.
            cut = float(np.sort(screener.approximate_logits(train), axis=None)[-8 * len(train)])
            models = [
                ApproximateScreeningClassifier(task.classifier, screener, selector=selector)
                for selector in (
                    CandidateSelector(mode="top_m", num_candidates=8),
                    CandidateSelector(mode="threshold", threshold=cut),
                )
            ]
            sharded = ShardedClassifier(task.classifier, num_shards=2, config=config)
            sharded.train(train, candidates_per_shard=8, solver="lstsq", rng=7)
            features = task.sample_features(4, rng=8)

            before = set(sys.modules)
            for model in models + [sharded]:
                assert model.forward(features).candidates.total
                assert model.forward_streaming(features).candidates.total
                model.top_k(features, 3)
            gained = sorted(set(sys.modules) - before)
            assert not gained and "numpy.ma" not in sys.modules, gained
            print("NOTHING-IMPORTED")
            """
        )
    )
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "NOTHING-IMPORTED" in result.stdout
