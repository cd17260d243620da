import numpy as np
import pytest

from repro.core import FullClassifier, ScreeningConfig, train_screener
from repro.core.training import TrainingReport


@pytest.fixture(scope="module")
def setup(small_task=None):
    from repro.data import make_task

    task = make_task(num_categories=500, hidden_dim=32, rng=5)
    features = task.sample_features(256)
    return task.classifier, features


class TestTrainScreener:
    def test_lstsq_single_epoch(self, setup):
        classifier, features = setup
        screener, report = train_screener(
            classifier, features, solver="lstsq", rng=0, return_report=True
        )
        assert report.epochs == 1
        assert report.solver == "lstsq"

    def test_lstsq_is_optimal(self, setup):
        """No other (W̃, b̃) on the same projection does better on the
        training objective — perturbations only increase loss."""
        classifier, features = setup
        config = ScreeningConfig(projection_dim=8, quantization_bits=None)
        screener = train_screener(
            classifier, features, config=config, solver="lstsq", rng=0
        )
        targets = classifier.logits(features)
        projected = screener.project(features)

        def loss(weight, bias):
            pred = projected @ weight.T + bias
            return np.mean(np.sum((pred - targets) ** 2, axis=1))

        base = loss(screener.weight, screener.bias)
        rng = np.random.default_rng(1)
        for _ in range(5):
            dw = rng.standard_normal(screener.weight.shape) * 0.01
            db = rng.standard_normal(screener.bias.shape) * 0.01
            assert loss(screener.weight + dw, screener.bias + db) >= base

    def test_sgd_decreases_loss(self, setup):
        classifier, features = setup
        _, report = train_screener(
            classifier, features,
            config=ScreeningConfig(projection_dim=8),
            solver="sgd", lr=0.001, epochs=10, rng=0, return_report=True,
        )
        assert report.losses[-1] < report.losses[0]

    def test_adam_decreases_loss(self, setup):
        classifier, features = setup
        _, report = train_screener(
            classifier, features,
            config=ScreeningConfig(projection_dim=8),
            solver="adam", lr=0.01, epochs=15, rng=0, return_report=True,
        )
        assert report.losses[-1] < 0.5 * report.losses[0]

    def test_default_config_is_quarter_scale(self, setup):
        classifier, features = setup
        screener = train_screener(classifier, features, solver="lstsq", rng=0)
        assert screener.projection_dim == classifier.hidden_dim // 4

    def test_classifier_frozen(self, setup):
        classifier, features = setup
        before = classifier.weight.copy()
        train_screener(classifier, features, solver="lstsq", rng=0)
        assert np.array_equal(classifier.weight, before)

    def test_rejects_unknown_solver(self, setup):
        classifier, features = setup
        with pytest.raises(ValueError, match="solver"):
            train_screener(classifier, features, solver="lbfgs")

    def test_rejects_wrong_feature_dim(self, setup):
        classifier, _ = setup
        with pytest.raises(ValueError):
            train_screener(classifier, np.zeros((10, 7)), solver="lstsq")

    def test_returns_screener_only_by_default(self, setup):
        classifier, features = setup
        result = train_screener(classifier, features, solver="lstsq", rng=0)
        from repro.core.screener import ScreeningModule

        assert isinstance(result, ScreeningModule)

    def test_quantized_view_refreshed_after_training(self, setup):
        classifier, features = setup
        screener = train_screener(
            classifier, features,
            config=ScreeningConfig(projection_dim=8, quantization_bits=4),
            solver="lstsq", rng=0,
        )
        # The quantized view reflects the trained weights, not the init.
        assert np.allclose(
            screener._weight_deq,
            np.sign(screener.weight) * np.abs(screener._weight_deq),
            atol=np.abs(screener.weight).max(),
        )
        approx = screener.approximate_logits(features[:8])
        exact = classifier.logits(features[:8])
        correlation = np.corrcoef(approx.ravel(), exact.ravel())[0, 1]
        assert correlation > 0.8


def oracle_lstsq(classifier, features, config, rng):
    """The explicit-plane solve ``train_screener(solver="lstsq")`` used
    to run: materialize the ``rows × l`` targets, hand LAPACK ``l``
    right-hand sides, form the residual plane.  Kept here as the
    reference the closed form through ``(W, b)`` is compared against."""
    from repro.core.screener import initialize_screener

    projection = initialize_screener(
        classifier.num_categories, classifier.hidden_dim, config, rng=rng
    ).projection
    targets = features @ classifier.weight.T + classifier.bias
    design = np.hstack([projection(features), np.ones((features.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    residual = design @ solution - targets
    loss = float(np.mean(np.sum(residual**2, axis=1)))
    return projection, design, targets, solution[:-1].T, solution[-1], loss


class TestClosedFormAgainstExplicitPlane:
    """``solver="lstsq"`` never forms the targets; its answer must be the
    one ``np.linalg.lstsq`` gives on the explicit plane — including the
    minimum-norm answer where the design is rank-deficient."""

    L, D, K = 300, 24, 6

    def features(self, kind, rng):
        """``(features, projection_dim, design is rank-deficient)``."""
        draw = lambda rows: rng.standard_normal((rows, self.D))
        if kind == "rows >> k+1":
            return draw(400), self.K, False
        if kind == "rows = k+1":
            return draw(self.K + 1), self.K, False
        if kind == "rows < k+1":
            return draw(self.K - 2), self.K, True
        if kind == "duplicated rows":
            # 40 rows, 4 distinct: rank 4 < k + 1 = 7.
            return np.repeat(draw(4), 10, axis=0), self.K, True
        if kind == "constant column":
            # k = d makes [Ph | 1] span what [h | 1] does, so a constant
            # feature is collinear with the ones column.
            features = draw(200)
            features[:, 3] = 1.75
            return features, self.D, True
        raise AssertionError(kind)

    @pytest.mark.parametrize("bits", [4, None], ids=["int4", "float"])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["b=0", "b!=0"])
    @pytest.mark.parametrize(
        "kind",
        ["rows >> k+1", "rows = k+1", "rows < k+1", "duplicated rows",
         "constant column"],
    )
    def test_weights_bias_loss_match_the_oracle(self, kind, with_bias, bits):
        rng = np.random.default_rng(11)
        weight = rng.standard_normal((self.L, self.D))
        bias = 3.0 * rng.standard_normal(self.L) if with_bias else None
        classifier = FullClassifier(weight, bias)
        features, k, rank_deficient = self.features(kind, rng)
        config = ScreeningConfig(projection_dim=k, quantization_bits=bits)

        screener, report = train_screener(
            classifier, features, config=config, solver="lstsq", rng=7,
            return_report=True,
        )
        projection, design, targets, want_weight, want_bias, want_loss = (
            oracle_lstsq(classifier, features, config, rng=7)
        )

        assert (np.linalg.matrix_rank(design) < k + 1) == rank_deficient
        # Same generator, same first draw: the parent's projection bits.
        assert np.array_equal(screener.projection.matrix, projection.matrix)
        scale = np.abs(want_weight).max()
        assert np.abs(screener.weight - want_weight).max() <= 1e-10 * scale
        assert np.abs(screener.bias - want_bias).max() <= 1e-10 * max(
            scale, np.abs(want_bias).max()
        )
        # Relative to the target energy: an interpolating fit's loss is
        # rounding noise on both sides (1e-28 against 1e-31), which no
        # relative tolerance on the loss itself can compare.
        energy = float(np.mean(np.sum(targets**2, axis=1)))
        assert abs(report.final_loss - want_loss) <= 1e-10 * energy
        if kind == "rows >> k+1":
            assert report.final_loss == pytest.approx(want_loss, rel=1e-10)
            assert want_loss > 0.1 * energy  # a real residual, not noise

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_deficient_designs_across_seeds(self, seed):
        """The singular-value cut-off is where the two solves could part
        ways; six draws of each degenerate design, not one."""
        rng = np.random.default_rng(100 + seed)
        classifier = FullClassifier(
            rng.standard_normal((self.L, self.D)), rng.standard_normal(self.L)
        )
        for kind in ("rows < k+1", "duplicated rows", "constant column"):
            features, k, _ = self.features(kind, rng)
            config = ScreeningConfig(projection_dim=k, quantization_bits=None)
            screener = train_screener(
                classifier, features, config=config, solver="lstsq", rng=seed
            )
            _, _, _, want_weight, want_bias, _ = oracle_lstsq(
                classifier, features, config, rng=seed
            )
            scale = np.abs(want_weight).max()
            assert np.abs(screener.weight - want_weight).max() <= 1e-10 * scale
            assert np.abs(screener.bias - want_bias).max() <= 1e-10 * scale

    def test_lstsq_training_never_asks_for_the_logits_plane(
        self, setup, monkeypatch
    ):
        from repro.distributed import ShardedClassifier

        classifier, features = setup

        def no_plane(self, features, workspace=None):
            raise AssertionError("lstsq training materialized rows × l targets")

        monkeypatch.setattr(FullClassifier, "logits", no_plane)
        train_screener(classifier, features, solver="lstsq", rng=0)
        sharded = ShardedClassifier(classifier, num_shards=3)
        sharded.train(features, candidates_per_shard=8, rng=1)
        assert sharded.trained
        # The iterative solvers do need it, and still ask.
        with pytest.raises(AssertionError, match="materialized"):
            train_screener(classifier, features, solver="sgd", epochs=1, rng=0)

    def test_peak_memory_is_below_half_a_target_plane(self):
        """l = 100K, 256 rows: one ``rows × l`` plane is 205 MB and the
        explicit solve held three of them (669 MB traced); the closed
        form's peak is the ``l × k`` parameters it returns plus the
        quantizer's scratch over them."""
        import tracemalloc

        l, d, rows = 100_000, 64, 256
        rng = np.random.default_rng(3)
        classifier = FullClassifier.random(l, d, rng=rng)
        features = rng.standard_normal((rows, d))
        tracemalloc.start()
        try:
            screener = train_screener(classifier, features, solver="lstsq", rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert screener.num_categories == l
        assert peak < 0.5 * rows * l * 8


class TestShuffleVectorization:
    """The per-epoch gather + contiguous-slice mini-batching must not
    change a single bit of the training trajectory relative to the
    original per-step fancy-indexed slicing."""

    def reference_train(self, classifier, features, solver, epochs, batch_size, lr, rng):
        """The pre-vectorization SGD loop: fancy-index every step."""
        from repro.core.screener import initialize_screener
        from repro.core.training import TrainingReport, _mse_and_grads
        from repro.linalg.sgd import SGD, Adam
        from repro.utils.rng import ensure_rng

        config = ScreeningConfig(projection_dim=8)
        generator = ensure_rng(rng)
        screener = initialize_screener(
            classifier.num_categories, classifier.hidden_dim, config,
            rng=generator,
        )
        targets = classifier.logits(features)
        projected = screener.project(features)
        if solver == "sgd":
            optimizer = SGD([screener.weight, screener.bias], lr=lr, momentum=0.9)
        else:
            optimizer = Adam([screener.weight, screener.bias], lr=lr)
        report = TrainingReport(solver=solver)
        num_samples = features.shape[0]
        for _ in range(epochs):
            order = generator.permutation(num_samples)
            epoch_loss, num_batches = 0.0, 0
            for start in range(0, num_samples, batch_size):
                take = order[start : start + batch_size]
                loss, grad_w, grad_b = _mse_and_grads(
                    screener, projected[take], targets[take]
                )
                optimizer.step([grad_w, grad_b])
                epoch_loss += loss
                num_batches += 1
            report.losses.append(epoch_loss / max(num_batches, 1))
            if report.converged:
                break
        screener._refresh_quantized_weight()
        return screener, report

    @pytest.mark.parametrize("solver", ["sgd", "adam"])
    @pytest.mark.parametrize("batch_size", [64, 100])  # 100 leaves a ragged tail
    def test_trajectory_bit_identical(self, setup, solver, batch_size):
        classifier, features = setup
        screener, report = train_screener(
            classifier, features,
            config=ScreeningConfig(projection_dim=8),
            solver=solver, lr=0.001, epochs=5, batch_size=batch_size,
            rng=3, return_report=True,
        )
        expected_screener, expected_report = self.reference_train(
            classifier, features, solver, epochs=5, batch_size=batch_size,
            lr=0.001, rng=3,
        )
        assert report.losses == expected_report.losses
        assert np.array_equal(screener.weight, expected_screener.weight)
        assert np.array_equal(screener.bias, expected_screener.bias)


class TestTrainingReport:
    def test_final_loss_empty_raises(self):
        with pytest.raises(ValueError):
            TrainingReport().final_loss

    def test_converged_logic(self):
        report = TrainingReport(losses=[10.0, 9.99])
        assert report.converged
        report2 = TrainingReport(losses=[10.0, 5.0])
        assert not report2.converged
