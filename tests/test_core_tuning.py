import numpy as np
import pytest

from repro.core import (
    ApproximateScreeningClassifier,
    CandidateSelector,
    tune_budget_for_recall,
    tune_threshold_for_recall,
)
from repro.core.metrics import candidate_recall


class TestTuneBudget:
    @pytest.fixture(scope="class")
    def validation(self):
        from repro.core import ScreeningConfig, train_screener
        from repro.data import make_task

        task = make_task(num_categories=2000, hidden_dim=64, rng=9)
        screener = train_screener(
            task.classifier, task.sample_features(512),
            config=ScreeningConfig(projection_dim=16), solver="lstsq", rng=10,
        )
        return task, screener, task.sample_features(96, rng=11)

    def test_meets_target(self, validation):
        task, screener, features = validation
        result = tune_budget_for_recall(
            task.classifier, screener, features, target_recall=0.99, k=1
        )
        assert result.met
        assert result.achieved_recall >= 0.99

    def test_budget_is_minimal(self, validation):
        """One fewer candidate must miss the target (minimality)."""
        task, screener, features = validation
        result = tune_budget_for_recall(
            task.classifier, screener, features, target_recall=1.0, k=1
        )
        if result.num_candidates > 1:
            smaller = ApproximateScreeningClassifier(
                task.classifier, screener,
                selector=CandidateSelector(
                    mode="top_m", num_candidates=result.num_candidates - 1
                ),
            )
            exact = task.classifier.logits(features)
            assert candidate_recall(exact, smaller(features), k=1) < 1.0

    def test_higher_target_bigger_budget(self, validation):
        task, screener, features = validation
        relaxed = tune_budget_for_recall(
            task.classifier, screener, features, target_recall=0.8, k=1
        )
        strict = tune_budget_for_recall(
            task.classifier, screener, features, target_recall=1.0, k=1
        )
        assert strict.num_candidates >= relaxed.num_candidates

    def test_k_greater_than_one(self, validation):
        task, screener, features = validation
        result = tune_budget_for_recall(
            task.classifier, screener, features, target_recall=0.95, k=5
        )
        assert result.num_candidates >= 5
        assert result.met

    def test_unreachable_target_reported(self, validation):
        task, screener, features = validation
        result = tune_budget_for_recall(
            task.classifier, screener, features,
            target_recall=1.0, k=1, max_fraction=0.0005,  # max 1 candidate
        )
        assert not result.met or result.num_candidates <= 1

    def test_candidate_fraction(self, validation):
        task, screener, features = validation
        result = tune_budget_for_recall(
            task.classifier, screener, features, target_recall=0.9
        )
        assert result.candidate_fraction == pytest.approx(
            result.num_candidates / 2000
        )

    def test_threshold_variant(self, validation):
        task, screener, features = validation
        threshold = tune_threshold_for_recall(
            task.classifier, screener, features, target_recall=0.95
        )
        assert np.isfinite(threshold)

    def test_rejects_bad_target(self, validation):
        task, screener, features = validation
        with pytest.raises(ValueError):
            tune_budget_for_recall(
                task.classifier, screener, features, target_recall=1.5
            )

    def test_infeasible_cap_probed_once(self, validation, monkeypatch):
        """The feasibility probe at the budget cap is the single most
        expensive evaluation of the whole search (a full screening pass
        at the largest budget); the infeasible path used to evaluate it
        twice back to back."""
        import repro.core.tuning as tuning

        task, screener, features = validation
        probes = []

        def never_enough(classifier, screener, features, exact, budget, k):
            probes.append(budget)
            return 0.0

        monkeypatch.setattr(tuning, "_recall_at_budget", never_enough)
        result = tune_budget_for_recall(
            task.classifier, screener, features, target_recall=0.99, k=1
        )
        assert not result.met
        assert result.achieved_recall == 0.0
        # Exactly one probe, at the cap budget, decides infeasibility
        # and supplies the reported recall.
        assert probes == [max(1, int(2000 * 0.5))]

    def test_no_budget_probed_twice(self, validation, monkeypatch):
        """Regression: the search used to re-run a full screening pass
        at the final budget even though the bisection had already probed
        it.  Every probe is a full screening pass, so each duplicate is
        pure waste — the probed-budget memo must make them impossible."""
        import repro.core.tuning as tuning

        task, screener, features = validation
        probes = []
        real_probe = tuning._recall_at_budget

        def counting_probe(classifier, screener, features, exact, budget, k):
            probes.append(budget)
            return real_probe(classifier, screener, features, exact, budget, k)

        monkeypatch.setattr(tuning, "_recall_at_budget", counting_probe)
        result = tune_budget_for_recall(
            task.classifier, screener, features, target_recall=0.95, k=1
        )
        assert result.met
        assert len(probes) == len(set(probes))
        # The reported recall comes from the memo, not a fresh pass.
        assert result.achieved_recall == pytest.approx(
            real_probe(
                task.classifier, screener, features,
                task.classifier.logits(features), result.num_candidates, 1,
            )
        )

    def test_probes_build_no_plane(self, validation, monkeypatch):
        """Every bisection probe reads the candidate record of
        ``forward_streaming``: with dense ``forward`` unavailable, the
        search returns what it returns when every probe is dense."""
        import repro.core.tuning as tuning

        task, screener, features = validation

        def dense_probe(classifier, screener, features, exact, budget, k):
            model = ApproximateScreeningClassifier(
                classifier, screener,
                selector=CandidateSelector(mode="top_m", num_candidates=budget),
            )
            return candidate_recall(exact, model.forward(features), k=k)

        settings = [(0.95, 1), (1.0, 3)]
        with monkeypatch.context() as patch:
            patch.setattr(tuning, "_recall_at_budget", dense_probe)
            dense = [
                tune_budget_for_recall(task.classifier, screener, features, target, k)
                for target, k in settings
            ]

        def no_plane(self, features):
            raise AssertionError("a tuning probe built a batch x l plane")

        monkeypatch.setattr(ApproximateScreeningClassifier, "forward", no_plane)
        monkeypatch.setattr(ApproximateScreeningClassifier, "__call__", no_plane)
        streamed = [
            tune_budget_for_recall(task.classifier, screener, features, target, k)
            for target, k in settings
        ]
        assert streamed == dense

    def test_threshold_variant_forwards_max_fraction(
        self, validation, monkeypatch
    ):
        """Regression: tune_threshold_for_recall swallowed
        ``max_fraction``, so the budget search under the hood always ran
        against the default 0.5 cap."""
        import repro.core.tuning as tuning

        task, screener, features = validation
        seen = []
        real_tune = tuning.tune_budget_for_recall

        def spying_tune(classifier, screener, features, target, k, **kwargs):
            seen.append(kwargs)
            return real_tune(
                classifier, screener, features, target, k, **kwargs
            )

        monkeypatch.setattr(tuning, "tune_budget_for_recall", spying_tune)
        threshold = tune_threshold_for_recall(
            task.classifier, screener, features,
            target_recall=1.0, k=1, max_fraction=0.0005,
        )
        assert np.isfinite(threshold)
        assert seen == [{"max_fraction": 0.0005}]


class TestQuantizationAwareTraining:
    def test_qat_not_worse_than_ptq(self):
        """QAT loss (on the quantized forward) ends at or below the
        post-training-quantization loss of a same-budget PTQ screener."""
        from repro.core import ScreeningConfig, train_screener
        from repro.data import make_task

        task = make_task(num_categories=500, hidden_dim=32, rng=12)
        features = task.sample_features(256)
        config = ScreeningConfig(projection_dim=8, quantization_bits=4)

        ptq = train_screener(
            task.classifier, features, config=config,
            solver="adam", lr=0.01, epochs=40, rng=13,
        )
        qat = train_screener(
            task.classifier, features, config=config,
            solver="adam", lr=0.01, epochs=40, rng=13,
            quantization_aware=True,
        )
        exact = task.classifier.logits(features)

        def quantized_mse(screener):
            approx = screener.approximate_logits(features)
            return float(np.mean((approx - exact) ** 2))

        assert quantized_mse(qat) <= quantized_mse(ptq) * 1.1

    def test_qat_rejected_for_lstsq(self):
        from repro.core import ScreeningConfig, train_screener
        from repro.data import make_task

        task = make_task(num_categories=100, hidden_dim=16, rng=14)
        with pytest.raises(ValueError, match="iterative"):
            train_screener(
                task.classifier, task.sample_features(64),
                config=ScreeningConfig(projection_dim=4),
                solver="lstsq", quantization_aware=True,
            )
