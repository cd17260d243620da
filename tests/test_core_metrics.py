import numpy as np
import pytest

from repro.core import ApproximateScreeningClassifier
from repro.core.metrics import (
    ClassificationCost,
    approximation_error,
    candidate_recall,
    cost_of_full_classification,
    cost_of_screened_classification,
    cost_of_screened_output,
    top1_agreement,
)


class TestClassificationCost:
    def test_totals(self):
        cost = ClassificationCost(
            fp_flops=10, int_flops=5, fp_bytes=100, int_bytes=50
        )
        assert cost.flops == 15
        assert cost.bytes == 150

    def test_operational_intensity(self):
        cost = ClassificationCost(100, 0, 50, 0)
        assert cost.operational_intensity == 2.0

    def test_zero_bytes_infinite_intensity(self):
        cost = ClassificationCost(100, 0, 0, 0)
        assert cost.operational_intensity == float("inf")

    def test_add(self):
        a = ClassificationCost(1, 2, 3, 4)
        b = ClassificationCost(10, 20, 30, 40)
        total = a + b
        assert total.fp_flops == 11
        assert total.int_bytes == 44

    def test_scaled(self):
        assert ClassificationCost(1, 1, 1, 1).scaled(25).fp_flops == 25


class TestFullCost:
    def test_flops_formula(self):
        cost = cost_of_full_classification(1000, 128, batch_size=2)
        assert cost.fp_flops == 2 * 1000 * 128 * 2
        assert cost.fp_bytes == 4 * 1000 * 128  # streamed once per batch

    def test_no_integer_component(self):
        cost = cost_of_full_classification(10, 10)
        assert cost.int_flops == 0
        assert cost.int_bytes == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cost_of_full_classification(0, 128)


class TestScreenedCost:
    def test_reduces_traffic(self):
        full = cost_of_full_classification(100_000, 512)
        screened = cost_of_screened_classification(
            100_000, 512, 128, candidates_per_row=100
        )
        assert screened.bytes < full.bytes / 4

    def test_gather_capped_at_vocab(self):
        cost = cost_of_screened_classification(
            1000, 64, 16, candidates_per_row=1000, batch_size=100
        )
        assert cost.fp_bytes <= 4.0 * 1000 * 64

    def test_unique_fraction_reduces_fp_bytes(self):
        dense = cost_of_screened_classification(
            10_000, 64, 16, 100, batch_size=8, unique_candidate_fraction=1.0
        )
        shared = cost_of_screened_classification(
            10_000, 64, 16, 100, batch_size=8, unique_candidate_fraction=0.5
        )
        assert shared.fp_bytes == dense.fp_bytes / 2

    def test_zero_candidates_allowed(self):
        cost = cost_of_screened_classification(1000, 64, 16, 0)
        assert cost.fp_flops == 0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            cost_of_screened_classification(
                1000, 64, 16, 10, unique_candidate_fraction=2.0
            )

    def test_quantization_bits_scale_traffic(self):
        int4 = cost_of_screened_classification(1000, 64, 16, 0, quantization_bits=4)
        int8 = cost_of_screened_classification(1000, 64, 16, 0, quantization_bits=8)
        # Only the screener-weight term doubles; projection bytes fixed.
        weight4 = 1000 * 16 * 4 / 8
        weight8 = 1000 * 16 * 8 / 8
        assert int8.int_bytes - int4.int_bytes == pytest.approx(weight8 - weight4)


class TestMeasuredCost:
    def test_uses_actual_candidates(self, small_task, small_screener):
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener, num_candidates=32
        )
        out = model(small_task.sample_features(4))
        cost = cost_of_screened_output(small_task.classifier, small_screener, out)
        assert cost.fp_flops == pytest.approx(2.0 * 4 * 32 * 64)
        # fp traffic reflects the row union, not batch × m.
        union = out.candidates.union().size
        assert cost.fp_bytes == pytest.approx(4.0 * union * 64, rel=0.01)


class TestQualityMetrics:
    def test_recall_perfect(self):
        from repro.core.candidates import CandidateSet
        from repro.core.pipeline import ScreenedOutput

        exact = np.array([[0.0, 5.0, 1.0]])
        out = ScreenedOutput.from_planes(
            exact.copy(), exact.copy(), CandidateSet(indices=[np.array([1])])
        )
        assert candidate_recall(exact, out, k=1) == 1.0

    def test_recall_miss(self):
        from repro.core.candidates import CandidateSet
        from repro.core.pipeline import ScreenedOutput

        exact = np.array([[0.0, 5.0, 1.0]])
        out = ScreenedOutput.from_planes(
            exact.copy(), exact.copy(), CandidateSet(indices=[np.array([0])])
        )
        assert candidate_recall(exact, out, k=1) == 0.0

    def test_recall_shape_mismatch_rejected(self, small_task, small_screener):
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener
        )
        out = model(small_task.sample_features(2))
        with pytest.raises(ValueError):
            candidate_recall(np.zeros((3, 2000)), out, k=1)

    def test_approximation_error_zero_for_identical(self):
        data = np.random.default_rng(0).standard_normal((4, 10))
        assert approximation_error(data, data) == 0.0

    def test_approximation_error_relative(self):
        exact = np.ones((2, 4))
        approx = np.ones((2, 4)) * 1.1
        assert approximation_error(exact, approx) == pytest.approx(0.1)

    def test_top1_agreement(self, small_task, small_screener):
        model = ApproximateScreeningClassifier(
            small_task.classifier, small_screener, num_candidates=48
        )
        features = small_task.sample_features(16)
        out = model(features)
        exact = small_task.classifier.logits(features)
        assert top1_agreement(exact, out) >= 0.9
