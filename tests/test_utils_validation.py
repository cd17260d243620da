import numpy as np
import pytest

from repro.utils.validation import (
    check_batch_features,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.001)

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", value)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        check_probability("p", value)

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestCheckBatchFeatures:
    def test_promotes_vector_to_batch(self):
        out = check_batch_features(np.zeros(8), 8)
        assert out.shape == (1, 8)

    def test_passes_through_batch(self):
        out = check_batch_features(np.zeros((3, 8)), 8)
        assert out.shape == (3, 8)

    def test_casts_to_float64(self):
        out = check_batch_features(np.zeros((2, 4), dtype=np.float32), 4)
        assert out.dtype == np.float64

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="hidden dim"):
            check_batch_features(np.zeros((2, 5)), 8)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            check_batch_features(np.zeros((2, 2, 2)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_naming_the_first_bad_row(self, bad):
        features = np.zeros((4, 8))
        features[2, 3] = features[3, 0] = bad
        with pytest.raises(ValueError, match="row 2 contains NaN/inf"):
            check_batch_features(features, 8)
