import tracemalloc

import numpy as np
import pytest

from repro.core import FullClassifier
from repro.utils.memory import Workspace


class TestConstruction:
    def test_random_shapes(self):
        clf = FullClassifier.random(100, 16, rng=0)
        assert clf.num_categories == 100
        assert clf.hidden_dim == 16
        assert clf.bias.shape == (100,)

    def test_default_zero_bias(self):
        clf = FullClassifier(np.ones((5, 3)))
        assert np.all(clf.bias == 0)

    def test_rejects_1d_weight(self):
        with pytest.raises(ValueError):
            FullClassifier(np.ones(5))

    def test_rejects_bias_mismatch(self):
        with pytest.raises(ValueError):
            FullClassifier(np.ones((5, 3)), bias=np.zeros(4))

    def test_rejects_unknown_normalization(self):
        with pytest.raises(ValueError):
            FullClassifier(np.ones((5, 3)), normalization="tanh")

    def test_nbytes(self):
        clf = FullClassifier(np.ones((10, 4)))
        assert clf.nbytes == (40 + 10) * 4


class TestForward:
    def test_logits_match_manual(self):
        weight = np.array([[1.0, 0.0], [0.0, 2.0]])
        bias = np.array([0.5, -0.5])
        clf = FullClassifier(weight, bias)
        out = clf.logits(np.array([3.0, 4.0]))
        assert np.allclose(out, [[3.5, 7.5]])

    def test_single_vector_promoted(self):
        clf = FullClassifier.random(10, 4, rng=0)
        assert clf.logits(np.zeros(4)).shape == (1, 10)

    def test_logits_for_subset_matches_full(self, small_task):
        clf = small_task.classifier
        features = small_task.sample_features(3)
        full = clf.logits(features)
        subset = clf.logits_for([5, 100, 1999], features)
        assert np.allclose(subset, full[:, [5, 100, 1999]])

    def test_logits_for_rejects_2d_indices(self):
        clf = FullClassifier.random(10, 4, rng=0)
        with pytest.raises(ValueError):
            clf.logits_for(np.array([[1, 2]]), np.zeros(4))

    @pytest.mark.parametrize("count", [0, 1, 1024, 1025, 20_000])
    def test_candidate_scores_gathers_in_bounded_chunks(self, small_task, count):
        """One dot product per pair — the bits of the whole-gather
        einsum — with the two gathered operands a chunk long, not
        ``count`` long."""
        clf = small_task.classifier
        features = small_task.sample_features(8, rng=3)
        rng = np.random.default_rng(count)
        rows = np.sort(rng.integers(0, 8, count))
        cols = rng.integers(0, clf.num_categories, count)
        want = np.einsum("nd,nd->n", clf.weight[cols], features[rows]) + clf.bias[cols]
        tracemalloc.start()
        try:
            got = clf.candidate_scores(rows, cols, features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 2 * 1024 * clf.hidden_dim * 8 + got.nbytes + 64 * 1024

    def test_candidate_scores_in_a_workspace_allocate_only_the_result(
        self, small_task
    ):
        """With a workspace the two operands are arena slabs: a warm
        call allocates its result and little else, same bits."""
        clf = small_task.classifier
        features = small_task.sample_features(8, rng=3)
        rng = np.random.default_rng(1)
        rows = np.sort(rng.integers(0, 8, 5000))
        cols = rng.integers(0, clf.num_categories, 5000)
        workspace = Workspace()
        want = clf.candidate_scores(rows, cols, features)
        assert np.array_equal(clf.candidate_scores(rows, cols, features, workspace), want)
        tracemalloc.start()
        try:
            got = clf.candidate_scores(rows, cols, features, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < got.nbytes + 64 * 1024

    @pytest.mark.parametrize("which", ["rows", "cols"])
    @pytest.mark.parametrize("bad", [-10**6, 10**6])
    def test_candidate_scores_range_checks_its_indices(self, small_task, which, bad):
        """The gathers run unbuffered, so the indices are checked first;
        negative indices inside the axis count from its end, as in
        indexing."""
        clf = small_task.classifier
        features = small_task.sample_features(8, rng=3)
        rows, cols = np.array([0, 3, -1]), np.array([5, -2, 7])
        want = np.einsum("nd,nd->n", clf.weight[cols], features[rows]) + clf.bias[cols]
        assert np.array_equal(clf.candidate_scores(rows, cols, features), want)
        bad_rows, bad_cols = rows.copy(), cols.copy()
        (bad_rows if which == "rows" else bad_cols)[1] = bad
        with pytest.raises(IndexError):
            clf.candidate_scores(bad_rows, bad_cols, features)

    def test_gather_rows_matches_indexing(self, small_task):
        clf = small_task.classifier
        cols = np.array([3, 0, 1999, 3])
        out = np.empty((4, clf.hidden_dim))
        assert clf.gather_rows(cols, out=out) is out
        assert np.array_equal(out, clf.weight[cols])
        with pytest.raises(IndexError):
            clf.gather_rows(np.array([clf.num_categories]))

    def test_predict_proba_softmax_distribution(self, small_task):
        proba = small_task.classifier.predict_proba(
            small_task.sample_features(4)
        )
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0)

    def test_predict_proba_sigmoid(self):
        clf = FullClassifier.random(20, 8, rng=0, normalization="sigmoid")
        proba = clf.predict_proba(np.zeros(8))
        assert np.all((0 <= proba) & (proba <= 1))
        # sigmoid outputs are not a distribution
        assert proba.sum() != pytest.approx(1.0)

    def test_log_proba_consistent(self, small_task):
        features = small_task.sample_features(2)
        clf = small_task.classifier
        assert np.allclose(
            np.exp(clf.log_proba(features)), clf.predict_proba(features)
        )

    def test_log_proba_rejected_for_sigmoid(self):
        clf = FullClassifier.random(5, 3, rng=0, normalization="sigmoid")
        with pytest.raises(ValueError):
            clf.log_proba(np.zeros(3))

    def test_predict_is_argmax(self, small_task):
        features = small_task.sample_features(5)
        clf = small_task.classifier
        assert np.array_equal(
            clf.predict(features), np.argmax(clf.logits(features), axis=1)
        )
