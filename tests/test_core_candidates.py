import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.candidates import CandidateSelector, CandidateSet

score_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.integers(4, 64)),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestCandidateSet:
    def test_counts_and_total(self):
        cs = CandidateSet(indices=[np.array([1, 2]), np.array([5])])
        assert cs.counts.tolist() == [2, 1]
        assert cs.total == 3
        assert cs.batch_size == 2

    def test_union_sorted_unique(self):
        cs = CandidateSet(indices=[np.array([3, 1]), np.array([1, 7])])
        assert cs.union().tolist() == [1, 3, 7]

    def test_union_empty(self):
        assert CandidateSet(indices=[]).union().size == 0

    def test_iter(self):
        arrays_ = [np.array([0]), np.array([1])]
        cs = CandidateSet(indices=arrays_)
        assert [a.tolist() for a in cs] == [[0], [1]]

    def test_flat_scatter_layout(self):
        cs = CandidateSet(indices=[np.array([3, 7]), np.array([]), np.array([2])])
        rows, cols = cs.flat()
        assert rows.tolist() == [0, 0, 2]
        assert cols.tolist() == [3, 7, 2]

    def test_flat_empty(self):
        rows, cols = CandidateSet(indices=[]).flat()
        assert rows.size == 0 and cols.size == 0

    def test_derived_views_cached(self):
        cs = CandidateSet(indices=[np.array([1, 2])])
        assert cs.union() is cs.union()
        assert cs.flat() is cs.flat()
        assert cs.counts is cs.counts


class TestTopMSelector:
    def test_selects_m_per_row(self):
        selector = CandidateSelector(mode="top_m", num_candidates=3)
        scores = np.random.default_rng(0).standard_normal((4, 20))
        out = selector.select(scores)
        assert all(idx.size == 3 for idx in out)

    def test_selects_largest(self):
        selector = CandidateSelector(mode="top_m", num_candidates=2)
        out = selector.select(np.array([[0.0, 5.0, 1.0, 4.0]]))
        assert sorted(out.indices[0].tolist()) == [1, 3]

    def test_indices_sorted_ascending(self):
        selector = CandidateSelector(mode="top_m", num_candidates=4)
        scores = np.random.default_rng(1).standard_normal((1, 30))
        idx = selector.select(scores).indices[0]
        assert np.all(np.diff(idx) > 0)

    def test_m_clamped_to_dim(self):
        selector = CandidateSelector(mode="top_m", num_candidates=100)
        out = selector.select(np.zeros((1, 5)))
        assert out.indices[0].size == 5

    def test_1d_promoted(self):
        selector = CandidateSelector(mode="top_m", num_candidates=2)
        out = selector.select(np.array([1.0, 2.0, 3.0]))
        assert out.batch_size == 1

    @given(score_arrays, st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_top_m_contains_max_value(self, scores, m):
        # Value-based (ties may resolve to any index holding the max).
        selector = CandidateSelector(mode="top_m", num_candidates=m)
        out = selector.select(scores)
        for row in range(scores.shape[0]):
            assert scores[row].max() in scores[row, out.indices[row]]


class TestThresholdSelector:
    def test_requires_calibration(self):
        selector = CandidateSelector(mode="threshold", num_candidates=5)
        with pytest.raises(ValueError, match="calibrate"):
            selector.select(np.zeros((1, 10)))

    def test_calibrate_then_select(self):
        selector = CandidateSelector(mode="threshold", num_candidates=10)
        rng = np.random.default_rng(0)
        validation = rng.standard_normal((32, 100))
        threshold = selector.calibrate(validation)
        assert selector.threshold == threshold
        out = selector.select(rng.standard_normal((16, 100)))
        assert 4 < np.mean(out.counts) < 20

    def test_explicit_threshold(self):
        selector = CandidateSelector(
            mode="threshold", num_candidates=1, threshold=0.5
        )
        out = selector.select(np.array([[0.0, 1.0, 0.4]]))
        assert out.indices[0].tolist() == [1]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            CandidateSelector(mode="random")

    def test_rejects_3d_scores(self):
        selector = CandidateSelector(mode="top_m", num_candidates=1)
        with pytest.raises(ValueError):
            selector.select(np.zeros((2, 2, 2)))
