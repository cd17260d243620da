import pytest

from repro.utils.charts import bar_chart, scatter


class TestBarChart:
    def test_peak_fills_width(self):
        chart = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert "█" * 10 in lines[1]
        assert "█" * 5 in lines[0]

    def test_labels_aligned(self):
        chart = bar_chart(["x", "long-label"], [1, 1], width=5)
        positions = [line.index("|") for line in chart.splitlines()]
        assert len(set(positions)) == 1

    def test_unit_suffix(self):
        chart = bar_chart(["a"], [3.5], unit="x")
        assert "3.5x" in chart

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1, 2])

    def test_zero_peak_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [0.0])


class TestScatter:
    def test_markers_present(self):
        chart = scatter([(1, 1), (2, 2), (3, 1.5)], markers=["A", "B", "C"])
        assert "A" in chart
        assert "B" in chart
        assert "C" in chart

    def test_extremes_at_corners(self):
        chart = scatter([(0, 0), (10, 10)], width=20, height=6)
        lines = chart.splitlines()
        assert "*" in lines[0]  # max y on top row
        assert "*" in lines[-3]  # min y on bottom data row

    def test_log_x(self):
        chart = scatter([(1, 1), (1000, 2)], log_x=True)
        assert "*" in chart

    def test_log_x_rejects_non_positive(self):
        with pytest.raises(ValueError):
            scatter([(0, 1)], log_x=True)

    def test_marker_count_mismatch(self):
        with pytest.raises(ValueError):
            scatter([(1, 1)], markers=["a", "b"])
