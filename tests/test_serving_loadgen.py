"""Tests for the serving load generator.

The load generator is measurement equipment — these tests pin its
accounting (every offered request lands in exactly one outcome bucket),
its Zipfian request mix, and its open-loop arrival model against a cheap
stub backend so the suite stays fast.
"""

import numpy as np
import pytest

from repro.core.candidates import CandidateSet
from repro.core.pipeline import StreamedOutput
from repro.serving import (
    FrontDoor,
    LoadReport,
    ZipfianMix,
    run_open_loop,
)

pytestmark = pytest.mark.timeout(300)

HIDDEN_DIM = 6


class _StubBackend:
    """Instant answers; counts rows served for accounting checks."""

    num_categories = 8
    hidden_dim = HIDDEN_DIM

    def __init__(self):
        self.rows_served = 0

    def forward_streaming(self, features, block_categories=None):
        self.rows_served += features.shape[0]
        candidates = CandidateSet(
            indices=[np.arange(2, dtype=np.intp) for _ in range(features.shape[0])]
        )
        values = np.zeros(2 * features.shape[0])
        return StreamedOutput(candidates, values, values.copy(), self.num_categories)

    def top_k(self, features, k):
        self.rows_served += features.shape[0]
        indices = np.zeros((features.shape[0], k), dtype=np.intp)
        return indices, np.zeros(indices.shape)

    def predict(self, features):
        self.rows_served += features.shape[0]
        return np.zeros(features.shape[0], dtype=np.intp)

    def close(self):
        pass


class TestZipfianMix:
    def test_samples_come_from_the_pool(self):
        mix = ZipfianMix(hidden_dim=HIDDEN_DIM, pool_size=8, seed=3)
        for _ in range(16):
            row = mix.sample()
            assert any(np.array_equal(row, pooled) for pooled in mix.pool)

    def test_head_ranks_dominate(self):
        mix = ZipfianMix(hidden_dim=HIDDEN_DIM, pool_size=32, s=1.2, seed=3)
        assert mix.probabilities[0] == mix.probabilities.max()
        assert np.all(np.diff(mix.probabilities) < 0)  # strictly rank-ordered
        assert mix.probabilities.sum() == pytest.approx(1.0)

    def test_zero_exponent_is_uniform(self):
        mix = ZipfianMix(hidden_dim=HIDDEN_DIM, pool_size=5, s=0.0, seed=3)
        assert np.allclose(mix.probabilities, 0.2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfianMix(hidden_dim=HIDDEN_DIM, pool_size=0)
        with pytest.raises(ValueError):
            ZipfianMix(hidden_dim=HIDDEN_DIM, s=-1.0)


class TestOpenLoop:
    def test_poisson_arrivals_and_accounting(self):
        backend = _StubBackend()
        mix = ZipfianMix(hidden_dim=HIDDEN_DIM, pool_size=8, seed=1)
        with FrontDoor(backend, max_batch=8, flush_window_s=0.002) as door:
            report = run_open_loop(
                door, mix, rate_rps=400.0, duration_s=0.25, seed=7
            )
        assert report.offered > 0
        total = (
            report.served
            + report.shed_queue_full
            + report.shed_deadline
            + report.errors
        )
        assert total == report.offered
        assert report.duration_s > 0.2  # ends at the last arrival, not the window edge
        # Poisson(rate * duration) = 100 expected offers; 5 sigma slack.
        assert 50 <= report.offered <= 150

    def test_slo_sheds_are_counted_separately(self):
        backend = _StubBackend()
        mix = ZipfianMix(hidden_dim=HIDDEN_DIM, pool_size=8, seed=1)
        with FrontDoor(backend, max_batch=8, flush_window_s=0.01) as door:
            report = run_open_loop(
                door, mix, rate_rps=200.0, duration_s=0.1, slo_s=0.0, seed=7
            )
        assert report.served == 0
        assert report.shed_deadline == report.offered
        assert report.errors == 0

    def test_rejects_nonpositive_rate(self):
        backend = _StubBackend()
        mix = ZipfianMix(hidden_dim=HIDDEN_DIM, pool_size=4, seed=1)
        with FrontDoor(backend) as door:
            with pytest.raises(ValueError):
                run_open_loop(door, mix, rate_rps=0.0, duration_s=0.1)


class TestLoadReport:
    def test_empty_report_percentiles_are_nan(self):
        report = LoadReport()
        assert np.isnan(report.latency_percentile(99))
        assert np.isnan(report.mean_batch_size)
        assert report.throughput_rps == 0.0

    def test_summary_is_json_shaped(self):
        report = LoadReport(
            offered=2,
            served=2,
            duration_s=1.0,
            latencies_s=[0.001, 0.003],
            batch_sizes=[1, 2],
        )
        summary = report.summary()
        assert summary["throughput_rps"] == 2.0
        assert summary["mean_batch_size"] == 1.5
        assert summary["p50_ms"] == pytest.approx(2.0)
        for key in ("offered", "served", "p99_ms", "shed_queue_full"):
            assert key in summary
