"""Unit tests for latency series and job metrics."""

import pytest

from repro.engine.metrics import JobMetrics, LatencySeries


class TestLatencySeries:
    def test_record_and_summaries(self):
        series = LatencySeries()
        for t in range(10):
            series.record(float(t), 0.1 * (t + 1))
        assert len(series) == 10
        assert series.mean() == pytest.approx(0.55)
        assert series.maximum() == pytest.approx(1.0)

    def test_window_filters_by_time(self):
        series = LatencySeries()
        for t in range(10):
            series.record(float(t), float(t))
        assert series.mean(start=5.0) == pytest.approx(7.0)
        assert series.mean(end=4.0) == pytest.approx(2.0)
        assert series.values(start=3.0, end=5.0) == [3.0, 4.0, 5.0]

    def test_percentile_nearest_rank(self):
        # Nearest-rank: the ceil(q*n)-th smallest value, 1-based.  With
        # 100 samples 0..99 the median is the 50th smallest = 49.0 (the
        # old int(q*n) indexing over-read integer ranks by one).
        series = LatencySeries()
        for t in range(100):
            series.record(float(t), float(t))
        assert series.percentile(0.5) == pytest.approx(49.0)
        assert series.percentile(0.99) == pytest.approx(98.0)
        assert series.percentile(1.0) == pytest.approx(99.0)
        assert series.percentile(0.0) == pytest.approx(0.0)

    def test_percentile_small_series(self):
        series = LatencySeries()
        for latency in (1.0, 2.0, 3.0, 4.0):
            series.record(0.0, latency)
        assert series.percentile(0.5) == pytest.approx(2.0)
        assert series.percentile(0.75) == pytest.approx(3.0)
        assert series.percentile(0.76) == pytest.approx(4.0)

    def test_weighted_percentile_respects_weight(self):
        # One weight-99 fast sample and one weight-1 slow sample: the
        # slow record is 1% of real traffic, so p50 (and even p90) must
        # report the fast latency.  The unweighted definition returned
        # the slow one.
        series = LatencySeries()
        series.record(0.0, 0.1, weight=99)
        series.record(1.0, 10.0, weight=1)
        assert series.percentile(0.5) == pytest.approx(0.1)
        assert series.percentile(0.9) == pytest.approx(0.1)
        assert series.percentile(0.999) == pytest.approx(10.0)

    def test_weighted_mean(self):
        series = LatencySeries()
        series.record(0.0, 0.1, weight=99)
        series.record(1.0, 10.0, weight=1)
        assert series.mean() == pytest.approx((0.1 * 99 + 10.0) / 100)
        assert sum(w for _l, w in series.weighted_values()) == 100

    def test_weighted_p99_under_skew(self):
        # 9 heavy fast samples (weight 1000 each) + 90 light slow ones:
        # slow records are ~1% of modeled traffic, so p99 straddles the
        # boundary -- weight-unaware counting would report the slow tail
        # as the median.
        series = LatencySeries()
        for i in range(9):
            series.record(float(i), 0.05, weight=1000)
        for i in range(90):
            series.record(10.0 + i, 5.0, weight=1)
        assert series.percentile(0.5) == pytest.approx(0.05)
        assert series.percentile(0.99) == pytest.approx(0.05)
        assert series.percentile(0.995) == pytest.approx(5.0)

    def test_default_weight_is_one(self):
        series = LatencySeries()
        series.record(0.0, 1.0)
        assert series.samples == [(0.0, 1.0, 1)]
        assert sum(w for _l, w in series.weighted_values()) == 1

    def test_empty_series_summaries_are_zero(self):
        series = LatencySeries()
        assert series.mean() == 0.0
        assert series.percentile(0.99) == 0.0

    def test_downsampling_bounds_memory(self):
        series = LatencySeries(max_samples=100)
        for t in range(10_000):
            series.record(float(t), 1.0)
        assert len(series.samples) <= 100
        # Later samples are still admitted at the degraded resolution.
        assert series.samples[-1][0] > 9000

    def test_downsampled_series_remains_time_ordered(self):
        series = LatencySeries(max_samples=64)
        for t in range(5000):
            series.record(float(t), 1.0)
        times = [t for t, _l, _w in series.samples]
        assert times == sorted(times)


class TestJobMetrics:
    def test_per_operator_series(self):
        metrics = JobMetrics()
        metrics.sample_latency(1.0, 0.5, "join")
        metrics.sample_latency(2.0, 0.7, "agg")
        metrics.sample_latency(3.0, 0.9, "join")
        assert len(metrics.latency) == 3
        assert len(metrics.latency_by_operator["join"]) == 2
        assert len(metrics.latency_by_operator["agg"]) == 1

    def test_sample_latency_forwards_weight(self):
        metrics = JobMetrics()
        metrics.sample_latency(1.0, 0.5, "join", weight=7)
        for series in (metrics.latency, metrics.latency_by_operator["join"]):
            assert sum(w for _l, w in series.weighted_values()) == 7
