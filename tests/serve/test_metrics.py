"""Unit tests for the log-bucketed latency histogram."""

import pytest

from repro.serve import LatencyHistogram


class TestRecording:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.percentile(0.5) == 0.0
        assert histogram.mean_s == 0.0
        assert histogram.summary() == {"count": 0, "p50_ms": 0.0,
                                       "p99_ms": 0.0, "mean_ms": 0.0,
                                       "max_ms": 0.0}

    def test_single_sample_is_exact(self):
        histogram = LatencyHistogram()
        histogram.record(0.123)
        # Min/max clamping makes one-sample percentiles exact, not
        # bucket-approximated.
        assert histogram.percentile(0.5) == pytest.approx(0.123)
        assert histogram.percentile(0.99) == pytest.approx(0.123)
        assert histogram.mean_s == pytest.approx(0.123)

    def test_exact_aggregates(self):
        histogram = LatencyHistogram()
        for value in (0.010, 0.020, 0.030):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.min_s == pytest.approx(0.010)
        assert histogram.max_s == pytest.approx(0.030)
        assert histogram.mean_s == pytest.approx(0.020)

    def test_negative_clamps_to_zero(self):
        histogram = LatencyHistogram()
        histogram.record(-1.0)
        assert histogram.min_s == 0.0


class TestPercentiles:
    def test_bucket_resolution(self):
        # 1000 samples spread over 1..100 ms: the log buckets are ~20%
        # wide, so estimates must land within that relative error.
        histogram = LatencyHistogram()
        values = [0.001 + 0.099 * i / 999 for i in range(1000)]
        for value in values:
            histogram.record(value)
        for q in (0.10, 0.50, 0.90, 0.99):
            exact = values[int(q * 999)]
            assert histogram.percentile(q) == pytest.approx(exact, rel=0.25)

    def test_monotone_in_q(self):
        histogram = LatencyHistogram()
        for i in range(100):
            histogram.record(0.0005 * (i + 1))
        quantiles = [histogram.percentile(q)
                     for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0)]
        assert quantiles == sorted(quantiles)

    def test_clamped_to_observed_range(self):
        histogram = LatencyHistogram()
        histogram.record(0.005)
        histogram.record(0.006)
        assert histogram.percentile(0.0) >= 0.005
        assert histogram.percentile(1.0) <= 0.006

    def test_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(1.5)

    def test_out_of_span_values_clamp_to_edge_buckets(self):
        histogram = LatencyHistogram()
        histogram.record(1e-9)     # below the 1 µs floor
        histogram.record(3600.0)   # above the ~17 min ceiling
        assert histogram.count == 2
        assert histogram.percentile(0.99) <= 3600.0


class TestSummary:
    def test_summary_units_are_milliseconds(self):
        histogram = LatencyHistogram()
        histogram.record(0.200)
        summary = histogram.summary()
        assert summary["p50_ms"] == pytest.approx(200.0)
        assert summary["max_ms"] == pytest.approx(200.0)
        assert summary["count"] == 1
