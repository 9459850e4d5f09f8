"""Unit tests for the trace-driven traffic generator.

Determinism is the load generator's core promise — the same config must
produce the identical trace so benchmark runs are comparable — together
with the statistical shape: Zipf-skewed users and arrivals confined to
the configured window for both processes.
"""

import dataclasses

import numpy as np
import pytest

from .traffic import (RequestRecord, TraceConfig, TraceReport, build_trace,
                      zipf_weights)


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        weights = zipf_weights(100, alpha=1.1)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)

    def test_higher_alpha_concentrates_mass(self):
        flat = zipf_weights(100, alpha=0.5)
        skewed = zipf_weights(100, alpha=2.0)
        assert skewed[0] > flat[0]


class TestBuildTrace:
    def test_deterministic_under_seed(self):
        config = TraceConfig(n_users=50, rate_rps=100.0, duration_s=2.0,
                             seed=3)
        assert build_trace(config, ["a", "b"]) == \
            build_trace(config, ["a", "b"])

    def test_seed_changes_the_trace(self):
        base = TraceConfig(n_users=50, rate_rps=100.0, duration_s=2.0)
        one = build_trace(dataclasses.replace(base, seed=1), ["a"])
        two = build_trace(dataclasses.replace(base, seed=2), ["a"])
        assert one != two

    @pytest.mark.parametrize("arrival", ["poisson", "bursty"])
    def test_arrivals_sorted_within_window(self, arrival):
        config = TraceConfig(n_users=20, rate_rps=200.0, duration_s=1.0,
                             arrival=arrival, seed=0)
        trace = build_trace(config, ["q"])
        times = [event.at_s for event in trace]
        assert len(trace) > 50          # ~200 expected
        assert times == sorted(times)
        assert all(0.0 <= t < config.duration_s for t in times)

    def test_users_within_population(self):
        config = TraceConfig(n_users=8, rate_rps=300.0, duration_s=1.0)
        trace = build_trace(config, ["q"])
        assert all(0 <= event.user_id < 8 for event in trace)
        # Zipf skew: the most popular user dominates uniform share.
        top_user_share = np.mean([e.user_id == 0 for e in trace])
        assert top_user_share > 1.5 / 8

    def test_callable_text_source_sees_per_user_counter(self):
        seen = []

        def text_for(user_id, k):
            seen.append((user_id, k))
            return f"u{user_id}-q{k}"

        config = TraceConfig(n_users=3, rate_rps=100.0, duration_s=1.0)
        trace = build_trace(config, text_for)
        counters = {}
        for user_id, k in seen:
            assert k == counters.get(user_id, 0)
            counters[user_id] = k + 1
        assert [e.text for e in trace] == [f"u{u}-q{k}" for u, k in seen]

    def test_deadline_attached_to_every_event(self):
        config = TraceConfig(n_users=3, rate_rps=50.0, duration_s=1.0,
                             deadline_ms=250.0)
        assert all(e.deadline_ms == 250.0
                   for e in build_trace(config, ["q"]))

    @pytest.mark.parametrize("overrides", [
        {"n_users": 0},
        {"rate_rps": 0.0},
        {"duration_s": -1.0},
        {"arrival": "lognormal"},
        {"burst_fraction": 1.0},
    ])
    def test_config_validation(self, overrides):
        with pytest.raises(ValueError):
            TraceConfig(**overrides)


class TestTraceReport:
    def record(self, status, latency_s=0.1):
        return RequestRecord(user_id=0, scheduled_at_s=0.0,
                             latency_s=latency_s, status=status)

    def test_outcome_partition(self):
        report = TraceReport(records=[
            self.record(200), self.record(200), self.record(429),
            self.record(504), self.record(0)], wall_s=2.0)
        assert report.n_requests == 5
        assert report.completed == 2
        assert report.rejected == 1
        assert report.deadline_misses == 1
        assert report.transport_errors == 1
        assert report.throughput_rps() == pytest.approx(1.0)

    def test_percentiles_over_completed_only(self):
        report = TraceReport(records=[
            self.record(200, 0.1), self.record(200, 0.2),
            self.record(429, 99.0)], wall_s=1.0)
        assert report.p99_s() < 1.0     # the 429 is excluded

    def test_summary_keys(self):
        report = TraceReport(records=[self.record(200)], wall_s=1.0)
        summary = report.summary()
        assert set(summary) == {
            "requests", "completed", "rejected_429",
            "deadline_misses_504", "transport_errors", "latency_p50_ms",
            "latency_p99_ms", "throughput_rps", "wall_s"}

    def test_empty_report(self):
        report = TraceReport()
        assert report.p50_s() == 0.0
        assert report.throughput_rps() == 0.0
