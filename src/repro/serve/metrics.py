"""Serving-side latency metrics.

:class:`LatencyHistogram` is the per-request latency aggregate shared by
the engine, the HTTP gateway, and the load benchmarks: a fixed set of
log-spaced buckets (O(1) record, bounded memory no matter how many
requests flow through) plus exact count/sum/min/max, with percentile
estimates interpolated inside the winning bucket.  Relative bucket width
is ~20%, which is far below the run-to-run noise of any wall-clock
latency this repo measures.

The histogram is intentionally dependency-free and lock-free; callers
that record from several threads (the engine does) guard it with their
own lock.
"""

from __future__ import annotations

import math

__all__ = ["LatencyHistogram"]

# Buckets span 1 microsecond .. ~17 minutes with ~20% resolution; anything
# outside clamps to the edge buckets.
_FLOOR_S = 1e-6
_GROWTH = 1.2
_N_BUCKETS = 120


class LatencyHistogram:
    """Log-bucketed latency histogram with p50/p99 summaries."""

    __slots__ = ("_counts", "count", "total_s", "min_s", "max_s")

    def __init__(self):
        self._counts = [0] * _N_BUCKETS
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    # ------------------------------------------------------------------
    @staticmethod
    def _bucket(seconds: float) -> int:
        if seconds <= _FLOOR_S:
            return 0
        index = int(math.log(seconds / _FLOOR_S, _GROWTH)) + 1
        return min(index, _N_BUCKETS - 1)

    @staticmethod
    def _bucket_bounds(index: int) -> tuple[float, float]:
        if index == 0:
            return 0.0, _FLOOR_S
        return (_FLOOR_S * _GROWTH ** (index - 1),
                _FLOOR_S * _GROWTH ** index)

    # ------------------------------------------------------------------
    def record(self, seconds: float) -> None:
        """Record one request's wall latency (in seconds)."""
        seconds = max(0.0, float(seconds))
        self._counts[self._bucket(seconds)] += 1
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Estimated latency (seconds) at quantile ``q`` in [0, 1].

        Linear interpolation inside the winning bucket, clamped to the
        exact observed min/max so single-sample histograms are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, n in enumerate(self._counts):
            if n == 0:
                continue
            if seen + n >= rank:
                low, high = self._bucket_bounds(index)
                within = (rank - seen) / n
                value = low + (high - low) * within
                return min(max(value, self.min_s), self.max_s)
            seen += n
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-ready summary in milliseconds (the dashboard unit)."""
        return {
            "count": self.count,
            "p50_ms": self.percentile(0.50) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
            "mean_ms": self.mean_s * 1e3,
            "max_ms": (self.max_s if self.count else 0.0) * 1e3,
        }

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        return (f"LatencyHistogram(n={self.count}, "
                f"p50={self.percentile(0.5) * 1e3:.2f}ms, "
                f"p99={self.percentile(0.99) * 1e3:.2f}ms)")
