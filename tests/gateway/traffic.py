"""Trace-driven traffic: synthetic arrival processes and a replay harness.

The load side of the gateway's end-to-end tests.  A trace is built
*ahead of time* (deterministic under a seed) from three ingredients:

* **Arrival process** — Poisson (exponential inter-arrivals at a target
  rate) or bursty (a two-state Markov-modulated Poisson process: quiet
  base load punctuated by bursts at ``burst_factor`` × the base rate,
  the shape that actually breaks queues).
* **Population** — thousands of synthetic users with Zipf-skewed
  popularity (rank-``alpha`` power law), so a handful of hot users
  dominate exactly as real traffic does and the engine's LRU/session
  machinery gets exercised, not idealised.
* **Payloads** — a per-user text source (any callable), typically the
  LaMP query generator.

:func:`replay` then fires the trace **open-loop** against a gateway
through :class:`~repro.gateway.client.GatewayClient`: requests launch at
their trace timestamps whether or not earlier ones completed (that is
what makes overload measurable), from a thread pool, and every outcome —
success, 429 rejection, 504 deadline miss, transport error — lands in a
:class:`TraceReport` with p50/p99 latency and throughput.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.gateway.client import DeadlineExceeded, GatewayClient, GatewayError
from repro.llm.generation import GenerationConfig
from repro.utils import rng_from_seed

__all__ = ["TraceConfig", "TraceEvent", "zipf_weights", "build_trace",
           "RequestRecord", "TraceReport", "replay"]


@dataclass(frozen=True)
class TraceConfig:
    """Shape of one synthetic traffic trace."""

    n_users: int = 1000
    zipf_alpha: float = 1.1       # popularity skew (1.0–1.3 is web-like)
    rate_rps: float = 20.0        # mean arrival rate, requests/second
    duration_s: float = 10.0
    arrival: str = "poisson"      # "poisson" | "bursty"
    burst_factor: float = 8.0     # burst rate = rate_rps * burst_factor
    burst_fraction: float = 0.2   # long-run fraction of time in burst state
    mean_burst_s: float = 0.5     # mean burst episode length
    deadline_ms: float | None = None   # attach an SLO to every request
    seed: int = 0

    def __post_init__(self):
        if self.n_users <= 0:
            raise ValueError("n_users must be positive")
        if self.rate_rps <= 0 or self.duration_s <= 0:
            raise ValueError("rate_rps and duration_s must be positive")
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"expected 'poisson' or 'bursty'")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled request."""

    at_s: float                   # offset from trace start
    user_id: int
    text: str
    deadline_ms: float | None = None


def zipf_weights(n_users: int, alpha: float) -> np.ndarray:
    """Normalized rank-``alpha`` power-law popularity over ``n_users``."""
    ranks = np.arange(1, n_users + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def _arrival_times(config: TraceConfig, rng: np.random.Generator,
                   ) -> list[float]:
    if config.arrival == "poisson":
        times: list[float] = []
        t = rng.exponential(1.0 / config.rate_rps)
        while t < config.duration_s:
            times.append(t)
            t += rng.exponential(1.0 / config.rate_rps)
        return times
    # Bursty: two-state MMPP.  The base (quiet) rate is chosen so the
    # long-run mean equals rate_rps given the burst dwell fraction:
    #   mean = (1-f) * base + f * base * burst_factor
    f = config.burst_fraction
    base_rate = config.rate_rps / ((1.0 - f) + f * config.burst_factor)
    burst_rate = base_rate * config.burst_factor
    mean_quiet_s = config.mean_burst_s * (1.0 - f) / f
    times = []
    t = 0.0
    in_burst = False
    while t < config.duration_s:
        dwell = rng.exponential(
            config.mean_burst_s if in_burst else mean_quiet_s)
        phase_end = min(t + dwell, config.duration_s)
        rate = burst_rate if in_burst else base_rate
        arrival = t + rng.exponential(1.0 / rate)
        while arrival < phase_end:
            times.append(arrival)
            arrival += rng.exponential(1.0 / rate)
        t = phase_end
        in_burst = not in_burst
    return times


def build_trace(
    config: TraceConfig,
    text_for: Callable[[int, int], str] | Sequence[str],
) -> list[TraceEvent]:
    """Materialise a deterministic trace from the config and a text source.

    ``text_for`` is either a callable ``(user_id, k) -> str`` (``k``
    counts that user's requests so far) or a plain sequence cycled by
    event index.  Same config + same source ⇒ the identical trace.
    """
    rng = rng_from_seed(config.seed)
    times = _arrival_times(config, rng)
    weights = zipf_weights(config.n_users, config.zipf_alpha)
    users = rng.choice(config.n_users, size=len(times), p=weights)
    per_user_count: dict[int, int] = {}
    events: list[TraceEvent] = []
    for index, (at, user) in enumerate(zip(times, users)):
        user = int(user)
        if callable(text_for):
            k = per_user_count.get(user, 0)
            per_user_count[user] = k + 1
            text = text_for(user, k)
        else:
            text = text_for[index % len(text_for)]
        events.append(TraceEvent(at_s=float(at), user_id=user, text=text,
                                 deadline_ms=config.deadline_ms))
    return events


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestRecord:
    """Client-side outcome of one replayed request."""

    user_id: int
    scheduled_at_s: float
    latency_s: float
    status: int          # HTTP status; 0 = transport failure
    answer: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class TraceReport:
    """Aggregate view of one replay (latency in seconds)."""

    records: list[RequestRecord] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(r.ok for r in self.records)

    @property
    def rejected(self) -> int:
        return sum(r.status == 429 for r in self.records)

    @property
    def deadline_misses(self) -> int:
        return sum(r.status == 504 for r in self.records)

    @property
    def transport_errors(self) -> int:
        return sum(r.status == 0 for r in self.records)

    def _latencies(self, ok_only: bool = True) -> np.ndarray:
        values = [r.latency_s for r in self.records if r.ok or not ok_only]
        return np.asarray(values if values else [0.0])

    def p50_s(self) -> float:
        return float(np.percentile(self._latencies(), 50))

    def p99_s(self) -> float:
        return float(np.percentile(self._latencies(), 99))

    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s else 0.0

    def summary(self) -> dict:
        """JSON-ready digest of the replay."""
        return {
            "requests": self.n_requests,
            "completed": self.completed,
            "rejected_429": self.rejected,
            "deadline_misses_504": self.deadline_misses,
            "transport_errors": self.transport_errors,
            "latency_p50_ms": self.p50_s() * 1e3,
            "latency_p99_ms": self.p99_s() * 1e3,
            "throughput_rps": self.throughput_rps(),
            "wall_s": self.wall_s,
        }


def replay(
    client: GatewayClient,
    trace: Sequence[TraceEvent],
    *,
    generation: GenerationConfig | None = None,
    max_workers: int = 16,
    speed: float = 1.0,
) -> TraceReport:
    """Fire a trace at the gateway open-loop; returns the outcome report.

    ``speed`` scales trace time (2.0 replays twice as fast).  Requests
    are launched at their scheduled instants from a thread pool;
    completions, rejections (429 after the client's retry budget),
    deadline misses (504), and transport failures are all recorded
    rather than raised — overload is data here, not an error.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    report = TraceReport()
    results: list[RequestRecord | None] = [None] * len(trace)

    def fire(index: int, event: TraceEvent) -> None:
        started = time.perf_counter()
        status, answer, error = 0, "", ""
        try:
            response = client.query(
                event.user_id, event.text, generation=generation,
                request_id=f"trace-{index}",
                deadline_ms=event.deadline_ms)
            status, answer = 200, response.answer
        except DeadlineExceeded as exc:
            status, answer = 504, exc.partial_answer
        except GatewayError as exc:
            status, error = exc.status, str(exc)
        except Exception as exc:   # transport-level surprise
            error = f"{type(exc).__name__}: {exc}"
        results[index] = RequestRecord(
            user_id=event.user_id, scheduled_at_s=event.at_s,
            latency_s=time.perf_counter() - started,
            status=status, answer=answer, error=error)

    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers) as pool:
        futures = []
        for index, event in enumerate(trace):
            target = start + event.at_s / speed
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(fire, index, event))
        for future in futures:
            future.result()
    report.records = [r for r in results if r is not None]
    report.wall_s = time.perf_counter() - start
    return report
