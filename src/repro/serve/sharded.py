"""Sharding users across multiple serving engines.

A :class:`ShardedPromptEngine` hash-routes every user to one of ``n``
:class:`~repro.serve.engine.PromptServeEngine` workers over the same
shared base model.  Each worker owns its own crossbar banks, session LRU
and continuous-batching decode scheduler; the shard of a user is a
stable hash of their id, so a user's sessions, spilled snapshots and
in-flight generations always live on the same worker (and a shared
:class:`~repro.serve.store.SessionStore` never sees two workers write
the same user).

The sharded engine exposes the same thread-safe surface as a single
engine — ``begin_query`` / ``run_decode_round`` / ``cancel_query`` /
``submit`` / ``stats`` — so :class:`~repro.gateway.PromptGateway` serves
it unchanged: admission routes to the owning worker, one decode round
ticks every worker's scheduler, and ``stats()`` aggregates the fleet
(sums for additive counters, merged latency histograms, recomputed
ratios) plus a per-worker breakdown.

Because each sequence's decode is bit-exact regardless of batch
composition, routing users across workers changes *which* forwards batch
together but not one token of any answer: a sharded trace replays
byte-identically to a single engine serving the same requests.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from ..core.framework import FrameworkConfig, OVTLibrary
from ..data.lamp import Sample
from ..llm.generation import DecodeRoundReport, GenerationConfig
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from .api import (
    PendingQuery,
    QueryRequest,
    QueryResponse,
    TuneRequest,
    TuneResponse,
)
from .engine import PromptServeEngine
from .metrics import LatencyHistogram
from .session import UserSession
from .stats_manifest import STATS_MANIFEST
from .store import SessionStore

__all__ = ["ShardedPromptEngine"]


class ShardedPromptEngine:
    """N serving engines behind one engine-shaped facade."""

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: FrameworkConfig | None = None, *,
                 n_workers: int = 4,
                 max_sessions: int = 8,
                 max_pending: int | None = None,
                 session_store: SessionStore | None = None,
                 speculative=None):
        """``max_sessions`` and ``max_pending`` are per-worker budgets
        (each worker models one device's NVM banks and decode slots).
        ``speculative`` (a :class:`~repro.llm.speculative.
        SpeculativeDecoder`) is shared by every worker — it is stateless
        across rounds and its draft model is read-only, so one draft
        serves the whole fleet."""
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.model = model
        self.tokenizer = tokenizer
        self.config = config if config is not None else FrameworkConfig()
        self.session_store = session_store
        self.speculative = speculative
        self.workers: tuple[PromptServeEngine, ...] = tuple(
            PromptServeEngine(model, tokenizer, self.config,
                              max_sessions=max_sessions,
                              max_pending=max_pending,
                              session_store=session_store,
                              speculative=speculative)
            for _ in range(n_workers))

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, user_id: int) -> int:
        """The worker index owning ``user_id`` — stable across runs.

        A salted SHA-256 of the id (not Python's randomized ``hash``), so
        a user's shard survives restarts and is identical on every
        replica reading the same store.
        """
        digest = hashlib.sha256(f"shard:{int(user_id)}".encode()).digest()
        return int.from_bytes(digest[:8], "little") % len(self.workers)

    def worker_for(self, user_id: int) -> PromptServeEngine:
        return self.workers[self.shard_of(user_id)]

    # ------------------------------------------------------------------
    # Session management (delegated to the owning worker)
    # ------------------------------------------------------------------
    def session(self, user_id: int, *,
                config: FrameworkConfig | None = None) -> UserSession:
        return self.worker_for(user_id).session(user_id, config=config)

    def load_session(self, user_id: int, library: OVTLibrary, *,
                     config: FrameworkConfig | None = None) -> UserSession:
        return self.worker_for(user_id).load_session(user_id, library,
                                                     config=config)

    def has_session(self, user_id: int) -> bool:
        return self.worker_for(user_id).has_session(user_id)

    def active_users(self) -> list[int]:
        """Resident user ids across the fleet, grouped by worker."""
        users: list[int] = []
        for worker in self.workers:
            users.extend(worker.active_users())
        return users

    def drop_session(self, user_id: int, *, cancel_pending: bool = False,
                     spill: bool = True) -> bool:
        return self.worker_for(user_id).drop_session(
            user_id, cancel_pending=cancel_pending, spill=spill)

    # ------------------------------------------------------------------
    # Training mode
    # ------------------------------------------------------------------
    def observe(self, user_id: int, sample: Sample) -> bool:
        return self.worker_for(user_id).observe(user_id, sample)

    def submit(self, request: TuneRequest) -> TuneResponse:
        return self.worker_for(request.user_id).submit(request)

    def submit_batch(self, requests: list[TuneRequest]) -> list[TuneResponse]:
        """Absorb many users' batches; responses come back in input order.

        Grouped by user first (matching the single engine) so one user's
        buffer fills contiguously even when the input interleaves users.
        """
        order: OrderedDict[int, list[int]] = OrderedDict()
        for position, request in enumerate(requests):
            order.setdefault(request.user_id, []).append(position)
        responses: list[TuneResponse | None] = [None] * len(requests)
        for positions in order.values():
            for position in positions:
                responses[position] = self.submit(requests[position])
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Inference mode
    # ------------------------------------------------------------------
    def default_generation(self) -> GenerationConfig:
        return self.workers[0].default_generation()

    def answer(self, user_id: int, text: str,
               generation: GenerationConfig | None = None) -> str:
        return self.worker_for(user_id).answer(user_id, text, generation)

    def query(self, request: QueryRequest) -> QueryResponse:
        return self.worker_for(request.user_id).query(request)

    def answer_batch(self,
                     requests: list[QueryRequest]) -> list[QueryResponse]:
        """Serve a batch across the fleet; responses in input order.

        Each worker receives its users' requests as one sub-batch
        (preserving their arrival order) and drains them independently.
        Per-sequence decode is bit-exact whatever the batch composition,
        so the scattered result equals a single engine's, token for
        token.
        """
        by_worker: OrderedDict[int, list[int]] = OrderedDict()
        for position, request in enumerate(requests):
            by_worker.setdefault(self.shard_of(request.user_id),
                                 []).append(position)
        responses: list[QueryResponse | None] = [None] * len(requests)
        for shard, positions in by_worker.items():
            shard_responses = self.workers[shard].answer_batch(
                [requests[position] for position in positions])
            for position, response in zip(positions, shard_responses):
                responses[position] = response
        return responses  # type: ignore[return-value]

    def begin_query(self, request: QueryRequest, *,
                    deadline: float | None = None) -> PendingQuery:
        """Admit one query on the owning worker.

        Raises :class:`~repro.serve.engine.QueueFull` when that worker's
        pending queue is at capacity — backpressure is per shard, since
        each worker's decode batch is a separate device.
        """
        return self.worker_for(request.user_id).begin_query(
            request, deadline=deadline)

    def cancel_query(self, pending: PendingQuery) -> bool:
        return self.worker_for(pending.user_id).cancel_query(pending)

    def run_decode_round(self) -> DecodeRoundReport:
        """Tick every worker's scheduler once; merged round report.

        The gateway's decode loop calls this exactly as it would a single
        engine's round: each worker advances all of its pending
        generations by one token in its own batched forward.
        """
        tokens = active = retired = expired = 0
        for worker in self.workers:
            report = worker.run_decode_round()
            tokens += report.tokens_emitted
            active += report.n_active
            retired += report.n_retired
            expired += report.n_expired
        return DecodeRoundReport(tokens_emitted=tokens, n_active=active,
                                 n_retired=retired, n_expired=expired)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Fleet-wide aggregate plus a per-worker breakdown.

        Additive counters sum across workers; throughput ratios are
        recomputed from the summed numerators/denominators (not averaged
        averages); request latency histograms merge sample-by-sample.
        The shared session store is reported once, not per worker.
        """
        per_worker = []
        latency = LatencyHistogram()
        for worker in self.workers:
            # One critical section per worker: the decode thread records
            # into this histogram under the same lock, so the merge sees
            # exactly the samples the worker's own summary reports and
            # never a histogram mid-`record`.
            with worker._lock:
                per_worker.append(worker.stats())
                latency.merge(worker._latency)
        aggregate: dict = {}
        # Scalar kinds merge by their declared semantics.  A key missing
        # from any worker is skipped, not guessed at: a counter
        # aggregates only once it is both declared and emitted.
        for key, kind in STATS_MANIFEST.items():
            if not all(key in stats for stats in per_worker):
                continue
            values = [stats[key] for stats in per_worker]
            if kind == "additive":
                aggregate[key] = sum(values)
            elif kind == "capacity":
                aggregate[key] = (None if any(v is None for v in values)
                                  else sum(values))
        # Ratios recompute from the summed numerators/denominators.
        for key, kind in STATS_MANIFEST.items():
            if isinstance(kind, tuple) and kind[0] == "ratio":
                _, num, den = kind
                if num in aggregate and den in aggregate:
                    aggregate[key] = (aggregate[num] / aggregate[den]
                                      if aggregate[den] else 0.0)
        aggregate["latency_ms"] = latency.summary()
        aggregate["session_store"] = (self.session_store.stats()
                                      if self.session_store is not None
                                      else None)
        aggregate["n_workers"] = len(self.workers)
        # Model-resident accounting is structural, not additive: every
        # worker shares the one base model, so summing would multiply the
        # real footprint by the fleet size.  Worker 0 speaks for all.
        for key in ("quantized_layers", "weight_bytes", "weight_bytes_saved"):
            aggregate[key] = per_worker[0][key]
        aggregate["workers"] = per_worker
        return aggregate
