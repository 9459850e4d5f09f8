"""The multi-user serving engine.

One :class:`PromptServeEngine` owns a single frozen base model and
tokenizer — the expensive shared substrate — and a bounded LRU cache of
per-user :class:`~repro.serve.session.UserSession`s, mirroring an edge
deployment where the NVM banks can hold only so many users' OVT libraries
at once.  Training data and queries arrive as typed request objects
(:mod:`repro.serve.api`); answers carry retrieval telemetry, including the
simulated latency/energy of the retrieval: the tiles the deployment's
banks occupy, priced by :mod:`repro.cim.energy`.

Batched entry points (:meth:`PromptServeEngine.submit_batch`,
:meth:`PromptServeEngine.answer_batch`) group requests by user, so one
user's buffer fills contiguously and their deployment is resolved once
per batch of queries.  A tune trains off the engine lock and programs
the new library's crossbars when it publishes
(:meth:`PromptServeEngine.submit`).  Because
retrieval noise is drawn at *programming* time (not per read), batched
answers are byte-identical to sequential ones — and the crossbar counters
(the energy model's input) move by the same amount either way.

Generation runs through the incremental decode path: each session keeps an
LRU of prefill slots keyed by ``(text, OVT index)``, so repeated queries —
within one ``answer_batch`` or across calls — share one KV prefill and
every token is a single-position forward.  Incremental decoding emits
exactly the tokens the full-reforward loop would, so this changes latency,
not answers.

A query admitted by :meth:`PromptServeEngine.begin_query` — the serving
path the gateway drives — also reuses a finished answer.  Its slot goes
*queued* (the prompt waits on the admission's prefill batch) →
*prefilled* (it holds the KV state) → *answered*: the first such
generation from it that ends on EOS or a limit leaves its tokens, and
the :class:`~repro.llm.generation.GenerationConfig` they were decoded
under, on the slot, which lets go of the KV.  Decoding one state under
one config is deterministic, so a later ``begin_query`` on the slot
under that config (an *answer hit*) is finished at admission with those
tokens and never joins the scheduler; one under another config takes a
fresh slot in its place (a miss).  The blocking calls,
:meth:`PromptServeEngine.query` and ``answer_batch``, neither take nor
keep an answer: they decode every query, so they are the one-at-a-time
and batched reference decodes a served answer is checked against (an
answered slot is a miss for them).  The CiM search still runs for every
query — the retrieved index is half the key — so retrieval telemetry
and crossbar counters are per query.

There is one serving path.  Every query — :meth:`PromptServeEngine.query`
is ``answer_batch`` of one, ``begin_query`` the same admission of one —
is admitted to one :class:`~repro.llm.generation.DecodeScheduler` (or,
an answer hit, finished by that admission): admission scores all of a
user's query texts in one :meth:`~repro.retrieval.CiMSearchEngine
.query_batch` call (a single batched in-memory GMM per scale against that
user's crossbars; per-request telemetry and the deployment's priced
per-query cost are snapshotted then, and the crossbar operation counters bill
every query individually), the batch's prefill misses then run together
(one stacked forward per prompt length, bitwise the single prefills), and
:meth:`PromptServeEngine.run_decode_round`
advances *all* pending generations per round in a single batched forward —
the shared base model is amortised across users instead of finishing each
answer before starting the next.  Batching is invisible in the answers:
``answer_batch(requests)`` equals ``[engine.query(r) for r in requests]``
token for token, because every sequence keeps a private compact KV cache,
rng stream, and sampling config, and the batched forward is bit-exact per
sequence.  Queries may also be admitted individually with
:meth:`PromptServeEngine.begin_query` — the same admission with a batch
of one — and driven by explicit rounds.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict

import numpy as np

from ..nvm.crossbar import CrossbarStats
from ..core.framework import FrameworkConfig, OVTLibrary
from ..llm.generation import (
    DecodeRoundReport,
    DecodeScheduler,
    GenerationConfig,
    PrefillState,
)
from ..llm.quantization import quantization_stats
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from .api import (
    PendingQuery,
    QueryRequest,
    QueryResponse,
    TuneRequest,
    TuneResponse,
)
from .metrics import LatencyHistogram
from .session import PrefillBatch, PrefillSlot, UserSession
from .snapshot import SessionSnapshot, SnapshotError
from .store import SessionStore

__all__ = ["PromptServeEngine"]


class PromptServeEngine:
    """Serve many users' personal OVT libraries over one shared base model."""

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: FrameworkConfig | None = None, *,
                 max_sessions: int = 8,
                 session_store: SessionStore | None = None,
                 speculative=None):
        if max_sessions <= 0:
            raise ValueError("max_sessions must be positive")
        self.config = config if config is not None else FrameworkConfig()
        # Served at the precision its owner converted it to (before any
        # engine held it); the resident-weight accounting feeds stats().
        self._quantization = quantization_stats(model)
        self.model = model
        self.tokenizer = tokenizer
        self.max_sessions = max_sessions
        # Durable session storage: when present, LRU eviction spills each
        # session's (raw) snapshot here and session lookups transparently
        # restore spilled users instead of losing their trained state.
        self.session_store = session_store
        self._sessions: OrderedDict[int, UserSession] = OrderedDict()
        self.evicted_sessions = 0
        self.requests_served = 0
        self.admitted = 0   # queries admitted (decoded or answer hits)
        self.answer_hits = 0   # queries answered from a slot's kept answer
        self.prefill_forwards = 0   # stacked prefill forwards run
        self.prefill_rows = 0       # prompts they prefilled (misses)
        self.sessions_created = 0    # fresh sessions (paid full tuning)
        self.sessions_spilled = 0    # snapshots written to the store
        self.sessions_restored = 0   # sessions rebuilt from the store
        self.spilled_bytes = 0       # blob bytes handed to the store
        self.restored_bytes = 0      # blob bytes read back from it
        self.sessions_quarantined = 0    # blobs that did not restore
        self._evicted_prefill_hits = 0   # keeps stats monotonic across LRU
        self._evicted_cim = CrossbarStats()  # same, for crossbar counters
        # What was banked into the evicted baselines per spilled user, so a
        # restore can un-bank it: the restored session re-reports exactly
        # those counters itself, and leaving the banked copy in place
        # would double-count every spill/restore cycle.
        self._spill_baselines: dict[int, tuple[int, CrossbarStats]] = {}
        self._latency = LatencyHistogram()   # request wall latency
        # One re-entrant lock serializes every engine entry point: the
        # gateway drives admission (begin_query) and the decode loop
        # (run_decode_round) from different threads, and stats() may be
        # read from yet another.  Rounds hold the lock for one batched
        # forward, so readers see consistent counters, never torn state.
        # A tune holds it only to publish: its training runs beside the
        # rounds (submit).
        self._lock = threading.RLock()
        # Optional draft-verify decoding: a SpeculativeDecoder (see
        # repro.llm.speculative) makes every decode round draft several
        # tokens per greedy sequence with a small model and verify them in
        # one base forward.  Answers are token-identical with or without
        # one; only forward counts change.
        self.speculative = speculative
        # One continuous-batching decoder for the engine's lifetime: its
        # round/token/occupancy counters are the serving telemetry, and
        # pending generations from different calls share rounds.
        self._scheduler = DecodeScheduler(model, speculative=speculative)
        self._pending: list[PendingQuery] = []

    # ------------------------------------------------------------------
    # Session management (bounded, LRU — the on-device NVM budget)
    # ------------------------------------------------------------------
    def session(self, user_id: int, *,
                config: FrameworkConfig | None = None) -> UserSession:
        """The user's session, created (evicting the LRU one) if absent.

        A spilled user is transparently restored from the session store
        first — they come back with their trained library and NVM state
        instead of paying full re-tuning.  ``config`` overrides the
        engine default for *new* sessions only; existing and restored
        sessions keep the config they were captured with.
        """
        with self._lock:
            if user_id in self._sessions:
                self._sessions.move_to_end(user_id)
                return self._sessions[user_id]
            session = self._restore_session(user_id)
            if session is not None:
                return session
            session = UserSession(
                user_id, self.model, self.tokenizer,
                config if config is not None else self.config)
            self._sessions[user_id] = session
            self.sessions_created += 1
            self._evict_over_capacity()
            return session

    def _evict_over_capacity(self) -> None:
        """Spill least-recently-used sessions down to ``max_sessions``.

        A session leaves only after its spill succeeded: when the store
        refuses the blob the error reaches the caller, the victim stays
        resident with its trained state (the engine is over capacity by
        one) and the next eviction tries again.  A session with a tune in
        flight is passed over — the tune publishes into the session it
        started on — and when no other is left the engine stays over
        capacity until that tune's publish evicts again.
        """
        while len(self._sessions) > self.max_sessions:
            # LRU eviction may land on a session with generations still
            # in flight; those are self-contained (the decoder's
            # sequences own their caches and telemetry snapshots) and
            # finish normally, so eviction frees the NVM library
            # without touching any batch slot.  The most recent session
            # is the one a caller is about to use, never a victim.
            older = itertools.islice(self._sessions.items(),
                                     len(self._sessions) - 1)
            user_id = next((user_id for user_id, session in older
                            if not session.tunes_in_flight), None)
            if user_id is None:
                return
            self._spill_session(self._sessions[user_id])
            del self._sessions[user_id]
            self.evicted_sessions += 1

    def _spill_session(self, session: UserSession) -> None:
        """Snapshot a leaving session to the store, then bank its counters.

        Spill first, commit after: a ``put`` that raises has banked
        nothing.  The banked values are remembered per user so that a
        later restore can un-bank them — the restored session reports the
        same counters itself, and totals must not double-count.
        """
        hits = session.prefill_hits
        cim = session.cim_stats()
        if self.session_store is not None:
            blob = SessionSnapshot.capture(session, mode="raw").to_bytes()
            self.session_store.put(session.user_id, blob)
            self._spill_baselines[session.user_id] = (hits, cim)
            self.sessions_spilled += 1
            self.spilled_bytes += len(blob)
        self._evicted_prefill_hits += hits
        self._evicted_cim.add(cim)

    def _restore_session(self, user_id: int) -> UserSession | None:
        """Rebuild a spilled user from the store; None when unknown.

        A blob that does not restore (truncated, corrupt, another
        geometry, build or user) is quarantined and the user becomes
        unknown: this query fails like any untuned user's, the next tune
        starts a fresh session, no later query meets the blob again.  What the
        spill banked stays banked — those requests were served.
        """
        if self.session_store is None:
            return None
        blob = self.session_store.get(user_id)
        if blob is None:
            return None
        try:
            snap = SessionSnapshot.from_bytes(blob)
            if snap.user_id != user_id:
                raise SnapshotError(f"user {user_id}'s blob holds user "
                                    f"{snap.user_id}'s session")
            session = snap.build_session(self.model, self.tokenizer)
        except SnapshotError:
            self.session_store.quarantine(user_id)
            self.sessions_quarantined += 1
            self._spill_baselines.pop(user_id, None)
            return None
        self.restored_bytes += len(blob)
        baseline = self._spill_baselines.pop(user_id, None)
        if baseline is not None:
            # This engine banked these counters when it spilled the user;
            # the restored session re-reports them, so un-bank.  A blob
            # written by another engine has no baseline here and the
            # restored counters are simply new to this engine's totals.
            hits, cim = baseline
            self._evicted_prefill_hits -= hits
            self._evicted_cim.subtract(cim)
        self._sessions[user_id] = session
        self.sessions_restored += 1
        self._evict_over_capacity()
        return session

    def _resident_session(self, user_id: int) -> UserSession:
        """The user's existing session; never creates one.

        Spilled users transparently restore from the session store; only
        a user the engine has never seen fails.  That keeps the inference
        path from inserting an empty session and LRU-evicting a resident
        user's trained library on a stray request.
        """
        if user_id not in self._sessions:
            if self._restore_session(user_id) is None:
                raise KeyError(
                    f"no session for user {user_id!r}; submit training "
                    f"data (or load_session a library) first")
        return self.session(user_id)   # touches LRU recency

    def load_session(self, user_id: int, library: OVTLibrary, *,
                     config: FrameworkConfig | None = None) -> UserSession:
        """Create/refresh a session serving a library trained elsewhere.

        A tune of this user in flight publishes first; the adopted
        library then replaces what it published.
        """
        session = self.session(user_id, config=config)
        with session.tune_lock, self._lock:
            session.adopt_library(library)
        return session

    def has_session(self, user_id: int) -> bool:
        return user_id in self._sessions

    def active_users(self) -> list[int]:
        """Resident user ids, least- to most-recently used."""
        return list(self._sessions)

    def drop_session(self, user_id: int, *,
                     cancel_pending: bool = False,
                     spill: bool = True) -> bool:
        """Explicitly evict one user; True if anything was removed.

        With a session store attached the dropped session is spilled like
        an LRU eviction.  ``spill=False`` forgets the user instead: no
        snapshot is taken and their stored blob, if any, is deleted —
        whether or not they are resident right now, so a user who was
        already spilled cannot come back on their next query.  A dropped
        user's pending generations are self-contained (their decode state
        lives in the scheduler's sequences, not the session), so by
        default they run to completion and their responses stay
        token-identical to sequential serving.  With
        ``cancel_pending=True`` they are instead retired immediately:
        each handle completes with the tokens generated so far and is
        marked ``cancelled``.  Either way, other users' batch slots are
        untouched.
        """
        with self._lock:
            session = self._sessions.get(user_id)
            forgotten = False
            if not spill and self.session_store is not None:
                # What the spill banked for this user stays banked: those
                # requests were served.
                forgotten = self.session_store.delete(user_id)
                self._spill_baselines.pop(user_id, None)
            if session is None:
                return forgotten
            if spill:
                # A put that raises leaves the user resident, as in LRU
                # eviction: the session goes only once its blob is stored.
                self._spill_session(session)
            else:
                self._evicted_prefill_hits += session.prefill_hits
                self._evicted_cim.add(session.cim_stats())
            del self._sessions[user_id]
            if cancel_pending:
                for pending in [p for p in self._pending
                                if p._session is session]:
                    self.cancel_query(pending)
            return True

    def cancel_query(self, pending: PendingQuery) -> bool:
        """Cancel one in-flight query (client disconnect, gateway timeout).

        The generation retires immediately with the tokens produced so far
        — a clean prefix of the full answer — and the handle's response is
        finalised with ``cancelled=True``.  Returns False if the query had
        already completed (its response stands).  Other queries' batch
        slots are untouched.
        """
        with self._lock:
            if pending.done:
                return False
            self._scheduler.cancel(pending._sequence)
            pending.cancelled = True
            self._finalize(pending)
            return True

    def stats(self) -> dict:
        """Aggregate serving counters (for dashboards and tests).

        Safe to read while a decode round is in flight: request counters
        advance only when a generation retires, and decode telemetry
        (rounds, tokens, occupancy) comes from the scheduler's monotonic
        counters.
        """
        with self._lock:
            scheduler = self._scheduler
            rounds = scheduler.rounds
            cim = CrossbarStats().add(self._evicted_cim)
            for session in self._sessions.values():
                # Vectorized banks sum their counter vectors, so
                # aggregating on every stats() call stays cheap on the
                # serve path.  The evicted/retired baselines keep these
                # counters cumulative (monotonic) across LRU eviction and
                # retraining, like the decode counters beside them.
                cim.add(session.cim_stats())
            return {
                "active_sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "evicted_sessions": self.evicted_sessions,
                "sessions_created": self.sessions_created,
                "sessions_spilled": self.sessions_spilled,
                "sessions_restored": self.sessions_restored,
                "spilled_bytes": self.spilled_bytes,
                "restored_bytes": self.restored_bytes,
                "sessions_quarantined": self.sessions_quarantined,
                "resident_nvm_bytes": sum(s.nvm_bytes()
                                          for s in self._sessions.values()),
                "session_store": (self.session_store.stats()
                                  if self.session_store is not None
                                  else None),
                "requests_served": self.requests_served,
                "stored_ovts": sum(len(s.library)
                                   for s in self._sessions.values()),
                "prefill_hits": self._evicted_prefill_hits +
                                sum(s.prefill_hits
                                    for s in self._sessions.values()),
                "prefill_cache_bytes": sum(s.prefill_cache_bytes()
                                           for s in self._sessions.values()),
                "prefill_forwards": self.prefill_forwards,
                "prefill_rows": self.prefill_rows,
                "prefill_rows_per_forward": (
                    self.prefill_rows / self.prefill_forwards
                    if self.prefill_forwards else 0.0),
                "tunes_in_flight": sum(s.tunes_in_flight
                                       for s in self._sessions.values()),
                "pending_generations": len(self._pending),
                "admitted": self.admitted,
                "answer_hits": self.answer_hits,
                "latency_ms": self._latency.summary(),
                "decode_rounds": rounds,
                "decode_tokens": scheduler.tokens_emitted,
                "occupancy_sum": scheduler.occupancy_sum,
                "tokens_per_round": (scheduler.tokens_emitted / rounds
                                     if rounds else 0.0),
                "batch_occupancy": (scheduler.occupancy_sum / rounds
                                    if rounds else 0.0),
                "decode_grouped_rows": scheduler.grouped_rows,
                "grouped_row_share": (
                    scheduler.grouped_rows / scheduler.occupancy_sum
                    if scheduler.occupancy_sum else 0.0),
                "decode_forwards": scheduler.forwards,
                "spec_rounds": scheduler.spec_rounds,
                "draft_forwards": scheduler.draft_forwards,
                "draft_proposed_tokens": scheduler.draft_proposed,
                "draft_accepted_tokens": scheduler.draft_accepted,
                "tokens_per_forward": (
                    scheduler.tokens_emitted / scheduler.forwards
                    if scheduler.forwards else 0.0),
                "draft_acceptance_rate": (
                    scheduler.draft_accepted / scheduler.draft_proposed
                    if scheduler.draft_proposed else 0.0),
                "cim_mvm_ops": cim.mvm_ops,
                "cim_adc_conversions": cim.adc_conversions,
                "cim_cell_reads": cim.cell_reads,
                "cim_write_pulses": cim.write_pulses,
                "quantized_layers": self._quantization["quantized_layers"],
                "weight_bytes": self._quantization["weight_bytes"],
                "weight_bytes_saved":
                    self._quantization["weight_bytes_saved"],
            }

    # ------------------------------------------------------------------
    # Training mode
    # ------------------------------------------------------------------
    def submit(self, request: TuneRequest) -> TuneResponse:
        """Absorb one user's batch of interactions.

        Writes beside reads: the training runs *off* the engine lock, on
        a fork of the session's pipeline
        (:meth:`~repro.serve.session.UserSession.prepare`), while every
        query — this user's too — is served from the published library.
        One publish under the lock then installs the fork and, when an
        epoch fired, programs the new library's crossbars.  Tunes of one
        user run one at a time, and the session cannot be evicted in
        between.  A session dropped mid-tune stays dropped: the tune
        raises ``KeyError`` and absorbs nothing.
        """
        user_id = request.user_id
        with self._lock:
            session = self.session(user_id)
            session.tunes_in_flight += 1
        try:
            with session.tune_lock:
                pipeline, epochs = session.prepare(list(request.samples))
                with self._lock:
                    if self._sessions.get(user_id) is not session:
                        raise KeyError(
                            f"session for user {user_id!r} was dropped "
                            f"during the tune; its samples were not absorbed")
                    session.publish(pipeline, epochs)
                    return TuneResponse(
                        user_id=user_id,
                        accepted=len(request.samples),
                        epochs_fired=epochs,
                        library_size=len(session.library),
                        request_id=request.request_id,
                    )
        finally:
            with self._lock:
                session.tunes_in_flight -= 1
                self._evict_over_capacity()

    def submit_batch(self, requests: list[TuneRequest]) -> list[TuneResponse]:
        """Absorb many users' batches; responses come back in input order.

        Requests are grouped by user (preserving each user's arrival order)
        so one user's buffer fills contiguously even when the input
        interleaves users.
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
        """Paper inference settings, bound to this tokenizer's EOS."""
        return GenerationConfig(max_new_tokens=100, temperature=0.1,
                                eos_id=self.tokenizer.eos_id)

    def query(self, request: QueryRequest) -> QueryResponse:
        """Serve one query through the full retrieve/restore/generate path:
        :meth:`answer_batch` of one.

        Raises ``KeyError`` for a user with no resident session — inference
        never creates sessions (that would let stray requests evict real
        users' libraries).
        """
        return self.answer_batch([request])[0]

    def answer_batch(self,
                     requests: list[QueryRequest]) -> list[QueryResponse]:
        """Serve a batch of queries; responses come back in input order.

        Queries are grouped by user so each user's deployment is resolved
        (and, if it has none, programmed) once per batch and all of a user's
        texts are scored in one batched in-memory search.

        Every query is admitted to the continuous-batching decoder and all
        answers advance one token per round through a single forward over
        the shared model — the multi-user throughput path.  Responses are
        token-identical to issuing the same requests one at a time through
        :meth:`query`.  Like :meth:`query`, it decodes every answer: it
        neither takes nor keeps the answer a prefill slot holds for
        :meth:`begin_query`.
        """
        with self._lock:
            return self._answer_batch_locked(requests)

    def _answer_batch_locked(
            self, requests: list[QueryRequest]) -> list[QueryResponse]:
        pendings: list[PendingQuery] = []
        try:
            self._admit(requests, pendings)
        finally:
            # Even if a later user's admission fails (e.g. no resident
            # session), already-admitted queries are drained to completion
            # — as a loop of query() calls would have served the earlier
            # users before raising.
            while any(not p.done for p in pendings):
                self.run_decode_round()
        return [p.response for p in pendings]  # type: ignore[misc]

    def begin_query(self, request: QueryRequest, *,
                    deadline: float | None = None) -> PendingQuery:
        """Admit one query to the continuous-batching decoder.

        The retrieval happens now (so telemetry is snapshotted against the
        current deployment) and the first token is sampled from the
        prefill logits; the answer then advances one token per
        :meth:`run_decode_round` until it retires.  A query whose prefill
        slot holds an answer decoded under its config is done at once,
        with that answer; the first answer from a slot that ends on EOS or
        a limit is kept on it.  Either way the returned handle's
        ``response`` is token-identical to what :meth:`query` would have
        produced.

        ``deadline`` (a ``time.monotonic()`` timestamp) retires the
        generation with the tokens produced so far once a round starts
        past it — the per-request latency SLO hook.
        """
        with self._lock:
            admitted: list[PendingQuery] = []
            self._admit([request], admitted, deadline, answers=True)
            return admitted[0]

    def run_decode_round(self) -> DecodeRoundReport:
        """Advance every pending generation (one base forward per round).

        Without a speculative decoder each generation gains exactly one
        token; with one, greedy generations may gain several
        draft-verified tokens per round.

        This is the serving hot loop: all sessions with pending
        generations share a single batched decode step, and generations
        that retire (EOS, budget, or deadline) have their responses
        finalised so new queries can be admitted mid-flight.  Returns the
        round's report (tokens emitted, batch occupancy, retirements); a
        no-op when nothing is pending.

        Thread-safe: the engine lock is held for the whole round, so
        concurrent :meth:`begin_query` / :meth:`stats` callers interleave
        between rounds, never inside one.
        """
        with self._lock:
            report = self._scheduler.decode_round()
            finished = [p for p in self._pending if p._sequence.finished]
            for pending in finished:
                self._finalize(pending)
            return report

    # ------------------------------------------------------------------
    def _admit(self, requests: list[QueryRequest],
               admitted: list[PendingQuery],
               deadline: float | None = None, *,
               answers: bool = False) -> None:
        """Retrieve/restore/prefill a batch of queries and admit them,
        appending each handle to ``admitted`` in request order.

        First every query is resolved, user by user (in order of first
        appearance): one :meth:`~repro.retrieval.CiMSearchEngine
        .query_batch` scores all of a user's texts against every scale's
        store, and each request keeps its own batch row, NVM read-back (on
        a prefill miss) and prefill lookup, so the crossbar counters and
        the prefill LRU end as admitting the requests one at a time would
        leave them.  Then the prefill misses run together — one forward
        per prompt length, equal lengths stacked
        (:class:`~repro.serve.session.PrefillBatch`) — and last the
        queries enter the decoder.  A request that fails to resolve (e.g.
        an unknown user) stops the resolving: the requests resolved before
        it are still admitted, then the error propagates.  Retrieval
        telemetry and the priced cost are snapshotted at resolution, so
        the eventual response is what it would have been served alone,
        even if the session is evicted (or retrained) while the answer is
        in flight.  With ``answers`` (:meth:`begin_query`'s admission of
        one), a query whose slot holds an answer decoded under its config
        is finished as it enters, without decoding, and a decoded answer
        is kept on its slot.  The latency clock starts here, before
        retrieval and prefill.
        """
        admitted_at = time.perf_counter()
        default = self.default_generation()
        order: OrderedDict[int, list[int]] = OrderedDict()
        for position, request in enumerate(requests):
            order.setdefault(request.user_id, []).append(position)
        batch = PrefillBatch(self.model)
        resolved: list[tuple[PendingQuery, PrefillSlot,
                             GenerationConfig] | None] = [None] * len(requests)
        try:
            for user_id, positions in order.items():
                session = self._resident_session(user_id)
                deployment = session.deployment()
                scores = deployment.engine.query_batch(
                    [deployment.encode_query(requests[position].text)
                     for position in positions])
                cost = deployment.query_cost
                for position, row in zip(positions, scores):
                    request = requests[position]
                    generation = request.generation or default
                    index = int(np.argmax(row))
                    slot = session.prefill_state(
                        request.text, index,
                        lambda: deployment.restored_prompt(index), batch,
                        generation if answers else None)
                    pending = PendingQuery(request)
                    pending._session = session
                    pending._slot = slot if answers else None
                    pending._admitted_at = admitted_at
                    pending._retrieval = (index, tuple(float(s) for s in row),
                                          deployment.engine.n_stored, cost)
                    resolved[position] = (pending, slot, generation)
        finally:
            # What resolved before a failure is served all the same.
            rows = len(batch)
            try:
                self.prefill_forwards += batch.run()
            except BaseException:
                # Nothing is admitted, and no LRU keeps a slot still
                # queued on the failed batch (the batch ran before
                # anything else could read the LRUs); an answered slot,
                # which holds no state either, stays.
                for pending, _, _ in filter(None, resolved):
                    cached = pending._session._prefill_states
                    for key in [key for key, slot in cached.items()
                                if slot.ids is not None]:
                        del cached[key]
                raise
            self.prefill_rows += rows
            for pending, slot, generation in filter(None, resolved):
                self._enter(pending, slot.state, generation, deadline)
                admitted.append(pending)

    def _enter(self, pending: PendingQuery, state: PrefillState | None,
               generation: GenerationConfig,
               deadline: float | None) -> None:
        """Admit one resolved query to the decoder, or finish it at once
        from the answer its slot keeps (an answered slot is a hit only
        for a query under the answer's config)."""
        pending._session.generations_in_flight += 1
        self.admitted += 1
        self._pending.append(pending)
        answer = pending._slot.answer if pending._slot is not None else None
        if answer is not None:
            pending._sequence = answer
            self.answer_hits += 1
            self._finalize(pending)
            return
        prompt_ids = None
        if self.speculative is not None:
            # The draft model sees the raw query tokens (no soft prompt /
            # KV prefix — base-model conditioning it cannot consume).
            # This only steers drafting; answers stay token-identical.
            prompt_ids = np.asarray(
                self.tokenizer.encode(pending.request.text), dtype=np.int64)
        pending._sequence = self._scheduler.admit(
            state, generation, deadline=deadline, prompt_ids=prompt_ids)
        if pending._sequence.finished:
            self._finalize(pending)   # e.g. EOS on the very first sample

    def _finalize(self, pending: PendingQuery) -> None:
        """Turn a retired generation into its response (exactly once),
        leaving its answer on the prefill slot of a :meth:`begin_query`."""
        request = pending.request
        sequence = pending._sequence
        if sequence.finish_reason in ("cancelled", "deadline"):
            pending.cancelled = True
        if pending._slot is not None:
            pending._slot.keep(sequence)
        index, scores, n_ovts, cost = pending._retrieval
        pending.response = QueryResponse(
            user_id=request.user_id,
            text=request.text,
            answer=self.tokenizer.decode(sequence.token_ids()),
            ovt_index=index,
            scores=scores,
            n_ovts=n_ovts,
            backend=cost.backend,
            latency_ns=cost.latency_ns,
            energy_pj=cost.energy_pj,
            request_id=request.request_id,
        )
        pending._session.queries_served += 1
        pending._session.generations_in_flight -= 1
        self.requests_served += 1
        self._latency.record(time.perf_counter() - pending._admitted_at)
        self._pending.remove(pending)
