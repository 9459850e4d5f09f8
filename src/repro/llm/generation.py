"""Autoregressive text generation for the edge-LLM stand-ins.

Matches the paper's inference settings: temperature 0.1 (near-greedy) and at
most 100 generated tokens.  Generation optionally consumes the two prompt
conditioning mechanisms (soft-prompt embeddings and per-layer KV prefixes).

Decoding is incremental and graph-free (:mod:`~repro.llm.infer`): the
prompt (soft prompt included) is run through the model once
(:func:`prefill`, which also runs equal-length prompts stacked in one
forward), and every subsequent token is a single-position forward
against the sequence's :class:`~repro.llm.kv_cache.KVBuffer` — the prefill
cache copied once, at admission, into storage preallocated for the whole
answer and appended to in place — O(T) per step instead of re-running the
whole sequence.

There is one decode loop.  A :class:`DecodeScheduler` holds any number of
in-flight generations and advances *all* of them per round through a
single batched forward (:meth:`~repro.llm.transformer.TinyCausalLM
.decode_span`), admitting new sequences and retiring finished ones (EOS,
token budget, context limit) between rounds.  Each sequence keeps its own
buffer (a slot of the scheduler's KV slab), rng stream, and sampling
config, and the batched forward is bit-exact per sequence (the grouping
rule of :mod:`~repro.llm.infer`), so batching changes throughput, never
answers; :func:`decode_from` and :func:`generate` are the scheduler with a
batch of one.  The prefill/decode split is public so the serving engine
can run a prompt's prefill once and reuse it across repeated queries.

The loops this replaced — full reforward per token, and the cached
autograd step — live on as test oracles (``tests/oracles/generation.py``);
all three emit identical token ids under identical seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import infer
from .attention import KVPrefix
from .kv_cache import KVBuffer, KVCache, KVSlab
from .transformer import TinyCausalLM
from ..utils import rng_from_seed

__all__ = ["GenerationConfig", "PrefillState", "check_prompt_room",
           "generate", "prefill",
           "decode_from", "DecodeSequence", "DecodeScheduler",
           "DecodeRoundReport"]


@dataclass(frozen=True)
class GenerationConfig:
    """Sampling parameters (paper defaults: temperature 0.1, 100 tokens)."""

    max_new_tokens: int = 100
    temperature: float = 0.1
    seed: int = 0
    eos_id: int | None = None

    def __post_init__(self):
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")


@dataclass(frozen=True)
class PrefillState:
    """One prompt run through the model, ready to decode from.

    Reusable: decoding never mutates the state or its cache (admission
    copies it into the sequence's own buffer), so one prefill can seed any
    number of decodes (different seeds, temperatures, budgets).  The KV
    prefix the prompt was conditioned on is recorded here and laid into
    that buffer with it — callers cannot accidentally decode with
    mismatched conditioning.
    """

    cache: KVCache
    last_logits: np.ndarray   # (vocab,) logits of the final prompt position
    n_tokens: int             # real prompt tokens
    virtual_len: int          # soft-prompt rows occupying the context window
    prefix_kv: list[KVPrefix] | None = None

    @property
    def seq_len(self) -> int:
        """Positions consumed so far (virtual + real)."""
        return self.cache.seq_len


def _sample(logits: np.ndarray, temperature: float,
            rng: np.random.Generator) -> int:
    if temperature == 0.0:
        return int(np.argmax(logits))
    # float64 throughout: float32 probabilities can miss rng.choice's
    # sum-to-1 tolerance on large vocabularies.
    scaled = (logits.astype(np.float64) - logits.max()) / temperature
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


def check_prompt_room(model: TinyCausalLM, n_tokens: int,
                      virtual_len: int = 0) -> None:
    """Raise ``ValueError`` unless a prompt of ``n_tokens`` ids behind
    ``virtual_len`` soft-prompt rows leaves room to generate: it must be
    non-empty and not already fill the context window."""
    if n_tokens == 0:
        raise ValueError("prefill() needs at least one prompt token")
    if n_tokens + virtual_len >= model.config.max_seq_len:
        raise ValueError(
            f"prompt of {n_tokens} tokens plus soft prompt of "
            f"{virtual_len} rows leaves no room to generate within "
            f"max_seq_len={model.config.max_seq_len}")


def prefill(
    model: TinyCausalLM,
    token_ids: np.ndarray,
    *,
    soft_prompt: np.ndarray | None = None,
    prefix_kv: list[KVPrefix] | None = None,
) -> PrefillState | list[PrefillState]:
    """Run prompts once with a KV cache and return the decode-ready state.

    ``token_ids`` is one prompt, 1-D, behind an optional ``(P, d_model)``
    ``soft_prompt``; or ``G`` equal-length prompts stacked ``(G, T)``
    behind ``(G, P, d_model)`` soft prompts, which run as one
    :func:`~repro.llm.infer.extend` over the ``(G, P + T, d_model)``
    stack and return a list of ``G`` states, each bitwise that prompt's
    prefill alone (the stacking rule of :mod:`~repro.llm.infer`; one
    prompt is the stack of one).  ``prefix_kv`` (one ``(keys, values)``
    ndarray pair per layer) conditions every prompt.  Graph-free: bitwise
    the autograd forward, and it writes no module state.

    Raises ``ValueError`` (:func:`check_prompt_room`) for an empty prompt
    or one that (plus soft-prompt rows) already fills the context window
    — there would be no room to generate.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    stacked = ids.ndim == 2
    ids = ids.reshape(ids.shape[0] if stacked else 1, -1)
    rows = None
    if soft_prompt is not None:
        rows = np.asarray(soft_prompt, dtype=np.float32)
        rows = rows if stacked else rows[None]
    virtual_len = 0 if rows is None else rows.shape[1]
    check_prompt_room(model, ids.shape[1], virtual_len)
    x = infer.embed(model.token_embedding, ids)
    if rows is not None:
        x = np.concatenate([rows, x], axis=1)
    hidden, cache = infer.extend(model, x, prefix_kv=prefix_kv)
    last = infer.logits(model, hidden)[:, -1]
    states = [PrefillState(cache=own, last_logits=logits.copy(),
                           n_tokens=ids.shape[1], virtual_len=virtual_len,
                           prefix_kv=prefix_kv)
              for own, logits in zip(cache.split(), last)]
    return states if stacked else states[0]


def decode_from(
    model: TinyCausalLM,
    state: PrefillState,
    config: GenerationConfig = GenerationConfig(),
) -> np.ndarray:
    """Sample a continuation from a :class:`PrefillState`.

    The one state, admitted to a :class:`DecodeScheduler` of its own and
    run until it retires: the KV prefix recorded at prefill time
    conditions every round, and the state itself is left untouched
    (decode again for another sample).
    """
    scheduler = DecodeScheduler(model)
    sequence = scheduler.admit(state, config)
    scheduler.run()
    return sequence.token_ids()


def generate(
    model: TinyCausalLM,
    token_ids: np.ndarray,
    config: GenerationConfig = GenerationConfig(),
    *,
    soft_prompt: np.ndarray | None = None,
    prefix_kv: list[KVPrefix] | None = None,
) -> np.ndarray:
    """Generate a continuation of ``token_ids`` (1-D array of ids).

    :func:`prefill` once, then :func:`decode_from` one position per round.

    Args:
        model: the language model (no graph is built and no module state
            is written).
        token_ids: the user-input ids.
        config: sampling parameters.
        soft_prompt: optional (P, d_model) virtual-token matrix prepended to
            the input embeddings — the OVT path of the paper.
        prefix_kv: optional per-layer KV prefixes (prefix tuning path).

    Returns:
        The generated ids only (prompt excluded), stopping at ``eos_id``.

    Raises:
        ValueError: when the prompt (plus soft-prompt rows) already fills
            the model's context window, leaving no room to generate.
    """
    state = prefill(model, token_ids, soft_prompt=soft_prompt,
                    prefix_kv=prefix_kv)   # validates prompt and room
    return decode_from(model, state, config)


# ----------------------------------------------------------------------
# Continuous-batching decode
# ----------------------------------------------------------------------
SLAB_SLOTS = 8   # sequences a scheduler's KVSlab holds


class DecodeSequence:
    """One in-flight generation inside a :class:`DecodeScheduler`.

    Self-contained by design: it references only the (immutable) prefill
    state and owns its K/V buffer, rng stream, and sampling config, so
    whoever admitted it (e.g. a serving session) can disappear mid-flight
    without affecting this or any other sequence in the batch.
    """

    __slots__ = ("state", "config", "cache", "generated", "finished",
                 "finish_reason", "deadline", "prompt_ids", "draft_cache",
                 "draft_len", "_rng", "_total", "_budget")

    def __init__(self, state: PrefillState, config: GenerationConfig,
                 budget: int, deadline: float | None = None,
                 prompt_ids: np.ndarray | None = None):
        self.state = state
        self.config = config
        # Allocated by DecodeScheduler.admit; stays None for a sequence
        # that retires there without ever joining a round.
        self.cache: KVBuffer | None = None
        self.generated: list[int] = []
        self.finished = False
        self.finish_reason: str | None = None
        # Absolute time.monotonic() timestamp after which the sequence is
        # retired ("deadline") instead of entering another round.  None (the
        # default) never expires, so deadline-free serving stays exactly the
        # deterministic reference path.
        self.deadline = deadline
        # The raw prompt token ids, when the admitter knows them.  The
        # KV buffer only stores keys/values, so a draft model cannot
        # reconstruct the context from it; speculative decoding needs the
        # ids to feed its own (smaller) model.  None disables drafting
        # for this sequence — it still decodes normally.
        self.prompt_ids = (None if prompt_ids is None else
                           np.asarray(prompt_ids, dtype=np.int64).reshape(-1))
        # Draft-model decode state, owned by SpeculativeDecoder: a KVCache
        # over the draft model covering the first ``draft_len`` tokens of
        # ``context_ids()``.
        self.draft_cache: KVCache | None = None
        self.draft_len = 0
        # Only sampling reads a generator; greedy sequences build none.
        self._rng = (rng_from_seed(config.seed) if config.temperature > 0.0
                     else None)
        self._total = state.n_tokens
        self._budget = budget

    @property
    def n_generated(self) -> int:
        return len(self.generated)

    def token_ids(self) -> np.ndarray:
        """The tokens generated so far (all of them, once finished)."""
        return np.asarray(self.generated, dtype=np.int64)

    def context_ids(self) -> np.ndarray:
        """Prompt plus generated ids — the draft model's view of the text.

        Only available when the sequence was admitted with ``prompt_ids``;
        soft-prompt rows and KV prefixes are deliberately absent (they are
        base-model conditioning the draft model cannot consume).
        """
        if self.prompt_ids is None:
            raise ValueError("sequence was admitted without prompt_ids")
        return np.concatenate([
            self.prompt_ids, np.asarray(self.generated, dtype=np.int64)])

    # -- internal ------------------------------------------------------
    def _finish(self, reason: str) -> None:
        self.finished = True
        self.finish_reason = reason

    def _check_limits(self) -> None:
        """Retire on the same boundaries the sequential loop breaks at."""
        if len(self.generated) >= self.config.max_new_tokens:
            self._finish("length")
        elif self._total >= self._budget:
            self._finish("context")

    def _absorb(self, logits: np.ndarray, greedy_id: int) -> int:
        """Take ``greedy_id`` (temperature 0) or sample; 1 if one landed."""
        next_id = (greedy_id if self.config.temperature == 0.0 else
                   _sample(logits, self.config.temperature, self._rng))
        if self.config.eos_id is not None and next_id == self.config.eos_id:
            self._finish("eos")
            return 0
        self.generated.append(next_id)
        self._total += 1
        self._check_limits()
        return 1


@dataclass(frozen=True)
class DecodeRoundReport:
    """What one continuous-batching round did (serving telemetry)."""

    tokens_emitted: int   # tokens appended across all sequences
    n_active: int         # sequences that entered the round
    n_retired: int        # sequences that finished during the round
    n_expired: int = 0    # sequences retired on their deadline, pre-forward


class DecodeScheduler:
    """Continuous-batching decoder over one model.

    Sequences are :meth:`admit`-ted with their own
    :class:`GenerationConfig` and advance together, one token per
    :meth:`decode_round`, through a single batched forward; finished
    sequences retire between rounds and new ones may be admitted at any
    time ("in-flight batching").  Each sequence's tokens are identical to
    what it would produce decoded alone from the same state — greedy and
    seeded sampling alike — because the batched forward is bit-exact per
    sequence and every sequence keeps a private rng stream.

    A :class:`~repro.llm.speculative.SpeculativeDecoder` may be attached
    at construction: rounds then draft several tokens per sequence with a
    small model and verify them in the round's one forward of ``model``
    (token-identical for greedy sequences; the rest, and every sequence
    when ``speculative=None``, draft nothing and gain one token).
    """

    def __init__(self, model: TinyCausalLM, *, speculative=None):
        self.model = model
        self.speculative = speculative
        self._active: list[DecodeSequence] = []
        self._slab: KVSlab | None = None   # where admission claims buffers
        self.rounds = 0
        self.tokens_emitted = 0
        self.occupancy_sum = 0   # sum over rounds of sequences per round
        self.grouped_rows = 0    # rows attending in a length group of 2+
        self.forwards = 0        # base-model decode forwards (verify included)
        self.spec_rounds = 0     # rounds in which at least one token drafted
        self.draft_forwards = 0  # draft-model forwards (prefill/catch-up/step)
        self.draft_proposed = 0  # tokens proposed by the draft model
        self.draft_accepted = 0  # proposed tokens the base model confirmed

    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self._active)

    @property
    def has_active(self) -> bool:
        return bool(self._active)

    def admit(self, state: PrefillState,
              config: GenerationConfig = GenerationConfig(),
              *, deadline: float | None = None,
              prompt_ids: np.ndarray | None = None,
              ) -> DecodeSequence:
        """Add one prefilled sequence to the in-flight batch.

        The first token is sampled right here from the prefill logits (no
        forward needed); a sequence that immediately hits EOS or a limit
        retires without ever joining a round.  One that stays gets its
        private :class:`~repro.llm.kv_cache.KVBuffer` here — trained
        prefix, then a copy of ``state.cache``, then room for exactly the
        positions it can still reach (``max_new_tokens`` more, capped at
        ``max_seq_len``) — in the next slot of the scheduler's current
        :class:`~repro.llm.kv_cache.KVSlab` (a new one of
        :data:`SLAB_SLOTS` when it is full or too narrow), so no later
        round allocates and sequences admitted together attend through
        one view.  ``deadline`` (a ``time.monotonic()`` timestamp) bounds
        how long the sequence may stay in flight: a round that starts
        after it retires the sequence with whatever tokens it has, the
        serving building block for per-request latency SLOs.
        ``prompt_ids`` (the raw prompt tokens) makes the sequence eligible
        for speculative drafting when the scheduler has a
        :class:`~repro.llm.speculative.SpeculativeDecoder`; it is inert
        otherwise.
        """
        if state.cache.batch_size != 1:
            raise ValueError(
                f"admit() takes single-sequence prefills, got batch "
                f"{state.cache.batch_size}"
            )
        budget = self.model.config.max_seq_len - state.virtual_len
        sequence = DecodeSequence(state, config, budget, deadline,
                                  prompt_ids=prompt_ids)
        if sequence._total >= budget:
            sequence._finish("context")   # prefill() normally rejects this
        else:
            sequence._absorb(state.last_logits,
                             int(np.argmax(state.last_logits)))
        if not sequence.finished:
            capacity = min(self.model.config.max_seq_len,
                           state.seq_len + config.max_new_tokens)
            rows = capacity + (0 if state.prefix_kv is None
                               else state.prefix_kv[0][0].shape[2])
            if self._slab is None or not self._slab.fits(rows):
                self._slab = KVSlab(state.cache, rows, SLAB_SLOTS)
            sequence.cache = KVBuffer(state.cache, capacity, state.prefix_kv,
                                      self._slab)
            self._active.append(sequence)
        return sequence

    def cancel(self, sequence: DecodeSequence) -> bool:
        """Cleanly retire a sequence mid-flight; its tokens so far remain.

        Returns True if the sequence was active.  The batch simply shrinks
        by one slot — remaining sequences are unaffected (their buffers and
        rng streams are private).
        """
        try:
            self._active.remove(sequence)
        except ValueError:
            return False
        sequence._finish("cancelled")
        return True

    # ------------------------------------------------------------------
    def expire_deadlines(self, now: float | None = None) -> int:
        """Retire every in-flight sequence whose deadline has passed.

        Expired sequences finish with reason ``"deadline"`` and keep the
        tokens generated so far (a clean prefix of the full answer).
        Returns the number retired; sequences without deadlines are never
        touched, so this is free for deterministic workloads.
        """
        if not any(seq.deadline is not None for seq in self._active):
            return 0
        if now is None:
            now = time.monotonic()
        expired = [seq for seq in self._active
                   if seq.deadline is not None and now >= seq.deadline]
        for seq in expired:
            seq._finish("deadline")
        if expired:
            self._active = [seq for seq in self._active if not seq.finished]
        return len(expired)

    def decode_round(self) -> DecodeRoundReport:
        """Advance every in-flight sequence by at least one token.

        Sequences past their deadline are retired *before* the forward
        (they neither occupy a batch slot nor consume compute this round).
        With a speculative decoder attached the round drafts and verifies
        several tokens per sequence; otherwise it is exactly one batched
        single-token forward.
        """
        n_expired = self.expire_deadlines()
        if not self._active:
            return DecodeRoundReport(0, 0, n_expired, n_expired=n_expired)
        if self.speculative is not None:
            return self.speculative.advance(self, n_expired)
        return self._round([()] * len(self._active), n_expired)[0]

    def _round(self, proposals: Sequence[Sequence[int]], n_expired: int,
               ) -> tuple[DecodeRoundReport, list[int]]:
        """The one round body; returns the report and, per sequence, how
        many of its ``proposals`` the model confirmed.

        Sequence ``s`` feeds its newest token followed by ``proposals[s]``
        (drafted continuations; empty for a plain one-token advance) and
        gets one logits row per fed token.  Rows are absorbed in order
        until one samples something other than the token fed after it:
        exactly the tokens one-token rounds would have emitted.
        """
        active = self._active
        drafted = any(proposals)
        spans = [[seq.generated[-1], *props]
                 for seq, props in zip(active, proposals)]
        caches = [seq.cache for seq in active]
        plan = infer.SpanPlan(caches, [len(span) for span in spans])
        self.grouped_rows += plan.grouped_rows
        # decode_round is decode_span's every-span-is-one-token case under
        # the name the measurement spine traces plain rounds by.
        forward = self.model.decode_span if drafted else self.model.decode_round
        logits = forward(spans, caches, plan)
        # Every greedy row's token (the first index on ties, as per row).
        greedy = np.argmax(logits[:, -1], axis=-1).tolist()
        emitted = row = 0
        accepted: list[int] = []
        for seq, props in zip(active, proposals):
            confirmed = 0
            # The row after the last proposal yields the model's own next
            # token, which confirms nothing (None matches no token).
            for fed, proposed in enumerate([*props, None], start=1):
                landed = seq._absorb(logits[row + fed - 1, -1],
                                     greedy[row + fed - 1])
                emitted += landed
                if not landed or seq.generated[-1] != proposed:
                    break
                confirmed += 1
                if seq.finished:
                    break
            # One-token rounds would have cached exactly the ``fed`` tokens
            # absorbed from; anything further is rejected speculation,
            # left behind the cursor for the next round to overwrite.
            seq.cache.seq_len -= 1 + len(props) - fed
            accepted.append(confirmed)
            row += 1 + len(props)
            self.draft_proposed += len(props)
            self.draft_accepted += confirmed
        self._active = [seq for seq in active if not seq.finished]
        self.rounds += 1
        self.forwards += 1
        self.spec_rounds += drafted
        self.tokens_emitted += emitted
        self.occupancy_sum += len(active)
        retired = len(active) - len(self._active)
        return DecodeRoundReport(tokens_emitted=emitted,
                                 n_active=len(active),
                                 n_retired=retired + n_expired,
                                 n_expired=n_expired), accepted

    def run(self) -> None:
        """Round until every admitted sequence has retired."""
        while self._active:
            self.decode_round()
