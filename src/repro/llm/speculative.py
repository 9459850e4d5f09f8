"""Speculative draft-verify decoding (ROADMAP item 9).

The continuous-batching round advances every sequence by exactly one
token per base-model forward.  Speculative decoding breaks that coupling:
a *draft* model — a shallower/narrower :class:`TinyCausalLM` sharing the
tokenizer, typically built by :func:`build_draft_model` and distilled on
base-model output by :func:`distill_draft` — proposes up to ``k`` tokens
per sequence per round, and the base model verifies all of them in the
round's **one** ragged forward (:meth:`TinyCausalLM.decode_span`, run by
the scheduler's single round body — a plain round is the same body with
nothing proposed).  Accepted tokens cost a fraction of a forward each;
the first mismatch is repaired for free, because the verify logits at the
mismatching position are exactly the logits greedy decoding needed anyway.

Token-identity, not approximation
---------------------------------
For greedy sequences (``temperature == 0``) the output is *bit-for-bit*
what one-token rounds emit: every verify logits row attends under
:mod:`~repro.llm.infer`'s grouping rule (see ``decode_span``), so the
accept/reject comparison reproduces exactly the tokens
``DecodeScheduler`` would have emitted one round at a time.  The
draft model only ever chooses *which* positions get pre-computed — never
what token is emitted.  Sampled sequences (``temperature > 0``) and
sequences admitted without ``prompt_ids`` fall back to a plain
single-token row inside the same round, private rng streams untouched.

Confidence
----------
How many tokens to draft is a per-sequence, per-step decision: drafting
continues while the draft model's max-prob confidence — the probability
of its argmax token (CECOFramework's F1) — stays at or above the
decoder's ``threshold``, up to ``max_draft`` and the sequence's remaining
token budget.  ``threshold=0`` drafts to the cap every round; a
threshold above any confidence the draft reaches drafts nothing.

Cache accounting
----------------
The verify forward writes every fed position into each sequence's
base-model :class:`~repro.llm.kv_cache.KVBuffer` in place; the scheduler
discards the rejected suffix by moving the buffer's cursor back, landing
on exactly the rows one-token rounds would hold.  The draft model keeps
its own per-sequence :class:`~repro.llm.kv_cache.KVCache`
(``DecodeSequence.draft_cache``) over the raw token stream, cut to the
accepted prefix after every round and caught up at the start of the next.

The draft fast path
-------------------
Because the draft only chooses *which* tokens to pre-compute, its
forwards need to be deterministic but not bit-identical to the serving
model's grouped path.  It runs on the same graph-free kernels as the
base model (:mod:`repro.llm.infer`; :func:`~repro.llm.infer.extend` for
first contact and catch-up), and :class:`_DraftRound` swaps only the
attention core: padded whole-batch matmuls over a masked window, one
pass however ragged the draft contexts are, where the grouping rule
needs equal lengths.  Token-identity of the *output* is untouched — the
base model's verify forward still runs the bit-exact ``decode_span``.
That is also why the draft does not decode from per-sequence
``KVBuffer``s: whole-batch matmuls need one padded ``(B, heads, window,
d_head)`` array, which :class:`_DraftRound` rebuilds per round from the
compact draft caches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import infer
from .generation import (DecodeRoundReport, DecodeScheduler, DecodeSequence,
                         GenerationConfig, generate)
from .kv_cache import KVCache
from .pretrain import PretrainConfig, pretrain_lm
from .registry import EdgeModelSpec, model_spec
from .transformer import TinyCausalLM

__all__ = ["SpeculativeDecoder", "draft_spec", "build_draft_model",
           "distill_draft", "max_prob_confidence"]


# ----------------------------------------------------------------------
# Confidence
# ----------------------------------------------------------------------
def max_prob_confidence(logits: np.ndarray) -> float:
    """Probability mass on the argmax token (CECO F1)."""
    # The leader's shifted logit is exactly 0, so its probability is 1/Z:
    # no need to normalise the whole distribution on the per-token path.
    return 1.0 / float(np.exp(np.subtract(logits, logits.max(),
                                          dtype=np.float64)).sum())


# ----------------------------------------------------------------------
# Draft model construction and distillation
# ----------------------------------------------------------------------
def draft_spec(base: EdgeModelSpec) -> EdgeModelSpec:
    """A roughly half-width, half-depth spec derived from ``base``.

    Width is halved to the nearest multiple of ``n_heads`` (head count is
    kept, so attention shapes stay valid); depth and FF width are halved
    with a floor of one layer.  The seed is offset so draft weights never
    coincide with base weights.
    """
    d_model = max(base.n_heads,
                  (base.d_model // 2 // base.n_heads) * base.n_heads)
    return EdgeModelSpec(
        name=f"{base.name}-draft",
        paper_model=f"{base.paper_model} (draft)",
        d_model=d_model,
        n_heads=base.n_heads,
        n_layers=max(1, base.n_layers // 2),
        d_ff=max(base.n_heads, base.d_ff // 2),
        quantize_bits=None,
        base_seed=base.base_seed + 1,
    )


def build_draft_model(base_name: str, vocab_size: int, *,
                      seed: int | None = None,
                      max_seq_len: int = 256) -> TinyCausalLM:
    """Build the draft companion of a zoo model from its
    :func:`draft_spec`; the zoo itself is left as it is."""
    return draft_spec(model_spec(base_name)).build(
        vocab_size, seed=seed, max_seq_len=max_seq_len)


def distill_draft(
    draft_model: TinyCausalLM,
    base_model: TinyCausalLM,
    prompts: Sequence[np.ndarray],
    *,
    max_new_tokens: int = 32,
    pretrain: PretrainConfig | None = None,
) -> list[float]:
    """Train the draft to imitate the base model's greedy continuations.

    Acceptance rate — not language quality — is what pays for drafting,
    so the draft is trained on exactly the distribution it must predict:
    the base model's own greedy output from representative prompts.  Each
    prompt is continued greedily by the base model, prompt and
    continuation are concatenated into one token stream, and the draft is
    pretrained on next-token prediction over it.  Returns the loss curve.
    """
    pieces: list[np.ndarray] = []
    config = GenerationConfig(max_new_tokens=max_new_tokens, temperature=0.0)
    for prompt in prompts:
        ids = np.asarray(prompt, dtype=np.int64).reshape(-1)
        continuation = generate(base_model, ids, config)
        pieces.append(ids)
        if continuation.size:
            pieces.append(continuation)
    stream = np.concatenate(pieces)
    return pretrain_lm(draft_model, stream, pretrain or PretrainConfig())


# ----------------------------------------------------------------------
# The draft proposal loop
# ----------------------------------------------------------------------
class _DraftRound:
    """Padded whole-batch K/V buffers for one round's proposal loop.

    Built once per speculative round: every sequence's draft cache is
    copied into a ``(B, n_heads, capacity, d_head)`` buffer per layer
    with room for the round's decode steps.  Each :meth:`step` then runs
    attention as two whole-batch matmuls over a masked window of the
    buffers and writes the new key/value rows in place — no per-step
    concatenation, padding rebuild or cache object churn.  The padded
    window is the one place the draft's algorithm differs from the
    serving forward (proposals need determinism, not bit-identity);
    every norm, affine, activation and softmax is the shared
    :mod:`~repro.llm.infer` kernel.  When the verify decides how much
    speculation survived, :meth:`cache_of` carves a sequence's accepted
    prefix back out into a compact :class:`KVCache`.
    """

    __slots__ = ("model", "lengths", "keys", "values")

    def __init__(self, model: TinyCausalLM, caches: Sequence[KVCache],
                 max_steps: int):
        self.model = model
        self.lengths = np.array([cache.seq_len for cache in caches],
                                dtype=np.intp)
        batch = len(caches)
        capacity = int(self.lengths.max()) + max_steps
        self.keys: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        for index, block in enumerate(model.blocks):
            attn = block.attn
            keys = np.zeros((batch, attn.n_heads, capacity, attn.d_head),
                            dtype=np.float32)
            values = np.zeros_like(keys)
            for s, cache in enumerate(caches):
                past_k, past_v = cache.layer(index)
                keys[s, :, :past_k.shape[2]] = past_k[0]
                values[s, :, :past_v.shape[2]] = past_v[0]
            self.keys.append(keys)
            self.values.append(values)

    def step(self, tokens: Sequence[int], rows: Sequence[int],
             logits: bool = True) -> np.ndarray | None:
        """Advance ``rows`` by one token each; logits (len(rows), vocab).

        Rows not listed keep their length and buffer contents untouched,
        so the still-drafting subset can shrink between steps.  With
        ``logits=False`` (the round's last feed, whose prediction nobody
        reads) the step stops once every layer's K/V rows are written.
        """
        model = self.model
        rows_arr = np.asarray(rows, dtype=np.intp)
        full = rows_arr.size == self.lengths.size
        token_arr = np.asarray(tokens, dtype=np.int64)
        positions = self.lengths[rows_arr]
        # Ids fed here are the models' own argmaxes and positions below
        # the capacity check in _propose, never outside input: no range
        # check on this per-step path.
        x = (model.token_embedding.weight.data[token_arr]
             + model.position_embedding.weight.data[positions])
        self.lengths[rows_arr] = positions + 1
        window = int(self.lengths.max())
        blocked = (np.arange(window)[None, None, None, :]
                   >= self.lengths[rows_arr, None, None, None])
        for index, block in enumerate(model.blocks):
            attn = block.attn
            split = (rows_arr.size, attn.n_heads, attn.d_head)
            h = infer.layer_norm(x, block.ln1)
            keys_buf, values_buf = self.keys[index], self.values[index]
            keys_buf[rows_arr, :, positions] = \
                infer.affine(attn.k_proj, h).reshape(split)
            values_buf[rows_arr, :, positions] = \
                infer.affine(attn.v_proj, h).reshape(split)
            if not logits and index == len(model.blocks) - 1:
                return None
            q = infer.affine(attn.q_proj, h).reshape(split)[:, :, None, :]
            if full:
                keys = keys_buf[:, :, :window]
                values = values_buf[:, :, :window]
            else:
                keys = keys_buf[rows_arr][:, :, :window]
                values = values_buf[rows_arr][:, :, :window]
            scores = np.matmul(q, keys.swapaxes(-1, -2)) \
                * infer.attention_scale(attn)
            np.copyto(scores, infer.NEG_INF, where=blocked)
            context = np.matmul(infer.softmax_(scores), values)
            x = x + infer.affine(attn.out_proj,
                                 context.reshape(rows_arr.size, attn.d_model))
            x = infer.mlp(block, x)
        return infer.logits(model, x)

    def cache_of(self, row: int, length: int) -> KVCache:
        """Sequence ``row``'s first ``length`` positions as a compact cache."""
        return KVCache([
            (np.ascontiguousarray(keys[row:row + 1, :, :length]),
             np.ascontiguousarray(values[row:row + 1, :, :length]))
            for keys, values in zip(self.keys, self.values)])


# ----------------------------------------------------------------------
# The decoder
# ----------------------------------------------------------------------
class _DraftState:
    """Per-sequence working state inside one speculative round."""

    __slots__ = ("index", "seq", "ctx_len", "cap", "row", "round", "fed",
                 "logits")

    def __init__(self, index: int, seq: DecodeSequence, ctx_len: int,
                 cap: int):
        self.index = index
        self.seq = seq
        self.ctx_len = ctx_len   # context tokens at round start
        self.cap = cap           # most tokens worth drafting this round
        self.row = 0             # row in the round's draft buffers
        self.round = None        # the shared _DraftRound
        self.fed = 0             # drafted tokens fed into the draft cache
        self.logits = None       # draft logits after the last fed token


class SpeculativeDecoder:
    """Draft-verify engine pluggable into :class:`DecodeScheduler`.

    Construct it once (it is stateless across rounds — all per-sequence
    state lives on the sequences, all counters on the scheduler) and pass
    it to ``DecodeScheduler(model, speculative=...)`` or
    ``PromptServeEngine(..., speculative=...)``.  One instance may be
    shared by many schedulers (several engines over one draft): the
    draft model is only ever read.

    Args:
        draft_model: the proposer; must share the base model's tokenizer
            (same vocabulary) — see :func:`build_draft_model`.
        max_draft: hard ceiling on proposed tokens per sequence per round.
        threshold: drafting continues while the draft's max-prob
            confidence (:func:`max_prob_confidence`) >= threshold.
    """

    def __init__(self, draft_model: TinyCausalLM, *, max_draft: int = 4,
                 threshold: float = 0.5):
        if max_draft < 1:
            raise ValueError("max_draft must be >= 1")
        self.draft_model = draft_model
        self.max_draft = int(max_draft)
        self.threshold = float(threshold)

    # ------------------------------------------------------------------
    def advance(self, scheduler: DecodeScheduler,
                n_expired: int = 0) -> DecodeRoundReport:
        """One speculative round over the scheduler's active sequences.

        Called by :meth:`DecodeScheduler.decode_round` (deadline expiry
        already done, at least one sequence active).  Drafts with the
        small model, hands the proposals to the scheduler's round body —
        which verifies them in its one base forward, absorbs the longest
        confirmed prefix per sequence plus the base model's own next
        token, and rolls caches back — then trims the draft caches to
        what survived.
        """
        proposals, states = self._propose(scheduler, scheduler._active)
        report, accepted = scheduler._round(proposals, n_expired)
        for state in states:
            # Covers the no-proposal round too: a catch-up the draft
            # buffers absorbed is committed (keep == ctx_len) so the draft
            # cache stays aligned with its sequence.
            keep = state.ctx_len + min(accepted[state.index], state.fed)
            if keep != state.seq.draft_len:
                state.seq.draft_cache = state.round.cache_of(state.row, keep)
                state.seq.draft_len = keep
        return report

    # ------------------------------------------------------------------
    def _propose(self, scheduler: DecodeScheduler,
                 active: Sequence[DecodeSequence],
                 ) -> tuple[list[list[int]], list[_DraftState]]:
        """Draft up to ``max_draft`` tokens for every eligible sequence.

        Returns per-sequence proposal lists (empty for ineligible or
        low-confidence sequences) and the draft-cache working states to
        be committed after verification.
        """
        draft = self.draft_model
        proposals: list[list[int]] = [[] for _ in active]
        states: list[_DraftState] = []
        for i, seq in enumerate(active):
            if seq.config.temperature != 0.0 or seq.prompt_ids is None:
                continue   # token-identity only holds for greedy drafting
            ctx_len = int(seq.prompt_ids.size) + len(seq.generated)
            # Room caps: the verify feeds 1 + p base positions, drafting
            # feeds up to ctx_len + p - 1 draft positions, and the
            # sequence can absorb at most `remaining` more tokens (one of
            # which is always the verify's own bonus/repair token).
            base_room = scheduler.model.config.max_seq_len \
                - seq.cache.seq_len - 1
            remaining = min(seq.config.max_new_tokens - len(seq.generated),
                            seq._budget - seq._total)
            cap = min(self.max_draft, base_room, remaining - 1,
                      draft.config.max_seq_len - ctx_len - 1)
            if cap < 1:
                continue
            states.append(_DraftState(i, seq, ctx_len, cap))
        if not states:
            return proposals, states

        # Catch-up, slow cases first: first-contact sequences feed their
        # whole context, sequences that lagged through non-speculative
        # rounds feed the missed span.  Both land on a cache covering the
        # full context.
        for state in states:
            if state.seq.draft_cache is None \
                    or state.ctx_len - state.seq.draft_len > 1:
                span = state.seq.context_ids()[state.seq.draft_len:]
                hidden, cache = infer.extend(
                    draft, infer.embed(draft.token_embedding, span)[None],
                    past=state.seq.draft_cache)
                state.logits = infer.logits(draft, hidden[:, -1:])[0, 0]
                scheduler.draft_forwards += 1
                state.seq.draft_cache = cache
                state.seq.draft_len = state.ctx_len

        # Open the round's padded buffers, then fold the common catch-up
        # case — a returning sequence is exactly one token behind (the
        # previous verify's bonus/repair token) — into the first step.
        draft_round = _DraftRound(
            draft, [state.seq.draft_cache for state in states],
            self.max_draft + 1)
        returning: list[_DraftState] = []
        for row, state in enumerate(states):
            state.round = draft_round
            state.row = row
            if state.seq.draft_len < state.ctx_len:
                returning.append(state)
        if returning:
            logits = draft_round.step(
                [state.seq.generated[-1] for state in returning],
                [state.row for state in returning])
            scheduler.draft_forwards += 1
            for j, state in enumerate(returning):
                state.logits = logits[j]
            # seq.draft_len intentionally still lags: the buffers are
            # authoritative until advance() commits.

        # Draft loop: propose greedily while the confidence holds, advancing all still-drafting rows together.  Every
        # proposed token is also fed (even the last one, whose logits go
        # unused): that keeps ``fed == len(proposals)``, so the next
        # round's catch-up is the single bonus/repair token again.
        drafting = list(states)
        while drafting:
            drafting = [
                state for state in drafting
                if len(proposals[state.index]) < state.cap
                and max_prob_confidence(state.logits) >= self.threshold]
            if not drafting:
                break
            tokens = np.argmax([state.logits for state in drafting], axis=-1)
            for state, token in zip(drafting, tokens):
                proposals[state.index].append(int(token))
                state.fed += 1
            more = any(len(proposals[state.index]) < state.cap
                       for state in drafting)
            step_logits = draft_round.step(
                tokens, [state.row for state in drafting], logits=more)
            scheduler.draft_forwards += 1
            if not more:
                break
            for j, state in enumerate(drafting):
                state.logits = step_logits[j]
        return proposals, states
