"""Decoder-only transformer language model (the edge-LLM stand-in).

:class:`TinyCausalLM` holds the weights; every forward runs graph-free
on the kernels of :mod:`repro.llm.infer`, and training differentiates
that forward by hand (:mod:`repro.llm.vjp`).  Two prompt-conditioning
hooks reach every forward: pre-built input embeddings, which is how soft
prompts are prepended (vanilla PT, DEPT), and per-layer key/value
prefixes (prefix tuning, P-tuning v2).

:meth:`TinyCausalLM.decode_span` advances *many independent sequences*
by a ragged number of tokens each (:meth:`TinyCausalLM.decode_round` is
its one-token-each case).  Each sequence carries its own private,
preallocated :class:`~repro.llm.kv_cache.KVBuffer` (ragged lengths,
advanced in place) and position offset; the dense sublayers run as one
stacked forward while attention follows the grouping rule of
:mod:`repro.llm.infer`, so every row of the returned logits is
bit-identical to advancing that sequence alone.  Whole sequences —
prefill, training — go through :func:`repro.llm.infer.extend`.  The
autograd forward this replaced is the reference in
``tests/oracles/graph.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ag import Embedding, LayerNorm, Linear, Module
from . import infer
from .attention import MultiHeadSelfAttention
from .kv_cache import KVBuffer
from ..utils import rng_from_seed

__all__ = ["LMConfig", "TransformerBlock", "TinyCausalLM"]


@dataclass(frozen=True)
class LMConfig:
    """Architecture hyper-parameters for :class:`TinyCausalLM`."""

    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 3
    d_ff: int = 128
    max_seq_len: int = 256

    def __post_init__(self):
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if self.max_seq_len <= 0:
            raise ValueError("max_seq_len must be positive")


class TransformerBlock(Module):
    """Pre-norm transformer block: LN -> attention -> LN -> GELU MLP."""

    def __init__(self, config: LMConfig, *, rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(config.d_model)
        self.attn = MultiHeadSelfAttention(config.d_model, config.n_heads, rng=rng)
        self.ln2 = LayerNorm(config.d_model)
        self.ff1 = Linear(config.d_model, config.d_ff, rng=rng)
        self.ff2 = Linear(config.d_ff, config.d_model, rng=rng)


class TinyCausalLM(Module):
    """A small decoder-only LM with soft-prompt and KV-prefix hooks."""

    def __init__(self, config: LMConfig, *, seed: int = 0):
        super().__init__()
        rng = rng_from_seed(seed)
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.position_embedding = Embedding(config.max_seq_len, config.d_model, rng=rng)
        self.blocks = [TransformerBlock(config, rng=rng)
                       for _ in range(config.n_layers)]
        self.ln_final = LayerNorm(config.d_model)
        self.lm_head = Linear(config.d_model, config.vocab_size, bias=False, rng=rng)
        # Built frozen: only pretrain_lm makes the weights trainable.
        for param in self.parameters():
            param.requires_grad = False

    # ------------------------------------------------------------------
    def embed_text_vector(self, token_ids: np.ndarray) -> np.ndarray:
        """Mean-pooled embedding vector used for buffer/query embeddings.

        This is the ``E(x)`` of the paper's framework figure: the raw
        embedding-layer representation of a data sample, used by
        representative selection and by retrieval.
        """
        ids = np.asarray(token_ids).reshape(-1)
        if ids.size == 0:
            raise ValueError("cannot embed an empty token sequence")
        return self.token_embedding.weight.data[ids].mean(axis=0).copy()

    # ------------------------------------------------------------------
    def decode_round(self, token_ids: np.ndarray,
                     caches: Sequence[KVBuffer],
                     plan: infer.SpanPlan | None = None) -> np.ndarray:
        """Advance ``B`` independent sequences by one token in one forward.

        ``token_ids`` holds the newest token of each sequence, (B,) or
        (B, 1): the all-spans-of-length-1 case of :meth:`decode_span`,
        which see.  Row ``i`` of the (B, 1, vocab) logits is bit-identical
        to advancing ``caches[i]`` alone — what makes batched serving
        answers token-identical to sequential ones.
        """
        ids = np.asarray(token_ids, dtype=np.int64).reshape(-1, 1)
        return self.decode_span(ids, caches, plan)

    # ------------------------------------------------------------------
    def decode_span(self, token_spans: Sequence[np.ndarray],
                    caches: Sequence[KVBuffer],
                    plan: infer.SpanPlan | None = None) -> np.ndarray:
        """Advance ``B`` sequences by a ragged number of tokens each.

        The one batched inference forward, graph-free on the
        :mod:`~repro.llm.infer` kernels.  As the verify forward
        of speculative decoding, sequence ``s`` feeds ``token_spans[s]``
        (its last accepted token followed by the drafted continuation)
        and gets back one logits row per fed token.  Positions attend
        under :mod:`~repro.llm.infer`'s grouping rule, so each row is
        bit-identical to advancing that sequence one token at a time and
        speculative acceptance reproduces sequential greedy decoding.

        Args:
            token_spans: per-sequence 1-D arrays of token ids, each of
                length >= 1.
            caches: each sequence's private buffer (ragged lengths, the
                trained KV prefix it was prefilled with already laid at
                its head).  **Advanced in place**: sequence ``s`` gains
                ``len(token_spans[s])`` positions at its cursor.  The
                caller discards a rejected suffix by assigning
                ``caches[s].seq_len`` back.
            plan: this forward's :class:`~repro.llm.infer.SpanPlan`,
                ``SpanPlan(caches, [len(span) for span in token_spans])``
                made before the call (a scheduler reads it too); made
                here when None.

        Returns:
            The logits, (sum(spans), 1, vocab) — rows in sequence order,
            positions within a sequence contiguous.  Nothing is written
            when validation fails.
        """
        spans = [np.asarray(span, dtype=np.int64).reshape(-1)
                 for span in token_spans]
        if any(span.size == 0 for span in spans):
            raise ValueError("every token span must hold at least one token")
        if len(spans) != len(caches):
            raise ValueError(
                f"{len(spans)} token spans for "
                f"{len(caches)} cached sequences"
            )
        for span, cache in zip(spans, caches):
            if cache.n_layers != len(self.blocks):
                raise ValueError(
                    f"cache has {cache.n_layers} layers for "
                    f"{len(self.blocks)} blocks"
                )
            if cache.seq_len + span.size > self.config.max_seq_len:
                raise ValueError(
                    f"a sequence of {cache.seq_len + span.size} exceeds "
                    f"max_seq_len={self.config.max_seq_len}"
                )
            if cache.seq_len + span.size > cache.capacity:
                raise ValueError(
                    f"a span of {span.size} from position {cache.seq_len} "
                    f"overruns a buffer of {cache.capacity} positions"
                )
        for cache in caches:
            # Every layer of a buffer, and every block, has one geometry.
            self.blocks[0].attn._check_kv(*cache.layer(0), "cache")
        span_lens = [span.size for span in spans]
        # Each new token sits at its own sequence's next position(s).
        positions = np.concatenate([
            np.arange(cache.seq_len, cache.seq_len + span_len, dtype=np.int64)
            for cache, span_len in zip(caches, span_lens)
        ])
        x = (infer.embed(self.token_embedding, np.concatenate(spans)[:, None])
             + infer.embed(self.position_embedding, positions[:, None]))
        if plan is None:
            plan = infer.SpanPlan(caches, span_lens)
        for i, block in enumerate(self.blocks):
            x = infer.mlp(block, x + infer.span_attention(
                block.attn, infer.layer_norm(x, block.ln1), plan, i))
        for cache, span_len in zip(caches, span_lens):
            cache.seq_len += span_len
        return infer.logits(self, x)
