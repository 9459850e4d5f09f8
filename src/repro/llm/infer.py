"""The graph-free transformer core: one set of kernels, two forward shapes.

Everything a query pays for on the CPU after tuning is inference over the
frozen model, and inference never needs an autograd graph; training does
not either.  The kernels here work on raw float32 ndarrays and read
weights from the live modules on every call (so distilling or quantizing
a model afterwards Just Works); they never build a
:class:`~repro.ag.Tensor` graph, so decoding writes no shared module
state.  Training runs the same forward: :func:`extend` (and
:func:`logits`) given a ``tape`` list append what the hand-written
backward (:mod:`repro.llm.vjp`) reads, so the block math is written once
for prefill, the draft's catch-up and every trainer.

**Bit-exactness contract** (stated once, pinned by ``tests/llm/
test_infer.py``): each kernel runs the same numpy operation sequence as
its autograd counterpart — :func:`layer_norm` as ``ag.LayerNorm``,
:func:`affine` as ``ag.Linear`` / ``ag.QuantizedLinear``, :func:`gelu` as
``ag.gelu``, :func:`softmax_` as the graph softmax of
``tests/oracles/graph.py`` — on operands of the same shape and memory
layout, so its output equals the autograd op's under ``np.array_equal``.

The two forward shapes built on them:

* *span* (:func:`span_attention`, driven by ``TinyCausalLM.decode_span``):
  many sequences, a ragged number of new positions each, every sequence
  in its slot of a :class:`~repro.llm.kv_cache.KVSlab`, written in place.
  **The grouping rule**: rows that attend over the same number of keys
  ``at`` share one pass — a ``(G, H, 1, d_head) @ (G, H, d_head, at)``
  score matmul over their keys (one view of consecutive slots, else
  gathered C-contiguous), one last-axis softmax, one context matmul — and
  each row is bitwise what it computes alone: numpy's matmul hands BLAS
  one 2-D operand per (row, head), the same alone or grouped (shape
  ``(at, d_head)``, row stride ``d_head``); a length-``at`` last-axis sum
  builds the same pairwise tree; scale, max shift, exp and divide are
  elementwise.  Rows of unequal length are never padded together: a key
  mask changes the length, hence the association order, of numpy's
  reductions and drifts by ulps.  Which rows share a pass, and whether
  their slots are one view, does not depend on the layer: a
  :class:`SpanPlan` works it out once per forward for every layer.
* *extend* (:func:`extend`): ``G`` sequences of ``T`` positions each,
  stacked ``(G, T, d_model)``, causal mask, optional KV prefix and past
  cache — prefill (``G`` equal-length prompts in one forward), the
  draft model's catch-up and, with a key padding mask and a tape, every
  training step (a ragged minibatch right-padded to one stack).
  **The stacking rule**: each stacked sequence
  is bitwise the same sequence run alone, and the same argument as the
  grouping rule's carries it: every matmul over a stack — the affines'
  ``(G, T, d) @ (d, n)`` included — hands BLAS one ``(T, ·)`` operand
  per stacked item, the one the sequence alone would hand it; layer norm
  and softmax reduce over the last axis, row by row; the rest is
  elementwise.  Bitwise the autograd attention over the same keys (the
  cached step kept in ``tests/oracles/generation.py``).  It returns a new
  immutable :class:`~repro.llm.kv_cache.KVCache` and mutates nothing.

Two fusions look like free speed and are not, because they change which
kernel OpenBLAS picks and so the bits.  Measured at phi-2-sim's width
(``d_model`` 56) over 2400 random round inputs, ``B`` = 1..8 (numpy 2.4,
its bundled OpenBLAS): one ``(d, 3d)`` matmul for q, k and v instead of
three ``(d, d)`` ones differed in all 2400; flattening a round's ``(B,
1, d)`` affine input to ``(B, d)`` — one GEMM where there were ``B``
one-row products — in 2100, every case with ``B`` > 1.  The
bit-exactness contract rules both out.

Both hold plain float32 ndarrays, the trained KV prefixes included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ag import Embedding, QuantizedLinear
from ..ag.functional import _GELU_COEFF, _SQRT_2_OVER_PI
from .attention import KVPrefix
from .kv_cache import KVArrays, KVBuffer, KVCache

__all__ = ["NEG_INF", "embed", "layer_norm", "affine", "gelu", "softmax_",
           "mlp", "logits", "attention_scale", "length_groups",
           "SpanPlan", "span_attention", "extend"]

NEG_INF = np.float32(-1e9)


def embed(embedding: Embedding, ids: np.ndarray) -> np.ndarray:
    """Rows of ``embedding`` for ``ids``, range-checked like its forward."""
    return embedding.weight.data[embedding.checked(ids)]


def layer_norm(x: np.ndarray, layer, tape: list | None = None) -> np.ndarray:
    """:class:`ag.LayerNorm` over the last axis."""
    inv_n = np.float32(1.0 / x.shape[-1])
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    var_eps = ((centered * centered).sum(axis=-1, keepdims=True) * inv_n
               + np.float32(layer.eps))
    inv_std = 1.0 / np.sqrt(var_eps)
    normed = centered * inv_std
    out = normed * layer.weight.data + layer.bias.data
    if tape is not None:
        tape.append((centered, var_eps, inv_std, normed, out))
    return out


def affine(layer, x: np.ndarray) -> np.ndarray:
    """``x @ W + b`` for a dense ``Linear`` or a ``QuantizedLinear`` (its
    fused ``affine_numpy``); ``bias`` may be None (the lm_head)."""
    if isinstance(layer, QuantizedLinear):
        return layer.affine_numpy(x)
    out = np.matmul(x, layer.weight.data)
    if layer.bias is not None:
        out += layer.bias.data
    return out


def gelu(x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """GPT-2 tanh-approximation GELU (:func:`ag.gelu`)."""
    tanh = np.tanh(_SQRT_2_OVER_PI * (x + _GELU_COEFF * (x * x * x)))
    out = 0.5 * x * (1.0 + tanh)
    if tape is not None:
        tape.append((x, tanh, out))
    return out


def softmax_(scores: np.ndarray) -> np.ndarray:
    """:func:`ag.softmax` over the last axis, overwriting ``scores``."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def mlp(block, x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """The block's residual feed-forward half: ``x + ff2(gelu(ff1(ln2 x)))``."""
    return x + affine(block.ff2, gelu(
        affine(block.ff1, layer_norm(x, block.ln2, tape)), tape))


def logits(model, hidden: np.ndarray,
           tape: list | None = None) -> np.ndarray:
    """Final norm and lm_head over hidden states."""
    return affine(model.lm_head, layer_norm(hidden, model.ln_final, tape))


def attention_scale(attn) -> np.float32:
    """``1/sqrt(d_head)``, rounded to float32 as ``forward`` rounds it."""
    return np.float32(1.0 / np.sqrt(attn.d_head))


def _heads(attn, h: np.ndarray) -> list[np.ndarray]:
    """q, k, v projections of ``h`` (B, T, d), each split to (B, H, T, d_head)."""
    shape = h.shape[:2] + (attn.n_heads, attn.d_head)
    return [affine(proj, h).reshape(shape).transpose(0, 2, 1, 3)
            for proj in (attn.q_proj, attn.k_proj, attn.v_proj)]


def _merge(attn, context: np.ndarray) -> np.ndarray:
    """(B, H, T, d_head) contexts as the output projection's (B, T, d) input."""
    batch, _, length, _ = context.shape
    return context.transpose(0, 2, 1, 3).reshape(batch, length, attn.d_model)


def length_groups(starts: Sequence[int],
                  spans: Sequence[int]) -> dict[int, list[int]]:
    """A span forward's rows (numbered in sequence order, each span
    contiguous) keyed by attended length: row ``i`` of sequence ``s``'s
    span attends over ``starts[s] + i + 1`` keys."""
    groups: dict[int, list[int]] = {}
    row = 0
    for base, span in zip(starts, spans):
        for at in range(base + 1, base + span + 1):
            groups.setdefault(at, []).append(row)
            row += 1
    return groups


class SpanPlan:
    """How a span forward's rows attend, worked out once for all layers.

    ``caches[s]`` (a :class:`~repro.llm.kv_cache.KVBuffer`) feeds
    ``spans[s]`` contiguous rows, numbered in sequence order.  Every
    :func:`length_groups` entry becomes one pass ``(at, index, rows,
    seqs, slab, first)``: the attended length, the rows (``index`` is a
    slice when they are contiguous, else the row list), the sequence each
    row belongs to and — when those sequences sit in consecutive slots
    ``first ..`` of one :class:`~repro.llm.kv_cache.KVSlab` — that slab,
    else None (the pass gathers).  Nothing here depends on the layer, so
    :func:`span_attention` reads one plan in every layer, and the
    scheduler's ``grouped_rows`` count reads it too: rows that share a
    pass with another row.
    """

    __slots__ = ("caches", "passes", "grouped_rows")

    def __init__(self, caches: Sequence[KVBuffer], spans: Sequence[int]):
        self.caches = caches
        owner = [s for s, span in enumerate(spans) for _ in range(span)]
        groups = length_groups(
            [cache.prefix_len + cache.seq_len for cache in caches], spans)
        self.passes = []
        self.grouped_rows = 0
        for at, rows in groups.items():
            seqs = [owner[r] for r in rows]
            slab, first = caches[seqs[0]].slab, caches[seqs[0]].slot
            if not all(caches[s].slab is slab and caches[s].slot == first + i
                       for i, s in enumerate(seqs)):
                slab = None   # not consecutive slots of one slab: a gather
            index = (slice(rows[0], rows[-1] + 1)
                     if rows[-1] - rows[0] == len(rows) - 1 else rows)
            self.passes.append((at, index, rows, seqs, slab, first))
            if len(rows) > 1:
                self.grouped_rows += len(rows)


def span_attention(attn, h: np.ndarray, plan: SpanPlan,
                   layer: int) -> np.ndarray:
    """Attention for a span forward's new positions in layer ``layer``.

    ``h`` is ``(rows, 1, d_model)``, rows as ``plan`` numbers them.  Every
    row's key and value are written in place into its sequence's buffer
    at position ``at - 1`` (the buffers' cursors are the caller's to
    move), then each pass of ``plan`` attends its rows over their first
    ``at`` keys: everything before the span plus their span predecessors.
    Returns the attended rows.
    """
    q, k, v = _heads(attn, h)
    caches = plan.caches
    for at, index, rows, seqs, slab, first in plan.passes:
        for which, new in enumerate((k, v)):
            if slab is not None:
                slab.layers[layer][which][first:first + len(rows), :,
                                          at - 1] = new[index, :, 0]
            else:
                for row, s in zip(rows, seqs):
                    caches[s].layer(layer)[which][0, :, at - 1] = \
                        new[row, :, 0]
    scale = attention_scale(attn)
    contexts = np.empty(q.shape, dtype=np.float32)
    for at, index, rows, seqs, slab, first in plan.passes:
        # One view of consecutive slots, else a gather: per (row, head)
        # the same BLAS operand either way (the grouping rule).
        keys, values = (
            slab.layers[layer][which][first:first + len(rows), :, :at]
            if slab is not None
            else np.concatenate([caches[s].layer(layer)[which][:, :, :at]
                                 for s in seqs])
            for which in (0, 1))
        scores = np.matmul(q[index], keys.swapaxes(-1, -2))
        scores *= scale
        contexts[index] = np.matmul(softmax_(scores), values)
    return affine(attn.out_proj, _merge(attn, contexts))


def _causal_attention(attn, h: np.ndarray, past: KVArrays | None,
                      prefix: KVPrefix | None, mask: np.ndarray | None,
                      tape: list | None) -> tuple[np.ndarray, KVArrays]:
    """Attention over a past cache and a prefix, ``mask`` (True = blocked)
    applied to the scores."""
    q, k, v = _heads(attn, h)
    if past is not None:
        attn._check_kv(past[0], past[1], "past")
        k = np.concatenate([past[0], k], axis=2)
        v = np.concatenate([past[1], v], axis=2)
    keys, values = k, v
    if prefix is not None:
        attn._check_kv(prefix[0], prefix[1], "prefix")
        # One trained prefix conditions every sequence of a stack.
        keys, values = (
            np.concatenate([np.broadcast_to(
                trained, k.shape[:2] + trained.shape[2:]), new], axis=2)
            for trained, new in zip(prefix, (k, v)))
    scores = np.matmul(q, keys.swapaxes(-1, -2)) * attention_scale(attn)
    if mask is not None:
        np.copyto(scores, NEG_INF, where=mask)
    weights = softmax_(scores)
    merged = _merge(attn, np.matmul(weights, values))
    if tape is not None:
        tape.append((q, keys, values, weights, mask, merged))
    # The attention above ran on the projections' own (strided) views;
    # the cache is handed on C-contiguous so that the autograd oracle's
    # ``cat([past, new])`` (tests/oracles/generation.py) — which inherits
    # its inputs' memory order — and the span forward's ``KVBuffer``
    # present BLAS the same key layout.
    return affine(attn.out_proj, merged), (np.ascontiguousarray(k),
                                           np.ascontiguousarray(v))


def extend(
    model,
    x: np.ndarray,
    *,
    past: KVCache | None = None,
    prefix_kv: list[KVPrefix] | None = None,
    key_padding_mask: np.ndarray | None = None,
    tape: list | None = None,
) -> tuple[np.ndarray, KVCache]:
    """Run ``G`` equal-length sequences' new positions through every block.

    ``x`` is ``(G, T, d_model)`` input embeddings (token rows, soft-prompt
    rows — anything, *without* positions), one stacked row per sequence,
    occupying positions ``past.seq_len ..`` of each; ``past`` (batch
    ``G``) is their cache so far and ``prefix_kv`` one trained (key,
    value) pair per layer, shared by all ``G``.  Returns the final hidden
    states ``(G, T, d_model)`` — feed the rows you need to :func:`logits`
    — and the cache extended by the ``T`` positions
    (:meth:`~repro.llm.kv_cache.KVCache.split` gives each sequence its
    own).  Each stacked sequence is bitwise the same sequence run alone.

    The training forward is this one.  ``key_padding_mask`` (``(G, T)``,
    True at right-padded positions) hides padded keys from every query,
    so a ragged minibatch runs as one stack; ``tape`` (a list) receives,
    block by block, what :func:`repro.llm.vjp.backward` reads — then pass
    it to :func:`logits` too.  No tape: nothing is recorded.
    """
    blocks = model.blocks
    past_len = 0
    if past is not None:
        if past.n_layers != len(blocks):
            raise ValueError(
                f"past has {past.n_layers} layers for {len(blocks)} blocks")
        past_len = past.seq_len
    batch, length = x.shape[:2]
    if past_len + length > model.config.max_seq_len:
        raise ValueError(
            f"sequence of {past_len + length} exceeds "
            f"max_seq_len={model.config.max_seq_len}")
    if prefix_kv is not None and len(prefix_kv) != len(blocks):
        raise ValueError(
            f"prefix_kv has {len(prefix_kv)} entries for {len(blocks)} layers")
    mask = None
    if length > 1 or key_padding_mask is not None:   # a lone query sees all
        prefix_len = 0 if prefix_kv is None else prefix_kv[0][0].shape[2]
        mask = blocks[0].attn._causal_mask(length, prefix_len, past_len)
        if key_padding_mask is not None:
            padded = np.asarray(key_padding_mask, dtype=bool)
            if padded.shape != (batch, length):
                raise ValueError(
                    f"key_padding_mask shaped {padded.shape} incompatible "
                    f"with ({batch}, {length}) inputs")
            # Prefix and past keys are never padding.
            padded = np.concatenate([np.zeros(
                (batch, prefix_len + past_len), dtype=bool), padded], axis=1)
            mask = mask[None, None] | padded[:, None, None, :]
    x = x + embed(model.position_embedding,
                  np.arange(past_len, past_len + length))
    layers: list[KVArrays] = []
    for i, block in enumerate(blocks):
        attended, present = _causal_attention(
            block.attn, layer_norm(x, block.ln1, tape),
            None if past is None else past.layer(i),
            None if prefix_kv is None else prefix_kv[i], mask, tape)
        layers.append(present)
        x = mlp(block, x + attended, tape)
    return x, KVCache(layers)
