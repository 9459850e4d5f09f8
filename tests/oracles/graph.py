"""The autograd transformer: the bit-identity reference of every trainer.

Before training went graph-free, ``TinyCausalLM.forward`` (with
``TransformerBlock.forward`` and ``MultiHeadSelfAttention.forward``) built
an ``ag.Tensor`` graph that ``.backward()`` differentiated.  It lives on
here, on the production weights, with the graph helpers only it (and the
graph trainers of ``tests/oracles/training.py``) used: ``cat``,
``getitem``, ``swapaxes``, ``broadcast_to`` and ``masked_fill`` (once
``Tensor`` methods), the ``LayerNorm`` / ``Embedding`` forwards, the
fused graph ``softmax`` and the ``cross_entropy`` /
``sequence_cross_entropy`` wrappers around the array losses that
``repro.llm.vjp`` reads.  The serving forward (``repro.llm.infer``)
equals :func:`forward` bitwise, and the hand-written backward equals its
``.backward()``.

Inputs follow the old method signatures: ``forward(model, token_ids)`` or
``forward(model, embeddings=...)``, ``prefix_kv`` one ``(keys, values)``
pair per layer (ndarrays or ``Tensor``), ``key_padding_mask`` True at
right-padded positions.
"""

import numpy as np

from repro.ag import Tensor, gelu
from repro.ag.functional import (cross_entropy_arrays,
                                 sequence_cross_entropy_arrays, softmax_grad)
from repro.ag.tensor import _unbroadcast

_NEG_INF = -1e9


def cat(tensors, axis=0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cat() requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tensors, backward)


def getitem(x: Tensor, index) -> Tensor:
    """``x[index]``; the gradient scatter-adds back (repeats summed)."""
    value = x.data[index]

    def backward(grad):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, index, grad)
            x._accumulate(full)

    return Tensor._make(value, (x,), backward)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad.swapaxes(a, b))

    return Tensor._make(x.data.swapaxes(a, b), (x,), backward)


def broadcast_to(x: Tensor, shape) -> Tensor:
    """Broadcast to ``shape``; gradients sum over the expanded axes (how
    one trained prompt or KV prefix is tiled across a minibatch)."""
    shape = tuple(shape)
    original = x.shape

    def backward(grad):
        if x.requires_grad:
            x._accumulate(_unbroadcast(grad, original))

    return Tensor._make(np.broadcast_to(x.data, shape), (x,), backward)


def masked_fill(x: Tensor, mask, value: float) -> Tensor:
    """Replace entries where ``mask`` is true with ``value`` (constant)."""
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, np.float32(value), x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(np.where(mask, 0.0, grad))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis=-1) -> Tensor:
    """Numerically stable softmax along ``axis`` (one fused graph node)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    value = shifted

    def backward(grad):
        if x.requires_grad:
            x._accumulate(softmax_grad(value, grad, axis))

    return Tensor._make(value, (x,), backward)


def cross_entropy(logits: Tensor, targets, ignore_index=None) -> Tensor:
    """Mean token-level cross entropy of ``(N, V)`` logits, as a scalar node."""
    value, grad_fn = cross_entropy_arrays(logits.data, targets, ignore_index)

    def backward(grad):
        if logits.requires_grad:
            logits._accumulate(grad_fn(float(grad)))

    return Tensor._make(np.asarray(value), (logits,), backward)


def sequence_cross_entropy(logits: Tensor, targets,
                           ignore_index=None) -> Tensor:
    """Mean over sequences of each sequence's mean token cross entropy."""
    value, grad_fn = sequence_cross_entropy_arrays(logits.data, targets,
                                                   ignore_index)

    def backward(grad):
        if logits.requires_grad:
            logits._accumulate(grad_fn(float(grad)))

    return Tensor._make(np.asarray(value), (logits,), backward)


def as_tensors(prefix_kv):
    """Per-layer prefixes as ``Tensor`` pairs (ndarray pairs wrapped)."""
    if prefix_kv is None:
        return None
    return [tuple(p if isinstance(p, Tensor) else Tensor(p) for p in pair)
            for pair in prefix_kv]


def layer_norm(layer, x: Tensor) -> Tensor:
    """``LayerNorm.forward``: normalise the last axis, then γ and β."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * (var + layer.eps) ** -0.5
    return normed * layer.weight + layer.bias


def embedding(layer, indices) -> Tensor:
    """``Embedding.forward``: rows of the table, range-checked."""
    return getitem(layer.weight, layer.checked(indices))


def embed(model, token_ids) -> Tensor:
    """Token embeddings without positions, shape (..., d_model)."""
    return embedding(model.token_embedding, token_ids)


def split_heads(attn, x: Tensor, batch: int, length: int) -> Tensor:
    return x.reshape(batch, length, attn.n_heads,
                     attn.d_head).transpose(0, 2, 1, 3)


def attention(attn, x: Tensor, prefix_kv=None, key_padding_mask=None):
    """``MultiHeadSelfAttention.forward``: attend over ``x`` (batch, T,
    d_model), the prefix visible to every query, the causal mask among
    the real tokens, padded keys (never the prefix) hidden from all."""
    batch, length, _ = x.shape
    q = split_heads(attn, attn.q_proj(x), batch, length)
    k = split_heads(attn, attn.k_proj(x), batch, length)
    v = split_heads(attn, attn.v_proj(x), batch, length)

    prefix_len = 0
    if prefix_kv is not None:
        pk, pv = prefix_kv
        attn._check_kv(pk, pv, "prefix")
        prefix_len = pk.shape[2]
        k = cat([pk, k], axis=2)
        v = cat([pv, v], axis=2)

    scores = (q @ swapaxes(k, -1, -2)) * (1.0 / np.sqrt(attn.d_head))
    mask = attn._causal_mask(length, prefix_len)
    if key_padding_mask is not None:
        padded = np.asarray(key_padding_mask, dtype=bool)
        if padded.shape != (batch, length):
            raise ValueError(
                f"key_padding_mask shaped {padded.shape} incompatible "
                f"with batch {batch} and {length} token keys")
        if prefix_len:
            padded = np.concatenate(
                [np.zeros((batch, prefix_len), dtype=bool), padded], axis=1)
        mask = mask[None, None, :, :] | padded[:, None, None, :]
    scores = masked_fill(scores, mask, _NEG_INF)
    weights = softmax(scores, axis=-1)
    context = weights @ v  # (batch, heads, T, d_head)
    merged = context.transpose(0, 2, 1, 3).reshape(batch, length,
                                                   attn.d_model)
    return attn.out_proj(merged)


def block_forward(block, x: Tensor, prefix_kv=None, key_padding_mask=None):
    """``TransformerBlock.forward``: LN -> attention -> LN -> GELU MLP."""
    x = x + attention(block.attn, layer_norm(block.ln1, x),
                      prefix_kv=prefix_kv, key_padding_mask=key_padding_mask)
    return x + block.ff2(gelu(block.ff1(layer_norm(block.ln2, x))))


def forward(model, token_ids=None, *, embeddings=None, prefix_kv=None,
            key_padding_mask=None) -> Tensor:
    """``TinyCausalLM.forward``: logits of shape (batch, T, vocab).

    Exactly one of ``token_ids`` (batch, T) or ``embeddings`` (batch, T,
    d_model); ``prefix_kv`` carries one (key, value) pair per layer.
    """
    if (token_ids is None) == (embeddings is None):
        raise ValueError("pass exactly one of token_ids or embeddings")
    if embeddings is None:
        token_ids = np.asarray(token_ids)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        embeddings = embed(model, token_ids)
    batch, length, _ = embeddings.shape
    if length > model.config.max_seq_len:
        raise ValueError(
            f"sequence of {length} exceeds "
            f"max_seq_len={model.config.max_seq_len}")
    prefix_kv = as_tensors(prefix_kv)
    if prefix_kv is not None and len(prefix_kv) != len(model.blocks):
        raise ValueError(
            f"prefix_kv has {len(prefix_kv)} entries for "
            f"{len(model.blocks)} layers")
    if key_padding_mask is not None:
        key_padding_mask = np.asarray(key_padding_mask, dtype=bool)
        if key_padding_mask.shape != (batch, length):
            raise ValueError(
                f"key_padding_mask shaped {key_padding_mask.shape} "
                f"incompatible with ({batch}, {length}) inputs")
    x = embeddings + embedding(model.position_embedding, np.arange(length))
    for i, block in enumerate(model.blocks):
        x = block_forward(
            block, x, prefix_kv=None if prefix_kv is None else prefix_kv[i],
            key_padding_mask=key_padding_mask)
    return model.lm_head(layer_norm(model.ln_final, x))
