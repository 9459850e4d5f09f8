"""The soft-prompt gradient through the frozen base, graph-free.

Prompt tuning trains a few rows of input embeddings and nothing else.
:func:`soft_prompt_vjp` runs the training forward of
``TinyCausalLM.forward(embeddings=[prompt, tokens], key_padding_mask=...)``
and the sequence cross entropy on raw float32 arrays, keeps only what the
backward reads — LayerNorm's centred input and ``1/sqrt(var + eps)``,
q/k/v and the softmax weights per layer, GELU's ``tanh`` — and pulls the
loss gradient back to the prompt rows: no autograd graph, no gradient for
any weight.  Dropout is the identity, as at inference.

**Bit-exactness contract** (pinned by ``tests/tuning/
test_graph_free_prompt.py`` against the graph, ``tests/oracles/
tuning.py``): forward and backward run the numpy operations of the
autograd graph in the same order on operands of the same layout, and where
the graph sums several gradient contributions into one tensor they are
added in its reverse-DFS order:

* a block's residual input gets the residual branch, then its LayerNorm's
  centred term, then the LayerNorm's mean term;
* inside a LayerNorm, ``centered`` gets ``normed``'s term, then the two
  terms of ``centered * centered``;
* ``ln1``'s output gets the q projection's term, then k's, then v's.
"""

from __future__ import annotations

import numpy as np

from ..ag import QuantizedLinear
from ..ag.functional import (_GELU_COEFF, _SQRT_2_OVER_PI, gelu_grad,
                             sequence_cross_entropy_arrays, softmax_grad)
from . import infer
from .attention import MultiHeadSelfAttention

__all__ = ["soft_prompt_vjp"]


def _linear_grad(layer, grad: np.ndarray) -> np.ndarray:
    """Input gradient of ``infer.affine(layer, x)``."""
    if isinstance(layer, QuantizedLinear):
        return layer._affine_grad(grad)
    return np.matmul(grad, layer.weight.data.swapaxes(-1, -2))


def _layer_norm(x: np.ndarray, layer):
    """``infer.layer_norm`` plus what its backward reads."""
    inv_n = np.float32(1.0 / x.shape[-1])
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    var_eps = ((centered * centered).sum(axis=-1, keepdims=True) * inv_n
               + np.float32(layer.eps))
    inv_std = 1.0 / np.sqrt(var_eps)
    out = centered * inv_std * layer.weight.data + layer.bias.data
    return out, (centered, var_eps, inv_std)


def _layer_norm_grad(tape, layer, grad: np.ndarray,
                     residual: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the LayerNorm's input: ``residual`` (the gradient it
    already has from a residual branch), plus the centred term, plus the
    mean term — the order the graph adds them in."""
    centered, var_eps, inv_std = tape
    inv_n = np.float32(1.0 / centered.shape[-1])
    normed_grad = grad * layer.weight.data
    centered_grad = normed_grad * inv_std
    var_grad = ((normed_grad * centered).sum(axis=-1, keepdims=True)
                * -0.5 * (1.0 / (var_eps * np.sqrt(var_eps))))
    square_term = var_grad * inv_n * centered
    centered_grad += square_term
    centered_grad += square_term
    mean_grad = (centered_grad.sum(axis=-1, keepdims=True)
                 * np.float32(-1.0) * inv_n)
    total = centered_grad if residual is None else residual + centered_grad
    total += mean_grad
    return total


def _attention(attn, h: np.ndarray, mask: np.ndarray):
    """``MultiHeadSelfAttention.forward`` under a boolean block mask."""
    q, k, v = infer._heads(attn, h)
    scores = np.matmul(q, k.swapaxes(-1, -2)) * infer.attention_scale(attn)
    weights = infer.softmax_(np.where(mask, infer.NEG_INF, scores))
    return infer._merge(attn, np.matmul(weights, v)), (q, k, v, weights)


def _attention_grad(attn, tape, mask: np.ndarray,
                    grad: np.ndarray) -> np.ndarray:
    q, k, v, weights = tape
    batch, length, d_model = grad.shape
    split = (batch, length, attn.n_heads, attn.d_head)
    context_grad = (_linear_grad(attn.out_proj, grad).reshape(split)
                    .transpose(0, 2, 1, 3))
    v_grad = np.matmul(weights.swapaxes(-1, -2), context_grad)
    scores_grad = softmax_grad(
        weights, np.matmul(context_grad, v.swapaxes(-1, -2)))
    scores_grad = (np.where(mask, 0.0, scores_grad)
                   * infer.attention_scale(attn))
    q_grad = np.matmul(scores_grad, k)
    k_grad = np.matmul(q.swapaxes(-1, -2), scores_grad).swapaxes(-1, -2)
    h_grad, k_term, v_term = (
        _linear_grad(proj, head_grad.transpose(0, 2, 1, 3)
                     .reshape(batch, length, d_model))
        for proj, head_grad in ((attn.q_proj, q_grad), (attn.k_proj, k_grad),
                                (attn.v_proj, v_grad)))
    h_grad += k_term
    h_grad += v_term
    return h_grad


def _block(block, x: np.ndarray, mask: np.ndarray):
    """``TransformerBlock.forward``; returns the output and the tape."""
    h, ln1 = _layer_norm(x, block.ln1)
    attended, attention = _attention(block.attn, h, mask)
    x = x + attended
    h, ln2 = _layer_norm(x, block.ln2)
    pre = infer.affine(block.ff1, h)
    tanh = np.tanh(_SQRT_2_OVER_PI * (pre + _GELU_COEFF * (pre * pre * pre)))
    out = x + infer.affine(block.ff2, 0.5 * pre * (1.0 + tanh))
    return out, (ln1, attention, ln2, pre, tanh)


def _block_grad(block, tape, mask: np.ndarray,
                grad: np.ndarray) -> np.ndarray:
    """Gradient of the block's input from that of its output."""
    ln1, attention, ln2, pre, tanh = tape
    mlp_grad = _linear_grad(block.ff1, gelu_grad(
        pre, tanh, _linear_grad(block.ff2, grad)))
    grad = _layer_norm_grad(ln2, block.ln2, mlp_grad, residual=grad)
    attention_grad = _attention_grad(block.attn, attention, mask, grad)
    return _layer_norm_grad(ln1, block.ln1, attention_grad, residual=grad)


def soft_prompt_vjp(model, prompt: np.ndarray, token_ids: np.ndarray,
                    key_padding_mask: np.ndarray, targets: np.ndarray,
                    ignore_index: int) -> tuple[np.float32, np.ndarray]:
    """Loss and prompt gradient of one padded soft-prompt minibatch.

    ``prompt`` is the ``(n_tokens, d_model)`` soft prompt shared by every
    row; ``token_ids`` / ``key_padding_mask`` are the ``(B, L)`` right-padded
    ids and their padding (True = pad); ``targets`` is ``(B, n_tokens +
    L)``, aligned with the logits of ``[prompt, tokens]``.  Returns the
    :func:`~repro.ag.sequence_cross_entropy` loss and its gradient with
    respect to ``prompt`` — what the autograd graph gives, bit for bit.
    """
    n_tokens, d_model = prompt.shape
    size = token_ids.shape[0]
    length = n_tokens + token_ids.shape[1]
    if length > model.config.max_seq_len:
        raise ValueError(
            f"sequence of {length} exceeds "
            f"max_seq_len={model.config.max_seq_len}"
        )
    rows = np.broadcast_to(prompt.reshape(1, n_tokens, d_model),
                           (size, n_tokens, d_model))
    x = (np.concatenate([rows, infer.embed(model.token_embedding, token_ids)],
                        axis=1)
         + infer.embed(model.position_embedding, np.arange(length)))
    padded = np.concatenate([np.zeros((size, n_tokens), dtype=bool),
                             np.asarray(key_padding_mask, dtype=bool)], axis=1)
    mask = (MultiHeadSelfAttention._causal_mask(length, 0)[None, None]
            | padded[:, None, None, :])
    tapes = []
    for block in model.blocks:
        x, tape = _block(block, x, mask)
        tapes.append(tape)
    h, final = _layer_norm(x, model.ln_final)
    loss, loss_grad = sequence_cross_entropy_arrays(
        infer.affine(model.lm_head, h), targets, ignore_index)

    grad = _layer_norm_grad(final, model.ln_final,
                            _linear_grad(model.lm_head, loss_grad(1.0)))
    for block, tape in zip(reversed(model.blocks), reversed(tapes)):
        grad = _block_grad(block, tape, mask, grad)
    grad = grad[:, :n_tokens]
    if size > 1:    # the broadcast's backward; a batch of one has none
        grad = grad.sum(axis=0, keepdims=True)
    return loss, grad.reshape(n_tokens, d_model)
