"""The hand-written backward of the transformer forward.

Every trainer differentiates the serving forward itself:
``infer.extend(..., tape=tape)`` and ``infer.logits(..., tape)`` append,
layer by layer, what the backward reads — LayerNorm's centred input,
``var + eps``, ``1/sqrt(var + eps)`` and normalised output, q, the keys
and values attended (trained prefix rows first), the softmax weights and
the merged heads per layer, GELU's input, ``tanh`` and output — and
:func:`backward` pops it in reverse, pulling a logits gradient back to
the input embeddings and, when asked, to the trained KV prefixes and to
every weight.  No autograd graph is built.

* :func:`soft_prompt_vjp` — vanilla prompt tuning's step (DEPT's through
  :func:`sequence_vjp`): the gradient of the prompt rows;
* :func:`sequence_vjp` — the padded-minibatch sequence cross entropy and
  its gradient with respect to the input embeddings and the per-layer
  prefixes (prefix tuning, P-tuning v2);
* ``backward(..., weights=True)`` — pretraining: each ``Linear``'s
  ``xᵀ·dy`` and bias, LayerNorm's γ/β and the untied ``lm_head``, written
  to the parameters' ``.grad``; :func:`scatter_rows` is the embedding
  tables' scatter-add by id.

**Bit-exactness contract** (pinned by ``tests/tuning/
test_graph_free_prompt.py``, ``tests/tuning/test_graph_free_baselines.py``
and ``tests/llm/test_graph_free_pretrain.py`` against the autograd graph
of ``tests/oracles/graph.py``): the backward runs the numpy operations
of the graph's in the same order on operands of the same layout, and
where the graph sums several gradient contributions into one tensor they
are added in its reverse-DFS order:

* a block's residual input gets the residual branch, then its LayerNorm's
  centred term, then the LayerNorm's mean term;
* inside a LayerNorm, ``centered`` gets ``normed``'s term, then the two
  terms of ``centered * centered``;
* ``ln1``'s output gets the q projection's term, then k's, then v's.

A weight reached through a broadcast (a ``(B, T, ·)`` activation against
a ``(d, n)`` matrix, a bias, a shared prefix) gets the broadcast's sum,
taken as the graph takes it: the batched product first, then the sum
over the leading axes.
"""

from __future__ import annotations

import numpy as np

from ..ag import QuantizedLinear
from ..ag.functional import (gelu_grad, sequence_cross_entropy_arrays,
                             softmax_grad)
from . import infer

__all__ = ["affine_grad", "backward", "scatter_rows", "sequence_vjp",
           "soft_prompt_vjp"]


def affine_grad(layer, grad: np.ndarray,
                x: np.ndarray | None = None) -> np.ndarray:
    """Input gradient of ``infer.affine(layer, x)``.  Given the forward's
    ``(B, T, ·)`` input ``x``, also writes the weight's and bias's
    gradients to their ``.grad``."""
    if x is not None:
        layer.weight.grad = np.matmul(x.swapaxes(-1, -2), grad).sum(axis=0)
        if layer.bias is not None:
            layer.bias.grad = grad.sum(axis=(0, 1))
    if isinstance(layer, QuantizedLinear):
        return layer._affine_grad(grad)
    return np.matmul(grad, layer.weight.data.swapaxes(-1, -2))


def _layer_norm_grad(record, layer, grad: np.ndarray,
                     residual: np.ndarray | None, weights: bool) -> np.ndarray:
    """Gradient of the LayerNorm's input: ``residual`` (the gradient it
    already has from a residual branch), plus the centred term, plus the
    mean term — the order the graph adds them in."""
    centered, var_eps, inv_std, normed, _ = record
    if weights:
        layer.weight.grad = (grad * normed).sum(axis=(0, 1))
        layer.bias.grad = grad.sum(axis=(0, 1))
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


def _attention_grad(attn, record, h: np.ndarray, grad: np.ndarray,
                    weights: bool):
    """Gradient of the attention's input ``h`` and of its prefix (None
    without one)."""
    q, keys, values, probs, mask, merged = record
    batch, length, d_model = grad.shape
    split = (batch, length, attn.n_heads, attn.d_head)
    context_grad = (affine_grad(attn.out_proj, grad, merged if weights else None)
                    .reshape(split).transpose(0, 2, 1, 3))
    v_grad = np.matmul(probs.swapaxes(-1, -2), context_grad)
    scores_grad = softmax_grad(
        probs, np.matmul(context_grad, values.swapaxes(-1, -2)))
    if mask is not None:
        scores_grad = np.where(mask, 0.0, scores_grad)
    scores_grad = scores_grad * infer.attention_scale(attn)
    q_grad = np.matmul(scores_grad, keys)
    k_grad = np.matmul(q.swapaxes(-1, -2), scores_grad).swapaxes(-1, -2)
    prefix_len = keys.shape[2] - length
    prefix_grad = None
    if prefix_len:
        # The graph's concatenation hands each part on compacted in its
        # own memory order; the one prefix broadcast over the batch gets
        # the rows' sum (a batch of one has none).
        prefix_grad = tuple(
            part if batch == 1 else part.sum(axis=0, keepdims=True)
            for part in (g[:, :, :prefix_len].copy(order="K")
                         for g in (k_grad, v_grad)))
        k_grad, v_grad = (g[:, :, prefix_len:].copy(order="K")
                          for g in (k_grad, v_grad))
    x = h if weights else None
    h_grad, k_term, v_term = (
        affine_grad(proj, head_grad.transpose(0, 2, 1, 3)
                    .reshape(batch, length, d_model), x)
        for proj, head_grad in ((attn.q_proj, q_grad), (attn.k_proj, k_grad),
                                (attn.v_proj, v_grad)))
    h_grad += k_term
    h_grad += v_term
    return h_grad, prefix_grad


def backward(model, tape: list, grad: np.ndarray, *,
             weights: bool = False):
    """Pull ``grad``, the gradient of the logits that
    ``infer.logits(model, hidden, tape)`` returned for ``hidden, _ =
    infer.extend(model, x, ..., tape=tape)``, back to ``x``.

    Consumes ``tape``.  Returns ``(x_grad, prefix_grads)``: the ``(B, T,
    d_model)`` gradient of the input embeddings — of the positions'
    embedding rows too, which ``extend`` adds to ``x`` — and, when the
    forward had a ``prefix_kv``, one ``(key, value)`` gradient pair per
    layer shaped as the prefix (else None).  ``weights=True`` also sets
    the ``.grad`` of every block's, ``ln_final``'s and ``lm_head``'s
    parameters (the embeddings' are :func:`scatter_rows` of ``x_grad``).
    """
    final = tape.pop()
    grad = _layer_norm_grad(
        final, model.ln_final,
        affine_grad(model.lm_head, grad, final[-1] if weights else None),
        None, weights)
    prefix_grads = []
    for block in reversed(model.blocks):
        pre, tanh, act = tape.pop()
        ln2 = tape.pop()
        attention = tape.pop()
        ln1 = tape.pop()
        mlp_grad = affine_grad(block.ff1, gelu_grad(pre, tanh, affine_grad(
            block.ff2, grad, act if weights else None)),
            ln2[-1] if weights else None)
        grad = _layer_norm_grad(ln2, block.ln2, mlp_grad, grad, weights)
        attention_grad, prefix_grad = _attention_grad(
            block.attn, attention, ln1[-1], grad, weights)
        grad = _layer_norm_grad(ln1, block.ln1, attention_grad, grad, weights)
        prefix_grads.append(prefix_grad)
    prefix_grads.reverse()
    return grad, (prefix_grads if prefix_grads[0] is not None else None)


def scatter_rows(n_rows: int, ids: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Backward of the row lookup ``table[ids]``: ``grad`` (``ids.shape +
    (d,)``) added into a zero ``(n_rows, d)`` table by id, repeats summed
    in index order."""
    table = np.zeros((n_rows, grad.shape[-1]), dtype=np.float32)
    np.add.at(table, ids, grad)
    return table


def sequence_vjp(model, x: np.ndarray, key_padding_mask: np.ndarray,
                 targets: np.ndarray, ignore_index: int, *,
                 prefix_kv: list | None = None):
    """Loss and gradients of one padded minibatch under the sequence
    cross entropy (``repro.ag.functional.sequence_cross_entropy_arrays``).

    ``x`` is the ``(B, T, d_model)`` input embeddings (soft-prompt rows
    included), ``key_padding_mask`` their ``(B, T)`` padding (True = pad)
    and ``targets`` the ``(B, T)`` next-token ids aligned with the logits;
    ``prefix_kv`` conditions every layer.  Returns ``(loss, x_grad,
    prefix_grads)`` as :func:`backward` does — what the autograd graph
    gives, bit for bit.
    """
    tape: list = []
    hidden, _ = infer.extend(model, x, prefix_kv=prefix_kv,
                             key_padding_mask=key_padding_mask, tape=tape)
    loss, loss_grad = sequence_cross_entropy_arrays(
        infer.logits(model, hidden, tape), targets, ignore_index)
    x_grad, prefix_grads = backward(model, tape, loss_grad(1.0))
    return loss, x_grad, prefix_grads


def soft_prompt_vjp(model, prompt: np.ndarray, tokens: np.ndarray,
                    key_padding_mask: np.ndarray, targets: np.ndarray,
                    ignore_index: int):
    """Loss and gradients of one padded minibatch behind a soft prompt.

    ``prompt`` is the ``(n_tokens, d_model)`` soft prompt shared by every
    row; ``tokens`` / ``key_padding_mask`` are the ``(B, L, d_model)``
    token embeddings of the right-padded ids and their ``(B, L)`` padding
    (True = pad); ``targets`` is ``(B, n_tokens + L)``, aligned with the
    logits of ``[prompt, tokens]``.  Returns the loss, its gradient with
    respect to ``prompt`` and with respect to ``tokens``.
    """
    n_tokens, d_model = prompt.shape
    size = tokens.shape[0]
    rows = np.broadcast_to(prompt.reshape(1, n_tokens, d_model),
                           (size, n_tokens, d_model))
    padded = np.concatenate([np.zeros((size, n_tokens), dtype=bool),
                             np.asarray(key_padding_mask, dtype=bool)], axis=1)
    loss, grad, _ = sequence_vjp(
        model, np.concatenate([rows, tokens], axis=1), padded, targets,
        ignore_index)
    prompt_grad = grad[:, :n_tokens]
    if size > 1:    # the broadcast's backward; a batch of one has none
        prompt_grad = prompt_grad.sum(axis=0, keepdims=True)
    return loss, prompt_grad.reshape(n_tokens, d_model), grad[:, n_tokens:]
