"""Differentiable functional operations built on :class:`~repro.ag.Tensor`.

``gelu`` is a fused primitive (one graph node, a hand-written backward);
``mse_loss`` is composed from tensor ops.  The other fused backwards are
plain array functions — :func:`softmax_grad`, :func:`gelu_grad`, and the
losses :func:`cross_entropy_arrays` / :func:`sequence_cross_entropy_arrays`
that return their value with a gradient function — read by the
hand-written backward of :mod:`repro.llm.vjp`; the graph wrappers around
them, which the autograd transformer used, are the reference in
``tests/oracles/graph.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor

__all__ = ["gelu", "mse_loss", "softmax_grad", "gelu_grad",
           "cross_entropy_arrays", "sequence_cross_entropy_arrays"]

_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))
_GELU_COEFF = np.float32(0.044715)


def softmax_grad(value: np.ndarray, grad: np.ndarray,
                 axis: int = -1) -> np.ndarray:
    """Input gradient of a softmax whose output is ``value``."""
    inner = (grad * value).sum(axis=axis, keepdims=True)
    return value * (grad - inner)


def gelu_grad(data: np.ndarray, tanh_inner: np.ndarray,
              grad: np.ndarray) -> np.ndarray:
    """Input gradient of :func:`gelu` at ``data``, whose forward computed
    ``tanh_inner``."""
    sech2 = 1.0 - tanh_inner * tanh_inner
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_COEFF * (data * data))
    return grad * (0.5 * (1.0 + tanh_inner) + 0.5 * data * sech2 * d_inner)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in GPT-2).

    Fused primitive: the composed version records eight graph nodes per
    MLP, which dominates the training-step floor at these model sizes.
    """
    data = x.data
    inner = _SQRT_2_OVER_PI * (data + _GELU_COEFF * (data * data * data))
    tanh_inner = np.tanh(inner)
    value = 0.5 * data * (1.0 + tanh_inner)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate(gelu_grad(data, tanh_inner, grad))

    return Tensor._make(value, (x,), backward)


def cross_entropy_arrays(
    scores: np.ndarray,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> tuple[np.float32, Callable[[float], np.ndarray]]:
    """Mean token-level cross entropy of ``(N, V)`` unnormalised scores
    against ``(N,)`` integer class ids; targets equal to ``ignore_index``
    contribute no loss or gradient (prompt positions and padding).

    Returns ``(loss, grad_fn)``: ``grad_fn(g)`` is the scores' gradient
    when the loss's upstream gradient is ``g``.
    """
    targets = np.asarray(targets)
    if scores.ndim != 2 or targets.ndim != 1 or scores.shape[0] != targets.shape[0]:
        raise ValueError(
            f"cross_entropy expects (N, V) logits and (N,) targets, got "
            f"{scores.shape} and {targets.shape}"
        )
    if ignore_index is not None:
        valid = targets != ignore_index
    else:
        valid = np.ones_like(targets, dtype=bool)
    count = int(valid.sum())
    if count == 0:
        raise ValueError("cross_entropy received no valid targets")

    shifted = scores - scores.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + scores.max(axis=1)
    safe_targets = np.where(valid, targets, 0)
    picked = scores[np.arange(scores.shape[0]), safe_targets]
    losses = np.where(valid, logsumexp - picked, 0.0)
    value = np.float32(losses.sum() / count)

    def grad_fn(grad: float) -> np.ndarray:
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(scores.shape[0]), safe_targets] -= 1.0
        probs[~valid] = 0.0
        return probs * (grad / count)

    return value, grad_fn


def sequence_cross_entropy_arrays(
    scores: np.ndarray,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> tuple[np.float32, Callable[[float], np.ndarray]]:
    """Mean over sequences of each sequence's mean token cross entropy.

    The batched-training loss over ``(B, T, V)`` scores and ``(B, T)``
    targets: every sequence counts equally regardless of how many
    supervised tokens it has, so the result equals the mean of
    per-sample :func:`cross_entropy_arrays` losses over the same batch
    (padded positions carry ``ignore_index``).

    Returns ``(loss, grad_fn)``: ``grad_fn(g)`` is the scores' gradient
    when the loss's upstream gradient is ``g``.
    """
    targets = np.asarray(targets)
    if scores.ndim != 3 or targets.ndim != 2 or scores.shape[:2] != targets.shape:
        raise ValueError(
            f"sequence_cross_entropy expects (B, T, V) logits and (B, T) "
            f"targets, got {scores.shape} and {targets.shape}"
        )
    if ignore_index is not None:
        valid = targets != ignore_index
    else:
        valid = np.ones_like(targets, dtype=bool)
    counts = valid.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError(
            "sequence_cross_entropy received a sequence with no valid targets"
        )

    peak = scores.max(axis=-1, keepdims=True)
    shifted = scores - peak
    logsumexp = np.log(np.exp(shifted).sum(axis=-1)) + peak[..., 0]
    safe_targets = np.where(valid, targets, 0)
    picked = np.take_along_axis(scores, safe_targets[..., None], axis=-1)[..., 0]
    losses = np.where(valid, logsumexp - picked, 0.0)
    per_sequence = losses.sum(axis=1) / counts
    value = np.float32(per_sequence.mean())

    def grad_fn(grad: float) -> np.ndarray:
        batch, length, vocab = scores.shape
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        flat = probs.reshape(-1, vocab)
        flat[np.arange(batch * length), safe_targets.reshape(-1)] -= 1.0
        probs[~valid] = 0.0
        scale = (grad / batch) / counts
        return probs * scale[:, None, None].astype(np.float32)

    return value, grad_fn


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between two tensors of identical shape."""
    if prediction.shape != target.shape:
        raise ValueError(
            f"mse_loss shape mismatch: {prediction.shape} vs {target.shape}"
        )
    diff = prediction - target
    return (diff * diff).mean()
