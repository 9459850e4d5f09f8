"""Differentiable functional operations built on :class:`~repro.ag.Tensor`.

These cover the activations and losses the transformer substrate needs.
``softmax``, ``gelu`` and the cross-entropy losses are fused primitives
(one graph node, a hand-written backward) because they sit on the hot path
of every prompt-tuning step; ``mse_loss`` is composed from tensor ops.
The fused backwards are plain array functions (:func:`softmax_grad`,
:func:`gelu_grad`, :func:`sequence_cross_entropy_arrays`), shared with the
graph-free prompt gradient (:mod:`repro.llm.vjp`), so both compute the
same bits.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor

__all__ = ["softmax", "gelu", "cross_entropy",
           "sequence_cross_entropy", "mse_loss"]

_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))
_GELU_COEFF = np.float32(0.044715)


def softmax_grad(value: np.ndarray, grad: np.ndarray,
                 axis: int = -1) -> np.ndarray:
    """Input gradient of a softmax whose output is ``value``."""
    inner = (grad * value).sum(axis=axis, keepdims=True)
    return value * (grad - inner)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Fused primitive (like :func:`cross_entropy`): attention calls this on
    every layer of every forward, and the composed max/sub/exp/sum/div
    version costs five graph nodes and five full-size temporaries per call.
    """
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    value = shifted

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate(softmax_grad(value, grad, axis))

    return Tensor._make(value, (x,), backward)


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


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> Tensor:
    """Mean token-level cross entropy.

    Args:
        logits: ``(N, V)`` unnormalised scores.
        targets: ``(N,)`` integer class ids.
        ignore_index: targets equal to this id contribute no loss/gradient
            (used to mask prompt positions and padding).

    Returns:
        A scalar tensor.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ValueError(
            f"cross_entropy expects (N, V) logits and (N,) targets, got "
            f"{logits.shape} and {targets.shape}"
        )
    if ignore_index is not None:
        valid = targets != ignore_index
    else:
        valid = np.ones_like(targets, dtype=bool)
    count = int(valid.sum())
    if count == 0:
        raise ValueError("cross_entropy received no valid targets")

    scores = logits.data
    shifted = scores - scores.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + scores.max(axis=1)
    safe_targets = np.where(valid, targets, 0)
    picked = scores[np.arange(scores.shape[0]), safe_targets]
    losses = np.where(valid, logsumexp - picked, 0.0)
    value = np.float32(losses.sum() / count)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(scores.shape[0]), safe_targets] -= 1.0
        probs[~valid] = 0.0
        logits._accumulate(probs * (float(grad) / count))

    return Tensor._make(np.asarray(value), (logits,), backward)


def sequence_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> Tensor:
    """Mean over sequences of each sequence's mean token cross entropy.

    This is the batched-training loss: every sequence counts equally
    regardless of how many supervised tokens it has, so the result equals
    the mean of per-sample :func:`cross_entropy` losses over the same batch
    (padded positions carry ``ignore_index``).

    Args:
        logits: ``(B, T, V)`` unnormalised scores.
        targets: ``(B, T)`` integer class ids.
        ignore_index: targets equal to this id contribute no loss/gradient.

    Returns:
        A scalar tensor.
    """
    value, grad_fn = sequence_cross_entropy_arrays(logits.data, targets,
                                                   ignore_index)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            logits._accumulate(grad_fn(float(grad)))

    return Tensor._make(np.asarray(value), (logits,), backward)


def sequence_cross_entropy_arrays(
    scores: np.ndarray,
    targets: np.ndarray,
    ignore_index: int | None = None,
) -> tuple[np.float32, Callable[[float], np.ndarray]]:
    """:func:`sequence_cross_entropy` on a raw ``(B, T, V)`` score array.

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
