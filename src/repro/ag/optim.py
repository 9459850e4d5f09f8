"""Optimizers and learning-rate schedules for prompt tuning.

The paper tunes virtual tokens with Adam at lr=1e-4 plus a scheduler; both
are provided here, together with global gradient-norm clipping.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["Adam", "LinearWarmupDecay", "clip_grad_norm"]


def clip_grad_norm(parameters: list[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm > 0.0:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adam (Kingma & Ba) with optional decoupled weight decay."""

    def __init__(self, parameters, lr: float = 1e-4, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.parameters = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ValueError("optimizer received no trainable parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            if self.weight_decay:
                param.data -= self.lr * self.weight_decay * param.data
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class LinearWarmupDecay:
    """Linear warmup to the base lr, then linear decay to ``final_factor``.

    Matches the HuggingFace ``get_linear_schedule_with_warmup`` shape used by
    the paper's prompt-tuning recipe.  The schedule is applied to the
    optimizer at construction, so the *first* optimizer step already runs at
    ``base_lr / warmup_steps`` — the usual step-then-schedule training loop
    does not skip warmup.  Optimizer step ``k`` (1-indexed) runs at factor
    ``k / warmup_steps`` through the warmup, peaks at 1.0 on step
    ``warmup_steps``, and decays linearly to ``final_factor`` on step
    ``total_steps``.
    """

    def __init__(self, optimizer: Adam, warmup_steps: int, total_steps: int,
                 final_factor: float = 0.0):
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if warmup_steps < 0 or warmup_steps > total_steps:
            raise ValueError("warmup_steps must be in [0, total_steps]")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.final_factor = final_factor
        self._step_count = 1
        self.optimizer.lr = self.base_lr * self.current_factor()

    def current_factor(self) -> float:
        step = self._step_count
        if self.warmup_steps and step <= self.warmup_steps:
            return step / self.warmup_steps
        # Without warmup the peak is the first step, not a phantom step 0.
        peak_step = max(self.warmup_steps, 1)
        remaining = self.total_steps - peak_step
        if remaining <= 0:
            return 1.0
        progress = min(1.0, max(0.0, (step - peak_step) / remaining))
        return 1.0 + progress * (self.final_factor - 1.0)

    def step(self) -> None:
        self._step_count += 1
        self.optimizer.lr = self.base_lr * self.current_factor()
