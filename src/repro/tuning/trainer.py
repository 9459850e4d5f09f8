"""Generic prompt-tuning training loop.

All four methods share this loop: Adam + linear warmup/decay over the
trainable prompt parameters only.  The base model is built frozen, so a
tune changes nothing on it and concurrent tunes need no coordination.
Each method supplies the step: given a minibatch it returns the loss and
leaves the gradients on its parameters, written by hand from the
graph-free backward of :mod:`repro.llm.vjp` — no method builds an
autograd graph.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..ag import Adam, LinearWarmupDecay, Parameter, clip_grad_norm
from ..data.lamp import Sample
from .base import TuningConfig
from ..utils import rng_from_seed

__all__ = ["train_prompt_parameters"]

BATCH_SIZE = 8   # samples per step (all of them when there are fewer)


def train_prompt_parameters(
    parameters: Sequence[Parameter],
    step_fn: Callable[[list[Sample]], float],
    samples: list[Sample],
    config: TuningConfig,
) -> list[float]:
    """Optimise ``parameters`` over ``samples``.

    Returns the per-step loss history.  ``step_fn`` receives a minibatch of
    samples, returns its loss and leaves each parameter's gradient in
    ``.grad`` (cleared before every call).
    """
    if not samples:
        raise ValueError("prompt tuning needs at least one sample")
    rng = rng_from_seed(config.seed)
    optimizer = Adam(list(parameters), lr=config.lr,
                     weight_decay=config.weight_decay)
    scheduler = LinearWarmupDecay(
        optimizer,
        warmup_steps=max(1, int(config.steps * config.warmup_fraction)),
        total_steps=config.steps,
    )
    history: list[float] = []
    for _ in range(config.steps):
        if len(samples) <= BATCH_SIZE:
            batch = samples
        else:
            picks = rng.choice(len(samples), size=BATCH_SIZE, replace=False)
            batch = [samples[i] for i in picks]
        optimizer.zero_grad()
        loss = step_fn(batch)
        clip_grad_norm(list(parameters), config.grad_clip)
        optimizer.step()
        scheduler.step()
        history.append(float(loss))
    return history
