"""Generic prompt-tuning training loop.

All four methods share this loop: Adam + linear warmup/decay over the
trainable prompt parameters only, with the base model frozen.  Each
method supplies the step: given a minibatch it returns the loss and
leaves the gradients on its parameters — vanilla prompt tuning (and the
noise-aware trainer wrapping it) graph-free, prefix tuning, P-tuning v2
and DEPT by calling ``.backward()`` on their autograd loss.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

from ..ag import Adam, LinearWarmupDecay, Parameter, clip_grad_norm
from ..data.lamp import Sample
from ..llm.transformer import TinyCausalLM
from .base import TuningConfig
from ..utils import rng_from_seed

__all__ = ["freeze_model", "train_prompt_parameters"]

# Freeze state is refcounted per model so concurrent tunes sharing one base
# model compose: the first freeze saves the flags, the last unfreeze
# restores them.  Without this, the first tune to finish would re-enable
# base-model gradients mid-backward for every other in-flight tune.
_FREEZE_LOCK = threading.Lock()
_FREEZE_STATES: dict[int, dict] = {}


@contextlib.contextmanager
def freeze_model(model: TinyCausalLM):
    """Temporarily mark all model parameters as non-trainable.

    This both protects the base model during prompt tuning and prunes the
    autograd graph (frozen branches record no backward closures).  Freezing
    is re-entrant and thread-safe: nested or concurrent freezes of the same
    model stack, and the original ``requires_grad`` flags come back only
    when the outermost/last context exits.
    """
    key = id(model)
    with _FREEZE_LOCK:
        state = _FREEZE_STATES.get(key)
        if state is None:
            params = model.parameters()
            state = _FREEZE_STATES[key] = {
                "count": 0,
                "params": params,
                "flags": [p.requires_grad for p in params],
            }
            for p in params:
                p.requires_grad = False
        state["count"] += 1
    try:
        yield
    finally:
        with _FREEZE_LOCK:
            state["count"] -= 1
            if state["count"] == 0:
                for p, flag in zip(state["params"], state["flags"]):
                    p.requires_grad = flag
                _FREEZE_STATES.pop(key, None)


def train_prompt_parameters(
    model: TinyCausalLM,
    parameters: Sequence[Parameter],
    step_fn: Callable[[list[Sample]], float],
    samples: list[Sample],
    config: TuningConfig,
    *,
    batch_size: int = 8,
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
    with freeze_model(model):
        for _ in range(config.steps):
            if len(samples) <= batch_size:
                batch = samples
            else:
                picks = rng.choice(len(samples), size=batch_size, replace=False)
                batch = [samples[i] for i in picks]
            optimizer.zero_grad()
            loss = step_fn(batch)
            clip_grad_norm(list(parameters), config.grad_clip)
            optimizer.step()
            scheduler.step()
            history.append(float(loss))
    return history
