"""Causal language-model pretraining on the synthetic corpus.

The paper uses off-the-shelf pretrained checkpoints (Gemma-2B, Phi-2,
Mistral-7B-GPTQ).  Here each zoo model is pretrained briefly on the
synthetic corpus so that prompt tuning has real signal to exploit: the base
model learns the corpus grammar and the context -> label co-occurrence
statistics that the LaMP-style tasks are built from.

Each step runs graph-free: the training forward is the serving one
(:func:`repro.llm.infer.extend` with a tape) and the weight gradients come
from :func:`repro.llm.vjp.backward`, bit-identical to differentiating the
autograd graph (``tests/oracles/graph.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ag import Adam, LinearWarmupDecay, clip_grad_norm
from ..ag.functional import cross_entropy_arrays
from . import infer
from .transformer import TinyCausalLM
from .vjp import backward, scatter_rows
from ..utils import rng_from_seed

__all__ = ["PretrainConfig", "pretrain_lm"]


@dataclass(frozen=True)
class PretrainConfig:
    """Pretraining loop hyper-parameters."""

    steps: int = 450
    batch_size: int = 8
    seq_len: int = 32
    lr: float = 3e-3
    warmup_fraction: float = 0.1
    grad_clip: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps <= 0 or self.batch_size <= 0 or self.seq_len <= 1:
            raise ValueError("steps/batch_size must be positive, seq_len > 1")


def _sample_windows(stream: np.ndarray, count: int, seq_len: int,
                    rng: np.random.Generator) -> np.ndarray:
    # Starts are drawn from [0, size - seq_len - 1), so the last window
    # (start size - seq_len - 1) is never drawn: 40 tokens at seq_len=32
    # only ever start at 0-6.  Drawing it would re-roll every pretrained
    # model, so it waits for the paired scorecard (ROADMAP.md, "claims
    # with error bars").  The check refuses what ``integers`` would: an
    # empty range of starts.
    if stream.size < seq_len + 2:
        raise ValueError(
            f"corpus of {stream.size} tokens too short for seq_len={seq_len}"
            f" (needs at least {seq_len + 2})"
        )
    starts = rng.integers(0, stream.size - seq_len - 1, size=count)
    return np.stack([stream[s:s + seq_len + 1] for s in starts])


def _loss_and_grads(model: TinyCausalLM, inputs: np.ndarray,
                    targets: np.ndarray) -> np.float32:
    """Next-token cross entropy of one window batch; leaves every
    parameter's gradient in ``.grad``."""
    tape: list = []
    hidden, _ = infer.extend(
        model, infer.embed(model.token_embedding, inputs), tape=tape)
    logits = infer.logits(model, hidden, tape)
    vocab = logits.shape[-1]
    loss, loss_grad = cross_entropy_arrays(logits.reshape(-1, vocab),
                                           targets.reshape(-1))
    grad, _ = backward(model, tape, loss_grad(1.0).reshape(logits.shape),
                       weights=True)
    model.token_embedding.weight.grad = scatter_rows(
        model.config.vocab_size, inputs, grad)
    model.position_embedding.weight.grad = scatter_rows(
        model.config.max_seq_len, np.arange(inputs.shape[1]), grad.sum(axis=0))
    return loss


def pretrain_lm(model: TinyCausalLM, token_stream: np.ndarray,
                config: PretrainConfig = PretrainConfig()) -> list[float]:
    """Train ``model`` in place on next-token prediction; return loss curve.

    The weights are trainable only inside this loop, however it exits.
    """
    token_stream = np.asarray(token_stream, dtype=np.int64).reshape(-1)
    rng = rng_from_seed(config.seed)
    params = model.parameters()
    for param in params:
        param.requires_grad = True
    try:
        optimizer = Adam(params, lr=config.lr)
        scheduler = LinearWarmupDecay(
            optimizer,
            warmup_steps=max(1, int(config.steps * config.warmup_fraction)),
            total_steps=config.steps,
        )
        losses: list[float] = []
        for _ in range(config.steps):
            windows = _sample_windows(token_stream, config.batch_size,
                                      config.seq_len, rng)
            loss = _loss_and_grads(model, windows[:, :-1], windows[:, 1:])
            clip_grad_norm(params, config.grad_clip)
            optimizer.step()
            scheduler.step()
            losses.append(float(loss))
    finally:
        for param in params:
            param.requires_grad = False
            param.grad = None
    return losses
