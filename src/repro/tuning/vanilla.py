"""Vanilla prompt tuning (Lester et al., 2021).

A single soft-prompt matrix is prepended to the input embeddings.  This is
the "HuggingFace default prompt tuning" the paper uses to derive each OVT,
and also the Fig. 1 "Vanilla" baseline when trained one4all on a buffer.

Each step runs graph-free: the loss and the prompt's gradient come from
:func:`repro.llm.vjp.soft_prompt_vjp` on raw arrays, bit-identical to
differentiating the autograd graph (``tests/oracles/tuning.py``).
"""

from __future__ import annotations

import numpy as np

from ..ag import Parameter
from ..data.lamp import Sample
from ..llm import infer
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from ..llm.vjp import soft_prompt_vjp
from .base import (
    IGNORE_INDEX,
    PromptArtifact,
    PromptTransform,
    TuningConfig,
    VirtualTokens,
    build_training_batch,
)
from .trainer import train_prompt_parameters
from ..utils import rng_from_seed

__all__ = ["VanillaPromptTuner", "prompt_loss_and_grad"]


def initial_prompt_matrix(model: TinyCausalLM, tokenizer: Tokenizer,
                          samples: list[Sample], n_tokens: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Initialise virtual tokens from the samples' own token embeddings.

    This is the standard "initialise from text" option of prompt tuning; it
    also anchors each OVT near its domain's embedding cluster, which is what
    makes embedding-space retrieval meaningful.
    """
    ids = np.concatenate([tokenizer.encode(s.input_text) for s in samples])
    if ids.size >= n_tokens:
        chosen = ids[:n_tokens]
    else:
        chosen = np.concatenate(
            [ids, rng.integers(0, model.config.vocab_size, n_tokens - ids.size)]
        )
    return model.token_embedding.weight.data[chosen].copy()


def prompt_loss_and_grad(model: TinyCausalLM, prompt: np.ndarray,
                         samples: list[Sample], tokenizer: Tokenizer,
                         ) -> tuple[np.float32, np.ndarray]:
    """Mean per-sample LM loss of a minibatch conditioned on a soft prompt,
    and its gradient with respect to the ``(n_tokens, d_model)`` prompt.

    The whole minibatch runs as one padded forward (padded keys masked out
    of attention, padded targets out of the loss); a batch of one has no
    padding at all, which is what the per-sample equivalence tests use.
    """
    batch = build_training_batch(samples, tokenizer,
                                 prompt_len=prompt.shape[0])
    loss, grad, _ = soft_prompt_vjp(
        model, prompt, infer.embed(model.token_embedding, batch.input_ids),
        batch.key_padding_mask, batch.targets, IGNORE_INDEX)
    return loss, grad


class VanillaPromptTuner:
    """Trains a soft prompt over a set of samples."""

    method_name = "vanilla-pt"

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: TuningConfig = TuningConfig()):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config

    def fit(self, samples: list[Sample], *,
            transform: PromptTransform | None = None) -> PromptArtifact:
        """Train virtual tokens on ``samples``; returns the artifact.

        ``transform`` is the additive-noise hook: called with the prompt
        before every forward pass, it returns the noise added to it for
        that pass, or None (noise-aware training plugs in here).  The
        gradient passes straight through to the prompt.
        """
        rng = rng_from_seed(self.config.seed)
        init = initial_prompt_matrix(self.model, self.tokenizer, samples,
                                     self.config.n_virtual_tokens, rng)
        prompt = Parameter(init)
        anchor = init.copy()
        weight = np.float32(self.config.anchor_weight)

        def step(batch: list[Sample]) -> float:
            effective = prompt.data
            added = None if transform is None else transform(effective)
            if added is not None:
                effective = effective + added
            loss, grad = prompt_loss_and_grad(self.model, effective, batch,
                                              self.tokenizer)
            if weight > 0:
                # The anchor's L2 pull: loss + weight * mean(drift ** 2).
                drift = prompt.data - anchor
                scale = np.float32(1.0 / drift.size)
                loss = loss + (drift * drift).sum() * scale * weight
                term = weight * scale * drift
                grad = grad + (term + term)
            prompt.grad = grad
            return float(loss)

        train_prompt_parameters([prompt], step, samples, self.config)
        domain = samples[0].domain if len(samples) == 1 else ""
        source = samples[0] if len(samples) == 1 else None
        tokens = VirtualTokens(prompt.data.copy(), source=source, domain=domain)
        return PromptArtifact(soft_prompt=tokens, method=self.method_name)
