"""Vanilla prompt tuning (Lester et al., 2021).

A single soft-prompt matrix is prepended to the input embeddings.  This is
the "HuggingFace default prompt tuning" the paper uses to derive each OVT,
and also the Fig. 1 "Vanilla" baseline when trained one4all on a buffer.
"""

from __future__ import annotations

import numpy as np

from ..ag import Parameter, Tensor, cat, sequence_cross_entropy
from ..data.lamp import Sample
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
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

__all__ = ["VanillaPromptTuner", "prompt_loss_for_batch"]


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


def prompt_loss_for_batch(model: TinyCausalLM, prompt: Tensor,
                          samples: list[Sample], tokenizer: Tokenizer,
                          ) -> Tensor:
    """Mean per-sample LM loss of a minibatch conditioned on a soft prompt.

    The whole minibatch runs as one padded forward (padded keys masked out
    of attention, padded targets out of the loss); a batch of one has no
    padding at all, which is what the per-sample equivalence tests use.
    """
    n_tokens, d_model = prompt.shape
    batch = build_training_batch(samples, tokenizer, prompt_len=n_tokens)
    size = batch.batch_size
    token_emb = model.embed(batch.input_ids)
    prompt_rows = prompt.reshape(1, n_tokens, d_model)
    embeddings = cat([prompt_rows.broadcast_to((size, n_tokens, d_model)),
                      token_emb], axis=1)
    # Prompt columns are real conditioning for every row; only the ragged
    # token tail is padded.
    mask = np.concatenate([np.zeros((size, n_tokens), dtype=bool),
                           batch.key_padding_mask], axis=1)
    logits = model(embeddings=embeddings, key_padding_mask=mask)
    return sequence_cross_entropy(logits, batch.targets,
                                  ignore_index=IGNORE_INDEX)


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

        ``transform`` is applied to the prompt tensor inside each forward
        pass (noise-aware training plugs in here).
        """
        rng = rng_from_seed(self.config.seed)
        init = initial_prompt_matrix(self.model, self.tokenizer, samples,
                                     self.config.n_virtual_tokens, rng)
        prompt = Parameter(init)
        anchor = Tensor(init.copy())

        def loss_fn(batch: list[Sample]) -> Tensor:
            effective = prompt if transform is None else transform(prompt)
            total = prompt_loss_for_batch(self.model, effective, batch,
                                          self.tokenizer)
            if self.config.anchor_weight > 0:
                drift = prompt - anchor
                total = total + (drift * drift).mean() * self.config.anchor_weight
            return total

        train_prompt_parameters(self.model, [prompt], loss_fn, samples,
                                self.config)
        domain = samples[0].domain if len(samples) == 1 else ""
        source = samples[0] if len(samples) == 1 else None
        tokens = VirtualTokens(prompt.data.copy(), source=source, domain=domain)
        return PromptArtifact(soft_prompt=tokens, method=self.method_name)
