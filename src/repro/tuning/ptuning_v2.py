"""P-tuning v2 (Liu et al., 2021).

Deep prompts: a trainable prompt matrix per layer, projected through that
layer's frozen key/value projections at forward time (no reparameterisation
network — the defining difference from prefix tuning).
"""

from __future__ import annotations

import numpy as np

from ..ag import Parameter, Tensor
from ..data.lamp import Sample
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from .base import PromptArtifact, TuningConfig
from .prefix import prefix_loss_for_batch
from .trainer import train_prompt_parameters
from ..utils import rng_from_seed

__all__ = ["PTuningV2Tuner"]


class PTuningV2Tuner:
    """Trains per-layer deep prompts in embedding space."""

    method_name = "p-tuning-v2"

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: TuningConfig = TuningConfig()):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config

    def _project(self, prompts: list[Parameter]) -> list[tuple[Tensor, Tensor]]:
        """Run each layer's prompt through its frozen K/V projections."""
        cfg = self.model.config
        n_heads = cfg.n_heads
        d_head = cfg.d_model // n_heads
        p = self.config.n_virtual_tokens
        prefixes = []
        for prompt, block in zip(prompts, self.model.blocks):
            batched = prompt.reshape(1, p, cfg.d_model)
            keys = block.attn.k_proj(batched)
            values = block.attn.v_proj(batched)
            keys = keys.reshape(1, p, n_heads, d_head).transpose(0, 2, 1, 3)
            values = values.reshape(1, p, n_heads, d_head).transpose(0, 2, 1, 3)
            prefixes.append((keys, values))
        return prefixes

    def fit(self, samples: list[Sample]) -> PromptArtifact:
        cfg = self.model.config
        rng = rng_from_seed(self.config.seed)
        prompts = [
            Parameter(rng.normal(0.0, 0.02,
                                 (self.config.n_virtual_tokens, cfg.d_model)))
            for _ in range(cfg.n_layers)
        ]

        def step(batch: list[Sample]) -> float:
            loss = prefix_loss_for_batch(self.model, self._project(prompts),
                                         batch, self.tokenizer)
            loss.backward()
            return float(loss.data)

        train_prompt_parameters(prompts, step, samples, self.config)
        final = self._project(prompts)
        raw = [(k.data.copy(), v.data.copy()) for k, v in final]
        return PromptArtifact(prefix_kv=raw, method=self.method_name)
