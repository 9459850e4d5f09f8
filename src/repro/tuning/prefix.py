"""Prefix tuning (Li & Liang, 2021).

Trains per-layer key/value prefixes that every token may attend to.  The
keys/values are reparameterised through a small MLP during training (as in
the original paper) and flattened to raw KV matrices in the artifact.
"""

from __future__ import annotations

import numpy as np

from ..ag import Parameter, Tensor, gelu, sequence_cross_entropy
from ..data.lamp import Sample
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from .base import (
    IGNORE_INDEX,
    PromptArtifact,
    TuningConfig,
    build_training_batch,
)
from .trainer import train_prompt_parameters
from ..utils import rng_from_seed

__all__ = ["PrefixTuner", "prefix_loss_for_batch", "kv_prefix_tensors"]


def kv_prefix_tensors(raw: list[tuple[np.ndarray, np.ndarray]]):
    """Convert stored numpy KV prefixes to the tensors the model expects."""
    return [(Tensor(k), Tensor(v)) for k, v in raw]


def prefix_loss_for_batch(model: TinyCausalLM,
                          prefix_kv: list[tuple[Tensor, Tensor]],
                          samples: list[Sample], tokenizer: Tokenizer,
                          ) -> Tensor:
    """Mean per-sample LM loss of a minibatch under per-layer KV prefixes.

    One padded forward with the (batch-1) prefixes broadcast across the
    minibatch.
    """
    batch = build_training_batch(samples, tokenizer, prompt_len=0)
    size = batch.batch_size
    tiled = [(k.broadcast_to((size,) + k.shape[1:]),
              v.broadcast_to((size,) + v.shape[1:]))
             for k, v in prefix_kv]
    logits = model(batch.input_ids, prefix_kv=tiled,
                   key_padding_mask=batch.key_padding_mask)
    return sequence_cross_entropy(logits, batch.targets,
                                  ignore_index=IGNORE_INDEX)


class PrefixTuner:
    """Trains reparameterised per-layer KV prefixes."""

    method_name = "prefix-tuning"

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: TuningConfig = TuningConfig(),
                 *, hidden_dim: int = 32):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config
        self.hidden_dim = hidden_dim

    def fit(self, samples: list[Sample]) -> PromptArtifact:
        cfg = self.model.config
        n_layers, n_heads = cfg.n_layers, cfg.n_heads
        d_head = cfg.d_model // n_heads
        p = self.config.n_virtual_tokens
        rng = rng_from_seed(self.config.seed)

        # Reparameterisation: prefix embedding -> MLP -> all layers' KV.
        out_dim = n_layers * 2 * n_heads * d_head
        embed = Parameter(rng.normal(0.0, 0.5, (p, self.hidden_dim)))
        w1 = Parameter(rng.normal(0.0, 0.2, (self.hidden_dim, self.hidden_dim)))
        w2 = Parameter(rng.normal(0.0, 0.2, (self.hidden_dim, out_dim)))
        params = [embed, w1, w2]

        def materialise() -> list[tuple[Tensor, Tensor]]:
            hidden = gelu(embed @ w1)
            flat = hidden @ w2  # (p, out_dim)
            per_layer = flat.reshape(p, n_layers, 2, n_heads, d_head)
            prefixes = []
            for layer in range(n_layers):
                block = per_layer[:, layer]  # (p, 2, heads, d_head)
                keys = block[:, 0].transpose(1, 0, 2).reshape(1, n_heads, p, d_head)
                values = block[:, 1].transpose(1, 0, 2).reshape(1, n_heads, p, d_head)
                prefixes.append((keys, values))
            return prefixes

        def step(batch: list[Sample]) -> float:
            loss = prefix_loss_for_batch(self.model, materialise(), batch,
                                         self.tokenizer)
            loss.backward()
            return float(loss.data)

        train_prompt_parameters(params, step, samples, self.config)
        final = materialise()
        raw = [(k.data.copy(), v.data.copy()) for k, v in final]
        return PromptArtifact(prefix_kv=raw, method=self.method_name)
