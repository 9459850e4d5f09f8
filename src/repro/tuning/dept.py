"""DEPT: Decomposed Prompt Tuning (Shi & Lipani, 2023).

Decomposes the parameter budget into (i) a *shorter* soft prompt and (ii) a
low-rank update of the frozen word-embedding table.  The Fig. 1 "DEPT"
baseline trains this one4all on the user's buffer.
"""

from __future__ import annotations

import numpy as np

from ..ag import Parameter, cat, sequence_cross_entropy
from ..data.lamp import Sample
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from .base import (
    IGNORE_INDEX,
    PromptArtifact,
    TuningConfig,
    VirtualTokens,
    build_training_batch,
)
from .trainer import train_prompt_parameters
from .vanilla import initial_prompt_matrix
from ..utils import rng_from_seed

__all__ = ["DEPTTuner"]


class DEPTTuner:
    """Short soft prompt + low-rank embedding delta."""

    method_name = "dept"

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: TuningConfig = TuningConfig(), *, rank: int = 4):
        if rank <= 0:
            raise ValueError("rank must be positive")
        self.model = model
        self.tokenizer = tokenizer
        self.config = config
        self.rank = rank

    def fit(self, samples: list[Sample]) -> PromptArtifact:
        cfg = self.model.config
        rng = rng_from_seed(self.config.seed)
        # DEPT halves the prompt length, spending the rest on the low-rank
        # embedding update.
        short_len = max(1, self.config.n_virtual_tokens // 2)
        init = initial_prompt_matrix(self.model, self.tokenizer, samples,
                                     short_len, rng)
        prompt = Parameter(init)
        lora_a = Parameter(rng.normal(0.0, 0.02, (cfg.vocab_size, self.rank)))
        lora_b = Parameter(np.zeros((self.rank, cfg.d_model)))
        params = [prompt, lora_a, lora_b]

        def step(batch: list[Sample]) -> float:
            padded = build_training_batch(batch, self.tokenizer,
                                          prompt_len=short_len)
            size = padded.batch_size
            delta_table = lora_a @ lora_b           # (V, d)
            token_emb = (self.model.embed(padded.input_ids)
                         + delta_table[padded.input_ids])
            prompt_rows = prompt.reshape(1, short_len, cfg.d_model)
            embeddings = cat(
                [prompt_rows.broadcast_to((size, short_len, cfg.d_model)),
                 token_emb], axis=1)
            mask = np.concatenate([np.zeros((size, short_len), dtype=bool),
                                   padded.key_padding_mask], axis=1)
            logits = self.model(embeddings=embeddings, key_padding_mask=mask)
            loss = sequence_cross_entropy(logits, padded.targets,
                                          ignore_index=IGNORE_INDEX)
            loss.backward()
            return float(loss.data)

        train_prompt_parameters(params, step, samples, self.config)
        tokens = VirtualTokens(prompt.data.copy())
        delta = (lora_a.data @ lora_b.data).astype(np.float32)
        return PromptArtifact(soft_prompt=tokens, embedding_delta=delta,
                              method=self.method_name)
