"""DEPT: Decomposed Prompt Tuning (Shi & Lipani, 2023).

Decomposes the parameter budget into (i) a *shorter* soft prompt and (ii) a
low-rank update of the frozen word-embedding table.  The Fig. 1 "DEPT"
baseline trains this one4all on the user's buffer.

Each step runs graph-free: :func:`repro.llm.vjp.soft_prompt_vjp` gives the
prompt's gradient and the token embeddings'; the latter is scattered by
token id into the delta table (:func:`repro.llm.vjp.scatter_rows`) and on
into its low-rank factors — bit-identical to differentiating the autograd
graph (``tests/oracles/training.py``).
"""

from __future__ import annotations

import numpy as np

from ..ag import Parameter
from ..data.lamp import Sample
from ..llm import infer
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from ..llm.vjp import scatter_rows, soft_prompt_vjp
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

__all__ = ["DEPTTuner", "RANK"]

RANK = 4   # rank of the embedding-table update


class DEPTTuner:
    """Short soft prompt + low-rank embedding delta."""

    method_name = "dept"

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: TuningConfig = TuningConfig()):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config

    def fit(self, samples: list[Sample]) -> PromptArtifact:
        cfg = self.model.config
        rng = rng_from_seed(self.config.seed)
        # DEPT halves the prompt length, spending the rest on the low-rank
        # embedding update.
        short_len = max(1, self.config.n_virtual_tokens // 2)
        init = initial_prompt_matrix(self.model, self.tokenizer, samples,
                                     short_len, rng)
        prompt = Parameter(init)
        lora_a = Parameter(rng.normal(0.0, 0.02, (cfg.vocab_size, RANK)))
        lora_b = Parameter(np.zeros((RANK, cfg.d_model)))
        params = [prompt, lora_a, lora_b]

        def step(batch: list[Sample]) -> float:
            padded = build_training_batch(batch, self.tokenizer,
                                          prompt_len=short_len)
            ids = padded.input_ids
            delta_table = np.matmul(lora_a.data, lora_b.data)    # (V, d)
            tokens = (infer.embed(self.model.token_embedding, ids)
                      + delta_table[ids])
            loss, prompt.grad, tokens_grad = soft_prompt_vjp(
                self.model, prompt.data, tokens, padded.key_padding_mask,
                padded.targets, IGNORE_INDEX)
            delta_grad = scatter_rows(cfg.vocab_size, ids, tokens_grad)
            lora_a.grad = np.matmul(delta_grad, lora_b.data.swapaxes(-1, -2))
            lora_b.grad = np.matmul(lora_a.data.swapaxes(-1, -2), delta_grad)
            return float(loss)

        train_prompt_parameters(params, step, samples, self.config)
        tokens = VirtualTokens(prompt.data.copy())
        delta = (lora_a.data @ lora_b.data).astype(np.float32)
        return PromptArtifact(soft_prompt=tokens, embedding_delta=delta,
                              method=self.method_name)
