"""P-tuning v2 (Liu et al., 2021).

Deep prompts: a trainable prompt matrix per layer, projected through that
layer's frozen key/value projections at forward time (no reparameterisation
network — the defining difference from prefix tuning).

Each step runs graph-free: the prefix gradients of
:func:`~repro.tuning.prefix.prefix_loss_and_grad` are pulled back through
the frozen projections (:func:`repro.llm.vjp.affine_grad`), bit-identical
to differentiating the autograd graph (``tests/oracles/training.py``).
"""

from __future__ import annotations

from ..ag import Parameter
from ..data.lamp import Sample
from ..llm import infer
from ..llm.attention import KVPrefix
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from ..llm.vjp import affine_grad
from .base import PromptArtifact, TuningConfig
from .prefix import prefix_loss_and_grad
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

    def _project(self, prompts: list[Parameter]) -> list[KVPrefix]:
        """Run each layer's prompt through its frozen K/V projections."""
        cfg = self.model.config
        n_heads = cfg.n_heads
        d_head = cfg.d_model // n_heads
        p = self.config.n_virtual_tokens
        return [tuple(infer.affine(proj, prompt.data.reshape(1, p, cfg.d_model))
                      .reshape(1, p, n_heads, d_head).transpose(0, 2, 1, 3)
                      for proj in (block.attn.k_proj, block.attn.v_proj))
                for prompt, block in zip(prompts, self.model.blocks)]

    def fit(self, samples: list[Sample]) -> PromptArtifact:
        cfg = self.model.config
        p = self.config.n_virtual_tokens
        rng = rng_from_seed(self.config.seed)
        prompts = [Parameter(rng.normal(0.0, 0.02, (p, cfg.d_model)))
                   for _ in range(cfg.n_layers)]

        def step(batch: list[Sample]) -> float:
            loss, prefix_grads = prefix_loss_and_grad(
                self.model, self._project(prompts), batch, self.tokenizer)
            for prompt, block, pair in zip(prompts, self.model.blocks,
                                           prefix_grads):
                key_term, value_term = (
                    affine_grad(proj, grad.transpose(0, 2, 1, 3)
                                .reshape(1, p, cfg.d_model))
                    for proj, grad in zip(
                        (block.attn.k_proj, block.attn.v_proj), pair))
                key_term += value_term
                prompt.grad = key_term.reshape(p, cfg.d_model)
            return float(loss)

        train_prompt_parameters(prompts, step, samples, self.config)
        raw = [(k.copy(), v.copy()) for k, v in self._project(prompts)]
        return PromptArtifact(prefix_kv=raw, method=self.method_name)
