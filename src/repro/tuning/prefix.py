"""Prefix tuning (Li & Liang, 2021).

Trains per-layer key/value prefixes that every token may attend to.  The
keys/values are reparameterised through a small MLP during training (as in
the original paper) and flattened to raw KV matrices in the artifact.

Each step runs graph-free: :func:`prefix_loss_and_grad` takes the loss and
every layer's prefix gradient from :func:`repro.llm.vjp.sequence_vjp`, and
the step pulls them back through the MLP by hand — bit-identical to
differentiating the autograd graph (``tests/oracles/training.py``).
"""

from __future__ import annotations

import numpy as np

from ..ag import Parameter
from ..ag.functional import gelu_grad
from ..data.lamp import Sample
from ..llm import infer
from ..llm.attention import KVPrefix
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from ..llm.vjp import sequence_vjp
from .base import (
    IGNORE_INDEX,
    PromptArtifact,
    TuningConfig,
    build_training_batch,
)
from .trainer import train_prompt_parameters
from ..utils import rng_from_seed

__all__ = ["PrefixTuner", "prefix_loss_and_grad", "HIDDEN_DIM"]

HIDDEN_DIM = 32   # width of the reparameterisation MLP


def prefix_loss_and_grad(model: TinyCausalLM, prefix_kv: list[KVPrefix],
                         samples: list[Sample], tokenizer: Tokenizer,
                         ) -> tuple[np.float32, list[KVPrefix]]:
    """Mean per-sample LM loss of a minibatch under per-layer KV prefixes,
    and its gradient with respect to every layer's ``(keys, values)``.

    One padded forward with the (batch-1) prefixes broadcast across the
    minibatch.
    """
    batch = build_training_batch(samples, tokenizer, prompt_len=0)
    loss, _, prefix_grads = sequence_vjp(
        model, infer.embed(model.token_embedding, batch.input_ids),
        batch.key_padding_mask, batch.targets, IGNORE_INDEX,
        prefix_kv=prefix_kv)
    return loss, prefix_grads


class PrefixTuner:
    """Trains reparameterised per-layer KV prefixes."""

    method_name = "prefix-tuning"

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: TuningConfig = TuningConfig()):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config

    def fit(self, samples: list[Sample]) -> PromptArtifact:
        cfg = self.model.config
        n_layers, n_heads = cfg.n_layers, cfg.n_heads
        d_head = cfg.d_model // n_heads
        p = self.config.n_virtual_tokens
        rng = rng_from_seed(self.config.seed)

        # Reparameterisation: prefix embedding -> MLP -> all layers' KV.
        out_dim = n_layers * 2 * n_heads * d_head
        split = (p, n_layers, 2, n_heads, d_head)
        embed = Parameter(rng.normal(0.0, 0.5, (p, HIDDEN_DIM)))
        w1 = Parameter(rng.normal(0.0, 0.2, (HIDDEN_DIM, HIDDEN_DIM)))
        w2 = Parameter(rng.normal(0.0, 0.2, (HIDDEN_DIM, out_dim)))
        params = [embed, w1, w2]

        def materialise(tape: list | None = None) -> list[KVPrefix]:
            hidden = infer.gelu(np.matmul(embed.data, w1.data), tape)
            per_layer = np.matmul(hidden, w2.data).reshape(split)
            return [tuple(per_layer[:, layer, which].transpose(1, 0, 2)
                          .reshape(1, n_heads, p, d_head) for which in (0, 1))
                    for layer in range(n_layers)]

        def step(batch: list[Sample]) -> float:
            tape: list = []
            loss, prefix_grads = prefix_loss_and_grad(
                self.model, materialise(tape), batch, self.tokenizer)
            pre, tanh, hidden = tape.pop()
            # Each layer's prefix rows land back in the MLP's output as
            # the graph's slicing backward puts them: into zeros.
            flat_grad = np.zeros(split, dtype=np.float32)
            for layer, pair in enumerate(prefix_grads):
                for which, grad in enumerate(pair):
                    flat_grad[:, layer, which] += grad.reshape(
                        n_heads, p, d_head).transpose(1, 0, 2)
            flat_grad = flat_grad.reshape(p, out_dim)
            pre_grad = gelu_grad(pre, tanh, np.matmul(
                flat_grad, w2.data.swapaxes(-1, -2)))
            w2.grad = np.matmul(hidden.swapaxes(-1, -2), flat_grad)
            embed.grad = np.matmul(pre_grad, w1.data.swapaxes(-1, -2))
            w1.grad = np.matmul(embed.data.swapaxes(-1, -2), pre_grad)
            return float(loss)

        train_prompt_parameters(params, step, samples, self.config)
        raw = [(k.copy(), v.copy()) for k, v in materialise()]
        return PromptArtifact(prefix_kv=raw, method=self.method_name)
