"""Applying a trained prompt artifact at inference time."""

from __future__ import annotations

import copy

from ..ag import Parameter
from ..llm.generation import GenerationConfig, generate
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from .base import PromptArtifact

__all__ = ["generate_with_artifact"]


def generate_with_artifact(
    model: TinyCausalLM,
    tokenizer: Tokenizer,
    artifact: PromptArtifact | None,
    input_text: str,
    config: GenerationConfig | None = None,
) -> str:
    """Generate a continuation of ``input_text`` under ``artifact``.

    ``artifact=None`` evaluates the frozen base model (zero-shot).  A
    DEPT artifact decodes on a shallow copy of ``model`` whose token
    embedding holds ``weight + embedding_delta``.
    """
    config = config or GenerationConfig(max_new_tokens=100, temperature=0.1,
                                        eos_id=tokenizer.eos_id)
    ids = tokenizer.encode(input_text)
    soft_prompt = None
    prefix_kv = None
    if artifact is not None:
        if artifact.soft_prompt is not None:
            soft_prompt = artifact.soft_prompt.matrix
        prefix_kv = artifact.prefix_kv
        delta = artifact.embedding_delta
        if delta is not None:
            table = model.token_embedding.weight.data
            if delta.shape != table.shape:
                raise ValueError(f"embedding delta {delta.shape} does not "
                                 f"match table {table.shape}")
            embedding = copy.copy(model.token_embedding)
            embedding.weight = Parameter(table + delta)
            model = copy.copy(model)
            model.token_embedding = embedding
    out_ids = generate(model, ids, config, soft_prompt=soft_prompt,
                       prefix_kv=prefix_kv)
    return tokenizer.decode(out_ids)
