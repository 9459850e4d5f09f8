"""Full-reforward generation oracle (the pre-KV-cache loop).

Re-runs the whole sequence through the autograd forward for every token —
no prefill, no cache, no ``repro.llm.infer`` kernel — so it is the one
genuinely independent reference ``generate`` is token-identical to.
"""

import numpy as np

from repro.ag import Tensor, cat, no_grad
from repro.llm.generation import _sample
from repro.utils import rng_from_seed


def generate_uncached(model, token_ids, config, *, soft_prompt=None,
                      prefix_kv=None):
    """``repro.llm.generate`` by full reforward; same ids, same errors."""
    token_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    prompt_len = 0 if soft_prompt is None else soft_prompt.shape[0]
    budget = model.config.max_seq_len - prompt_len
    if token_ids.size >= budget:
        raise ValueError("prompt leaves no room to generate")
    rng = rng_from_seed(config.seed)
    was_training = model.training
    if was_training:
        model.eval()
    generated: list[int] = []
    try:
        with no_grad():
            ids = token_ids.copy()
            for _ in range(config.max_new_tokens):
                if ids.size >= budget:
                    break
                logits = _full_forward(model, ids, soft_prompt, prefix_kv)
                next_id = _sample(logits, config.temperature, rng)
                if config.eos_id is not None and next_id == config.eos_id:
                    break
                generated.append(next_id)
                ids = np.append(ids, next_id)
    finally:
        if was_training:
            model.train()
    return np.asarray(generated, dtype=np.int64)


def _full_forward(model, ids, soft_prompt, prefix_kv) -> np.ndarray:
    """Logits of the final position, with optional prompt conditioning."""
    if soft_prompt is None:
        logits = model(ids[None, :], prefix_kv=prefix_kv)
    else:
        full = _embed_with_soft_prompt(model, ids, soft_prompt)
        logits = model(embeddings=full, prefix_kv=prefix_kv)
    return logits.data[0, -1]


def _embed_with_soft_prompt(model, ids, soft_prompt) -> Tensor:
    """(1, P+T, d_model) embeddings: soft-prompt rows then token embeddings."""
    prompt = soft_prompt if isinstance(soft_prompt, Tensor) else Tensor(soft_prompt)
    token_emb = model.embed(ids[None, :])
    return cat([prompt.reshape(1, *prompt.shape), token_emb], axis=1)
