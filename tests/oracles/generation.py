"""Autograd decoding oracles: no ``repro.llm.infer`` kernel, no scheduler.

Two independent references the production decode loop (the scheduler's
span forward) is token-identical to, both on ``repro.ag`` ops only:

* :func:`generate_uncached` — the pre-KV-cache loop: re-runs the whole
  sequence through the autograd forward (``tests/oracles/graph.py``)
  for every token.
* :func:`decode_sequential` — the cached autograd step, one token at a
  time (what ``decode_from`` was): :func:`forward_cached` is the
  autograd forward extended to attend over a :class:`KVCache`, the
  hook ``forward(past_kv=, use_cache=True)`` used to be.

:func:`decode_batch` is not an oracle but the production side of the
comparison for many states at once: every state admitted to one
``DecodeScheduler``.
"""

import numpy as np

from repro.ag import Tensor, gelu, no_grad
from repro.llm import DecodeScheduler, GenerationConfig
from repro.llm.generation import _sample, prefill
from repro.llm.kv_cache import KVCache
from repro.utils import rng_from_seed
from tests.oracles.graph import (as_tensors, cat, embed, embedding, forward,
                                 layer_norm, masked_fill, softmax, split_heads,
                                 swapaxes)
from tests.oracles.retrieval import retrieve


def generate_uncached(model, token_ids, config, *, soft_prompt=None,
                      prefix_kv=None):
    """``repro.llm.generate`` by full reforward; same ids, same errors."""
    token_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    prompt_len = 0 if soft_prompt is None else soft_prompt.shape[0]
    budget = model.config.max_seq_len - prompt_len
    if token_ids.size >= budget:
        raise ValueError("prompt leaves no room to generate")
    rng = rng_from_seed(config.seed)
    generated: list[int] = []
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
    return np.asarray(generated, dtype=np.int64)


def _full_forward(model, ids, soft_prompt, prefix_kv) -> np.ndarray:
    """Logits of the final position, with optional prompt conditioning."""
    if soft_prompt is None:
        logits = forward(model, ids[None, :], prefix_kv=prefix_kv)
    else:
        full = _embed_with_soft_prompt(model, ids, soft_prompt)
        logits = forward(model, embeddings=full, prefix_kv=prefix_kv)
    return logits.data[0, -1]


def _embed_with_soft_prompt(model, ids, soft_prompt) -> Tensor:
    """(1, P+T, d_model) embeddings: soft-prompt rows then token embeddings."""
    prompt = soft_prompt if isinstance(soft_prompt, Tensor) else Tensor(soft_prompt)
    token_emb = embed(model, ids[None, :])
    return cat([prompt.reshape(1, *prompt.shape), token_emb], axis=1)


def attention_cached(attn, x, *, prefix_kv=None, past=None):
    """The autograd attention with queries at positions
    ``T_past ..`` attending over the cached ``past`` (keys, values) too.

    Returns the output and the ``(keys, values)`` arrays extended by this
    call's positions (prefix excluded — it is re-attached every call).
    """
    batch, length, _ = x.shape
    q = split_heads(attn, attn.q_proj(x), batch, length)
    k = split_heads(attn, attn.k_proj(x), batch, length)
    v = split_heads(attn, attn.v_proj(x), batch, length)
    past_len = prefix_len = 0
    if past is not None:
        attn._check_kv(past[0], past[1], "past")
        past_len = past[0].shape[2]
        k = cat([Tensor(past[0]), k], axis=2)
        v = cat([Tensor(past[1]), v], axis=2)
    present = (k.data, v.data)
    if prefix_kv is not None:
        prefix_len = prefix_kv[0].shape[2]
        k = cat([prefix_kv[0], k], axis=2)
        v = cat([prefix_kv[1], v], axis=2)
    scores = (q @ swapaxes(k, -1, -2)) * (1.0 / np.sqrt(attn.d_head))
    scores = masked_fill(
        scores, attn._causal_mask(length, prefix_len, past_len), -1e9)
    context = softmax(scores, axis=-1) @ v
    merged = context.transpose(0, 2, 1, 3).reshape(batch, length, attn.d_model)
    return attn.out_proj(merged), present


def forward_cached(model, token_ids=None, *, embeddings=None, prefix_kv=None,
                   past=None):
    """The autograd forward over positions ``past.seq_len ..``; returns
    ``(logits Tensor, KVCache extended by the new positions)``."""
    if embeddings is None:
        embeddings = embed(model, token_ids)
    prefix_kv = as_tensors(prefix_kv)
    past_len = 0 if past is None else past.seq_len
    positions = np.arange(past_len, past_len + embeddings.shape[1])
    x = embeddings + embedding(model.position_embedding, positions)
    layers = []
    for i, block in enumerate(model.blocks):
        attended, present = attention_cached(
            block.attn, layer_norm(block.ln1, x),
            prefix_kv=None if prefix_kv is None else prefix_kv[i],
            past=None if past is None else past.layer(i))
        layers.append(present)
        x = x + attended
        x = x + block.ff2(gelu(block.ff1(layer_norm(block.ln2, x))))
    return model.lm_head(layer_norm(model.ln_final, x)), KVCache(layers)


def decode_sequential(model, state, config):
    """``repro.llm.decode_from`` as one cached autograd step per token."""
    rng = rng_from_seed(config.seed)
    budget = model.config.max_seq_len - state.virtual_len
    total = state.n_tokens
    logits = state.last_logits
    cache = state.cache
    generated: list[int] = []
    with no_grad():
        for _ in range(config.max_new_tokens):
            if total >= budget:
                break
            if generated:
                step_out, cache = forward_cached(
                    model, np.array([[generated[-1]]], dtype=np.int64),
                    prefix_kv=state.prefix_kv, past=cache)
                logits = step_out.data[0, -1]
            next_id = _sample(logits, config.temperature, rng)
            if config.eos_id is not None and next_id == config.eos_id:
                break
            generated.append(next_id)
            total += 1
    return np.asarray(generated, dtype=np.int64)


def session_answer_sequential(session, text, generation) -> str:
    """What a served query must answer from this session's crossbars:
    retrieve, restore, prefill, then :func:`decode_sequential` — no
    engine, no scheduler, no prefill LRU, nothing on any engine's books."""
    deployment = session.deployment()
    prompt = deployment.restored_prompt(retrieve(deployment, text))
    state = prefill(session.model, session.tokenizer.encode(text),
                    soft_prompt=prompt)
    return session.tokenizer.decode(
        decode_sequential(session.model, state, generation))


def answer_sequential(engine, request) -> str:
    """The answer text ``engine.query(request)`` must carry."""
    return session_answer_sequential(
        engine.session(request.user_id), request.text,
        request.generation or engine.default_generation())


def decode_batch(model, states, configs):
    """Decode ``states`` together in one ``DecodeScheduler``, each with
    its config (``configs`` is one per state, or one for all); the ids
    in ``states`` order.  A config list of the wrong length is refused,
    so no state silently goes undecoded."""
    if isinstance(configs, GenerationConfig):
        configs = [configs] * len(states)
    if len(configs) != len(states):
        raise ValueError(f"{len(configs)} configs for {len(states)} states")
    scheduler = DecodeScheduler(model)
    sequences = [scheduler.admit(state, config)
                 for state, config in zip(states, configs)]
    scheduler.run()
    return [sequence.token_ids() for sequence in sequences]
