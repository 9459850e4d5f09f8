"""Graph references of every trainer that went graph-free.

``pretrain_lm``, ``PrefixTuner``, ``PTuningV2Tuner`` and ``DEPTTuner``
as they were when each step was an ``ag.Tensor`` graph over
``tests/oracles/graph.py``'s forward and ``.backward()`` wrote the
gradients — same initialisation, same batches, same optimiser — so the
hand-written backward can be compared with them bit for bit.  Each
returns the loss history and what the production code returns (the
final weights stay on ``model`` for pretraining).
"""

import numpy as np

from repro.ag import Adam, LinearWarmupDecay, Parameter, clip_grad_norm, gelu
from repro.llm.pretrain import _sample_windows
from repro.tuning import (IGNORE_INDEX, build_training_batch,
                          initial_prompt_matrix, train_prompt_parameters)
from repro.tuning.dept import RANK
from repro.tuning.prefix import HIDDEN_DIM
from repro.utils import rng_from_seed
from tests.oracles.graph import (broadcast_to, cat, cross_entropy, embed,
                                 forward, getitem, sequence_cross_entropy)


def pretrain_graph(model, token_stream, config):
    """``pretrain_lm`` through the graph; returns the loss curve."""
    token_stream = np.asarray(token_stream, dtype=np.int64).reshape(-1)
    rng = rng_from_seed(config.seed)
    params = model.parameters()
    for param in params:
        param.requires_grad = True
    try:
        optimizer = Adam(params, lr=config.lr)
        scheduler = LinearWarmupDecay(
            optimizer,
            warmup_steps=max(1, int(config.steps * config.warmup_fraction)),
            total_steps=config.steps)
        losses = []
        for _ in range(config.steps):
            windows = _sample_windows(token_stream, config.batch_size,
                                      config.seq_len, rng)
            inputs, targets = windows[:, :-1], windows[:, 1:]
            optimizer.zero_grad()
            logits = forward(model, inputs)
            vocab = logits.shape[-1]
            loss = cross_entropy(logits.reshape(-1, vocab),
                                 targets.reshape(-1))
            loss.backward()
            clip_grad_norm(params, config.grad_clip)
            optimizer.step()
            scheduler.step()
            losses.append(float(loss.data))
    finally:
        for param in params:
            param.requires_grad = False
            param.grad = None
    return losses


def prefix_loss_for_batch(model, prefix_kv, samples, tokenizer):
    """Mean per-sample LM loss of a minibatch under per-layer KV prefixes
    (``Tensor`` pairs, batch 1), broadcast across the padded minibatch."""
    batch = build_training_batch(samples, tokenizer, prompt_len=0)
    size = batch.batch_size
    tiled = [(broadcast_to(k, (size,) + k.shape[1:]),
              broadcast_to(v, (size,) + v.shape[1:]))
             for k, v in prefix_kv]
    logits = forward(model, batch.input_ids, prefix_kv=tiled,
                     key_padding_mask=batch.key_padding_mask)
    return sequence_cross_entropy(logits, batch.targets,
                                  ignore_index=IGNORE_INDEX)


def _graph_step(loss_fn):
    """A training-loop step that differentiates ``loss_fn``'s graph."""
    def step(batch):
        loss = loss_fn(batch)
        loss.backward()
        return float(loss.data)
    return step


def prefix_fit_graph(model, tokenizer, config, samples):
    """``PrefixTuner.fit``; returns ``(history, raw prefixes)``."""
    cfg = model.config
    n_layers, n_heads = cfg.n_layers, cfg.n_heads
    d_head = cfg.d_model // n_heads
    p = config.n_virtual_tokens
    rng = rng_from_seed(config.seed)
    out_dim = n_layers * 2 * n_heads * d_head
    embed_rows = Parameter(rng.normal(0.0, 0.5, (p, HIDDEN_DIM)))
    w1 = Parameter(rng.normal(0.0, 0.2, (HIDDEN_DIM, HIDDEN_DIM)))
    w2 = Parameter(rng.normal(0.0, 0.2, (HIDDEN_DIM, out_dim)))

    def materialise():
        hidden = gelu(embed_rows @ w1)
        per_layer = (hidden @ w2).reshape(p, n_layers, 2, n_heads, d_head)
        prefixes = []
        for layer in range(n_layers):
            block = getitem(per_layer, (slice(None), layer))
            keys, values = (
                getitem(block, (slice(None), which)).transpose(1, 0, 2)
                .reshape(1, n_heads, p, d_head) for which in (0, 1))
            prefixes.append((keys, values))
        return prefixes

    history = train_prompt_parameters(
        [embed_rows, w1, w2], _graph_step(lambda batch: prefix_loss_for_batch(
            model, materialise(), batch, tokenizer)),
        samples, config)
    return history, [(k.data.copy(), v.data.copy()) for k, v in materialise()]


def ptuning_v2_fit_graph(model, tokenizer, config, samples):
    """``PTuningV2Tuner.fit``; returns ``(history, raw prefixes)``."""
    cfg = model.config
    n_heads = cfg.n_heads
    d_head = cfg.d_model // n_heads
    p = config.n_virtual_tokens
    rng = rng_from_seed(config.seed)
    prompts = [Parameter(rng.normal(0.0, 0.02, (p, cfg.d_model)))
               for _ in range(cfg.n_layers)]

    def project():
        prefixes = []
        for prompt, block in zip(prompts, model.blocks):
            batched = prompt.reshape(1, p, cfg.d_model)
            keys = block.attn.k_proj(batched)
            values = block.attn.v_proj(batched)
            keys = keys.reshape(1, p, n_heads, d_head).transpose(0, 2, 1, 3)
            values = values.reshape(1, p, n_heads, d_head).transpose(0, 2, 1, 3)
            prefixes.append((keys, values))
        return prefixes

    history = train_prompt_parameters(
        prompts, _graph_step(lambda batch: prefix_loss_for_batch(
            model, project(), batch, tokenizer)),
        samples, config)
    return history, [(k.data.copy(), v.data.copy()) for k, v in project()]


def dept_fit_graph(model, tokenizer, config, samples):
    """``DEPTTuner.fit``; returns ``(history, prompt, embedding delta)``."""
    cfg = model.config
    rng = rng_from_seed(config.seed)
    short_len = max(1, config.n_virtual_tokens // 2)
    prompt = Parameter(initial_prompt_matrix(model, tokenizer, samples,
                                             short_len, rng))
    lora_a = Parameter(rng.normal(0.0, 0.02, (cfg.vocab_size, RANK)))
    lora_b = Parameter(np.zeros((RANK, cfg.d_model)))

    def loss_fn(batch):
        padded = build_training_batch(batch, tokenizer, prompt_len=short_len)
        size = padded.batch_size
        delta_table = lora_a @ lora_b
        token_emb = (embed(model, padded.input_ids)
                     + getitem(delta_table, padded.input_ids))
        prompt_rows = prompt.reshape(1, short_len, cfg.d_model)
        embeddings = cat(
            [broadcast_to(prompt_rows, (size, short_len, cfg.d_model)),
             token_emb], axis=1)
        mask = np.concatenate([np.zeros((size, short_len), dtype=bool),
                               padded.key_padding_mask], axis=1)
        logits = forward(model, embeddings=embeddings, key_padding_mask=mask)
        return sequence_cross_entropy(logits, padded.targets,
                                      ignore_index=IGNORE_INDEX)

    history = train_prompt_parameters(
        [prompt, lora_a, lora_b], _graph_step(loss_fn),
        samples, config)
    delta = (lora_a.data @ lora_b.data).astype(np.float32)
    return history, prompt.data.copy(), delta
