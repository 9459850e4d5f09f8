"""Prompt-tuning references: the autograd graph and the per-sample mean.

``prompt_loss_for_batch`` is the soft-prompt loss as an ``ag.Tensor``
graph over ``tests/oracles/graph.py``'s forward — what vanilla prompt
tuning differentiated before its step went graph-free
(``repro.llm.vjp``) — and ``fit_graph`` is
``VanillaPromptTuner.fit`` on it, so the graph-free step can be compared
with it bit for bit.

The per-sample oracle: a batch of one has an all-False padding mask, so
``loss_fn([sample])`` is the unpadded per-sample loss and their mean is
what a padded minibatch forward must reproduce (loss and gradients).
"""

import numpy as np

from repro.ag import Parameter, Tensor
from repro.tuning import (IGNORE_INDEX, build_training_batch,
                          initial_prompt_matrix, train_prompt_parameters)
from repro.utils import rng_from_seed
from tests.oracles.graph import (broadcast_to, cat, embed, forward,
                                 sequence_cross_entropy)


def prompt_loss_for_batch(model, prompt: Tensor, samples, tokenizer) -> Tensor:
    """Mean per-sample LM loss of a padded minibatch under a soft prompt."""
    n_tokens, d_model = prompt.shape
    batch = build_training_batch(samples, tokenizer, prompt_len=n_tokens)
    size = batch.batch_size
    token_emb = embed(model, batch.input_ids)
    prompt_rows = prompt.reshape(1, n_tokens, d_model)
    embeddings = cat([broadcast_to(prompt_rows, (size, n_tokens, d_model)),
                      token_emb], axis=1)
    mask = np.concatenate([np.zeros((size, n_tokens), dtype=bool),
                           batch.key_padding_mask], axis=1)
    logits = forward(model, embeddings=embeddings, key_padding_mask=mask)
    return sequence_cross_entropy(logits, batch.targets,
                                  ignore_index=IGNORE_INDEX)


def graph_step(model, tokenizer, prompt: Parameter, anchor: np.ndarray,
               anchor_weight: float, noise=None):
    """The vanilla tuner's step through the graph: loss + anchor pull,
    ``.backward()`` into ``prompt.grad``; returns the loss."""
    def step(batch):
        effective = prompt
        added = None if noise is None else noise(prompt.data)
        if added is not None:
            effective = prompt + Tensor(added)
        total = prompt_loss_for_batch(model, effective, batch, tokenizer)
        if anchor_weight > 0:
            drift = prompt - Tensor(anchor)
            total = total + (drift * drift).mean() * anchor_weight
        total.backward()
        return float(total.data)
    return step


def fit_graph(model, tokenizer, config, samples, noise=None) -> np.ndarray:
    """``VanillaPromptTuner(model, tokenizer, config).fit(samples,
    transform=noise)`` through the graph; returns the trained prompt."""
    rng = rng_from_seed(config.seed)
    init = initial_prompt_matrix(model, tokenizer, samples,
                                 config.n_virtual_tokens, rng)
    prompt = Parameter(init)
    train_prompt_parameters(
        [prompt],
        graph_step(model, tokenizer, prompt, init.copy(),
                   config.anchor_weight, noise),
        samples, config)
    return prompt.data.copy()


def singleton_mean(loss_fn, samples):
    """``mean(loss_fn([s]) for s in samples)`` as one autograd scalar."""
    losses = [loss_fn([sample]) for sample in samples]
    return sum(losses[1:], losses[0]) * (1.0 / len(losses))


def train_per_sample(monkeypatch, tuner_module):
    """Make ``tuner_module``'s tuner step on the mean of singleton batches:
    each sample's loss and gradients alone, then averaged."""
    train = tuner_module.train_prompt_parameters

    def per_sample(params, step_fn, samples, config):
        def step(batch):
            losses, grads = [], []
            for sample in batch:
                for param in params:
                    param.grad = None
                losses.append(step_fn([sample]))
                grads.append([param.grad.copy() for param in params])
            for param, *per in zip(params, *grads):
                param.grad = sum(per[1:], per[0]) * (1.0 / len(batch))
            return sum(losses) / len(batch)
        return train(params, step, samples, config)
    monkeypatch.setattr(tuner_module, "train_prompt_parameters", per_sample)
