"""The graph-free soft-prompt step equals the autograd graph bit for bit.

``VanillaPromptTuner`` (and ``NoiseAwareTrainer``, which wraps it) takes
its loss and prompt gradient from ``repro.llm.vjp.soft_prompt_vjp`` on raw
arrays; the graph it replaced lives in ``tests/oracles/tuning.py``.  The
matrix: batch 1 and padded batches of 3 and 8 × a float, an int8 and an
int4 base × σ = 0 and σ = 0.1, compared with ``np.array_equal`` on the
loss, the gradient and ``fit``'s final prompt.
"""

import numpy as np
import pytest

from repro.ag import Parameter, Tensor
from repro.core import NoiseInjectionConfig, NoiseInjector
from repro.data import build_tokenizer, make_dataset, make_user
from repro.llm import build_model, quantize_model
from repro.tuning import (TuningConfig, VanillaPromptTuner, build_training_ids,
                          initial_prompt_matrix, prompt_loss_and_grad)
from tests.oracles.tuning import fit_graph, prompt_loss_for_batch

BATCHES = [1, 3, 8]
BASES = [None, "int8", "int4"]
SIGMAS = [0.0, 0.1]


@pytest.fixture(scope="module")
def tok():
    return build_tokenizer()


@pytest.fixture(scope="module")
def samples(tok):
    user = make_user(0, seed=0)
    mixed = []
    for name in ("LaMP-1", "LaMP-2", "LaMP-3", "LaMP-5"):
        mixed.extend(make_dataset(name).generate(user, 2, seed=1))
    assert len({build_training_ids(s, tok)[0].size for s in mixed[:3]}) > 1, \
        "the padded batches must mix sequence lengths"
    return mixed


@pytest.fixture(scope="module", params=BASES, ids=["float", "int8", "int4"])
def model(request, tok):
    model = build_model("phi-2-sim", tok.vocab_size)
    if request.param is not None:
        quantize_model(model, request.param)
    return model


def _noise(sigma):
    return NoiseInjector(NoiseInjectionConfig(sigma=sigma, seed=5))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("batch", BATCHES)
def test_loss_and_gradient_bitwise(model, tok, samples, batch, sigma):
    chosen = samples[:batch]
    init = initial_prompt_matrix(model, tok, chosen, 8,
                                 np.random.default_rng(0))
    added = _noise(sigma)(init)
    noisy = init if added is None else init + added
    prompt = Parameter(init.copy())
    effective = prompt if added is None else prompt + Tensor(added)
    graph = prompt_loss_for_batch(model, effective, chosen, tok)
    graph.backward()
    loss, grad = prompt_loss_and_grad(model, noisy, chosen, tok)
    assert np.array_equal(loss, graph.data)
    assert np.array_equal(grad, prompt.grad)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("batch", BATCHES)
def test_fit_final_prompt_bitwise(model, tok, samples, batch, sigma):
    config = TuningConfig(steps=4, seed=2)
    fast = VanillaPromptTuner(model, tok, config).fit(
        samples[:batch], transform=_noise(sigma)).soft_prompt.matrix
    graph = fit_graph(model, tok, config, samples[:batch], noise=_noise(sigma))
    assert np.array_equal(fast, graph)


def test_without_anchor_bitwise(tok, samples):
    model = build_model("phi-2-sim", tok.vocab_size)
    config = TuningConfig(steps=3, anchor_weight=0.0, seed=1)
    fast = VanillaPromptTuner(model, tok, config).fit(
        samples[:3]).soft_prompt.matrix
    assert np.array_equal(fast, fit_graph(model, tok, config, samples[:3]))


def test_sequence_longer_than_the_model_rejected(tok, samples):
    model = build_model("phi-2-sim", tok.vocab_size, max_seq_len=8)
    prompt = np.zeros((8, model.config.d_model), dtype=np.float32)
    with pytest.raises(ValueError, match="max_seq_len"):
        prompt_loss_and_grad(model, prompt, samples[:1], tok)
