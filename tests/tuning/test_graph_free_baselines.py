"""The graph-free baseline tuners equal the autograd graph bit for bit.

Prefix tuning (through its reparameterisation MLP), P-tuning v2 (through
the frozen ``k_proj`` / ``v_proj``) and DEPT (the input-embedding
gradient scattered by token id into its low-rank factors) take their
loss and gradients from ``repro.llm.vjp``; the graph steps they replaced
live in ``tests/oracles/training.py``.  The matrix: batch 1 and padded
batches of 3 and 8 × a float and an int8 base, compared with
``np.array_equal`` on the loss history and the artifact.
"""

import numpy as np
import pytest

from repro.data import build_tokenizer, make_dataset, make_user
from repro.llm import build_model, quantize_model
from repro.tuning import (DEPTTuner, PTuningV2Tuner, PrefixTuner,
                          TuningConfig, build_training_ids)
from repro.tuning import dept, prefix, ptuning_v2
from tests.oracles.training import (dept_fit_graph, prefix_fit_graph,
                                    ptuning_v2_fit_graph)

BATCHES = [1, 3, 8]
CONFIG = TuningConfig(steps=4, seed=2)


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


@pytest.fixture(scope="module", params=[None, "int8"], ids=["float", "int8"])
def model(request, tok):
    model = build_model("phi-2-sim", tok.vocab_size)
    if request.param is not None:
        quantize_model(model, request.param)
    return model


def fit_recording(monkeypatch, module, tuner):
    """``tuner.fit`` plus the loss history its training loop returned."""
    recorded = []
    train = module.train_prompt_parameters

    def spy(*args, **kwargs):
        recorded.append(train(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(module, "train_prompt_parameters", spy)
    return tuner.fit, recorded


def assert_same_prefixes(ours, theirs):
    assert len(ours) == len(theirs)
    for pair, reference in zip(ours, theirs):
        for half, expected in zip(pair, reference):
            assert np.array_equal(half, expected)


@pytest.mark.parametrize("batch", BATCHES)
def test_prefix_tuning_bitwise(model, tok, samples, batch, monkeypatch):
    fit, history = fit_recording(monkeypatch, prefix,
                                 PrefixTuner(model, tok, CONFIG))
    artifact = fit(samples[:batch])
    expected, raw = prefix_fit_graph(model, tok, CONFIG, samples[:batch])
    assert history == [expected]
    assert_same_prefixes(artifact.prefix_kv, raw)


@pytest.mark.parametrize("batch", BATCHES)
def test_ptuning_v2_bitwise(model, tok, samples, batch, monkeypatch):
    fit, history = fit_recording(monkeypatch, ptuning_v2,
                                 PTuningV2Tuner(model, tok, CONFIG))
    artifact = fit(samples[:batch])
    expected, raw = ptuning_v2_fit_graph(model, tok, CONFIG, samples[:batch])
    assert history == [expected]
    assert_same_prefixes(artifact.prefix_kv, raw)


@pytest.mark.parametrize("batch", BATCHES)
def test_dept_bitwise(model, tok, samples, batch, monkeypatch):
    fit, history = fit_recording(monkeypatch, dept,
                                 DEPTTuner(model, tok, CONFIG))
    artifact = fit(samples[:batch])
    expected, prompt, delta = dept_fit_graph(model, tok, CONFIG,
                                             samples[:batch])
    assert history == [expected]
    assert np.array_equal(artifact.soft_prompt.matrix, prompt)
    assert np.array_equal(artifact.embedding_delta, delta)
