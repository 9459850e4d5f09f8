"""The base model is frozen from birth and written only by pretraining.

``TinyCausalLM`` starts with every parameter frozen, ``pretrain_lm`` thaws
them for its own loop and freezes them again however it exits, and a tune
reads the model without touching a flag — so concurrent tunes over one
shared model need no freeze bookkeeping to stay out of each other's way.
"""

import threading

import numpy as np
import pytest

from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import (
    PretrainConfig,
    build_model,
    clear_model_cache,
    load_pretrained_model,
    pretrain_lm,
)
from repro.tuning import DEPTTuner, PrefixTuner, TuningConfig
from repro.tuning import dept, prefix

STEPS = PretrainConfig(steps=3, seed=0)


def trainable(model):
    return [name for name, p in model.named_parameters() if p.requires_grad]


@pytest.fixture(scope="module")
def tok():
    return build_tokenizer()


@pytest.fixture(scope="module")
def corpus(tok):
    return build_corpus(tok, n_sentences=120, seed=0)


class TestFrozenFromBirth:
    def test_built_model_has_no_trainable_parameter(self, tok):
        model = build_model("phi-2-sim", tok.vocab_size)
        assert model.parameters() and trainable(model) == []

    def test_pretrained_model_frozen_on_both_cache_paths(self, tok, corpus):
        clear_model_cache()
        try:
            fresh = load_pretrained_model("gemma-2b-sim", corpus,
                                          tok.vocab_size, pretrain=STEPS)
            cached = load_pretrained_model("gemma-2b-sim", corpus,
                                           tok.vocab_size, pretrain=STEPS)
        finally:
            clear_model_cache()
        assert trainable(fresh) == [] and trainable(cached) == []
        assert all(p.grad is None for p in fresh.parameters())
        for name, value in fresh.state_dict().items():
            assert np.array_equal(cached.state_dict()[name], value), name


class TestPretrainIsTheOneWriter:
    def test_trains_then_refreezes(self, tok, corpus):
        model = build_model("phi-2-sim", tok.vocab_size)
        before = model.state_dict()
        losses = pretrain_lm(model, corpus, STEPS)
        assert len(losses) == STEPS.steps
        after = model.state_dict()
        assert all(not np.array_equal(after[name], before[name])
                   for name in before)
        assert trainable(model) == []
        assert all(p.grad is None for p in model.parameters())

    def test_refreezes_when_it_raises(self, tok):
        model = build_model("phi-2-sim", tok.vocab_size)
        before = model.state_dict()
        with pytest.raises(ValueError, match="too short"):
            pretrain_lm(model, np.arange(8), STEPS)   # no 32-token window
        assert trainable(model) == []
        for name, value in model.state_dict().items():
            assert np.array_equal(value, before[name]), name


class TestOverlappingTunes:
    def test_threaded_tunes_match_solo_runs(self, tok, corpus, monkeypatch):
        """A prefix tune and a DEPT tune (both write gradients by hand)
        step in lockstep on two threads over one model: each lands on the
        artifact it reaches alone, and the model is left as it was."""
        model = build_model("phi-2-sim", tok.vocab_size)
        pretrain_lm(model, corpus, STEPS)
        weights = model.state_dict()
        user = make_user(0, seed=0)
        jobs = {
            "prefix": (PrefixTuner, make_dataset("LaMP-2").generate(
                user, 3, seed=1)),
            "dept": (DEPTTuner, make_dataset("LaMP-1").generate(
                user, 3, seed=2)),
        }
        config = TuningConfig(steps=4, lr=0.05, seed=0)

        def arrays(artifact):
            parts = [artifact.embedding_delta]
            if artifact.soft_prompt is not None:
                parts.append(artifact.soft_prompt.matrix)
            for k, v in artifact.prefix_kv or ():
                parts += [k, v]
            return [part for part in parts if part is not None]

        solo = {name: arrays(tuner(model, tok, config).fit(samples))
                for name, (tuner, samples) in jobs.items()}

        # Every step of either tune waits for the other's.
        barrier = threading.Barrier(len(jobs), timeout=60)
        for module in (prefix, dept):
            train = module.train_prompt_parameters

            def lockstep(params, step_fn, samples, cfg, train=train):
                def step(batch):
                    barrier.wait()
                    return step_fn(batch)
                return train(params, step, samples, cfg)
            monkeypatch.setattr(module, "train_prompt_parameters", lockstep)

        together, errors = {}, []

        def tune(name):
            tuner, samples = jobs[name]
            try:
                together[name] = arrays(tuner(model, tok, config).fit(samples))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)
                barrier.abort()

        threads = [threading.Thread(target=tune, args=(name,))
                   for name in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for name, parts in solo.items():
            assert len(together[name]) == len(parts)
            for alone, threaded in zip(parts, together[name]):
                assert np.array_equal(alone, threaded), name
        assert trainable(model) == []
        assert all(p.grad is None for p in model.parameters())
        for name, value in model.state_dict().items():
            assert np.array_equal(value, weights[name]), name
