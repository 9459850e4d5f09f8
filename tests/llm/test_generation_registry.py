"""Tests for generation, pretraining, quantization and the model zoo."""

import numpy as np
import pytest

from repro.ag import Linear
from repro.llm import (
    GenerationConfig,
    MODEL_REGISTRY,
    PretrainConfig,
    TinyCausalLM,
    available_models,
    build_model,
    clear_model_cache,
    generate,
    load_pretrained_model,
    pretrain_lm,
    quantize_model_weights,
)
from repro.llm.transformer import LMConfig

RNG = np.random.default_rng(5)


def tiny_model(vocab=19, seed=0):
    return TinyCausalLM(LMConfig(vocab_size=vocab, d_model=16, n_heads=2,
                                 n_layers=2, d_ff=24, max_seq_len=48),
                        seed=seed)


class TestGeneration:
    def test_respects_max_new_tokens(self):
        out = generate(tiny_model(), np.array([1, 2]),
                       GenerationConfig(max_new_tokens=5, temperature=0.0))
        assert out.size <= 5

    def test_greedy_is_deterministic(self):
        model = tiny_model()
        cfg = GenerationConfig(max_new_tokens=6, temperature=0.0)
        a = generate(model, np.array([1, 2, 3]), cfg)
        b = generate(model, np.array([1, 2, 3]), cfg)
        np.testing.assert_array_equal(a, b)

    def test_stops_at_eos(self):
        model = tiny_model()
        cfg0 = GenerationConfig(max_new_tokens=1, temperature=0.0)
        first = generate(model, np.array([1]), cfg0)[0]
        cfg = GenerationConfig(max_new_tokens=10, temperature=0.0,
                               eos_id=int(first))
        out = generate(model, np.array([1]), cfg)
        assert out.size == 0  # the very first sampled token was EOS

    def test_soft_prompt_changes_output_distribution(self):
        model = tiny_model()
        cfg = GenerationConfig(max_new_tokens=8, temperature=0.0)
        base = generate(model, np.array([1, 2, 3, 4]), cfg)
        prompt = RNG.normal(0, 2.0, size=(4, 16)).astype(np.float32)
        prompted = generate(model, np.array([1, 2, 3, 4]), cfg,
                            soft_prompt=prompt)
        assert not np.array_equal(base, prompted)

    def test_sequence_budget_respected(self):
        model = tiny_model()
        cfg = GenerationConfig(max_new_tokens=100, temperature=0.0)
        prompt = np.zeros((8, 16), dtype=np.float32)
        out = generate(model, np.arange(1, 11), cfg, soft_prompt=prompt)
        assert 10 + out.size <= model.config.max_seq_len - 8

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            generate(tiny_model(), np.array([], dtype=np.int64))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=0)
        with pytest.raises(ValueError):
            GenerationConfig(temperature=-1.0)

    def test_sampling_large_vocab_stays_normalized(self):
        """Probabilities are normalized in float64: float32 sums can miss
        rng.choice's sum-to-1 tolerance on large vocabularies."""
        from repro.llm.generation import _sample
        rng = np.random.default_rng(488)
        logits = rng.normal(0, 3, size=65536).astype(np.float32)
        for seed in range(5):
            idx = _sample(logits, 0.5, np.random.default_rng(seed))
            assert 0 <= idx < logits.size


class TestPretrain:
    def test_loss_decreases(self):
        model = tiny_model()
        stream = RNG.integers(0, 19, size=2000)
        # Make the stream learnable: deterministic successor pattern.
        stream = np.arange(2000) % 19
        losses = pretrain_lm(model, stream,
                             PretrainConfig(steps=60, batch_size=4,
                                            seq_len=16, lr=5e-3, seed=0))
        assert losses[-1] < losses[0] * 0.7

    def test_short_corpus_rejected(self):
        with pytest.raises(ValueError):
            pretrain_lm(tiny_model(), np.arange(5),
                        PretrainConfig(steps=1, seq_len=16))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(steps=0)

class TestQuantization:
    def test_values_on_grid(self):
        layer = Linear(32, 8)
        layer.weight.data = RNG.normal(size=(32, 8)).astype(np.float32)
        quantize_model_weights(layer, bits=4, group_size=16)
        q = layer.weight.data
        # Each group's values form at most 16 distinct levels.
        for start in (0, 16):
            assert len(np.unique(q[start:start + 16])) <= 16

    def test_error_drops_with_more_bits(self):
        w = RNG.normal(size=(64, 16)).astype(np.float32)
        errors = []
        for bits in (4, 8):
            layer = Linear(64, 16)
            layer.weight.data = w.copy()
            quantize_model_weights(layer, bits=bits)
            errors.append(np.sqrt(np.mean((layer.weight.data - w) ** 2)))
        assert errors[1] < errors[0]

    def test_zero_matrix_stays_zero(self):
        layer = Linear(8, 4)
        layer.weight.data = np.zeros((8, 4), dtype=np.float32)
        quantize_model_weights(layer, bits=4, group_size=8)
        np.testing.assert_allclose(layer.weight.data, 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"bits": 1}, {"bits": 2}, {"bits": 4, "group_size": 0}])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            quantize_model_weights(tiny_model(), **kwargs)

    def test_quantize_model_touches_all_linears(self):
        model = tiny_model()
        count = quantize_model_weights(model, bits=4)
        # 2 layers x (q,k,v,out + 2 mlp) + lm_head = 2*6 + 1
        assert count == 13

    def test_embeddings_not_quantized(self):
        model = tiny_model()
        before = model.token_embedding.weight.data.copy()
        quantize_model_weights(model, bits=4)
        np.testing.assert_allclose(model.token_embedding.weight.data, before)


class TestRegistry:
    def test_three_paper_models(self):
        assert available_models() == ["gemma-2b-sim", "mistral-7b-gptq-sim",
                                      "phi-2-sim"]
        papers = {spec.paper_model for spec in MODEL_REGISTRY.values()}
        assert papers == {"Gemma-2B", "Mistral-7B-GPTQ", "Phi-2"}

    def test_build_model_unknown_name(self):
        with pytest.raises(KeyError):
            build_model("gpt-99", vocab_size=10)

    def test_build_model_architectures_differ(self):
        a = build_model("gemma-2b-sim", 19)
        b = build_model("phi-2-sim", 19)
        assert a.config.d_model != b.config.d_model

    def test_pretrained_cache_returns_equal_weights(self):
        clear_model_cache()
        stream = np.arange(3000) % 19
        cfg = PretrainConfig(steps=5, batch_size=2, seq_len=8)
        m1 = load_pretrained_model("gemma-2b-sim", stream, 19, pretrain=cfg)
        m2 = load_pretrained_model("gemma-2b-sim", stream, 19, pretrain=cfg)
        assert m1 is not m2
        np.testing.assert_allclose(m1.lm_head.weight.data,
                                   m2.lm_head.weight.data)
        clear_model_cache()

    @staticmethod
    def weights(model):
        return model.state_dict()

    @staticmethod
    def same(a, b):
        return a.keys() == b.keys() and all(np.array_equal(a[k], b[k])
                                            for k in a)

    @pytest.mark.parametrize("first, second", [
        ({"seed": 5}, {"seed": 7}),
        ({"batch_size": 8}, {"batch_size": 2}),
    ], ids=["seed", "batch_size"])
    def test_pretrained_cache_tells_configs_apart(self, first, second):
        """A config that differs in any field trains its own weights;
        it never gets the cached weights of another."""
        stream = np.arange(3000) % 19
        config = {"steps": 2, "seq_len": 8}
        clear_model_cache()
        try:
            earlier = load_pretrained_model(
                "phi-2-sim", stream, 19,
                pretrain=PretrainConfig(**config, **first))
            served = load_pretrained_model(
                "phi-2-sim", stream, 19,
                pretrain=PretrainConfig(**config, **second))
            clear_model_cache()
            fresh = load_pretrained_model(
                "phi-2-sim", stream, 19,
                pretrain=PretrainConfig(**config, **second))
        finally:
            clear_model_cache()
        assert self.same(self.weights(served), self.weights(fresh))
        assert not self.same(self.weights(served), self.weights(earlier))

    def test_pretrained_cache_tells_corpora_apart(self):
        """Two corpora of one size whose first 64 tokens agree are two
        corpora."""
        first = np.arange(3000) % 19
        second = first.copy()
        second[64:] = (np.arange(64, 3000) * 7) % 19
        config = PretrainConfig(steps=2, seq_len=8)
        clear_model_cache()
        try:
            earlier = load_pretrained_model("phi-2-sim", first, 19,
                                            pretrain=config)
            served = load_pretrained_model("phi-2-sim", second, 19,
                                           pretrain=config)
            clear_model_cache()
            fresh = load_pretrained_model("phi-2-sim", second, 19,
                                          pretrain=config)
        finally:
            clear_model_cache()
        assert self.same(self.weights(served), self.weights(fresh))
        assert not self.same(self.weights(served), self.weights(earlier))

    def test_gptq_model_weights_quantized(self):
        clear_model_cache()
        stream = np.arange(3000) % 19
        cfg = PretrainConfig(steps=5, batch_size=2, seq_len=8)
        model = load_pretrained_model("mistral-7b-gptq-sim", stream, 19,
                                      pretrain=cfg)
        w = model.blocks[0].ff1.weight.data
        # 4-bit grouped weights: few distinct values per group.
        assert len(np.unique(w[:32])) <= 16 * 1 + 1
        clear_model_cache()
