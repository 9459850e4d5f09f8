"""Tests for attention (incl. KV prefixes) and the transformer LM.

The attention semantics (causality, prefixes, padding) are pinned on the
autograd reference (``tests/oracles/graph.py``), which the graph-free
forward equals bitwise (``tests/llm/test_infer.py``).
"""

import numpy as np
import pytest

from repro.ag import Tensor
from repro.llm import infer
from repro.llm.attention import MultiHeadSelfAttention
from repro.llm.transformer import LMConfig, TinyCausalLM
from tests.oracles.graph import attention, embed, forward


RNG = np.random.default_rng(3)


def tiny_config(**overrides):
    defaults = dict(vocab_size=23, d_model=16, n_heads=2, n_layers=2,
                    d_ff=24, max_seq_len=32)
    defaults.update(overrides)
    return LMConfig(**defaults)


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(16, 4)
        out = attention(attn, Tensor(RNG.normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_rejects_bad_head_split(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_causality(self):
        """Changing a future token must not affect earlier outputs."""
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(1))
        x = RNG.normal(size=(1, 6, 8)).astype(np.float32)
        base = attention(attn, Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 5] += 10.0
        changed = attention(attn, Tensor(x2)).data
        np.testing.assert_allclose(changed[0, :5], base[0, :5], atol=1e-5)
        assert not np.allclose(changed[0, 5], base[0, 5])

    def test_prefix_attended_by_all_positions(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(2))
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        base = attention(attn, x).data.copy()
        pk = Tensor(RNG.normal(size=(1, 2, 3, 4)))
        pv = Tensor(RNG.normal(size=(1, 2, 3, 4)) * 5.0)
        out = attention(attn, x, prefix_kv=(pk, pv)).data
        # Every position (including position 0) shifts due to the prefix.
        for t in range(4):
            assert not np.allclose(out[0, t], base[0, t])

    def test_prefix_shape_validation(self):
        attn = MultiHeadSelfAttention(8, 2)
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        bad_k = Tensor(RNG.normal(size=(1, 3, 3, 4)))  # wrong head count
        with pytest.raises(ValueError):
            attention(attn, x, prefix_kv=(bad_k, bad_k))

    def test_prefix_kv_shape_mismatch(self):
        attn = MultiHeadSelfAttention(8, 2)
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        pk = Tensor(RNG.normal(size=(1, 2, 3, 4)))
        pv = Tensor(RNG.normal(size=(1, 2, 2, 4)))
        with pytest.raises(ValueError):
            attention(attn, x, prefix_kv=(pk, pv))

    def test_causal_mask_structure(self):
        mask = MultiHeadSelfAttention._causal_mask(3, 2)
        assert mask.shape == (3, 5)
        assert not mask[:, :2].any()            # prefix always visible
        assert mask[0, 3] and mask[0, 4]        # future blocked
        assert not mask[2, 4]                   # self visible

    def test_key_padding_mask_matches_unpadded_forward(self):
        """Real positions of a right-padded input compute exactly what the
        shorter unpadded forward would."""
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(4))
        x = RNG.normal(size=(1, 5, 8)).astype(np.float32)
        short = attention(attn, Tensor(x[:, :3])).data
        mask = np.array([[False, False, False, True, True]])
        padded = attention(attn, Tensor(x), key_padding_mask=mask).data
        np.testing.assert_allclose(padded[0, :3], short[0], atol=1e-6)

    def test_key_padding_mask_composes_with_prefix(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(5))
        prefix = (Tensor(RNG.normal(size=(1, 2, 3, 4))),
                  Tensor(RNG.normal(size=(1, 2, 3, 4))))
        x = RNG.normal(size=(1, 6, 8)).astype(np.float32)
        short = attention(attn, Tensor(x[:, :4]), prefix_kv=prefix).data
        mask = np.array([[False] * 4 + [True] * 2])
        padded = attention(attn, Tensor(x), prefix_kv=prefix,
                      key_padding_mask=mask).data
        np.testing.assert_allclose(padded[0, :4], short[0], atol=1e-6)

    def test_key_padding_mask_shape_checked(self):
        attn = MultiHeadSelfAttention(8, 2)
        x = Tensor(RNG.normal(size=(2, 4, 8)))
        with pytest.raises(ValueError):
            attention(attn, x, key_padding_mask=np.zeros((2, 3), dtype=bool))
        with pytest.raises(ValueError):
            attention(attn, x, key_padding_mask=np.zeros((1, 4), dtype=bool))


class TestLMConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LMConfig(vocab_size=0)
        with pytest.raises(ValueError):
            LMConfig(vocab_size=10, d_model=10, n_heads=3)
        with pytest.raises(ValueError):
            LMConfig(vocab_size=10, max_seq_len=0)


class TestTinyCausalLM:
    def test_logits_shape(self):
        model = TinyCausalLM(tiny_config(), seed=0)
        logits = forward(model, np.array([[1, 2, 3]]))
        assert logits.shape == (1, 3, 23)

    def test_1d_input_promoted(self):
        model = TinyCausalLM(tiny_config(), seed=0)
        assert forward(model, np.array([1, 2])).shape == (1, 2, 23)

    def test_exactly_one_input_required(self):
        model = TinyCausalLM(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            forward(model)
        with pytest.raises(ValueError):
            forward(model, np.array([[1]]),
                    embeddings=Tensor(np.zeros((1, 1, 16))))

    def test_embeddings_path_matches_token_path(self):
        model = TinyCausalLM(tiny_config(), seed=0)
        ids = np.array([[4, 9, 2]])
        via_tokens = forward(model, ids).data
        via_embeddings = forward(model, embeddings=embed(model, ids)).data
        np.testing.assert_allclose(via_tokens, via_embeddings, atol=1e-5)

    def test_sequence_length_limit(self):
        model = TinyCausalLM(tiny_config(max_seq_len=4), seed=0)
        with pytest.raises(ValueError, match="max_seq_len"):
            infer.extend(model, np.zeros((1, 5, 16), dtype=np.float32))

    def test_prefix_kv_count_checked(self):
        model = TinyCausalLM(tiny_config(), seed=0)
        prefix = [(np.zeros((1, 2, 2, 8), dtype=np.float32),) * 2]
        with pytest.raises(ValueError, match="prefix_kv"):
            infer.extend(model, np.zeros((1, 1, 16), dtype=np.float32),
                         prefix_kv=prefix)  # 1 prefix, 2 layers

    def test_deterministic_for_seed(self):
        a = TinyCausalLM(tiny_config(), seed=7)
        b = TinyCausalLM(tiny_config(), seed=7)
        ids = np.array([[3, 1, 4]])
        np.testing.assert_allclose(forward(a, ids).data, forward(b, ids).data)

    def test_different_seeds_differ(self):
        a = TinyCausalLM(tiny_config(), seed=1)
        b = TinyCausalLM(tiny_config(), seed=2)
        ids = np.array([[3, 1, 4]])
        assert not np.allclose(forward(a, ids).data, forward(b, ids).data)

    def test_embed_text_vector(self):
        model = TinyCausalLM(tiny_config(), seed=0)
        vec = model.embed_text_vector(np.array([5, 6]))
        expected = model.token_embedding.weight.data[[5, 6]].mean(axis=0)
        np.testing.assert_allclose(vec, expected)

    def test_embed_text_vector_empty_raises(self):
        model = TinyCausalLM(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            model.embed_text_vector(np.array([], dtype=np.int64))

    def test_parameter_count_reasonable(self):
        model = TinyCausalLM(tiny_config(), seed=0)
        assert model.num_parameters() > 1000
