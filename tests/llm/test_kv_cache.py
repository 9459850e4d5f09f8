"""Tests for incremental decoding: the KV cache and its equivalence.

The one property everything rests on: decoding with the cache must emit
token-for-token identical ids to the full-reforward reference loop, for
every conditioning mode (plain, soft prompt, KV prefix, both) and for both
greedy and seeded sampling.  The autograd references (full reforward, and
the cached step the model's ``forward`` no longer carries) live in
``tests/oracles/generation.py``.
"""

import numpy as np
import pytest

from repro.ag import Tensor
from repro.llm import (
    GenerationConfig,
    KVBuffer,
    KVCache,
    TinyCausalLM,
    decode_from,
    generate,
    infer,
    prefill,
)
from repro.llm.attention import MultiHeadSelfAttention
from repro.llm.transformer import LMConfig
from tests.oracles.generation import (
    attention_cached,
    decode_sequential,
    forward_cached,
    generate_uncached,
)
from tests.oracles.graph import attention, forward

RNG = np.random.default_rng(9)


def tiny_model(max_seq_len=48, seed=0):
    return TinyCausalLM(LMConfig(vocab_size=23, d_model=16, n_heads=2,
                                 n_layers=2, d_ff=24,
                                 max_seq_len=max_seq_len), seed=seed)


def embed(model, ids):
    """(1, T, d_model) token rows, the input ``infer.extend`` takes."""
    return infer.embed(model.token_embedding, np.asarray(ids))[None]


def make_prefix(model, length=3, seed=4):
    rng = np.random.default_rng(seed)
    heads = model.config.n_heads
    d_head = model.config.d_model // heads
    return [tuple(rng.normal(size=(1, heads, length, d_head))
                  .astype(np.float32) for _ in range(2))
            for _ in range(model.config.n_layers)]


def make_soft_prompt(model, rows=4, seed=5):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1.0, size=(rows, model.config.d_model)) \
              .astype(np.float32)


class TestAttentionPastKV:
    def test_incremental_matches_full_last_position(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(1))
        x = Tensor(RNG.normal(size=(1, 6, 8)))
        full = attention(attn, x).data
        first = Tensor(x.data[:, :5])
        _, past = attention_cached(attn, first)
        step_out, new = attention_cached(attn, Tensor(x.data[:, 5:6]),
                                         past=past)
        np.testing.assert_allclose(step_out.data[0, 0], full[0, 5], atol=1e-5)
        assert new[0].shape == (1, 2, 6, 4)

    def test_cache_excludes_prefix(self):
        """The returned cache accumulates only real positions — the prefix
        is constant conditioning the attention re-attaches every call."""
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(2))
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        pk = Tensor(RNG.normal(size=(1, 2, 3, 4)))
        pv = Tensor(RNG.normal(size=(1, 2, 3, 4)))
        _, kv = attention_cached(attn, x, prefix_kv=(pk, pv))
        assert kv[0].shape[2] == 4                      # 4 tokens, no prefix

    def test_prefix_and_past_compose(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(3))
        x = Tensor(RNG.normal(size=(1, 5, 8)))
        prefix = (Tensor(RNG.normal(size=(1, 2, 3, 4))),
                  Tensor(RNG.normal(size=(1, 2, 3, 4))))
        full = attention(attn, x, prefix_kv=prefix).data
        _, past = attention_cached(attn, Tensor(x.data[:, :4]),
                                   prefix_kv=prefix)
        step, _ = attention_cached(attn, Tensor(x.data[:, 4:5]),
                                   prefix_kv=prefix, past=past)
        np.testing.assert_allclose(step.data[0, 0], full[0, 4], atol=1e-5)

    def test_past_shape_validated(self):
        model = tiny_model()
        bad = KVCache([(np.zeros((1, 3, 2, 4), dtype=np.float32),
                        np.zeros((1, 3, 2, 4), dtype=np.float32))
                       for _ in range(2)])   # wrong head count
        buffer = KVBuffer(bad, 4)
        with pytest.raises(ValueError, match="cache shaped"):
            model.decode_round(np.array([1]), [buffer])
        assert buffer.seq_len == 2            # nothing written

    def test_causal_mask_with_past(self):
        mask = MultiHeadSelfAttention._causal_mask(1, 2, past_len=5)
        assert mask.shape == (1, 8)
        assert not mask.any()                # one new token sees everything
        mask = MultiHeadSelfAttention._causal_mask(2, 0, past_len=3)
        assert mask.shape == (2, 5)
        assert mask[0, 4] and not mask[1, 4]  # only own future blocked

    def test_causal_mask_backward_compatible(self):
        mask = MultiHeadSelfAttention._causal_mask(3, 2)
        assert mask.shape == (3, 5)
        assert not mask[:, :2].any()


class TestKVCacheContainer:
    def _cache(self, lengths=(4, 4)):
        return KVCache([(np.zeros((1, 2, t, 4), dtype=np.float32),
                         np.zeros((1, 2, t, 4), dtype=np.float32))
                        for t in lengths])

    def test_properties(self):
        cache = self._cache()
        assert cache.n_layers == len(cache) == 2
        assert cache.seq_len == 4
        assert cache.batch_size == 1
        assert cache.memory_bytes() == 2 * 2 * 1 * 2 * 4 * 4 * 4
        assert "seq_len=4" in repr(cache)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            self._cache(lengths=(4, 5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KVCache([])


class TestBatchedKVCacheContainer:
    """The batched container is gone — a round takes the sequences' own
    :class:`KVBuffer`s — so these are its behaviours on that call shape:
    ragged members grouped by reference, validated, advanced together."""

    def _buffer(self, seq_len, n_layers=2, fill=0.0):
        cache = KVCache([(np.full((1, 2, seq_len, 4), fill, dtype=np.float32),
                          np.full((1, 2, seq_len, 4), fill, dtype=np.float32))
                         for _ in range(n_layers)])
        return KVBuffer(cache, seq_len + 4)

    def _prefilled(self, model, lengths):
        return [KVBuffer(prefill(model, np.arange(1, 1 + length)).cache,
                         length + 4) for length in lengths]

    def test_stack_split_round_trips_by_reference(self):
        """A round advances the very buffers it was handed: no array is
        re-wrapped, copied or padded on the way in or out."""
        model = tiny_model()
        members = self._prefilled(model, (3, 7, 5))
        arrays = [member.layer(1) for member in members]
        model.decode_round(np.array([1, 2, 3]), members)
        for member, (keys, values) in zip(members, arrays):
            assert member.layer(1)[0] is keys
            assert member.layer(1)[1] is values

    def test_ragged_lengths_reported(self):
        members = [self._buffer(t) for t in (3, 7, 5)]
        assert [member.seq_len for member in members] == [3, 7, 5]
        assert [member.capacity for member in members] == [7, 11, 9]
        assert members[0].n_layers == 2
        assert "seq_len=7" in repr(members[1])

    def test_layer_slices_align_with_sequences(self):
        members = [self._buffer(t, fill=t) for t in (2, 4)]
        for member, length in zip(members, (2, 4)):
            keys, values = member.layer(1)
            assert keys is member.layer(1)[0]      # the array, not a copy
            assert np.all(keys[:, :, :length] == length)
            assert np.all(values[:, :, :length] == length)

    def test_memory_is_sum_of_members(self):
        """Allocated once, for exactly prefix + capacity rows per layer."""
        model = tiny_model()
        prefix = make_prefix(model, length=3)
        state = prefill(model, np.array([1, 2, 3, 4, 5]), prefix_kv=prefix)
        member = KVBuffer(state.cache, 9, prefix)
        assert (member.prefix_len, member.seq_len, member.capacity) \
            == (3, 5, 9)
        for index in range(member.n_layers):
            for which in (0, 1):
                rows = member.layer(index)[which]
                assert rows.shape == (1, 2, 3 + 9, 8)
                assert np.array_equal(rows[:, :, :3],
                                      prefix[index][which].data)
                assert np.array_equal(rows[:, :, 3:8],
                                      state.cache.layer(index)[which])

    def test_layer_count_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="3 layers for 2 blocks"):
            model.decode_round(np.array([1, 1]),
                               [self._buffer(3, n_layers=2),
                                self._buffer(3, n_layers=3)])

    def test_multi_sequence_member_rejected(self):
        wide = KVCache([(np.zeros((2, 2, 3, 4), dtype=np.float32),
                         np.zeros((2, 2, 3, 4), dtype=np.float32))])
        with pytest.raises(ValueError, match="batch 1"):
            KVBuffer(wide, 8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().decode_span([], [])

    def test_decode_round_extends_every_sequence_by_one(self):
        model = tiny_model()
        states = [prefill(model, np.arange(1, 1 + length))
                  for length in (3, 6, 4)]
        members = [KVBuffer(state.cache, state.seq_len + 2)
                   for state in states]
        model.decode_round(np.array([1, 2, 3]), members)
        assert [member.seq_len for member in members] == [4, 7, 5]
        for state, member in zip(states, members):
            # The shared prefill caches are untouched and still the head
            # of what each sequence attends over.
            assert state.cache.seq_len == member.seq_len - 1
            np.testing.assert_array_equal(
                member.layer(0)[0][:, :, :state.seq_len],
                state.cache.layer(0)[0])

    def test_decode_round_respects_max_seq_len(self):
        model = tiny_model(max_seq_len=6)
        _, full = forward_cached(model, np.array([[1, 2, 3, 4, 5, 6]]))
        short = prefill(model, np.array([1, 2])).cache
        members = [KVBuffer(full, 8), KVBuffer(short, 8)]
        with pytest.raises(ValueError, match="max_seq_len"):
            model.decode_round(np.array([1, 1]), members)
        assert [member.seq_len for member in members] == [6, 2]

    def test_decode_round_token_count_checked(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="cached sequences"):
            model.decode_round(np.array([1, 2]),
                               self._prefilled(model, (2,)))


class TestModelPastKV:
    def test_incremental_logits_match_full(self):
        model = tiny_model()
        ids = np.array([[3, 7, 1, 4, 9]])
        full = forward(model, ids).data
        _, cache = forward_cached(model, ids[:, :3])
        for t in (3, 4):
            logits, cache = forward_cached(model, ids[:, t:t + 1], past=cache)
            np.testing.assert_allclose(logits.data[0, 0], full[0, t],
                                       atol=1e-4)
        assert cache.seq_len == 5

    def test_layer_count_checked(self):
        model = tiny_model()
        one_layer = KVCache([(np.zeros((1, 2, 2, 8), dtype=np.float32),
                              np.zeros((1, 2, 2, 8), dtype=np.float32))])
        with pytest.raises(ValueError, match="layers"):
            infer.extend(model, embed(model, [1]), past=one_layer)
        with pytest.raises(ValueError, match="layers"):
            model.decode_round(np.array([1]), [KVBuffer(one_layer, 4)])

    def test_max_seq_len_includes_past(self):
        model = tiny_model(max_seq_len=6)
        cache = prefill(model, np.array([1, 2, 3, 4, 5])).cache
        infer.extend(model, embed(model, [6]), past=cache)     # fits: 6
        _, cache = infer.extend(model, embed(model, [6]), past=cache)
        with pytest.raises(ValueError, match="max_seq_len"):
            infer.extend(model, embed(model, [7]), past=cache)  # would be 7


class TestGenerateEquivalence:
    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    @pytest.mark.parametrize("conditioning",
                             ["plain", "soft", "prefix", "both"])
    def test_cached_matches_uncached(self, temperature, conditioning):
        model = tiny_model(seed=2)
        kwargs = {}
        if conditioning in ("soft", "both"):
            kwargs["soft_prompt"] = make_soft_prompt(model)
        if conditioning in ("prefix", "both"):
            kwargs["prefix_kv"] = make_prefix(model)
        config = GenerationConfig(max_new_tokens=12, temperature=temperature,
                                  seed=13)
        reference = generate_uncached(model, np.array([2, 5, 8]), config,
                                      **kwargs)
        cached = generate(model, np.array([2, 5, 8]), config, **kwargs)
        np.testing.assert_array_equal(reference, cached)
        assert reference.size == 12
        # ... and the cached autograd step agrees from the same prefill.
        state = prefill(model, np.array([2, 5, 8]), **kwargs)
        np.testing.assert_array_equal(
            decode_sequential(model, state, config), cached)

    def test_eos_stops_cached_path(self):
        model = tiny_model()
        greedy = GenerationConfig(max_new_tokens=1, temperature=0.0)
        first = int(generate(model, np.array([1]), greedy)[0])
        config = GenerationConfig(max_new_tokens=10, temperature=0.0,
                                  eos_id=first)
        assert generate(model, np.array([1]), config).size == 0

    def test_budget_equivalence_near_context_edge(self):
        """Both paths must stop at the same point near max_seq_len."""
        model = tiny_model(max_seq_len=12)
        config = GenerationConfig(max_new_tokens=100, temperature=0.0)
        a = generate_uncached(model, np.arange(1, 6), config)
        b = generate(model, np.arange(1, 6), config)
        np.testing.assert_array_equal(a, b)
        assert 5 + a.size == 12      # both fill the context exactly


class TestOverlongPromptRejected:
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_prompt_filling_context_raises(self, use_cache):
        model = tiny_model(max_seq_len=8)
        with pytest.raises(ValueError, match="no room to generate"):
            run = generate if use_cache else generate_uncached
            run(model, np.arange(1, 9), GenerationConfig())

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_soft_prompt_counts_against_budget(self, use_cache):
        model = tiny_model(max_seq_len=8)
        soft = make_soft_prompt(model, rows=5)
        with pytest.raises(ValueError, match="no room to generate"):
            run = generate if use_cache else generate_uncached
            run(model, np.arange(1, 4), GenerationConfig(), soft_prompt=soft)

    def test_prefill_rejects_overlong_prompt(self):
        model = tiny_model(max_seq_len=8)
        with pytest.raises(ValueError, match="no room to generate"):
            prefill(model, np.arange(1, 9))

    def test_one_token_of_room_is_accepted(self):
        model = tiny_model(max_seq_len=8)
        out = generate(model, np.arange(1, 8),
                       GenerationConfig(max_new_tokens=5, temperature=0.0))
        assert out.size == 1


class TestPrefillDecodeAPI:
    def test_state_reusable_across_decodes(self):
        model = tiny_model()
        soft = make_soft_prompt(model)
        state = prefill(model, np.array([4, 2, 6]), soft_prompt=soft)
        length_before = state.cache.seq_len
        config = GenerationConfig(max_new_tokens=8, temperature=0.7, seed=3)
        first = decode_from(model, state, config)
        second = decode_from(model, state, config)
        np.testing.assert_array_equal(first, second)
        assert state.cache.seq_len == length_before   # state untouched

    def test_different_seeds_diverge_from_one_prefill(self):
        model = tiny_model()
        state = prefill(model, np.array([4, 2, 6]))
        outs = [decode_from(model, state,
                            GenerationConfig(max_new_tokens=10,
                                             temperature=1.5, seed=s))
                for s in range(4)]
        assert any(not np.array_equal(outs[0], o) for o in outs[1:])

    def test_prefill_matches_generate(self):
        model = tiny_model()
        config = GenerationConfig(max_new_tokens=6, temperature=0.0)
        state = prefill(model, np.array([1, 2, 3]))
        assert state.n_tokens == 3 and state.virtual_len == 0
        assert state.seq_len == 3
        np.testing.assert_array_equal(
            decode_from(model, state, config),
            generate(model, np.array([1, 2, 3]), config))

    def test_prefix_conditioning_recorded_on_state(self):
        """decode_from re-attaches the prefix the prefill saw — the caller
        cannot accidentally decode with mismatched conditioning."""
        model = tiny_model()
        prefix = make_prefix(model)
        config = GenerationConfig(max_new_tokens=6, temperature=0.0)
        state = prefill(model, np.array([1, 2, 3]), prefix_kv=prefix)
        assert state.prefix_kv is prefix
        np.testing.assert_array_equal(
            decode_from(model, state, config),
            generate(model, np.array([1, 2, 3]), config, prefix_kv=prefix))

    def test_prefill_counts_soft_prompt_positions(self):
        model = tiny_model()
        state = prefill(model, np.array([1, 2]),
                        soft_prompt=make_soft_prompt(model, rows=4))
        assert state.virtual_len == 4
        assert state.seq_len == 6

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            prefill(tiny_model(), np.array([], dtype=np.int64))
