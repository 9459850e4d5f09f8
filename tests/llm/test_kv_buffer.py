"""The decode buffer is the cache (``repro.llm.kv_cache.KVBuffer``).

A sequence's K/V storage is allocated once, at admission, for exactly the
positions it can still reach; rounds write into it in place and rollback
is a cursor move (``tests/llm/test_speculative.py::TestTruncate``).  What
is pinned here: no round allocates (a), capacity is exact at the edges
(c), and the shared prefill cache behind the copy is never written (d).
"""

import numpy as np
import pytest

from repro.llm import (
    DecodeScheduler,
    GenerationConfig,
    KVBuffer,
    KVCache,
    KVSlab,
    PrefillState,
    SpeculativeDecoder,
    TinyCausalLM,
    decode_from,
    prefill,
)
from repro.llm.transformer import LMConfig
from tests.oracles.generation import decode_sequential

VOCAB = 23
GREEDY = GenerationConfig(max_new_tokens=10, temperature=0.0)


def tiny_model(max_seq_len=64, seed=0, d_model=16, n_layers=2):
    return TinyCausalLM(LMConfig(vocab_size=VOCAB, d_model=d_model, n_heads=2,
                                 n_layers=n_layers, d_ff=24,
                                 max_seq_len=max_seq_len), seed=seed)


def make_prefix(model, length=3, seed=4):
    rng = np.random.default_rng(seed)
    shape = (1, model.config.n_heads, length,
             model.config.d_model // model.config.n_heads)
    return [tuple(rng.normal(size=shape).astype(np.float32)
                  for _ in range(2))
            for _ in range(model.config.n_layers)]


def prompt(length, seed=0):
    return np.random.default_rng(seed).integers(1, VOCAB, size=length)


def arrays_of(cache):
    return [array for index in range(cache.n_layers)
            for array in cache.layer(index)]


def rows_allocated(sequence):
    """Rows of every K/V array the sequence holds (they must all agree)."""
    rows = {array.shape[2] for array in arrays_of(sequence.cache)}
    assert len(rows) == 1
    return rows.pop()


# ----------------------------------------------------------------------
class TestRoundsAllocateNothing:
    @pytest.mark.parametrize("mode", ["plain", "speculative"])
    def test_arrays_after_round_n_are_the_arrays_of_round_one(self, mode):
        model = tiny_model(seed=3)
        spec = None
        if mode == "speculative":    # a random draft: mostly rejected
            spec = SpeculativeDecoder(tiny_model(seed=4, d_model=8,
                                                 n_layers=1),
                                      max_draft=3, threshold=0.0)
        scheduler = DecodeScheduler(model, speculative=spec)
        prefix = make_prefix(model)
        sequences = []
        for index, length in enumerate((4, 9, 6)):
            ids = prompt(length, seed=index)
            state = prefill(model, ids,
                            prefix_kv=prefix if index == 1 else None)
            sequences.append(scheduler.admit(state, GREEDY, prompt_ids=ids))
        admitted = [arrays_of(seq.cache) for seq in sequences]
        rounds = 0
        while scheduler.has_active:
            scheduler.decode_round()
            rounds += 1
            for seq, arrays in zip(sequences, admitted):
                for now, then in zip(arrays_of(seq.cache), arrays):
                    assert now is then
        assert rounds >= 3
        if spec is not None:
            assert scheduler.draft_accepted < scheduler.draft_proposed


# ----------------------------------------------------------------------
class TestCapacityIsExact:
    def test_context_limit_fills_the_buffer_to_max_seq_len(self):
        model = tiny_model(max_seq_len=12)
        scheduler = DecodeScheduler(model)
        state = prefill(model, prompt(5))
        seq = scheduler.admit(state,
                              GenerationConfig(max_new_tokens=100,
                                               temperature=0.0))
        scheduler.run()
        assert seq.finish_reason == "context"
        assert 5 + seq.n_generated == 12
        assert seq.cache.capacity == rows_allocated(seq) == 12
        assert seq.cache.seq_len == 11      # the last token is never fed

    def test_prefixed_sequence_holds_prefix_plus_budget(self):
        model = tiny_model(seed=2)
        prefix = make_prefix(model, length=3)
        config = GenerationConfig(max_new_tokens=5, temperature=0.0)
        state = prefill(model, prompt(4), prefix_kv=prefix)
        scheduler = DecodeScheduler(model)
        seq = scheduler.admit(state, config)
        scheduler.run()
        assert seq.finish_reason == "length"
        assert (seq.cache.prefix_len, seq.cache.capacity) == (3, 4 + 5)
        assert rows_allocated(seq) == 3 + 4 + 5
        assert seq.cache.seq_len == 4 + 5 - 1
        np.testing.assert_array_equal(
            seq.token_ids(), decode_sequential(model, state, config))

    @pytest.mark.parametrize("max_seq_len, new_tokens, capacity",
                             [(64, 3, 6 + 3), (10, 100, 10)])
    def test_max_draft_beyond_the_remaining_budget(self, max_seq_len,
                                                   new_tokens, capacity):
        """Drafting is capped by what the sequence can still absorb, so a
        verify span never reaches past the token budget or the context."""
        model = tiny_model(max_seq_len=max_seq_len, seed=5)
        config = GenerationConfig(max_new_tokens=new_tokens, temperature=0.0)
        ids = prompt(6)
        state = prefill(model, ids)
        spec = SpeculativeDecoder(model, max_draft=8, threshold=0.0)
        scheduler = DecodeScheduler(model, speculative=spec)
        seq = scheduler.admit(state, config, prompt_ids=ids)
        scheduler.run()
        assert scheduler.draft_proposed > 0
        assert seq.cache.capacity == rows_allocated(seq) == capacity
        assert seq.cache.seq_len == 6 + seq.n_generated - 1
        np.testing.assert_array_equal(
            seq.token_ids(), decode_sequential(model, state, config))

    def test_a_sequence_retired_at_admission_allocates_nothing(self):
        model = tiny_model(max_seq_len=6)
        scheduler = DecodeScheduler(model)
        heads, d_head = 2, 8
        full = KVCache([(np.zeros((1, heads, 6, d_head), dtype=np.float32),
                         np.zeros((1, heads, 6, d_head), dtype=np.float32))
                        for _ in range(2)])
        no_room = PrefillState(cache=full, n_tokens=6, virtual_len=0,
                               last_logits=np.zeros(VOCAB, dtype=np.float32))
        seq = scheduler.admit(no_room, GREEDY)
        assert seq.finish_reason == "context" and seq.cache is None
        # ... and so does one whose first sampled token is EOS.
        state = prefill(model, prompt(3))
        first = int(np.argmax(state.last_logits))
        seq = scheduler.admit(state, GenerationConfig(temperature=0.0,
                                                      eos_id=first))
        assert seq.finish_reason == "eos" and seq.cache is None
        assert not scheduler.has_active


# ----------------------------------------------------------------------
class TestSlabs:
    def test_admissions_claim_consecutive_slots_of_one_slab(self):
        """Eight equal sequences fill one slab; the ninth, and one that
        needs more rows than the slab's, each start a new one."""
        model = tiny_model(seed=7)
        scheduler = DecodeScheduler(model)
        state = prefill(model, prompt(5))
        sequences = [scheduler.admit(state, GREEDY) for _ in range(9)]
        wide = scheduler.admit(state, GenerationConfig(max_new_tokens=11,
                                                       temperature=0.0))
        assert [seq.cache.slot for seq in sequences + [wide]] == \
            [0, 1, 2, 3, 4, 5, 6, 7, 0, 0]
        slabs = [seq.cache.slab.layers[0]
                 for seq in (sequences[0], sequences[8], wide)]
        assert all(seq.cache.slab.layers[0] is slabs[0]
                   for seq in sequences[:8])
        assert slabs[0] is not slabs[1] and slabs[1] is not slabs[2]
        assert slabs[0][0].shape == (8, 2, 5 + 10, 8)
        for seq in sequences[:8]:   # exact-capacity views of their row
            keys = seq.cache.layer(0)[0]
            assert keys.base is slabs[0][0]
            assert keys.shape == (1, 2, 5 + 10, 8)
        scheduler.run()
        expected = decode_sequential(model, state, GREEDY)
        for seq in sequences:
            np.testing.assert_array_equal(seq.token_ids(), expected)

    def test_a_buffer_refuses_a_full_or_narrow_slab(self):
        model = tiny_model()
        state = prefill(model, prompt(4))
        slab = KVSlab(state.cache, 6, 1)
        with pytest.raises(ValueError, match="no slot of 7 rows"):
            KVBuffer(state.cache, 7, slab=slab)
        assert KVBuffer(state.cache, 6, slab=slab).slot == 0
        with pytest.raises(ValueError, match="no slot of 5 rows"):
            KVBuffer(state.cache, 5, slab=slab)


# ----------------------------------------------------------------------
class TestPrefillStateIsNeverWritten:
    @pytest.mark.parametrize("prefixed", [False, True])
    def test_one_state_decoded_twice_and_twice_in_one_round(self, prefixed):
        """Read-only arrays turn any in-place write to the shared prefill
        cache into an error; the buffers are copies, so there is none."""
        model = tiny_model(seed=6)
        prefix = make_prefix(model) if prefixed else None
        state = prefill(model, prompt(7), prefix_kv=prefix)
        snapshot = [array.copy() for array in arrays_of(state.cache)]
        for array in arrays_of(state.cache):
            array.flags.writeable = False

        first = decode_from(model, state, GREEDY)
        np.testing.assert_array_equal(decode_from(model, state, GREEDY), first)
        # Two sessions' worth of sequences over the one state, one batch.
        scheduler = DecodeScheduler(model)
        sequences = [scheduler.admit(state, GREEDY) for _ in range(2)]
        scheduler.run()
        for seq in sequences:
            np.testing.assert_array_equal(seq.token_ids(), first)
            for own, shared in zip(arrays_of(seq.cache),
                                   arrays_of(state.cache)):
                assert not np.shares_memory(own, shared)
        assert not np.shares_memory(*(seq.cache.layer(0)[0]
                                      for seq in sequences))
        np.testing.assert_array_equal(
            first, decode_sequential(model, state, GREEDY))
        for array, before in zip(arrays_of(state.cache), snapshot):
            assert np.array_equal(array, before)
