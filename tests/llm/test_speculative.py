"""Tests for speculative draft-verify decoding.

The contract: a scheduler given a :class:`SpeculativeDecoder` emits, per
sequence, token-for-token what the sequential autograd oracle
(``tests/oracles/generation.py``) emits — for every confidence
threshold, draft depth, batch size, conditioning mode, and mid-flight
admission/retirement pattern.  Speculation may only change how many
base-model forwards the tokens cost, never one token of any answer.
"""

import numpy as np
import pytest

from repro.llm import (
    DecodeScheduler,
    GenerationConfig,
    KVBuffer,
    SpeculativeDecoder,
    TinyCausalLM,
    build_draft_model,
    distill_draft,
    draft_spec,
    prefill,
)
from repro.llm.registry import MODEL_REGISTRY, EdgeModelSpec, available_models
from repro.llm.speculative import max_prob_confidence
from repro.llm.transformer import LMConfig
from tests.oracles.generation import decode_sequential

RNG = np.random.default_rng(33)
VOCAB = 23


def tiny_base(max_seq_len=64, seed=0):
    return TinyCausalLM(LMConfig(vocab_size=VOCAB, d_model=16, n_heads=2,
                                 n_layers=2, d_ff=24,
                                 max_seq_len=max_seq_len), seed=seed)


def tiny_draft(max_seq_len=64, seed=1):
    return TinyCausalLM(LMConfig(vocab_size=VOCAB, d_model=8, n_heads=2,
                                 n_layers=1, d_ff=12,
                                 max_seq_len=max_seq_len), seed=seed)


def ragged_states(model, lengths):
    states, prompts = [], []
    for length in lengths:
        ids = RNG.integers(1, VOCAB, size=length).astype(np.int64)
        prompts.append(ids)
        states.append(prefill(model, ids))
    return states, prompts


def run_speculative(model, states, prompts, configs, spec):
    scheduler = DecodeScheduler(model, speculative=spec)
    sequences = [scheduler.admit(state, config, prompt_ids=ids)
                 for state, config, ids in zip(states, configs, prompts)]
    scheduler.run()
    return [seq.token_ids() for seq in sequences], scheduler


def assert_matches_sequential(model, states, configs, results):
    for state, config, result in zip(states, configs, results):
        np.testing.assert_array_equal(result,
                                      decode_sequential(model, state, config))


# ----------------------------------------------------------------------
class TestConfidencePolicies:
    def test_max_prob_bounds(self):
        peaked = np.zeros(10, dtype=np.float32)
        peaked[3] = 20.0
        assert max_prob_confidence(peaked) > 0.99
        uniform = np.zeros(10, dtype=np.float32)
        assert max_prob_confidence(uniform) == pytest.approx(0.1)

    def test_max_prob_is_the_softmax_peak_at_any_offset(self):
        probs = np.array([0.1, 0.4, 0.3, 0.2])
        logits = np.log(probs).astype(np.float32)
        assert max_prob_confidence(logits) == pytest.approx(0.4, rel=1e-6)
        # Shifted far out of float32 exp's range, the mass is unchanged.
        assert max_prob_confidence(logits + np.float32(1e4)) \
            == pytest.approx(0.4, rel=1e-3)

    def test_decoder_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="max_draft"):
            SpeculativeDecoder(tiny_draft(), max_draft=0)


class TestDraftConstruction:
    def test_draft_spec_halves_dimensions(self):
        base = EdgeModelSpec(name="b", paper_model="B", d_model=64,
                             n_heads=4, n_layers=6, d_ff=128,
                             quantize_bits=None, base_seed=7)
        spec = draft_spec(base)
        assert spec.name == "b-draft"
        assert spec.d_model == 32 and spec.d_model % spec.n_heads == 0
        assert spec.n_heads == base.n_heads
        assert spec.n_layers == 3 and spec.d_ff == 64
        assert spec.base_seed == base.base_seed + 1

    def test_draft_spec_floors_at_one_layer(self):
        base = EdgeModelSpec(name="b", paper_model="B", d_model=8,
                             n_heads=2, n_layers=1, d_ff=8,
                             quantize_bits=None, base_seed=0)
        spec = draft_spec(base)
        assert spec.n_layers == 1
        assert spec.d_model >= spec.n_heads

    def test_build_draft_model_leaves_zoo_unchanged(self):
        """A draft is built from its derived spec; the zoo is untouched."""
        before = available_models()
        draft = build_draft_model("phi-2-sim", VOCAB, max_seq_len=32)
        assert available_models() == before
        assert draft.config.vocab_size == VOCAB
        assert draft.config.n_layers \
            == max(1, MODEL_REGISTRY["phi-2-sim"].n_layers // 2)

    def test_distill_returns_loss_curve(self):
        from repro.llm import PretrainConfig
        base, draft = tiny_base(seed=4), tiny_draft(seed=5)
        prompts = [RNG.integers(1, VOCAB, size=5).astype(np.int64)
                   for _ in range(2)]
        losses = distill_draft(draft, base, prompts, max_new_tokens=6,
                               pretrain=PretrainConfig(steps=8, seed=2,
                                                       seq_len=8))
        assert len(losses) == 8
        assert all(np.isfinite(loss) for loss in losses)


# ----------------------------------------------------------------------
class TestTokenIdentity:
    @pytest.mark.parametrize("threshold", [0.0, 0.13, 0.17])
    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_matches_sequential_across_thresholds_and_depths(self, threshold,
                                                             depth):
        model, draft = tiny_base(seed=2), tiny_draft(seed=3)
        states, prompts = ragged_states(model, [3, 9, 5, 12, 7])
        configs = [GenerationConfig(max_new_tokens=10, temperature=0.0)
                   for _ in states]
        # The untrained draft's max-prob confidence lies in ~0.11-0.21
        # on these prompts: threshold 0 always drafts to the cap,
        # maximising accept/reject traffic even though the draft rarely
        # agrees; 0.13 drafts a third to a half of that, 0.17 only a few
        # tokens (none at depth 1).
        spec = SpeculativeDecoder(draft, max_draft=depth,
                                  threshold=threshold)
        results, _ = run_speculative(model, states, prompts, configs, spec)
        assert_matches_sequential(model, states, configs, results)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_matches_sequential_across_batch_sizes(self, batch):
        model, draft = tiny_base(seed=6), tiny_draft(seed=7)
        states, prompts = ragged_states(model, [4 + i for i in range(batch)])
        configs = [GenerationConfig(max_new_tokens=8, temperature=0.0)
                   for _ in states]
        spec = SpeculativeDecoder(draft, max_draft=4, threshold=0.0)
        results, _ = run_speculative(model, states, prompts, configs, spec)
        assert_matches_sequential(model, states, configs, results)

    def test_equal_length_batch_beside_length_one_rows(self):
        """Equal prompts: every verify span's row i attends over the same
        length as the others' row i and as the sampled sequences' lone
        rows, so rounds mix grouped verify rows and length-1 rows."""
        model, draft = tiny_base(seed=20), tiny_draft(seed=21)
        states, prompts = ragged_states(model, [6] * 5)
        configs = [GenerationConfig(max_new_tokens=9,
                                    temperature=0.7 if i == 2 else 0.0,
                                    seed=i) for i in range(5)]
        spec = SpeculativeDecoder(draft, max_draft=3, threshold=0.0)
        results, scheduler = run_speculative(model, states, prompts,
                                             configs, spec)
        assert_matches_sequential(model, states, configs, results)
        assert scheduler.draft_proposed > 0
        assert scheduler.grouped_rows >= scheduler.occupancy_sum

    def test_distilled_draft_accepts_and_stays_identical(self):
        """The tuned serving configuration (draft depth 10, threshold 0.3,
        batch 8) on a pretrained phi-2-sim and its distilled draft."""
        from repro.data import build_corpus, build_tokenizer
        from repro.llm import PretrainConfig, build_model, pretrain_lm
        tok = build_tokenizer()
        model = build_model("phi-2-sim", tok.vocab_size)
        pretrain_lm(model, build_corpus(tok, n_sentences=400, seed=0),
                    PretrainConfig(steps=200, seed=0))
        draft = build_draft_model("phi-2-sim", tok.vocab_size)
        prompts = [np.asarray(tok.encode(text), dtype=np.int64) for text in (
            "the movie was", "a quiet morning", "science fiction story",
            "my favorite recipe", "breaking news today", "the weather is",
            "he opened the door", "numbers and letters",
            "the committee agreed", "in the beginning", "her latest album",
            "the engine started")]
        distill_draft(draft, model, prompts, max_new_tokens=48,
                      pretrain=PretrainConfig(steps=900, seed=1))
        prompts = prompts[:8]
        states = [prefill(model, ids) for ids in prompts]
        configs = [GenerationConfig(max_new_tokens=32, temperature=0.0)
                   for _ in states]
        spec = SpeculativeDecoder(draft, max_draft=10, threshold=0.3)
        results, scheduler = run_speculative(model, states, prompts,
                                             configs, spec)
        assert_matches_sequential(model, states, configs, results)
        # Distillation pays off: what speculation saves, as counters (the
        # wall-clock side is the spine's llm.spec_tokens_per_s_b8).  The
        # floors sit 10% under the readings, 0.957 and 62.0.
        assert scheduler.draft_accepted / scheduler.draft_proposed >= 0.86
        assert scheduler.tokens_emitted / scheduler.forwards >= 55.0

    def test_mixed_eligibility_batch(self):
        """Greedy+prompt sequences speculate; sampled sequences and those
        admitted without prompt_ids share the round untouched."""
        model, draft = tiny_base(seed=10), tiny_draft(seed=11)
        states, prompts = ragged_states(model, [5, 7, 6])
        configs = [GenerationConfig(max_new_tokens=9, temperature=0.0),
                   GenerationConfig(max_new_tokens=9, temperature=0.8,
                                    seed=5),
                   GenerationConfig(max_new_tokens=9, temperature=0.0)]
        scheduler = DecodeScheduler(
            model, speculative=SpeculativeDecoder(draft, max_draft=3,
                                                  threshold=0.0))
        sequences = [
            scheduler.admit(states[0], configs[0], prompt_ids=prompts[0]),
            scheduler.admit(states[1], configs[1], prompt_ids=prompts[1]),
            scheduler.admit(states[2], configs[2]),   # no prompt_ids
        ]
        scheduler.run()
        assert_matches_sequential(model, states, configs,
                                  [seq.token_ids() for seq in sequences])

    def test_eos_mid_draft_retires_exactly(self):
        model, draft = tiny_base(seed=12), tiny_draft(seed=13)
        states, prompts = ragged_states(model, [5, 8])
        free = GenerationConfig(max_new_tokens=8, temperature=0.0)
        reference = decode_sequential(model, states[0], free)
        eos_id = int(reference[3])
        configs = [GenerationConfig(max_new_tokens=8, temperature=0.0,
                                    eos_id=eos_id), free]
        spec = SpeculativeDecoder(draft, max_draft=6, threshold=0.0)
        scheduler = DecodeScheduler(model, speculative=spec)
        sequences = [scheduler.admit(state, config, prompt_ids=ids)
                     for state, config, ids in zip(states, configs, prompts)]
        scheduler.run()
        assert sequences[0].finish_reason == "eos"
        assert_matches_sequential(model, states, configs,
                                  [seq.token_ids() for seq in sequences])

    def test_context_budget_respected(self):
        """Drafting never feeds the base model past its context window."""
        model, draft = tiny_base(max_seq_len=16, seed=14), \
            tiny_draft(max_seq_len=16, seed=15)
        states, prompts = ragged_states(model, [12, 3])
        configs = [GenerationConfig(max_new_tokens=50, temperature=0.0),
                   GenerationConfig(max_new_tokens=9, temperature=0.0)]
        spec = SpeculativeDecoder(draft, max_draft=6, threshold=0.0)
        results, _ = run_speculative(model, states, prompts, configs, spec)
        assert_matches_sequential(model, states, configs, results)

    def test_mid_flight_admission(self):
        model, draft = tiny_base(seed=16), tiny_draft(seed=17)
        states, prompts = ragged_states(model, [4, 9, 6])
        configs = [GenerationConfig(max_new_tokens=7, temperature=0.0)
                   for _ in states]
        spec = SpeculativeDecoder(draft, max_draft=3, threshold=0.0)
        scheduler = DecodeScheduler(model, speculative=spec)
        sequences = [scheduler.admit(states[i], configs[i],
                                     prompt_ids=prompts[i]) for i in (0, 1)]
        scheduler.decode_round()
        scheduler.decode_round()
        sequences.append(scheduler.admit(states[2], configs[2],
                                         prompt_ids=prompts[2]))
        scheduler.run()
        assert_matches_sequential(model, states, configs,
                                  [seq.token_ids() for seq in sequences])

    def test_impossible_threshold_degenerates_to_plain(self):
        model, draft = tiny_base(seed=18), tiny_draft(seed=19)
        states, prompts = ragged_states(model, [5, 7])
        configs = [GenerationConfig(max_new_tokens=6, temperature=0.0)
                   for _ in states]
        spec = SpeculativeDecoder(draft, max_draft=4, threshold=2.0)
        results, scheduler = run_speculative(model, states, prompts,
                                             configs, spec)
        assert_matches_sequential(model, states, configs, results)
        assert scheduler.draft_proposed == 0
        assert scheduler.spec_rounds == 0
        assert scheduler.forwards == scheduler.rounds


class TestCounters:
    def test_counter_invariants(self):
        model, draft = tiny_base(seed=20), tiny_draft(seed=21)
        states, prompts = ragged_states(model, [4, 6, 8])
        configs = [GenerationConfig(max_new_tokens=8, temperature=0.0)
                   for _ in states]
        spec = SpeculativeDecoder(draft, max_draft=4, threshold=0.0)
        _, scheduler = run_speculative(model, states, prompts, configs,
                                       spec)
        assert scheduler.draft_proposed > 0
        assert 0 <= scheduler.draft_accepted <= scheduler.draft_proposed
        assert 0 < scheduler.spec_rounds <= scheduler.rounds
        assert scheduler.forwards == scheduler.rounds
        assert scheduler.draft_forwards > 0
        # One token absorbed at admission per sequence; the rest in rounds.
        assert scheduler.tokens_emitted == (8 * 3) - 3

class TestTruncate:
    """Rolling rejected speculation back.  Nothing is called ``truncate``
    any more: the verify forward writes every fed row into the sequence's
    own :class:`KVBuffer` and the scheduler moves the cursor back over the
    rows it did not absorb from."""

    def make_buffer(self, model):
        ids = RNG.integers(1, VOCAB, size=7).astype(np.int64)
        cache = prefill(model, ids).cache
        return cache, KVBuffer(cache, 7 + 4)

    def test_truncate_copies_by_default(self):
        """The buffer is a copy, made once: cutting it back (or writing
        into it) can never reach the shared prefill cache."""
        cache, buffer = self.make_buffer(tiny_base())
        buffer.seq_len = 4
        assert buffer.seq_len == 4
        assert cache.seq_len == 7                       # source untouched
        for index in range(cache.n_layers):
            kept_k, _ = buffer.layer(index)
            src_k, _ = cache.layer(index)
            np.testing.assert_array_equal(kept_k[:, :, :4], src_k[:, :, :4])
            assert not np.shares_memory(kept_k, src_k)

    def test_truncate_views_on_request(self):
        """Rollback moves the cursor and nothing else."""
        _, buffer = self.make_buffer(tiny_base())
        before = [buffer.layer(index) for index in range(buffer.n_layers)]
        buffer.seq_len = 4
        for index, (keys, values) in enumerate(before):
            assert buffer.layer(index)[0] is keys
            assert buffer.layer(index)[1] is values

    def test_truncate_full_length_returns_self(self):
        """A round whose proposals are all confirmed rolls nothing back."""
        model = tiny_base(seed=5)
        states, prompts = ragged_states(model, [6])
        spec = SpeculativeDecoder(model, max_draft=3, threshold=0.0)
        scheduler = DecodeScheduler(model, speculative=spec)
        seq = scheduler.admit(
            states[0], GenerationConfig(max_new_tokens=12, temperature=0.0),
            prompt_ids=prompts[0])
        scheduler.decode_round()
        assert scheduler.draft_accepted == scheduler.draft_proposed == 3
        assert seq.cache.seq_len == 6 + 1 + 3

    def test_layers_stay_consistent(self):
        """After every speculative round — most of which reject a suffix —
        the live rows of every layer are bitwise the rows one-token rounds
        hold at the same point, and a rejected tail is overwritten by the
        round that follows."""
        model, draft = tiny_base(seed=8), tiny_draft(seed=9)
        states, prompts = ragged_states(model, [5])
        config = GenerationConfig(max_new_tokens=16, temperature=0.0)
        spec = SpeculativeDecoder(draft, max_draft=3, threshold=0.0)
        speculative = DecodeScheduler(model, speculative=spec)
        plain = DecodeScheduler(model)
        fast = speculative.admit(states[0], config, prompt_ids=prompts[0])
        slow = plain.admit(states[0], config)
        stale = None     # (first rejected position, its keys) of last round
        overwritten = 0
        while not fast.finished:
            before = fast.cache.seq_len
            proposed = speculative.draft_proposed
            speculative.decode_round()
            while slow.n_generated < fast.n_generated:
                plain.decode_round()
            assert fast.generated == slow.generated
            cursor = fast.cache.seq_len
            assert cursor == slow.cache.seq_len
            for index in range(fast.cache.n_layers):
                for which in (0, 1):
                    assert np.array_equal(
                        fast.cache.layer(index)[which][:, :, :cursor],
                        slow.cache.layer(index)[which][:, :, :cursor])
            keys = fast.cache.layer(0)[0]
            if stale is not None:
                assert not np.array_equal(keys[:, :, stale[0]], stale[1])
                overwritten += 1
            fed = 1 + speculative.draft_proposed - proposed
            stale = None
            if cursor < before + fed:
                stale = (cursor, keys[:, :, cursor].copy())
        assert overwritten >= 3
