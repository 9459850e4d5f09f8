"""Tests for continuous-batching decode: the scheduler and its equivalence.

The contract everything rests on: a batch of in-flight generations must
emit, per sequence, token-for-token the ids the sequential autograd oracle
(``tests/oracles/generation.py``, one cached step per token) produces
from the same prefill state — for greedy and seeded sampling,
every conditioning mode, ragged prompt lengths, and sequences that are
admitted or retired while other sequences are mid-flight.
"""

import numpy as np
import pytest

from repro.llm import (
    DecodeScheduler,
    GenerationConfig,
    TinyCausalLM,
    prefill,
)
from repro.llm.transformer import LMConfig
from tests.oracles.generation import (decode_batch, decode_sequential,
                                      forward_cached)

RNG = np.random.default_rng(21)


def tiny_model(max_seq_len=64, seed=0, vocab=23):
    return TinyCausalLM(LMConfig(vocab_size=vocab, d_model=16, n_heads=2,
                                 n_layers=2, d_ff=24,
                                 max_seq_len=max_seq_len), seed=seed)


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


def ragged_states(model, lengths, conditioning="plain"):
    """Prefill states with ragged prompt lengths under one conditioning."""
    states = []
    for i, length in enumerate(lengths):
        ids = RNG.integers(1, model.config.vocab_size, size=length)
        kwargs = {}
        if conditioning in ("soft", "both"):
            kwargs["soft_prompt"] = make_soft_prompt(model, rows=2 + i % 3,
                                                     seed=50 + i)
        if conditioning in ("prefix", "both"):
            kwargs["prefix_kv"] = make_prefix(model, length=2 + i % 2,
                                              seed=60 + i)
        states.append(prefill(model, ids, **kwargs))
    return states


def assert_matches_sequential(model, states, configs, results):
    for state, config, result in zip(states, configs, results):
        np.testing.assert_array_equal(result,
                                      decode_sequential(model, state, config))


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    @pytest.mark.parametrize("conditioning",
                             ["plain", "soft", "prefix", "both"])
    def test_batched_matches_sequential(self, temperature, conditioning):
        model = tiny_model(seed=2)
        states = ragged_states(model, [3, 9, 5, 12, 7],
                               conditioning=conditioning)
        configs = [GenerationConfig(max_new_tokens=10,
                                    temperature=temperature, seed=7 + i)
                   for i in range(len(states))]
        results = decode_batch(model, states, configs)
        assert_matches_sequential(model, states, configs, results)

    def test_mixed_conditioning_in_one_batch(self):
        """Users with and without soft prompts / prefixes share rounds."""
        model = tiny_model(seed=3)
        states = (ragged_states(model, [4], "plain")
                  + ragged_states(model, [8], "soft")
                  + ragged_states(model, [6], "prefix")
                  + ragged_states(model, [11], "both"))
        configs = [GenerationConfig(max_new_tokens=8, temperature=0.6,
                                    seed=i) for i in range(4)]
        results = decode_batch(model, states, configs)
        assert_matches_sequential(model, states, configs, results)

    def test_single_sequence_batch(self):
        model = tiny_model()
        (state,) = ragged_states(model, [5])
        config = GenerationConfig(max_new_tokens=6, temperature=0.0)
        np.testing.assert_array_equal(
            decode_batch(model, [state], config)[0],
            decode_sequential(model, state, config))

    def test_one_config_broadcasts(self):
        model = tiny_model()
        states = ragged_states(model, [3, 6])
        config = GenerationConfig(max_new_tokens=4, temperature=0.0)
        results = decode_batch(model, states, config)
        assert_matches_sequential(model, states, [config, config], results)

    def test_config_count_mismatch_rejected(self):
        model = tiny_model()
        states = ragged_states(model, [3, 6])
        with pytest.raises(ValueError, match="configs for"):
            decode_batch(model, states, [GenerationConfig()])


class TestRetirement:
    def test_ragged_budgets_retire_mid_flight(self):
        """Sequences with different token budgets leave the batch at
        different rounds; survivors must be unaffected."""
        model = tiny_model(seed=4)
        states = ragged_states(model, [4, 7, 3, 10])
        configs = [GenerationConfig(max_new_tokens=n, temperature=0.5,
                                    seed=30 + n)
                   for n in (2, 9, 5, 14)]
        scheduler = DecodeScheduler(model)
        sequences = [scheduler.admit(state, config)
                     for state, config in zip(states, configs)]
        scheduler.run()
        assert_matches_sequential(model, states, configs,
                                  [s.token_ids() for s in sequences])
        assert [s.finish_reason for s in sequences] == ["length"] * 4

    def test_eos_retires_sequence(self):
        model = tiny_model(seed=5)
        states = ragged_states(model, [5, 8])
        free = GenerationConfig(max_new_tokens=8, temperature=0.0)
        reference = decode_sequential(model, states[0], free)
        assert reference.size == 8
        eos_id = int(reference[3])     # greedy path will hit it mid-answer
        configs = [GenerationConfig(max_new_tokens=8, temperature=0.0,
                                    eos_id=eos_id),
                   free]
        scheduler = DecodeScheduler(model)
        sequences = [scheduler.admit(state, config)
                     for state, config in zip(states, configs)]
        scheduler.run()
        assert sequences[0].finish_reason == "eos"
        assert_matches_sequential(model, states, configs,
                                  [s.token_ids() for s in sequences])

    def test_context_budget_retires_sequence(self):
        """A sequence that fills the context window stops exactly where the
        sequential loop would, while a shorter neighbour keeps going."""
        model = tiny_model(max_seq_len=16, seed=6)
        states = ragged_states(model, [12, 3])
        configs = [GenerationConfig(max_new_tokens=50, temperature=0.0),
                   GenerationConfig(max_new_tokens=9, temperature=0.0)]
        scheduler = DecodeScheduler(model)
        sequences = [scheduler.admit(state, config)
                     for state, config in zip(states, configs)]
        scheduler.run()
        assert sequences[0].finish_reason == "context"
        assert sequences[0].n_generated == 4          # 12 + 4 == max_seq_len
        assert_matches_sequential(model, states, configs,
                                  [s.token_ids() for s in sequences])

    def test_cancel_mid_flight(self):
        model = tiny_model(seed=7)
        states = ragged_states(model, [5, 6])
        config = GenerationConfig(max_new_tokens=8, temperature=0.4, seed=2)
        scheduler = DecodeScheduler(model)
        victim = scheduler.admit(states[0], config)
        survivor = scheduler.admit(states[1], config)
        scheduler.decode_round()
        assert scheduler.cancel(victim)
        assert victim.finished and victim.finish_reason == "cancelled"
        assert not scheduler.cancel(victim)           # already retired
        scheduler.run()
        # The cancelled tokens are a prefix of its sequential answer; the
        # survivor is untouched by the batch shrinking under it.
        reference = decode_sequential(model, states[0], config)
        np.testing.assert_array_equal(victim.token_ids(),
                                      reference[:victim.n_generated])
        np.testing.assert_array_equal(survivor.token_ids(),
                                      decode_sequential(model, states[1], config))


class TestAdmission:
    def test_mid_round_admission(self):
        """Sequences admitted while others are mid-flight still match their
        sequential reference (their rounds simply start later)."""
        model = tiny_model(seed=8)
        states = ragged_states(model, [4, 9, 6, 3], conditioning="soft")
        configs = [GenerationConfig(max_new_tokens=7, temperature=0.7,
                                    seed=i) for i in range(4)]
        scheduler = DecodeScheduler(model)
        sequences = [scheduler.admit(states[i], configs[i]) for i in (0, 1)]
        scheduler.decode_round()
        scheduler.decode_round()
        sequences.append(scheduler.admit(states[2], configs[2]))
        scheduler.decode_round()
        sequences.append(scheduler.admit(states[3], configs[3]))
        scheduler.run()
        assert_matches_sequential(model, states, configs,
                                  [s.token_ids() for s in sequences])

    def test_first_token_sampled_at_admission(self):
        model = tiny_model()
        (state,) = ragged_states(model, [5])
        scheduler = DecodeScheduler(model)
        sequence = scheduler.admit(state, GenerationConfig(max_new_tokens=4,
                                                           temperature=0.0))
        assert sequence.n_generated == 1       # from the prefill logits
        assert scheduler.n_active == 1

    def test_immediate_eos_never_joins_a_round(self):
        model = tiny_model()
        (state,) = ragged_states(model, [5])
        first = int(decode_sequential(model, state,
                                GenerationConfig(max_new_tokens=1,
                                                 temperature=0.0))[0])
        scheduler = DecodeScheduler(model)
        sequence = scheduler.admit(state,
                                   GenerationConfig(max_new_tokens=4,
                                                    temperature=0.0,
                                                    eos_id=first))
        assert sequence.finished and sequence.finish_reason == "eos"
        assert sequence.n_generated == 0
        assert not scheduler.has_active

    def test_multi_sequence_prefill_rejected(self):
        model = tiny_model()
        _, cache = forward_cached(model, np.array([[1, 2], [3, 4]]))
        from repro.llm import PrefillState
        state = PrefillState(cache=cache, last_logits=np.zeros(23),
                             n_tokens=2, virtual_len=0)
        with pytest.raises(ValueError, match="single-sequence"):
            DecodeScheduler(model).admit(state)


class TestEqualLengthGroups:
    """Rows of one attended length share a pass (``infer.length_groups``);
    the answers stay the sequential oracle's."""

    def test_a_sequence_admitted_mid_flight_joins_the_group(self):
        model = tiny_model(seed=11)
        states = ragged_states(model, [6, 6, 6, 8])
        # Rows 6 + 6 and 8 + 4: the late one fits the slab's next slot.
        configs = [GenerationConfig(max_new_tokens=n, temperature=0.0)
                   for n in (6, 6, 6, 4)]
        scheduler = DecodeScheduler(model)
        sequences = [scheduler.admit(states[i], configs[i]) for i in range(3)]
        scheduler.decode_round()
        scheduler.decode_round()
        assert scheduler.grouped_rows == 3 + 3
        # Prompt 8 after two rounds of prompt 6: the same attended length.
        sequences.append(scheduler.admit(states[3], configs[3]))
        scheduler.decode_round()
        assert scheduler.grouped_rows == 3 + 3 + 4
        assert [seq.cache.slot for seq in sequences] == [0, 1, 2, 3]
        scheduler.run()
        assert_matches_sequential(model, states, configs,
                                  [seq.token_ids() for seq in sequences])

    def test_greedy_and_sampled_rows_in_one_round(self):
        model = tiny_model(seed=12)
        states = ragged_states(model, [7] * 6)
        configs = [GenerationConfig(max_new_tokens=8,
                                    temperature=0.0 if i % 2 else 0.9,
                                    seed=30 + i) for i in range(6)]
        scheduler = DecodeScheduler(model)
        sequences = [scheduler.admit(state, config)
                     for state, config in zip(states, configs)]
        scheduler.run()
        assert scheduler.grouped_rows == scheduler.occupancy_sum == 6 * 7
        assert_matches_sequential(model, states, configs,
                                  [seq.token_ids() for seq in sequences])

    def test_tied_greedy_logits_take_the_first_index(self):
        """Duplicate lm_head columns tie every token with its neighbour:
        the round's one argmax keeps the first, as a per-row argmax."""
        model = tiny_model(seed=13, vocab=24)
        weight = model.lm_head.weight.data
        weight[:, 1::2] = weight[:, 0::2]
        states = ragged_states(model, [5, 5, 5])
        config = GenerationConfig(max_new_tokens=6, temperature=0.0)
        results = decode_batch(model, states, config)
        assert all(token % 2 == 0 for result in results for token in result)
        assert_matches_sequential(model, states, [config] * 3, results)


class TestSchedulerTelemetry:
    def test_round_reports_and_counters(self):
        model = tiny_model(seed=9)
        states = ragged_states(model, [4, 6, 8])
        configs = [GenerationConfig(max_new_tokens=n, temperature=0.0)
                   for n in (2, 4, 6)]
        scheduler = DecodeScheduler(model)
        for state, config in zip(states, configs):
            scheduler.admit(state, config)
        reports = []
        while scheduler.has_active:
            reports.append(scheduler.decode_round())
        # One token per sequence landed at admission, the rest in rounds.
        assert scheduler.tokens_emitted == sum(r.tokens_emitted
                                               for r in reports)
        assert scheduler.tokens_emitted == (2 + 4 + 6) - 3
        assert scheduler.rounds == len(reports) == 5
        assert scheduler.occupancy_sum == sum(r.n_active for r in reports)
        assert reports[0].n_active == 3
        assert sum(r.n_retired for r in reports) == 3

    def test_empty_round_is_a_noop(self):
        scheduler = DecodeScheduler(tiny_model())
        report = scheduler.decode_round()
        assert (report.tokens_emitted, report.n_active,
                report.n_retired) == (0, 0, 0)
        assert scheduler.rounds == 0
