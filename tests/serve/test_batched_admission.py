"""A batch admits as its queries would one at a time.

``answer_batch`` resolves every query first (retrieval, NVM read-back on
a prefill miss, prefill-LRU lookup), runs the batch's prefill misses
together — one stacked forward per prompt length — and admits last.
Nothing of that may show: the answers, the prefill hits, the crossbar
counters and each session's prefill LRU (contents *and* order) equal
those of an engine served the same requests through ``query``, one at a
time.  Only the count of prefill forwards differs, which is the point.
"""

import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import (
    GenerationConfig,
    PretrainConfig,
    SpeculativeDecoder,
    build_draft_model,
    build_model,
    infer,
    pretrain_lm,
)
from repro.serve import PromptServeEngine, QueryRequest, TuneRequest
from repro.serve import session as session_module

USERS = (0, 1, 2)
COUNTERS = ("requests_served", "admitted", "prefill_hits", "cim_mvm_ops",
            "cim_adc_conversions", "cim_cell_reads", "cim_write_pulses",
            "decode_tokens")


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, build_corpus(tok, n_sentences=400, seed=0),
                PretrainConfig(steps=60, seed=0))
    return model, tok


def texts_for(user_id, count, seed=5):
    """``count`` of the user's query texts (LaMP-2's are all 7 tokens)."""
    dataset = make_dataset("LaMP-2")
    return [sample.input_text for sample in
            dataset.generate(make_user(user_id, seed=0), count, seed=seed)]


def lengthened(texts, times):
    """Each text repeated ``times`` times: ``times`` x 7 tokens."""
    return [" ".join([text] * times) for text in texts]


def build_engine(setup, **kwargs):
    model, tok = setup
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                               max_sessions=4, **kwargs)
    for user_id in USERS:
        dataset = make_dataset("LaMP-2")
        engine.submit(TuneRequest(user_id=user_id, samples=tuple(
            dataset.generate(make_user(user_id, seed=0), 10,
                             seed=user_id))))
    return engine


def requests_of(tok, pairs, max_new_tokens=3, eos=True):
    generation = GenerationConfig(max_new_tokens=max_new_tokens,
                                  temperature=0.0,
                                  eos_id=tok.eos_id if eos else None)
    return [QueryRequest(user_id=user, text=text, generation=generation,
                         request_id=f"r{i}")
            for i, (user, text) in enumerate(pairs)]


def observed(engine):
    """Every counter the batch must not move differently, and each
    resident session's prefill LRU keys in LRU order."""
    stats = engine.stats()
    return ({key: stats[key] for key in COUNTERS},
            {user: list(session._prefill_states)
             for user, session in engine._sessions.items()})


def assert_batch_equals_sequential(setup, requests, *warm, **kwargs):
    """Serve ``warm`` batches then ``requests`` as one ``answer_batch``
    on one engine and query by query on another; returns both engines
    (batched first)."""
    batched, sequential = build_engine(setup, **kwargs), \
        build_engine(setup, **kwargs)
    for batch in warm:
        batched.answer_batch(batch)
        for request in batch:
            sequential.query(request)
    assert observed(batched) == observed(sequential)
    answers = batched.answer_batch(requests)
    assert answers == [sequential.query(request) for request in requests]
    assert observed(batched) == observed(sequential)
    return batched, sequential


class TestStackedPrefill:
    def test_eight_equal_length_misses_are_one_forward(self, setup):
        """The batch_decode shape: every query a miss, one prompt length."""
        _, tok = setup
        texts = texts_for(0, 8)
        assert len({len(tok.encode(text)) for text in texts}) == 1
        batched, sequential = assert_batch_equals_sequential(
            setup, requests_of(tok, [(0, text) for text in texts]))
        stats = batched.stats()
        assert (stats["prefill_forwards"], stats["prefill_rows"]) == (1, 8)
        assert stats["prefill_rows_per_forward"] == 8.0
        assert sequential.stats()["prefill_forwards"] == 8

    def test_mixed_prompt_lengths_form_one_stack_each(self, setup):
        _, tok = setup
        short, long = texts_for(1, 3), lengthened(texts_for(2, 3), 2)
        pairs = [(1, short[0]), (2, long[0]), (1, long[1]), (2, short[1]),
                 (1, short[2]), (2, long[2])]
        batched, _ = assert_batch_equals_sequential(
            setup, requests_of(tok, pairs))
        stats = batched.stats()
        # The soft prompts are one length: one stack per text length.
        assert (stats["prefill_forwards"], stats["prefill_rows"]) == (2, 6)
        assert stats["prefill_rows_per_forward"] == 3.0

    def test_a_duplicate_in_one_batch_is_a_hit_without_a_read_back(
            self, setup):
        _, tok = setup
        text = texts_for(0, 1)[0]
        batched, _ = assert_batch_equals_sequential(
            setup, requests_of(tok, [(0, text), (1, text), (0, text)]))
        stats = batched.stats()
        assert stats["prefill_hits"] == 1
        assert (stats["prefill_forwards"], stats["prefill_rows"]) == (1, 2)

    def test_hits_and_misses_in_one_batch(self, setup):
        _, tok = setup
        old, new = texts_for(0, 3), texts_for(0, 3, seed=6)
        warm = requests_of(tok, [(0, text) for text in old])
        batched, _ = assert_batch_equals_sequential(
            setup,
            requests_of(tok, [(0, new[0]), (0, old[1]), (1, old[1]),
                              (0, new[1]), (0, old[0])]),
            warm)
        stats = batched.stats()
        assert stats["prefill_hits"] == 2
        assert stats["prefill_rows"] == 3 + 3

    def test_lru_eviction_inside_one_batch(self, setup, monkeypatch):
        """With room for two states, a key the batch itself evicted is a
        miss again later in the same batch — as one at a time."""
        monkeypatch.setattr("repro.serve.session._MAX_PREFILL_STATES", 2)
        _, tok = setup
        a, b, c = texts_for(2, 3)
        batched, _ = assert_batch_equals_sequential(
            setup, requests_of(tok, [(2, a), (2, b), (2, c), (2, a),
                                     (2, c)]))
        stats = batched.stats()
        assert stats["prefill_hits"] == 1          # the last c only
        assert stats["prefill_rows"] == 4          # a, b, c, a again
        assert [text for text, _ in batched._sessions[2]._prefill_states] \
            == [a, c]

    def test_unknown_user_part_way_drains_the_earlier_users(self, setup):
        _, tok = setup
        text = texts_for(0, 1)[0]
        requests = requests_of(tok, [(0, text), (1, text), (9, text),
                                     (2, text)])
        batched, sequential = build_engine(setup), build_engine(setup)
        with pytest.raises(KeyError, match="no session for user 9"):
            batched.answer_batch(requests)
        with pytest.raises(KeyError, match="no session for user 9"):
            for request in requests:
                sequential.query(request)
        assert observed(batched) == observed(sequential)
        stats = batched.stats()
        assert stats["requests_served"] == 2
        assert stats["pending_generations"] == 0
        assert (stats["prefill_forwards"], stats["prefill_rows"]) == (1, 2)

    def test_a_prompt_with_no_room_fails_after_the_read_back(self, setup):
        """The prefill check runs where ``prefill`` ran it: after the
        NVM read-back, before anything is cached."""
        _, tok = setup
        text = texts_for(0, 1)[0]
        requests = requests_of(tok, [(1, text), (0, " ".join([text] * 40))])
        batched, sequential = build_engine(setup), build_engine(setup)
        with pytest.raises(ValueError, match="no room to generate"):
            batched.answer_batch(requests)
        with pytest.raises(ValueError, match="no room to generate"):
            for request in requests:
                sequential.query(request)
        assert observed(batched) == observed(sequential)
        assert batched.stats()["requests_served"] == 1

    def test_a_failed_forward_leaves_no_unfilled_slot(self, setup,
                                                      monkeypatch):
        """A stack whose forward raises admits nothing and leaves no LRU
        entry without a state: stats still read, and the same batch
        served again answers as an engine that never failed."""
        _, tok = setup
        short, long = texts_for(1, 2), lengthened(texts_for(1, 2, seed=6), 2)
        requests = requests_of(tok, [(1, short[0]), (1, long[0]),
                                     (1, short[1]), (1, long[1])])
        failing, fresh = build_engine(setup), build_engine(setup)
        prefill = session_module.prefill
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("no room for the stack")
            return prefill(*args, **kwargs)

        monkeypatch.setattr(session_module, "prefill", second_fails)
        with pytest.raises(MemoryError):
            failing.answer_batch(requests)
        monkeypatch.setattr(session_module, "prefill", prefill)
        stats = failing.stats()
        assert stats["pending_generations"] == stats["requests_served"] == 0
        lru = failing.session(1)._prefill_states
        assert len(lru) == 2
        assert all(slot.state is not None for slot in lru.values())
        assert failing.answer_batch(requests) == fresh.answer_batch(requests)

    def test_begin_query_is_the_batch_of_one(self, setup):
        _, tok = setup
        engine = build_engine(setup)
        pending = engine.begin_query(requests_of(tok, [(0, "a b c")])[0])
        while not pending.done:
            engine.run_decode_round()
        assert (engine.stats()["prefill_forwards"],
                engine.stats()["prefill_rows"]) == (1, 1)

    def test_speculative_engine_feeds_the_draft_prompt_ids(self, setup):
        model, tok = setup
        draft = build_draft_model("phi-2-sim", tok.vocab_size)
        texts = texts_for(0, 2) + texts_for(1, 2)
        pairs = [(0, texts[0]), (1, texts[2]), (0, texts[1]), (1, texts[3])]
        batched, _ = assert_batch_equals_sequential(
            setup, requests_of(tok, pairs, max_new_tokens=6),
            speculative=SpeculativeDecoder(draft, max_draft=3,
                                           threshold=0.0))
        assert batched.stats()["draft_proposed_tokens"] > 0
        plain = build_engine(setup)
        assert [r.answer for r in plain.answer_batch(
            requests_of(tok, pairs, max_new_tokens=6))] == [
            r.answer for r in batched.answer_batch(
                requests_of(tok, pairs, max_new_tokens=6))]


class TestOnePlanPerRound:
    def test_length_groups_runs_once_per_round(self, setup, monkeypatch):
        _, tok = setup
        engine = build_engine(setup)
        calls = []
        groups = infer.length_groups

        def counted(starts, spans):
            calls.append(len(spans))
            return groups(starts, spans)

        monkeypatch.setattr(infer, "length_groups", counted)
        texts = texts_for(0, 4)
        engine.answer_batch(requests_of(
            tok, [(user, text) for user in USERS for text in texts[:2]],
            max_new_tokens=5, eos=False))
        assert len(calls) == engine.stats()["decode_rounds"] == 4
        assert calls == [6] * 4

    def test_grouped_rows_count_the_rows_that_share_a_pass(self, setup):
        """Six sequences of three prompt lengths: each round's rows
        group by attended length exactly as ``length_groups`` says."""
        _, tok = setup
        engine = build_engine(setup)
        texts = (texts_for(1, 2) + lengthened(texts_for(1, 3, seed=6), 2)
                 + lengthened(texts_for(1, 1, seed=7), 3))
        engine.answer_batch(requests_of(
            tok, [(1, text) for text in texts], max_new_tokens=4, eos=False))
        stats = engine.stats()
        # No EOS: every one of the three rounds holds all six rows, in
        # groups of 2 and 3 and one lone row.
        assert stats["decode_rounds"] == 3
        assert stats["occupancy_sum"] == 3 * 6
        assert stats["decode_grouped_rows"] == 3 * (2 + 3)
