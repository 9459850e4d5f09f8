"""A repeated ``begin_query`` is answered from its prefill slot.

The first answer that completes from a prefill slot through
``begin_query`` stays on the slot with its ``GenerationConfig``, and the
slot lets go of its KV; a repeat under that config is finished at
admission with those tokens.  The contract: such an answer equals a
decoded one byte for byte; the blocking calls (``query``,
``answer_batch``) neither take nor keep an answer, so they decode; every
invalidation of the prefill cache (publish, adopt, evict and restore)
clears the answers with it; an answer cut short (deadline, cancel) is
never kept; another config takes a fresh slot; and ``answer_hits <=
prefill_hits <= requests_served`` all stay monotone.
"""

import dataclasses
import time

import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import (GenerationConfig, PretrainConfig, build_model,
                       pretrain_lm)
from repro.serve import (PromptServeEngine, QueryRequest, SessionStore,
                         TuneRequest)
from repro.serve import session as session_module
from tests.oracles.generation import answer_sequential

# No EOS: every answer runs its full budget, over several decode rounds.
GREEDY = GenerationConfig(max_new_tokens=4, temperature=0.0)
SAMPLED = GenerationConfig(max_new_tokens=4, temperature=0.7, seed=5)


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, build_corpus(tok, n_sentences=400, seed=0),
                PretrainConfig(steps=60, seed=0))
    return model, tok


def samples_for(user_id, count=10, seed=None):
    dataset = make_dataset("LaMP-2")
    return tuple(dataset.generate(make_user(user_id, seed=0), count,
                                  seed=user_id if seed is None else seed))


def text_for(user_id, index=0):
    return samples_for(user_id, index + 1, seed=42)[index].input_text


def build_engine(setup, users=(0, 1), **kwargs):
    model, tok = setup
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                               **kwargs)
    for user_id in users:
        engine.submit(TuneRequest(user_id=user_id,
                                  samples=samples_for(user_id)))
    return engine


def request(user_id=0, generation=GREEDY, request_id="", index=0):
    return QueryRequest(user_id=user_id, text=text_for(user_id, index),
                        generation=generation, request_id=request_id)


def serve(engine, request):
    """The serving path: admit with ``begin_query``, drive the rounds."""
    pending = engine.begin_query(request)
    while not pending.done:
        engine.run_decode_round()
    return pending.response


def counts(engine):
    stats = engine.stats()
    return {key: stats[key] for key in ("answer_hits", "prefill_hits",
                                        "prefill_rows", "requests_served",
                                        "decode_rounds")}


class TestRepeatEqualsDecode:
    @pytest.mark.parametrize("generation", [GREEDY, SAMPLED],
                             ids=["greedy", "sampled"])
    def test_begin_query(self, setup, generation):
        engine = build_engine(setup)
        first = serve(engine, request(generation=generation, request_id="a"))
        before = counts(engine)
        second = engine.begin_query(request(generation=generation,
                                            request_id="b"))
        after = counts(engine)
        assert second.done and not second.cancelled
        assert second.finish_reason == "length"
        assert after["answer_hits"] == before["answer_hits"] + 1
        assert after["decode_rounds"] == before["decode_rounds"]
        assert engine.stats()["pending_generations"] == 0
        assert engine.session(0).generations_in_flight == 0
        assert second.response == dataclasses.replace(first, request_id="b")
        # The reference decodes alone: a miss on the answered slot.
        reference = engine.query(request(generation=generation,
                                         request_id="b"))
        assert counts(engine)["answer_hits"] == after["answer_hits"]
        assert counts(engine)["prefill_rows"] == after["prefill_rows"] + 1
        assert reference == second.response
        oracle = answer_sequential(engine, request(generation=generation))
        assert second.response.answer.encode() == first.answer.encode() \
            == oracle.encode()

    def test_blocking_calls_decode_every_repeat(self, setup):
        engine = build_engine(setup)
        first = engine.query(request())
        before = counts(engine)
        assert engine.query(request()) == first
        after = counts(engine)
        # query keeps no answer: the slot kept its KV, and the repeat
        # decoded from it.
        assert after["answer_hits"] == 0
        assert after["prefill_hits"] == before["prefill_hits"] + 1
        assert after["decode_rounds"] > before["decode_rounds"]
        assert engine.answer_batch([request()]) == [first]
        assert counts(engine)["answer_hits"] == 0
        # The serving path decodes from the same slot and keeps its answer.
        assert serve(engine, request()) == first
        assert engine.begin_query(request()).response == first
        assert counts(engine)["answer_hits"] == 1

    def test_answer_batch_holding_duplicates(self, setup):
        requests = [request(request_id="d0"), request(1, request_id="o"),
                    request(request_id="d1"), request(request_id="d2")]
        engine, fresh = build_engine(setup), build_engine(setup)
        batched = engine.answer_batch(requests)
        assert batched == [fresh.query(r) for r in requests]
        rounds = counts(engine)["decode_rounds"]
        assert engine.answer_batch(requests) == batched
        assert counts(engine)["decode_rounds"] > rounds
        assert counts(engine)["answer_hits"] == 0
        # Served through begin_query, the first of a pair decodes and
        # every repeat is finished at admission.
        served = [serve(engine, r) for r in requests]
        assert served == batched
        assert counts(engine)["answer_hits"] == 2


class TestInvalidation:
    def test_publish_clears_the_answers(self, setup):
        engine = build_engine(setup)
        serve(engine, request())
        engine.submit(TuneRequest(user_id=0,
                                  samples=samples_for(0, seed=7)))
        before = counts(engine)
        answer = serve(engine, request()).answer
        after = counts(engine)
        assert after["answer_hits"] == before["answer_hits"]
        assert after["prefill_rows"] == before["prefill_rows"] + 1
        assert answer == answer_sequential(engine, request())

    def test_adopt_clears_the_answers(self, setup):
        engine = build_engine(setup)
        serve(engine, request())
        engine.load_session(0, engine.session(1).library)
        before = counts(engine)
        answer = serve(engine, request()).answer
        after = counts(engine)
        assert after["answer_hits"] == before["answer_hits"]
        assert after["prefill_rows"] == before["prefill_rows"] + 1
        assert answer == answer_sequential(engine, request())

    def test_evict_then_restore_clears_the_answers(self, setup):
        engine = build_engine(setup, session_store=SessionStore())
        first = serve(engine, request())
        assert engine.drop_session(0)            # spilled to the store
        before = counts(engine)
        again = serve(engine, request())
        after = counts(engine)
        assert engine.stats()["sessions_restored"] == 1
        assert after["answer_hits"] == before["answer_hits"]
        assert after["prefill_rows"] == before["prefill_rows"] + 1
        assert again == first


class TestCutAnswersAreNotKept:
    def test_deadline(self, setup):
        engine = build_engine(setup)
        pending = engine.begin_query(request(),
                                     deadline=time.monotonic() - 1.0)
        engine.run_decode_round()
        assert pending.finish_reason == "deadline"
        answer = serve(engine, request()).answer
        stats = engine.stats()
        assert (stats["answer_hits"], stats["prefill_hits"]) == (0, 1)
        assert answer == build_engine(setup).query(request()).answer

    def test_cancelled(self, setup):
        engine = build_engine(setup)
        pending = engine.begin_query(request())
        engine.run_decode_round()
        assert engine.cancel_query(pending)
        assert pending.finish_reason == "cancelled"
        answer = serve(engine, request()).answer
        stats = engine.stats()
        assert (stats["answer_hits"], stats["prefill_hits"]) == (0, 1)
        assert answer == build_engine(setup).query(request()).answer
        assert answer.startswith(pending.response.answer)


class TestConfigs:
    def test_another_config_takes_a_fresh_slot(self, setup):
        engine = build_engine(setup)
        greedy = serve(engine, request(generation=GREEDY))
        sampled = serve(engine, request(generation=SAMPLED))
        stats = engine.stats()
        assert (stats["prefill_hits"], stats["prefill_rows"]) == (0, 2)
        assert len(engine.session(0)._prefill_states) == 1
        assert serve(engine, request(generation=SAMPLED)) == sampled
        assert engine.stats()["answer_hits"] == 1
        # The fresh slot dropped the greedy answer: greedy prefills again.
        assert serve(engine, request(generation=GREEDY)) == greedy
        stats = engine.stats()
        assert (stats["answer_hits"], stats["prefill_rows"]) == (1, 3)

    def test_the_paper_default_is_one_config(self, setup):
        """``generation=None`` decodes under the engine's default, and a
        repeat under it is an answer hit."""
        engine = build_engine(setup)
        first = serve(engine, request(generation=None))
        assert serve(engine, request(generation=None)) == first
        assert engine.stats()["answer_hits"] == 1

    def test_a_failed_prefill_keeps_answered_slots(self, setup,
                                                   monkeypatch):
        """The clean-up after a failed prefill forward drops the slots
        queued on the batch, not an answered slot that holds no KV."""
        engine = build_engine(setup)
        kept = serve(engine, request())

        def fails(*args, **kwargs):
            raise MemoryError("no room for the stack")

        monkeypatch.setattr(session_module, "prefill", fails)
        with pytest.raises(MemoryError):
            engine.begin_query(request(index=1))
        monkeypatch.undo()
        lru = engine.session(0)._prefill_states
        assert [text for text, _ in lru] == [text_for(0)]
        hits = engine.stats()["answer_hits"]
        assert engine.begin_query(request()).response == kept
        assert engine.stats()["answer_hits"] == hits + 1


def test_hit_counters_are_ordered_and_monotone(setup):
    engine = build_engine(setup, max_sessions=1,
                          session_store=SessionStore())
    steps = [
        lambda: serve(engine, request(1)),
        lambda: serve(engine, request(1)),
        lambda: engine.query(request(1)),
        lambda: serve(engine, request(0)),          # evicts user 1
        lambda: engine.answer_batch([request(0), request(0, SAMPLED),
                                     request(0)]),
        lambda: serve(engine, request(0, SAMPLED)),
        lambda: serve(engine, request(1)),          # restores user 1
        lambda: serve(engine, request(1)),
        lambda: engine.submit(TuneRequest(user_id=1,
                                          samples=samples_for(1, seed=7))),
        lambda: serve(engine, request(1)),
        lambda: serve(engine, request(1)),
        lambda: engine.drop_session(1, spill=False),
        lambda: serve(engine, request(0, SAMPLED)),
    ]
    previous = counts(engine)
    for step in steps:
        step()
        now = counts(engine)
        assert now["answer_hits"] <= now["prefill_hits"] \
            <= now["requests_served"]
        assert all(now[key] >= previous[key] for key in now)
        previous = now
    assert now["answer_hits"] >= 3
