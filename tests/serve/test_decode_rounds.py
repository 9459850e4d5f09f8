"""Tests for cross-user continuous batching in the serving engine.

The serving contract: ``answer_batch`` produces responses *equal* (every
field) to serving the same requests one :meth:`query` at a time — and the
answers the sequential autograd oracle decodes — while advancing all
users' answers one token per round over the shared model; and session
eviction mid-round can neither corrupt another user's batch slot nor lose
a pending answer.
"""

import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import GenerationConfig, PretrainConfig, build_model, pretrain_lm
from repro.retrieval import CiMSearchEngine
from repro.serve import PromptServeEngine, QueryRequest, TuneRequest
from tests.oracles.generation import answer_sequential


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


def fast_config(**overrides):
    return FrameworkConfig.preset("fast", **overrides)


def stream_for(user_id, count, seed=0):
    ds = make_dataset("LaMP-2")
    return ds.generate(make_user(user_id, seed=0), count, seed=seed)


def build_engine(setup, user_ids=(0, 1, 2), max_sessions=4):
    model, tok = setup
    engine = PromptServeEngine(model, tok, fast_config(),
                               max_sessions=max_sessions)
    for user_id in user_ids:
        engine.submit(TuneRequest(
            user_id=user_id,
            samples=tuple(stream_for(user_id, 10, seed=user_id))))
    return engine


def interleaved_requests(tok, user_ids=(0, 1, 2), per_user=3, *,
                         temperature=0.1, max_new_tokens=8, use_eos=True):
    generation = GenerationConfig(max_new_tokens=max_new_tokens,
                                  temperature=temperature, seed=3,
                                  eos_id=tok.eos_id if use_eos else None)
    requests = []
    for user_id in user_ids:
        for i, sample in enumerate(stream_for(user_id, per_user, seed=42)):
            requests.append(QueryRequest(
                user_id=user_id, text=sample.input_text,
                generation=generation, request_id=f"u{user_id}-q{i}"))
    return requests[::2] + requests[1::2]      # interleave users


def sequential(engine, requests):
    """One :meth:`query` at a time: the batch-invariance reference."""
    return [engine.query(request) for request in requests]


class TestBatchedEquivalence:
    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    def test_batched_equals_sequential_reference(self, setup, temperature):
        _, tok = setup
        for use_eos in (True, False):
            requests = interleaved_requests(tok, temperature=temperature,
                                            use_eos=use_eos)
            reference_engine = build_engine(setup)
            reference = sequential(reference_engine, requests)
            batched = build_engine(setup).answer_batch(requests)
            assert batched == reference            # every response field
            assert [r.request_id for r in batched] == \
                [r.request_id for r in requests]
            # An independent implementation decides what the tokens are.
            assert [r.answer for r in batched] == \
                [answer_sequential(reference_engine, r) for r in requests]

    def test_batched_equals_query_loop(self, setup):
        _, tok = setup
        requests = interleaved_requests(tok, per_user=2)
        reference_engine = build_engine(setup)
        reference = [reference_engine.query(r) for r in requests]
        batched = build_engine(setup).answer_batch(requests)
        assert batched == reference

    def test_batched_shares_prefills_within_batch(self, setup):
        _, tok = setup
        engine = build_engine(setup, user_ids=(0,))
        text = stream_for(0, 1)[0].input_text
        generation = GenerationConfig(max_new_tokens=5, temperature=0.0,
                                      eos_id=tok.eos_id)
        requests = [QueryRequest(user_id=0, text=text, generation=generation,
                                 request_id=f"q{i}") for i in range(4)]
        batched = engine.answer_batch(requests)
        assert engine.stats()["prefill_hits"] == 3
        assert len({r.answer for r in batched}) == 1

    def test_empty_batch(self, setup):
        assert build_engine(setup, user_ids=()).answer_batch([]) == []

    def test_admission_failure_drains_admitted_queries(self, setup):
        """An unknown user mid-batch raises, but queries admitted before
        the failure still complete — matching the sequential path, which
        serves earlier users before raising."""
        _, tok = setup
        engine = build_engine(setup, user_ids=(0,))
        generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                      eos_id=tok.eos_id)
        good = QueryRequest(user_id=0, text=stream_for(0, 1)[0].input_text,
                            generation=generation)
        stray = QueryRequest(user_id=99, text="movie about tag",
                             generation=generation)
        with pytest.raises(KeyError, match="no session for user 99"):
            engine.answer_batch([good, stray])
        stats = engine.stats()
        assert stats["pending_generations"] == 0
        assert stats["requests_served"] == 1


class TestDecodeRounds:
    def test_begin_query_and_manual_rounds(self, setup):
        _, tok = setup
        engine = build_engine(setup)
        requests = interleaved_requests(tok, per_user=1)
        pendings = [engine.begin_query(r) for r in requests]
        assert engine.stats()["pending_generations"] == \
            sum(not p.done for p in pendings)
        rounds = 0
        while not all(p.done for p in pendings):
            report = engine.run_decode_round()
            rounds += 1
            assert report.n_active >= report.n_retired
        assert rounds > 0
        reference = sequential(build_engine(setup), requests)
        assert [p.response for p in pendings] == reference
        assert engine.stats()["pending_generations"] == 0

    def test_round_telemetry_in_stats(self, setup):
        _, tok = setup
        engine = build_engine(setup)
        engine.answer_batch(interleaved_requests(tok))
        stats = engine.stats()
        assert stats["decode_rounds"] > 0
        assert stats["decode_tokens"] > 0
        assert 1.0 <= stats["batch_occupancy"] <= len(
            interleaved_requests(tok))
        assert stats["tokens_per_round"] <= stats["batch_occupancy"]
        assert stats["requests_served"] == 9
        # Every LaMP-2 text is 7 tokens and users share the soft-prompt
        # length: the rows share their round's attended length.
        assert 0 < stats["decode_grouped_rows"] <= stats["occupancy_sum"]
        assert stats["grouped_row_share"] == pytest.approx(
            stats["decode_grouped_rows"] / stats["occupancy_sum"])

    def test_lone_queries_group_no_rows(self, setup):
        _, tok = setup
        engine = build_engine(setup)
        for request in interleaved_requests(tok, per_user=1):
            engine.query(request)
        stats = engine.stats()
        assert stats["occupancy_sum"] > 0
        assert (stats["decode_grouped_rows"], stats["grouped_row_share"]) \
            == (0, 0.0)

    def test_stats_readable_mid_round(self, setup):
        """Counters only advance at retirement: a half-decoded batch shows
        pending generations, not phantom served requests."""
        _, tok = setup
        engine = build_engine(setup, user_ids=(0, 1))
        requests = interleaved_requests(tok, user_ids=(0, 1), per_user=1,
                                        temperature=0.0, max_new_tokens=6)
        pendings = [engine.begin_query(r) for r in requests]
        engine.run_decode_round()
        stats = engine.stats()
        assert stats["requests_served"] == sum(p.done for p in pendings)
        assert stats["pending_generations"] == \
            sum(not p.done for p in pendings)
        while not all(p.done for p in pendings):
            engine.run_decode_round()
        assert engine.stats()["requests_served"] == len(requests)

    def test_latency_counts_retrieval_and_prefill(self, setup, monkeypatch):
        """The request clock starts at the top of admission, on both
        entry points: a cold query's search and prefill are in
        ``latency_ms``."""
        _, tok = setup
        engine = build_engine(setup, user_ids=(0,))
        session = engine.session(0)
        clock = [100.0]
        monkeypatch.setattr("repro.serve.engine.time.perf_counter",
                            lambda: clock[0])

        def taking(seconds, method):
            def slow(*args, **kwargs):
                clock[0] += seconds
                return method(*args, **kwargs)
            return slow

        monkeypatch.setattr(CiMSearchEngine, "query_batch",
                            taking(2.0, CiMSearchEngine.query_batch))
        monkeypatch.setattr(session, "prefill_state",
                            taking(3.0, session.prefill_state))
        generation = GenerationConfig(max_new_tokens=3, temperature=0.0)
        first, second, third = (sample.input_text
                                for sample in stream_for(0, 3))
        pending = engine.begin_query(QueryRequest(
            user_id=0, text=first, generation=generation))
        while not pending.done:
            engine.run_decode_round()
        assert engine.stats()["latency_ms"]["max_ms"] == pytest.approx(5000.0)
        # One search, two prefills, and both answers waited for all of it.
        engine.answer_batch([QueryRequest(user_id=0, text=text,
                                          generation=generation)
                             for text in (second, third)])
        assert engine.stats()["latency_ms"]["max_ms"] == pytest.approx(8000.0)
        assert session.prefill_hits == 0                 # all three cold

    def test_empty_round_is_noop(self, setup):
        engine = build_engine(setup, user_ids=())
        report = engine.run_decode_round()
        assert report.n_active == 0
        assert engine.stats()["decode_rounds"] == 0


class TestEvictionDuringRounds:
    def test_lru_eviction_mid_round_finishes_cleanly(self, setup):
        """Regression: evicting a session whose generation is in flight
        must neither corrupt another session's slot nor lose the answer —
        both users' responses stay token-identical to the sequential
        reference."""
        _, tok = setup
        engine = build_engine(setup, user_ids=(0, 1), max_sessions=2)
        requests = interleaved_requests(tok, user_ids=(0, 1), per_user=1,
                                        temperature=0.0, max_new_tokens=8,
                                        use_eos=False)
        pendings = [engine.begin_query(r) for r in requests]
        engine.run_decode_round()
        assert not all(p.done for p in pendings)   # genuinely mid-flight
        engine.session(9)              # LRU-evicts user 0 mid-flight
        assert not engine.has_session(0)
        while not all(p.done for p in pendings):
            engine.run_decode_round()
        reference = sequential(build_engine(setup, user_ids=(0, 1)),
                               requests)
        assert [p.response for p in pendings] == reference
        assert engine.stats()["pending_generations"] == 0
        assert not any(p.cancelled for p in pendings)

    def test_drop_session_default_lets_generation_finish(self, setup):
        _, tok = setup
        engine = build_engine(setup, user_ids=(0, 1))
        requests = interleaved_requests(tok, user_ids=(0, 1), per_user=1,
                                        temperature=0.0, max_new_tokens=8,
                                        use_eos=False)
        pendings = [engine.begin_query(r) for r in requests]
        engine.run_decode_round()
        assert engine.drop_session(0)
        while not all(p.done for p in pendings):
            engine.run_decode_round()
        reference = sequential(build_engine(setup, user_ids=(0, 1)),
                               requests)
        assert [p.response for p in pendings] == reference

    def test_drop_session_cancel_pending_truncates_cleanly(self, setup):
        _, tok = setup
        engine = build_engine(setup, user_ids=(0, 1))
        # No EOS: every answer runs its full 8-token budget, so user 0's
        # generation is guaranteed to still be in flight when dropped.
        requests = interleaved_requests(tok, user_ids=(0, 1), per_user=1,
                                        temperature=0.0, max_new_tokens=8,
                                        use_eos=False)
        pendings = {r.user_id: engine.begin_query(r) for r in requests}
        engine.run_decode_round()
        assert engine.drop_session(0, cancel_pending=True)
        cancelled = pendings[0]
        assert cancelled.done and cancelled.cancelled
        while not all(p.done for p in pendings.values()):
            engine.run_decode_round()
        reference = {r.user_id: response for r, response in zip(
            requests,
            sequential(build_engine(setup, user_ids=(0, 1)), requests))}
        # The cancelled answer is a clean prefix of the full one; the
        # survivor's batch slot was untouched by the cancellation.
        assert reference[0].answer.startswith(cancelled.response.answer)
        assert pendings[1].response == reference[1]
        assert not pendings[1].cancelled
        assert engine.stats()["pending_generations"] == 0

    def test_in_flight_counter_tracks_admissions(self, setup):
        _, tok = setup
        engine = build_engine(setup, user_ids=(0,))
        request = QueryRequest(
            user_id=0, text=stream_for(0, 1)[0].input_text,
            generation=GenerationConfig(max_new_tokens=4, temperature=0.0,
                                        eos_id=tok.eos_id))
        session = engine.session(0)
        pending = engine.begin_query(request)
        assert session.generations_in_flight == (0 if pending.done else 1)
        while not pending.done:
            engine.run_decode_round()
        assert session.generations_in_flight == 0
        assert session.queries_served == 1
