"""Thread-safety tests for the serving engine's decode hot path.

The gateway drives ``begin_query``/``run_decode_round`` from a worker
thread while HTTP handlers call ``submit``/``stats``/``drop_session``
from others, so the engine's lock must make arbitrary interleavings of
its entry points equivalent to *some* sequential order — admissions land
in batch slots exactly once, eviction mid-round cannot corrupt another
user's answer, and racing producers' admissions are each counted once.
"""

import threading

import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import GenerationConfig, PretrainConfig, build_model, pretrain_lm
from repro.serve import PromptServeEngine, QueryRequest, TuneRequest
from tests.engine_calls import tune_one


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


def build_engine(setup, user_ids=(0, 1, 2), **engine_kwargs):
    model, tok = setup
    engine = PromptServeEngine(model, tok, fast_config(),
                               max_sessions=engine_kwargs.pop(
                                   "max_sessions", 4),
                               **engine_kwargs)
    for user_id in user_ids:
        engine.submit(TuneRequest(
            user_id=user_id,
            samples=tuple(stream_for(user_id, 10, seed=user_id))))
    return engine


def requests_for(tok, user_ids=(0, 1, 2), per_user=2):
    generation = GenerationConfig(max_new_tokens=6, temperature=0.1,
                                  seed=3, eos_id=tok.eos_id)
    return [QueryRequest(user_id=user_id, text=sample.input_text,
                         generation=generation,
                         request_id=f"u{user_id}-q{i}")
            for user_id in user_ids
            for i, sample in enumerate(stream_for(user_id, per_user,
                                                  seed=42))]


def drive_until_done(engine, handles, max_rounds=2000):
    rounds = 0
    while not all(p.done for p in handles):
        engine.run_decode_round()
        rounds += 1
        assert rounds < max_rounds, "decode did not converge"


class TestConcurrentAdmissionAndRounds:
    def test_threaded_begin_query_matches_sequential(self, setup):
        _, tok = setup
        engine = build_engine(setup)
        requests = requests_for(tok)
        # The reference from an engine of its own: the threaded queries
        # share no prefill slot with it, so each one decodes.
        reference_engine = build_engine(setup)
        reference = [reference_engine.query(request) for request in requests]

        handles = [None] * len(requests)
        start = threading.Barrier(4)
        stop = threading.Event()

        def submitter(user_id):
            start.wait()
            for index, request in enumerate(requests):
                if request.user_id == user_id:
                    handles[index] = engine.begin_query(request)

        def driver():
            start.wait()
            while not stop.is_set():
                engine.run_decode_round()

        submitters = [threading.Thread(target=submitter, args=(uid,))
                      for uid in (0, 1, 2)]
        rounds = threading.Thread(target=driver)
        for thread in (*submitters, rounds):
            thread.start()
        for thread in submitters:
            thread.join(timeout=60)
        try:
            drive_until_done(engine, [h for h in handles if h is not None])
        finally:
            stop.set()
            rounds.join(timeout=60)
        assert all(handle is not None for handle in handles)
        assert [handle.response for handle in handles] == reference
        stats = engine.stats()
        assert stats["answer_hits"] == 0
        # Every query prefilled its own slot and decoded in rounds.
        assert stats["prefill_rows"] == len(requests)
        assert stats["decode_rounds"] > 0

    def test_eviction_mid_round_under_load(self, setup):
        _, tok = setup
        engine = build_engine(setup)
        requests = requests_for(tok)
        survivors = [r for r in requests if r.user_id != 1]
        # The reference from an engine of its own, so that the survivors
        # decode here, in rounds shared with the evicted user's queries.
        reference_engine = build_engine(setup)
        reference = {r.request_id: reference_engine.query(r)
                     for r in survivors}

        handles = [engine.begin_query(r) for r in requests]
        assert not any(handle.done for handle in handles)
        engine.run_decode_round()          # everyone produces a token
        start = threading.Barrier(2)
        evicted = []

        def evictor():
            start.wait()
            evicted.append(engine.drop_session(1, cancel_pending=True))

        thread = threading.Thread(target=evictor)
        thread.start()
        start.wait()
        drive_until_done(engine, handles)
        thread.join(timeout=60)
        assert evicted == [True]
        for request, handle in zip(requests, handles):
            if request.user_id == 1:
                assert handle.done      # cancelled or completed, never lost
            else:
                assert not handle.cancelled
                assert handle.response == reference[request.request_id]
        assert engine.stats()["answer_hits"] == 0

    def test_concurrent_stats_and_observes_during_rounds(self, setup):
        _, tok = setup
        engine = build_engine(setup)
        handles = [engine.begin_query(r) for r in requests_for(tok)]
        errors = []
        stop = threading.Event()
        # A few extra observations (not enough to fire a retraining
        # epoch) racing the decode rounds, plus a stats poll per lap.
        extras = iter(stream_for(0, 5, seed=77))

        def poker():
            try:
                while not stop.is_set():
                    stats = engine.stats()
                    assert stats["pending_generations"] >= 0
                    sample = next(extras, None)
                    if sample is not None:
                        tune_one(engine, 0, sample)
            except Exception as error:      # pragma: no cover
                errors.append(error)

        thread = threading.Thread(target=poker)
        thread.start()
        try:
            drive_until_done(engine, handles)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not errors
        assert all(handle.response.answer is not None
                   for handle in handles)


class TestAdmissionCounts:
    """The engine bounds no admission (the gateway's ``max_batch`` and
    ``max_queue`` do): every ``begin_query`` is admitted, and
    ``pending_generations`` is exactly the generations in flight."""

    def test_pending_generations_is_exact(self, setup):
        _, tok = setup
        engine = build_engine(setup, user_ids=(0,))
        requests = requests_for(tok, user_ids=(0,), per_user=3)
        handles = []
        for count, request in enumerate(requests, start=1):
            handles.append(engine.begin_query(request))
            stats = engine.stats()
            assert stats["pending_generations"] == count
            assert stats["admitted"] == count
        drive_until_done(engine, handles[:2])
        engine.cancel_query(handles[2])
        stats = engine.stats()
        assert stats["pending_generations"] == 0
        assert stats["admitted"] == 3

    def test_racing_producers_are_all_admitted(self, setup):
        _, tok = setup
        engine = build_engine(setup)
        requests = requests_for(tok, per_user=4)
        admitted = []
        lock = threading.Lock()
        start = threading.Barrier(3)

        def producer(user_id):
            start.wait()
            for request in requests:
                if request.user_id != user_id:
                    continue
                handle = engine.begin_query(request)
                with lock:
                    admitted.append(handle)

        threads = [threading.Thread(target=producer, args=(uid,))
                   for uid in (0, 1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # Nothing drains the decoder while the producers race, so every
        # admission is still pending, each counted once.
        assert len(admitted) == len(requests) == 12
        stats = engine.stats()
        assert stats["pending_generations"] == 12
        assert stats["admitted"] == 12
        drive_until_done(engine, admitted)
        assert engine.stats()["pending_generations"] == 0
        by_id = {handle.request.request_id: handle.response.answer
                 for handle in admitted}
        assert by_id == {request.request_id: engine.query(request).answer
                         for request in requests}


class TestCancellation:
    def test_cancel_query_retires_with_prefix(self, setup):
        _, tok = setup
        engine = build_engine(setup, user_ids=(0,))
        # No EOS and a long budget: the generation must still be in
        # flight after two rounds so the cancel lands mid-decode.
        generation = GenerationConfig(max_new_tokens=16, temperature=0.1,
                                      seed=3, eos_id=None)
        sample = next(iter(stream_for(0, 1, seed=42)))
        request = QueryRequest(user_id=0, text=sample.input_text,
                               generation=generation, request_id="cancel-0")
        # The full answer from an engine of its own, so that the query
        # below shares no prefill slot with it and decodes.
        full = build_engine(setup, user_ids=(0,)).query(request)
        pending = engine.begin_query(request)
        engine.run_decode_round()
        engine.run_decode_round()
        assert engine.cancel_query(pending) is True
        assert pending.done
        assert pending.cancelled
        assert full.answer.startswith(pending.response.answer)
        # Cancelling a finished query is a no-op.
        assert engine.cancel_query(pending) is False

    def test_latency_histogram_records_served_queries(self, setup):
        _, tok = setup
        engine = build_engine(setup, user_ids=(0,))
        for request in requests_for(tok, user_ids=(0,), per_user=3):
            engine.query(request)
        latency = engine.stats()["latency_ms"]
        assert latency["count"] == 3
        assert 0.0 < latency["p50_ms"] <= latency["p99_ms"] <= \
            latency["max_ms"]
