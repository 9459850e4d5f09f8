"""Writes beside reads: a tune trains off the engine lock and publishes.

``PromptServeEngine.submit`` runs the epoch on a fork of the session's
pipeline while queries are served, then takes the engine lock once to
install the new library and program its crossbars.  These tests park the
epoch inside ``prepare`` (``tune_gate.EpochGate``) and check what the
rest of the engine sees meanwhile: the old library and deployment until
the publish, the new ones after it — never a mix — and answers equal to
a serial replay of the same order.
"""

import sys
import threading

import pytest

from repro.core import FrameworkConfig, OVTTrainingPipeline
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import GenerationConfig, PretrainConfig, build_model, pretrain_lm
from repro.serve import (
    PromptServeEngine,
    QueryRequest,
    SessionStore,
    TuneRequest,
    UserSession,
)
from tests.engine_calls import tune_one

from .tune_gate import Background, EpochGate


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


def fast_config():
    return FrameworkConfig.preset("fast")


def stream_for(user_id, count, seed=0):
    ds = make_dataset("LaMP-2")
    return ds.generate(make_user(user_id, seed=0), count, seed=seed)


def tune(user_id, round_index):
    """One epoch's worth (the preset's buffer) of a user's samples."""
    return TuneRequest(
        user_id=user_id,
        samples=tuple(stream_for(user_id, 10, seed=10 * user_id
                                 + round_index)),
        request_id=f"tune-{user_id}-{round_index}")


def ask(tok, user_id, k):
    """Greedy and EOS-free: six tokens, so a decode spans several rounds."""
    return QueryRequest(
        user_id=user_id, text=stream_for(user_id, 3 + k, seed=42)[-1]
        .input_text,
        generation=GenerationConfig(max_new_tokens=6, temperature=0.0,
                                    eos_id=None),
        request_id=f"q-{user_id}-{k}")


def tuned_engine(setup, users=(0, 1), **kwargs):
    model, tok = setup
    kwargs.setdefault("max_sessions", 4)
    engine = PromptServeEngine(model, tok, fast_config(), **kwargs)
    for user_id in users:
        engine.submit(tune(user_id, 0))
    return engine


class TestReadsDuringATune:
    def test_mid_epoch_query_sees_the_old_library_then_the_new(
            self, setup, monkeypatch):
        _, tok = setup
        engine = tuned_engine(setup)
        session = engine.session(0)
        old_deployment, old_library = session.deployment(), session.library
        before = engine.query(ask(tok, 0, 0))

        gate = EpochGate(monkeypatch)
        tuning = Background(engine.submit, tune(0, 1))
        gate.wait_entered()
        assert engine.stats()["tunes_in_flight"] == 1
        mid = engine.query(ask(tok, 0, 0))
        assert mid == before
        assert session.deployment() is old_deployment
        assert session.library is old_library
        gate.release()
        response = tuning.result()

        assert engine.stats()["tunes_in_flight"] == 0
        assert response.epochs_fired == 1
        deployment = session.deployment()
        assert deployment is not old_deployment
        assert deployment.library is session.library is not old_library
        after = engine.query(ask(tok, 0, 0))
        assert after.n_ovts == response.library_size == len(session.library)
        assert after.n_ovts > before.n_ovts == len(old_library)

    def test_answers_equal_a_serial_replay(self, setup, monkeypatch):
        """Queries before, during (one admitted mid-epoch and decoding
        across the publish) and after a tune answer as the same order
        served one call at a time on an engine without threads."""
        _, tok = setup
        engine = tuned_engine(setup)
        before = engine.answer_batch([ask(tok, 0, 0), ask(tok, 1, 0)])
        gate = EpochGate(monkeypatch)
        tuning = Background(engine.submit, tune(0, 1))
        gate.wait_entered()
        mid = engine.answer_batch([ask(tok, 0, 1), ask(tok, 1, 1)])
        straddling = engine.begin_query(ask(tok, 0, 2))
        engine.run_decode_round()
        gate.release()
        published = tuning.result()
        while not straddling.done:
            engine.run_decode_round()
        after = engine.answer_batch([ask(tok, 0, 1), ask(tok, 1, 1),
                                     ask(tok, 0, 2)])
        monkeypatch.undo()

        replay = tuned_engine(setup)
        expected = [replay.query(r) for r in (
            ask(tok, 0, 0), ask(tok, 1, 0), ask(tok, 0, 1), ask(tok, 1, 1),
            ask(tok, 0, 2))]
        assert replay.submit(tune(0, 1)) == published
        expected += [replay.query(r) for r in (
            ask(tok, 0, 1), ask(tok, 1, 1), ask(tok, 0, 2))]
        assert [*before, *mid, straddling.response, *after] == expected
        assert straddling.response.n_ovts < after[2].n_ovts

    def test_response_reports_the_library_the_tune_published(
            self, setup, monkeypatch):
        """A ``load_session`` racing the end of a tune cannot change the
        ``library_size`` the tune reports: the response is built in the
        same hold of the engine lock as the publish.  The race runs the
        moment the tune reads the session's library; it can only land
        while the engine lock is free."""
        model, tok = setup
        engine = tuned_engine(setup, users=(0,))
        donor = OVTTrainingPipeline(model, tok, fast_config()).run(
            [sample for round_index in range(3)
             for sample in tune(9, round_index).samples])
        expected = tuned_engine(setup, users=(0,)).submit(tune(0, 1))
        assert len(donor) != expected.library_size

        armed = []
        library = UserSession.library

        def racing_load():
            if engine._lock.acquire(blocking=False):
                try:
                    engine.load_session(0, donor)
                finally:
                    engine._lock.release()

        def read_library(session):
            if armed:
                armed.clear()
                Background(racing_load).result()
            return library.fget(session)

        monkeypatch.setattr(UserSession, "library", property(read_library))
        armed.append(True)
        assert engine.submit(tune(0, 1)) == expected


class TestLifecycleDuringATune:
    def test_a_tuning_session_is_not_an_lru_victim(self, setup,
                                                   monkeypatch):
        """With no other session to spill the engine runs over capacity
        by one until the publish, then evicts as usual — here the tuned
        user, spilled with what the tune published."""
        engine = tuned_engine(setup, users=(0,), max_sessions=1,
                              session_store=SessionStore())
        gate = EpochGate(monkeypatch)
        tuning = Background(engine.submit, tune(0, 1))
        gate.wait_entered()
        engine.session(1)
        assert engine.active_users() == [0, 1]
        stats = engine.stats()
        assert (stats["evicted_sessions"], stats["tunes_in_flight"]) == (0, 1)
        gate.release()
        response = tuning.result()
        assert engine.active_users() == [1]
        assert engine.stats()["sessions_spilled"] == 1
        assert len(engine.session(0).library) == response.library_size

    def test_a_tuning_lru_session_is_passed_over(self, setup, monkeypatch):
        engine = tuned_engine(setup, max_sessions=2)
        gate = EpochGate(monkeypatch)
        tuning = Background(engine.submit, tune(0, 1))
        gate.wait_entered()
        engine.session(1)
        assert engine.active_users() == [0, 1]       # 0 is least recent
        engine.session(2)                            # evicts 1, not 0
        assert engine.active_users() == [0, 2]
        gate.release()
        tuning.result()
        assert engine.active_users() == [0, 2]
        assert engine.evicted_sessions == 1

    def test_drop_during_a_tune_wins(self, setup, monkeypatch):
        """The tune publishes nothing and fails visibly; the user comes
        back from the store as the drop left them, and the same tune
        submitted again is absorbed."""
        engine = tuned_engine(setup, users=(0,),
                              session_store=SessionStore())
        size = len(engine.session(0).library)
        gate = EpochGate(monkeypatch)
        tuning = Background(engine.submit, tune(0, 1))
        gate.wait_entered()
        assert engine.drop_session(0)
        gate.release()
        with pytest.raises(KeyError, match="dropped during the tune"):
            tuning.result()
        assert not engine.has_session(0)
        assert engine.stats()["tunes_in_flight"] == 0
        session = engine.session(0)
        assert len(session.library) == size
        assert session.pipeline.buffer.samples == []
        assert engine.submit(tune(0, 1)).epochs_fired == 1
        assert len(session.library) > size


class TestRacingTunes:
    def test_racing_tunes_of_one_user_lose_no_epoch(self, setup):
        """Three threads per user tune two users while a fourth serves
        queries, with a short switch interval: tunes of one user
        serialise, so every publish grows the library and none is lost —
        a tune that forked a stale pipeline would publish a library no
        larger than another's and drop that tune's epoch."""
        _, tok = setup
        engine = tuned_engine(setup)
        sizes = {user: len(engine.session(user).library) for user in (0, 1)}
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                engine.answer_batch([ask(tok, 0, 0), ask(tok, 1, 0)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            server = Background(serve)
            tunes = [Background(engine.submit, tune(user, round_index))
                     for round_index in (1, 2, 3) for user in (0, 1)]
            responses = [tuning.result() for tuning in tunes]
            stop.set()
            server.result()
        finally:
            sys.setswitchinterval(interval)
        for user in (0, 1):
            published = sorted(r.library_size for r in responses
                               if r.user_id == user)
            session = engine.session(user)
            assert len(set(published)) == 3 and published[0] > sizes[user]
            assert published[-1] == len(session.library)
            assert session.epochs_completed == 4
        assert all(r.epochs_fired == 1 for r in responses)
        assert engine.stats()["tunes_in_flight"] == 0


class TestOneTunePath:
    def test_engine_observe_goes_through_prepare_and_publish(
            self, setup, monkeypatch):
        engine = tuned_engine(setup, users=())
        calls = []
        for name in ("prepare", "publish"):
            original = getattr(UserSession, name)
            monkeypatch.setattr(
                UserSession, name,
                lambda self, *a, _f=original, _n=name: (calls.append(_n),
                                                        _f(self, *a))[1])
        fired = [tune_one(engine, 0, sample)
                 for sample in tune(0, 0).samples]
        assert fired == [False] * 9 + [True]
        assert calls == ["prepare", "publish"] * 10
        assert engine.session(0).is_deployed

    def test_one_session_engine_deploys_when_the_epoch_publishes(self, setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=1)
        for sample in tune(0, 0).samples:
            tune_one(engine, 0, sample)
        assert engine.session(0).is_deployed
        assert engine.stats()["cim_write_pulses"] > 0

    def test_epoch_leaves_the_published_library_untouched(self, setup):
        """An epoch builds a new library; the one a deployment serves is
        never changed in place — neither its OVT list nor the weights of
        its autoencoder."""
        model, tok = setup
        session = UserSession(3, model, tok, fast_config())
        session.publish(*session.prepare(list(tune(3, 0).samples)))
        library = session.library
        ovts = list(library.ovts)
        weights = [p.data.copy()
                   for p in library.autoencoder.parameters()]
        session.publish(*session.prepare(list(tune(3, 1).samples)))
        assert session.library is not library
        assert library.ovts == ovts
        assert all((p.data == w).all() for p, w in
                   zip(library.autoencoder.parameters(), weights))
        assert session.library.autoencoder is not library.autoencoder

