"""Tests for the multi-user serving layer."""

import math

import numpy as np
import pytest

from repro.cim import CIM_TECH
from repro.core import FrameworkConfig, OVTTrainingPipeline
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import (
    GenerationConfig,
    PretrainConfig,
    build_model,
    pretrain_lm,
)
from repro.serve import (
    PromptServeEngine,
    QueryRequest,
    TuneRequest,
    UserSession,
)
from repro.retrieval import CiMSearchEngine
from repro.serve.session import PrefillBatch
from repro.tuning import TuningConfig
from tests.engine_calls import answer_text, tune_one
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


def donor_library(model, tok, user_id=1):
    """A library trained elsewhere, for ``load_session`` / adoption."""
    return OVTTrainingPipeline(model, tok, fast_config()).run(
        stream_for(user_id, 10, seed=user_id))


def tune_session(session, samples):
    """The engine's tune on a bare session: prepare, then publish."""
    pipeline, epochs = session.prepare(samples)
    session.publish(pipeline, epochs)
    return epochs


def fast_generation(tok, n=3):
    return GenerationConfig(max_new_tokens=n, temperature=0.0,
                            eos_id=tok.eos_id)


@pytest.fixture(scope="module")
def trained_engine(setup):
    """An engine with three users' libraries trained (10 samples each)."""
    model, tok = setup
    engine = PromptServeEngine(model, tok, fast_config(), max_sessions=4)
    for user_id in (0, 1, 2):
        engine.submit(TuneRequest(user_id=user_id,
                                  samples=tuple(stream_for(user_id, 10,
                                                           seed=user_id))))
    return engine


class TestRequestObjects:
    def test_tune_request_needs_samples(self):
        with pytest.raises(ValueError):
            TuneRequest(user_id=0, samples=())

    def test_tune_request_coerces_lists(self):
        request = TuneRequest(user_id=0, samples=stream_for(0, 2))
        assert isinstance(request.samples, tuple)

    def test_query_request_needs_text(self):
        for text in ("", "   ", " \t\n"):   # blank tokenizes to nothing
            with pytest.raises(ValueError):
                QueryRequest(user_id=0, text=text)


class TestMultiUserServing:
    def test_three_users_share_one_model(self, trained_engine, setup):
        model, _ = setup
        assert len(trained_engine.active_users()) == 3
        for user_id in (0, 1, 2):
            session = trained_engine.session(user_id)
            assert session.model is model          # one shared base model
            assert len(session.library) >= 1       # personal OVT library

    def test_libraries_are_isolated(self, trained_engine):
        libraries = [trained_engine.session(uid).library for uid in (0, 1, 2)]
        assert len({id(lib) for lib in libraries}) == 3
        for a in range(3):
            for b in range(a + 1, 3):
                for ovt_a in libraries[a].ovts:
                    for ovt_b in libraries[b].ovts:
                        assert ovt_a is not ovt_b

    def test_answers_come_from_own_library(self, trained_engine, setup):
        """User A's response must be served from A's OVTs: same query text,
        different users, different retrieval stores."""
        model, tok = setup
        text = stream_for(0, 1)[0].input_text
        generation = fast_generation(tok)
        responses = {
            uid: trained_engine.query(QueryRequest(user_id=uid, text=text,
                                                   generation=generation))
            for uid in (0, 1, 2)
        }
        for uid, response in responses.items():
            session = trained_engine.session(uid)
            assert response.n_ovts == len(session.library)
            assert 0 <= response.ovt_index < response.n_ovts
            assert len(response.scores) == response.n_ovts
            # The reported index is the argmax of the reported scores.
            assert response.ovt_index == int(np.argmax(response.scores))

    def test_matches_a_one_session_engine(self, setup):
        """The engine must answer exactly like a one-session engine that
        absorbed the same stream one sample at a time (no cross-user
        leakage)."""
        model, tok = setup
        stream = stream_for(5, 10, seed=5)
        query = stream_for(5, 1, seed=123)[0].input_text
        generation = fast_generation(tok)

        single = PromptServeEngine(model, tok, fast_config(), max_sessions=1)
        for sample in stream:
            tune_one(single, 5, sample)

        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=4)
        # Another user's data lives alongside and must not interfere.
        engine.submit(TuneRequest(user_id=9,
                                  samples=tuple(stream_for(9, 10, seed=9))))
        engine.submit(TuneRequest(user_id=5, samples=tuple(stream)))
        assert answer_text(engine, 5, query, generation) == \
            answer_text(single, 5, query, generation)


class TestLRUEviction:
    def test_capacity_bound_and_lru_order(self, setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        engine.session(0)
        engine.session(1)
        engine.session(0)              # touch 0: now 1 is least-recent
        engine.session(2)              # evicts 1
        assert engine.active_users() == [0, 2]
        assert not engine.has_session(1)
        assert engine.has_session(0)
        assert engine.evicted_sessions == 1

    def test_evicted_user_restarts_empty(self, setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=1)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        assert len(engine.session(0).library) >= 1
        engine.session(1)              # evicts user 0's library
        assert len(engine.session(0).library) == 0   # fresh session
        assert engine.evicted_sessions == 2          # 0 then 1 were evicted

    def test_invalid_capacity_rejected(self, setup):
        model, tok = setup
        with pytest.raises(ValueError):
            PromptServeEngine(model, tok, fast_config(), max_sessions=0)

    def test_stray_query_cannot_evict_resident_library(self, setup):
        """Inference never creates sessions: a query for an unknown user
        fails cleanly instead of LRU-evicting a trained library."""
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=1)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        with pytest.raises(KeyError, match="no session for user 99"):
            engine.query(QueryRequest(user_id=99, text="movie about tag",
                                      generation=fast_generation(tok)))
        assert engine.active_users() == [0]
        assert engine.evicted_sessions == 0
        assert len(engine.session(0).library) >= 1   # library survived


class TestBatching:
    def test_batch_matches_sequential(self, trained_engine, setup):
        _, tok = setup
        generation = fast_generation(tok)
        requests = []
        for uid in (0, 1, 2):
            for i, sample in enumerate(stream_for(uid, 3, seed=42)):
                requests.append(QueryRequest(
                    user_id=uid, text=sample.input_text,
                    generation=generation, request_id=f"u{uid}-q{i}"))
        requests = requests[::2] + requests[1::2]    # interleave users

        sequential = [trained_engine.query(r) for r in requests]
        # Clear the prefill LRUs the sequential pass populated, so the
        # batched pass prefills independently instead of decoding from the
        # very states the sequential answers came from.
        for uid in (0, 1, 2):
            trained_engine.session(uid)._prefill_states.clear()
        batched = trained_engine.answer_batch(requests)
        assert [r.answer for r in batched] == [r.answer for r in sequential]
        assert [r.ovt_index for r in batched] == \
            [r.ovt_index for r in sequential]
        # ... and both are what the sequential autograd oracle decodes.
        assert [r.answer for r in batched] == \
            [answer_sequential(trained_engine, r) for r in requests]
        # Input order and request ids are preserved.
        assert [r.request_id for r in batched] == \
            [r.request_id for r in requests]

    def test_failed_admission_mid_batch_leaves_nothing_pending(
            self, trained_engine, setup):
        """One user's second text cannot be served: the first is drained
        to completion, as a loop of query() calls would have served it."""
        _, tok = setup
        served = trained_engine.stats()["requests_served"]
        requests = [QueryRequest(user_id=0, text=text,
                                 generation=fast_generation(tok))
                    for text in ("movie about robot tag",
                                 " ".join(["movie"] * 300))]
        with pytest.raises(ValueError, match="no room to generate"):
            trained_engine.answer_batch(requests)
        stats = trained_engine.stats()
        assert stats["pending_generations"] == 0
        assert stats["requests_served"] == served + 1

    def test_submit_batch_groups_by_user(self, setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=4)
        chunks = {uid: stream_for(uid, 5, seed=uid) for uid in (3, 4)}
        # Interleaved half-buffers: grouping by user means each user's 10
        # samples land contiguously and fire exactly one epoch.
        requests = [
            TuneRequest(user_id=3, samples=tuple(chunks[3])),
            TuneRequest(user_id=4, samples=tuple(chunks[4])),
            TuneRequest(user_id=3, samples=tuple(stream_for(3, 5, seed=30))),
            TuneRequest(user_id=4, samples=tuple(stream_for(4, 5, seed=40))),
        ]
        responses = engine.submit_batch(requests)
        assert [r.user_id for r in responses] == [3, 4, 3, 4]
        assert responses[2].epochs_fired == 1
        assert responses[3].epochs_fired == 1
        assert len(engine.session(3).library) >= 1
        assert len(engine.session(4).library) >= 1

    def test_telemetry_populated(self, trained_engine, setup):
        _, tok = setup
        text = stream_for(0, 1)[0].input_text
        response = trained_engine.query(QueryRequest(
            user_id=0, text=text, generation=fast_generation(tok)))
        assert response.backend == "FeFET"           # NVM-3 is FeFET3
        assert response.latency_ns > 0
        assert response.energy_pj > 0
        assert response.latency_us == pytest.approx(response.latency_ns / 1e3)
        assert response.text == text

    def test_telemetry_is_the_price_of_the_deployments_banks(
            self, trained_engine, setup):
        """An answer's latency and energy bill the tiles its deployment's
        banks occupy, and the conversions and MVMs its retrieval moved:
        nothing of an erased cell."""
        _, tok = setup
        deployment = trained_engine.session(0).deployment()
        banks = [store.bank for store in deployment.engine._stores.values()]
        before = deployment.engine.aggregate_stats()
        response = trained_engine.query(QueryRequest(
            user_id=0, text=stream_for(0, 1)[0].input_text,
            generation=fast_generation(tok)))
        after = deployment.engine.aggregate_stats()
        tech = CIM_TECH[response.backend]
        cells = sum(int(bank.extent.prod(axis=1).sum()) for bank in banks)
        assert response.energy_pj == pytest.approx(
            cells * tech.cell_read_energy_fj * 1e-3
            + (after.adc_conversions - before.adc_conversions)
            * tech.adc_energy_pj
            + (after.mvm_ops - before.mvm_ops) * tech.periphery_energy_pj)
        waves = tech.parallel_subarrays
        latency = 0.0
        for bank in banks:
            per_tile = [tech.array_read_latency_ns
                        + math.ceil(used_cols / tech.adcs_per_subarray)
                        * tech.adc_time_ns
                        for _, used_cols in bank.extent]
            latency += sum(max(per_tile[i:i + waves])
                           for i in range(0, len(per_tile), waves))
        assert response.latency_ns == pytest.approx(latency)
        # Priced once per deployment, not per admission.
        assert deployment.query_cost is deployment.query_cost

    def test_a_deployment_is_priced_once_not_per_admission(
            self, setup, monkeypatch):
        model, tok = setup
        priced = []
        query_cost = CiMSearchEngine.query_cost

        def counting(engine):
            priced.append(engine)
            return query_cost(engine)

        monkeypatch.setattr(CiMSearchEngine, "query_cost", counting)
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        texts = [sample.input_text for sample in stream_for(0, 3, seed=5)]
        generation = fast_generation(tok)
        first = engine.query(QueryRequest(user_id=0, text=texts[0],
                                          generation=generation))
        batch = engine.answer_batch([
            QueryRequest(user_id=0, text=text, generation=generation)
            for text in texts])
        assert len(priced) == 1
        assert {(r.energy_pj, r.latency_ns) for r in batch} \
            == {(first.energy_pj, first.latency_ns)}


class TestPrefillSharing:
    def test_repeated_query_hits_prefill_cache(self, setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        text = stream_for(0, 1)[0].input_text
        # No EOS: three tokens, so the answer is still in flight after
        # admission.
        generation = GenerationConfig(max_new_tokens=3, temperature=0.0)
        request = QueryRequest(user_id=0, text=text, generation=generation)
        pending = engine.begin_query(request)
        assert engine.stats()["prefill_hits"] == 0
        # The slot holds its KV while the answer is in flight and lets
        # go of it once the answer lands.
        assert not pending.done
        assert engine.stats()["prefill_cache_bytes"] > 0
        while not pending.done:
            engine.run_decode_round()
        assert engine.stats()["prefill_cache_bytes"] == 0
        second = engine.begin_query(request)
        assert second.done
        stats = engine.stats()
        assert (stats["prefill_hits"], stats["answer_hits"]) == (1, 1)
        assert second.response.answer == pending.response.answer

    def test_batch_shares_prefill_and_matches_sequential(self, setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        text = stream_for(0, 1)[0].input_text
        generation = fast_generation(tok)
        requests = [QueryRequest(user_id=0, text=text, generation=generation,
                                 request_id=f"q{i}") for i in range(4)]
        batched = engine.answer_batch(requests)
        # 4 identical prompts -> one prefill, three cache hits.
        assert engine.stats()["prefill_hits"] == 3
        # Sequential reference on an independently trained engine (same
        # seeds -> same library/deployment), so the comparison does not
        # just read back the cache the batch populated.
        fresh = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        fresh.submit(TuneRequest(user_id=0,
                                 samples=tuple(stream_for(0, 10))))
        sequential = [fresh.query(r) for r in requests]
        assert [r.answer for r in batched] == [r.answer for r in sequential]

    def test_cache_hit_skips_prompt_restore(self, setup):
        """On a prefill hit the NVM read-back is skipped entirely — the
        restore callable must not be invoked."""
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        session = engine.session(0)
        deployment = session.deployment()
        calls = {"n": 0}

        def restore():
            calls["n"] += 1
            return deployment.restored_prompt(0)

        batch = PrefillBatch(model)
        first = session.prefill_state("movie about robot tag", 0, restore,
                                      batch, None)
        second = session.prefill_state("movie about robot tag", 0, restore,
                                       batch, None)
        assert second is first and first.state is None
        assert calls["n"] == 1 and len(batch) == 1
        assert batch.run() == 1
        later = session.prefill_state("movie about robot tag", 0, restore,
                                      PrefillBatch(model), None)
        assert later is first and later.state is not None
        assert calls["n"] == 1

    def test_prefill_hits_survive_eviction(self, setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=1)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        request = QueryRequest(user_id=0,
                               text=stream_for(0, 1)[0].input_text,
                               generation=fast_generation(tok))
        engine.query(request)
        engine.query(request)
        assert engine.stats()["prefill_hits"] == 1
        engine.session(1)              # evicts user 0
        assert engine.stats()["prefill_hits"] == 1   # monotonic counter

    def test_training_invalidates_prefill_cache(self, setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        text = stream_for(0, 1)[0].input_text
        engine.query(QueryRequest(user_id=0, text=text,
                                  generation=fast_generation(tok)))
        session = engine.session(0)
        assert len(session._prefill_states) == 1
        # Another epoch restores different prompts: cached states are stale.
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10, seed=1))))
        assert len(session._prefill_states) == 0

    def test_adopt_library_invalidates_prefill_cache(self, setup):
        model, tok = setup
        donor = donor_library(model, tok)
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        text = stream_for(0, 1)[0].input_text
        engine.query(QueryRequest(user_id=0, text=text,
                                  generation=fast_generation(tok)))
        assert len(engine.session(0)._prefill_states) == 1
        engine.load_session(0, donor)
        assert len(engine.session(0)._prefill_states) == 0


class TestUserSession:
    def test_deployment_invalidated_by_new_epoch(self, setup):
        """Publishing an epoch retires the old deployment and programs the
        new library at once; the retired one never saw the epoch."""
        model, tok = setup
        session = UserSession(7, model, tok, fast_config())
        assert tune_session(session, stream_for(7, 10, seed=7)) == 1
        assert session.is_deployed                   # written at publish
        first, first_library = session.deployment(), session.library
        n_ovts = len(first_library)
        assert tune_session(session, stream_for(7, 10, seed=8)) == 1
        assert session.is_deployed
        second = session.deployment()
        assert second is not first
        assert second.library is session.library is not first_library
        assert first.library is first_library
        assert len(first_library) == n_ovts < len(session.library)
        # Samples that fire no epoch change no crossbar.
        assert tune_session(session, stream_for(7, 3, seed=9)) == 0
        assert session.deployment() is second

    def test_answer_without_library_raises(self, setup):
        model, tok = setup
        session = UserSession(7, model, tok, fast_config())
        with pytest.raises(RuntimeError, match="no OVTs trained"):
            session.deployment()

    def test_adopt_library(self, setup):
        model, tok = setup
        donor = donor_library(model, tok)
        session = UserSession(2, model, tok, fast_config())
        session.adopt_library(donor)
        assert session.library is donor
        assert session.deployment().engine.n_stored == len(donor)


class TestConfigSurface:
    def test_round_trip_default(self):
        config = FrameworkConfig()
        assert FrameworkConfig.from_dict(config.to_dict()) == config

    def test_round_trip_customised(self):
        from repro.retrieval import SearchConfig
        config = FrameworkConfig(
            buffer_capacity=12, device_name="NVM-5", sigma=0.05,
            retrieval="mips", mitigation="swv", noise_aware=False,
            code_dim=32, tuning=TuningConfig(steps=7, lr=0.01),
            noise_factors=(1.0, 2.0, 2.0, 1.0),
            search=SearchConfig(scales=(1, 2), weights=(1.0, 0.5)),
            seed=3)
        assert FrameworkConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_compatible(self):
        import json
        dumped = json.dumps(FrameworkConfig().to_dict())
        assert FrameworkConfig.from_dict(json.loads(dumped)) == \
            FrameworkConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="buffer_size"):
            FrameworkConfig.from_dict({"buffer_size": 10})
        # Nested sections name the section; the retired switches take
        # exactly this path when a persisted JSON config still has them.
        for data, key in [({"tuning": {"steps": 3, "batched": True}},
                           "tuning.batched"),
                          ({"k_selection": {"n_maxx": 4}},
                           "k_selection.n_maxx"),
                          ({"search": {"scale": [1]}}, "search.scale"),
                          ({"vectorized": True}, "vectorized")]:
            with pytest.raises(
                    ValueError,
                    match=f"unknown FrameworkConfig keys.*'{key}'"):
                FrameworkConfig.from_dict(data)

    def test_every_preset_builds_and_round_trips(self):
        for name in ("table1", "fast"):
            config = FrameworkConfig.preset(name)
            assert FrameworkConfig.from_dict(config.to_dict()) == config

    def test_preset_overrides(self):
        config = FrameworkConfig.preset("table1", device_name="NVM-5",
                                        sigma=0.025)
        assert config.device_name == "NVM-5"
        assert config.sigma == 0.025

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            FrameworkConfig.preset("table99")


class TestCiMTelemetry:
    def test_stats_expose_crossbar_counters(self, trained_engine, setup):
        """The serve dashboard aggregates each deployment's operation
        counters (vectorially summed from the tile banks)."""
        _, tok = setup
        text = stream_for(0, 1)[0].input_text
        trained_engine.query(QueryRequest(
            user_id=0, text=text, generation=fast_generation(tok)))
        stats = trained_engine.stats()
        assert stats["cim_mvm_ops"] > 0
        assert stats["cim_adc_conversions"] > 0
        assert stats["cim_write_pulses"] > 0
        before = stats["cim_mvm_ops"]
        trained_engine.query(QueryRequest(
            user_id=0, text=text + " again",
            generation=fast_generation(tok)))
        assert trained_engine.stats()["cim_mvm_ops"] > before

    def test_cim_counters_monotonic_across_retrain_and_drop(self, setup):
        """Crossbar counters are cumulative: retraining reprograms fresh
        matrices and dropping evicts the session, but the engine banks the
        retired deployments' counters instead of forgetting them."""
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=2)
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10))))
        text = stream_for(0, 1)[0].input_text
        engine.query(QueryRequest(user_id=0, text=text,
                                  generation=fast_generation(tok)))
        first = engine.stats()["cim_mvm_ops"]
        assert first > 0
        # Retrain: the old deployment retires, its counters are banked.
        engine.submit(TuneRequest(user_id=0,
                                  samples=tuple(stream_for(0, 10, seed=7))))
        engine.query(QueryRequest(user_id=0, text=text,
                                  generation=fast_generation(tok)))
        after_retrain = engine.stats()["cim_mvm_ops"]
        assert after_retrain > first
        # Drop: the session leaves, the totals must not run backwards.
        engine.drop_session(0)
        assert engine.stats()["cim_mvm_ops"] >= after_retrain

    def test_batched_retrieval_bills_like_sequential(self, setup):
        """The hardware counters (the energy model's input) do not depend
        on how requests were grouped: distinct texts that retrieve the
        same OVT each bill their own search and NVM read-back, and a
        repeated text bills its search, in a batch as one at a time."""
        model, tok = setup
        keys = ("cim_mvm_ops", "cim_adc_conversions", "cim_cell_reads")
        texts = [sample.input_text for sample in stream_for(0, 8, seed=5)]
        assert len(set(texts)) == 8
        deltas = []
        for batched in (False, True):
            engine = PromptServeEngine(model, tok, fast_config(),
                                       max_sessions=2)
            engine.submit(TuneRequest(user_id=0,
                                      samples=tuple(stream_for(0, 10))))
            assert len(engine.session(0).library) < len(texts)  # OVTs shared
            requests = [QueryRequest(user_id=0, text=text,
                                     generation=fast_generation(tok))
                        for text in texts + texts[:1]]
            engine.session(0).deployment()   # program outside measurement
            before = engine.stats()
            if batched:
                engine.answer_batch(requests)
            else:
                for request in requests:
                    engine.query(request)
            after = engine.stats()
            deltas.append({key: after[key] - before[key] for key in keys})
        assert deltas[0] == deltas[1]
        assert all(delta > 0 for delta in deltas[0].values())

    def test_restore_reads_stay_bounded(self, trained_engine, setup):
        """Restores bill only the covering column, so cell reads stay far
        below one full store read per query."""
        _, tok = setup
        session = trained_engine.session(0)
        deployment = session.deployment()
        engine = deployment.engine
        scale1 = engine._stores[1]
        before = engine.aggregate_stats().cell_reads
        engine.restore(0)
        delta = engine.aggregate_stats().cell_reads - before
        assert 0 < delta < scale1.n_subarrays * 384 * 128 / 100
