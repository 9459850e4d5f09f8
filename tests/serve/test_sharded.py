"""ShardedPromptEngine: routing, trace equivalence, aggregate stats."""

import threading

import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.gateway import GatewayClient, GatewayConfig, PromptGateway
from repro.llm import GenerationConfig, PretrainConfig, build_model, pretrain_lm
from repro.serve import (
    PromptServeEngine,
    QueryRequest,
    SessionStore,
    ShardedPromptEngine,
    TuneRequest,
)
from repro.serve.stats_manifest import STATS_MANIFEST

from .tune_gate import Background, EpochGate

USERS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


def stream_for(user_id, count, seed=0):
    ds = make_dataset("LaMP-2")
    return ds.generate(make_user(user_id, seed=0), count, seed=seed)


def fast_generation(tok, n=3):
    return GenerationConfig(max_new_tokens=n, temperature=0.0,
                            eos_id=tok.eos_id)


def trace(tok):
    """A mixed-user trace: tunes first, then interleaved queries."""
    generation = fast_generation(tok)
    tunes = [TuneRequest(user_id=uid,
                         samples=tuple(stream_for(uid, 10, seed=uid)))
             for uid in USERS]
    queries = []
    for i in range(2):
        for uid in USERS:
            text = stream_for(uid, 12 + i, seed=42)[-1].input_text
            queries.append(QueryRequest(user_id=uid, text=text,
                                        generation=generation,
                                        request_id=f"u{uid}-q{i}"))
    return tunes, queries


@pytest.fixture(scope="module")
def engines(setup):
    """A 4-worker sharded engine and a single engine, same trace."""
    model, tok = setup
    sharded = ShardedPromptEngine(model, tok, FrameworkConfig.preset("fast"),
                                  n_workers=4, max_sessions=4)
    single = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                               max_sessions=16)
    tunes, queries = trace(tok)
    for request in tunes:
        sharded.submit(request)
        single.submit(request)
    sharded_responses = sharded.answer_batch(queries)
    single_responses = single.answer_batch(queries)
    return sharded, single, sharded_responses, single_responses


class TestRouting:
    def test_shard_assignment_is_stable_and_total(self, engines):
        sharded, *_ = engines
        for uid in range(50):
            shard = sharded.shard_of(uid)
            assert 0 <= shard < sharded.n_workers
            assert shard == sharded.shard_of(uid)
            assert sharded.worker_for(uid) is sharded.workers[shard]

    def test_sessions_live_on_their_shard_only(self, engines):
        sharded, *_ = engines
        for uid in USERS:
            owner = sharded.shard_of(uid)
            for index, worker in enumerate(sharded.workers):
                assert worker.has_session(uid) == (index == owner)
        assert sorted(sharded.active_users()) == sorted(USERS)
        assert sharded.has_session(USERS[0])

    def test_rejects_nonpositive_worker_count(self, setup):
        model, tok = setup
        with pytest.raises(ValueError, match="n_workers"):
            ShardedPromptEngine(model, tok, n_workers=0)


class TestTraceEquivalence:
    def test_answers_byte_identical_to_single_engine(self, engines):
        """The acceptance criterion: sharding changes no byte of output."""
        _, _, sharded_responses, single_responses = engines
        assert len(sharded_responses) == len(single_responses) == 8
        for mine, theirs in zip(sharded_responses, single_responses):
            assert mine.answer == theirs.answer
            assert mine.ovt_index == theirs.ovt_index
            assert mine.user_id == theirs.user_id
            assert list(mine.scores) == list(theirs.scores)

    def test_sequential_api_matches_too(self, engines, setup):
        _, tok = setup
        sharded, single, *_ = engines
        generation = fast_generation(tok)
        text = stream_for(2, 20, seed=9)[-1].input_text
        assert sharded.answer(2, text, generation) == \
            single.answer(2, text, generation)

    def test_decode_round_loop_matches_batch_path(self, engines, setup):
        sharded, _, sharded_responses, _ = engines
        _, tok = setup
        query = QueryRequest(user_id=1,
                             text=stream_for(1, 12, seed=42)[-1].input_text,
                             generation=fast_generation(tok))
        expected = sharded.query(query)
        pending = sharded.begin_query(query)
        rounds = 0
        while not pending.done:
            sharded.run_decode_round()
            rounds += 1
            assert rounds < 100, "decode loop did not converge"
        assert pending.response.answer == expected.answer

    def test_cancel_query_reaches_owning_worker(self, engines, setup):
        sharded, *_ = engines
        _, tok = setup
        request = QueryRequest(user_id=3,
                               text=stream_for(3, 12)[-1].input_text,
                               generation=fast_generation(tok))
        pending = sharded.begin_query(request)
        assert sharded.cancel_query(pending)
        assert sharded.stats()["pending_generations"] == 0


class TestAggregateStats:
    def test_summed_keys_equal_sum_of_workers(self, engines):
        sharded, *_ = engines
        stats = sharded.stats()
        assert stats["n_workers"] == 4
        assert len(stats["workers"]) == 4
        summed = [key for key, kind in STATS_MANIFEST.items()
                  if kind == "additive"]
        assert "requests_served" in summed
        for key in summed:
            assert stats[key] == sum(worker[key]
                                     for worker in stats["workers"]), key

    def test_ratios_recomputed_not_averaged(self, engines):
        sharded, *_ = engines
        stats = sharded.stats()
        rounds = stats["decode_rounds"]
        if rounds:
            assert stats["tokens_per_round"] == pytest.approx(
                stats["decode_tokens"] / rounds)
        # Recomputed from the summed rows, never a mean of worker shares.
        workers = stats["workers"]
        assert stats["decode_grouped_rows"] == sum(
            worker["decode_grouped_rows"] for worker in workers) > 0
        assert stats["grouped_row_share"] == pytest.approx(
            stats["decode_grouped_rows"] / stats["occupancy_sum"])
        assert STATS_MANIFEST["grouped_row_share"] == (
            "ratio", "decode_grouped_rows", "occupancy_sum")

    def test_registered_counter_aggregates_across_workers(self, engines,
                                                          monkeypatch):
        """The merge is manifest-driven: a counter sums fleet-wide once
        the manifest declares it, and is dropped until then."""
        sharded, *_ = engines
        for i, worker in enumerate(sharded.workers):
            monkeypatch.setattr(
                worker, "stats",
                lambda base=worker.stats, v=i + 1: {**base(), "my_counter": v})
        # emitted but undeclared: the merge must drop it, not guess
        assert "my_counter" not in sharded.stats()
        monkeypatch.setitem(STATS_MANIFEST, "my_counter", "additive")
        expected = sum(range(1, sharded.n_workers + 1))
        assert sharded.stats()["my_counter"] == expected

    def test_tunes_in_flight_gauge_sums_across_workers(self, setup,
                                                       monkeypatch):
        """A tune parked inside prepare shows on its worker and in the
        fleet total, and leaves both when it publishes."""
        assert STATS_MANIFEST["tunes_in_flight"] == "additive"
        model, tok = setup
        sharded = ShardedPromptEngine(model, tok,
                                      FrameworkConfig.preset("fast"),
                                      n_workers=2, max_sessions=2)
        gate = EpochGate(monkeypatch)
        tuning = Background(sharded.submit, TuneRequest(
            user_id=0, samples=tuple(stream_for(0, 10))))
        gate.wait_entered()
        stats = sharded.stats()
        assert stats["tunes_in_flight"] == 1
        assert [worker["tunes_in_flight"] for worker in stats["workers"]] \
            == [int(index == sharded.shard_of(0)) for index in range(2)]
        gate.release()
        assert tuning.result().epochs_fired == 1
        assert sharded.stats()["tunes_in_flight"] == 0

    def test_latency_histogram_merges_all_samples(self, engines):
        sharded, *_ = engines
        stats = sharded.stats()
        total = sum(worker["latency_ms"]["count"]
                    for worker in stats["workers"])
        assert stats["latency_ms"]["count"] == total

    def test_latency_read_in_the_workers_critical_section(self, engines,
                                                          monkeypatch):
        """A request retiring on the decode thread while ``stats()`` runs
        lands in both the worker's summary and the merged histogram or
        in neither: the two are read under one hold of the worker's
        lock.  Here a "decode thread" tries to record right after each
        worker's own ``stats()`` returns — between the two reads."""
        sharded, *_ = engines
        recorders = []

        def stats_then_record(worker, base):
            summary = base()

            def record():
                with worker._lock:          # as _finalize does
                    worker._latency.record(0.001)
            recorder = threading.Thread(target=record)
            recorder.start()
            recorder.join(timeout=0.1)      # blocked while stats() holds on
            recorders.append(recorder)
            return summary

        for worker in sharded.workers:
            monkeypatch.setattr(
                worker, "stats",
                lambda worker=worker, base=worker.stats:
                    stats_then_record(worker, base))
        aggregate = sharded.stats()
        assert aggregate["latency_ms"]["count"] == sum(
            w["latency_ms"]["count"] for w in aggregate["workers"])
        for recorder in recorders:
            recorder.join(timeout=5)
            assert not recorder.is_alive()
        monkeypatch.undo()
        assert sharded.stats()["latency_ms"]["count"] == (
            aggregate["latency_ms"]["count"] + sharded.n_workers)

    def test_shared_store_reported_once(self, setup):
        model, tok = setup
        store = SessionStore()
        sharded = ShardedPromptEngine(model, tok,
                                      FrameworkConfig.preset("fast"),
                                      n_workers=2, max_sessions=1,
                                      session_store=store)
        for uid in USERS:
            sharded.submit(TuneRequest(
                user_id=uid, samples=tuple(stream_for(uid, 10, seed=uid))))
        stats = sharded.stats()
        assert stats["session_store"] == store.stats()
        assert stats["sessions_spilled"] >= 1
        # Spilled users restore transparently on their owning worker.
        victim = next(uid for uid in USERS if not sharded.has_session(uid))
        sharded.answer(victim, stream_for(victim, 12)[-1].input_text,
                       fast_generation(tok))
        assert sharded.stats()["sessions_restored"] >= 1


class TestGatewayOverShardedEngine:
    def test_gateway_serves_sharded_engine_unchanged(self, setup):
        """The gateway drives a sharded fleet exactly like one engine."""
        model, tok = setup
        sharded = ShardedPromptEngine(model, tok,
                                      FrameworkConfig.preset("fast"),
                                      n_workers=2, max_sessions=4)
        generation = fast_generation(tok)
        with PromptGateway(sharded, GatewayConfig(port=0, max_batch=4)) as gw:
            host, port = gw.address
            with GatewayClient(host, port) as client:
                tuned = client.tune(0, list(stream_for(0, 10)))
                assert tuned.epochs_fired >= 1
                text = stream_for(0, 12)[-1].input_text
                over_http = client.query(0, text, generation=generation)
                direct = sharded.query(QueryRequest(user_id=0, text=text,
                                                    generation=generation))
                assert over_http.answer == direct.answer
                stats = client.stats()
                assert stats["engine"]["n_workers"] == 2
