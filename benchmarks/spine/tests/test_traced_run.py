"""A tiny world end to end: traced answers equal untraced answers, the
output checks pass, and the tracer leaves nothing patched."""

import dataclasses

import pytest

from repro import QueryRequest

from spine import metrics as spine_metrics
from spine.tracing import WRAP_TABLE, Tracer
from spine.workloads import WORKLOADS, Budget
from spine.world import build_world


def settle(world):
    """Touch every user in order, so that both passes start from the same
    session-cache residency (the churn plan mirrors it)."""
    for user in world.users:
        world.engine.query(QueryRequest(
            user_id=user, text=world.warmup[user].text,
            generation=world.generation))


@pytest.fixture(scope="module")
def tiny_worlds():
    worlds = {}

    def get(name):
        if name not in worlds:
            spec = dataclasses.replace(
                WORKLOADS[name].spec, n_users=4,
                max_sessions=min(WORKLOADS[name].spec.max_sessions, 4),
                corpus_sentences=120, pretrain_steps=10)
            worlds[name] = build_world(spec, seed=7)
        return worlds[name]
    yield get
    for world in worlds.values():
        world.close()


@pytest.mark.parametrize("name,units", [("batch_decode", 2),
                                        ("resident_chat", 32),
                                        ("session_churn", 8)])
def test_traced_answers_equal_untraced_answers(tiny_worlds, name, units):
    workload = WORKLOADS[name]
    world = tiny_worlds(name)
    # The same part of the pools twice: same requests, same answers.
    settle(world)
    untraced = workload.run(world, Budget(units=units), label="same")
    originals = [Tracer._resolve(target)[2] for _, _, target in WRAP_TABLE]
    settle(world)
    with Tracer() as tracer:
        tracer.phase, tracer.enabled = "workload", True
        traced = workload.run(world, Budget(units=units), label="same")
        tracer.enabled = False
        attempted, failures = workload.verify(world, traced)
    assert failures == [] and attempted >= units
    assert untraced.units == traced.units == units
    assert (spine_metrics.answers_digest(untraced.queries)
            == spine_metrics.answers_digest(traced.queries))
    assert tracer.patched_bindings() == []
    assert originals == [Tracer._resolve(target)[2]
                         for _, _, target in WRAP_TABLE]
    names = {span.name for span in tracer.spans}
    assert {"llm.decode_round", "retrieval.search", "nvm.matmat"} <= names
    if name == "resident_chat":
        # Request ids ride from the wire into the engine's spans ...
        admitted = [s for s in tracer.spans if s.name == "serve.begin_query"]
        assert admitted and all(
            s.request_id.startswith("resident_chat-same-") for s in admitted)
        # ... except on the shared decode rounds, which carry the batch.
        rounds = [s for s in tracer.spans
                  if s.name == "serve.run_decode_round"]
        assert rounds and all(s.request_id is None and s.batch >= 0
                              for s in rounds)
    if name == "session_churn":
        assert traced.stat_delta("sessions_restored") == \
            traced.expected_restores == units * 3 // 4
        assert {"serve.capture", "serve.from_bytes", "nvm.restore"} <= names


def test_exact_counts_repeat_for_one_seed(tiny_worlds):
    workload = WORKLOADS["batch_decode"]
    world = tiny_worlds("batch_decode")
    first = workload.run(world, Budget(units=2), label="again")
    second = workload.run(world, Budget(units=2), label="again")
    counts = [spine_metrics.exact_counts(world, observation)
              for observation in (first, second)]
    # Everything but the prefill hits (the second pass finds the first's
    # prefills cached) repeats bit for bit.
    for key in counts[0]:
        if key != "prefill_hits":
            assert counts[0][key] == counts[1][key], key
