"""Every key of a served engine's ``stats()`` reads as its manifest kind.

The STATS-001 lint rule checks the manifest against the source without
running it; these tests read the numbers.  One engine carries every
source of telemetry at once — an int8 base model, a speculative draft, a
one-slot session store that spills and restores — and each declared key
is checked against what its kind promises:

- ``additive``: a non-negative integer;
- ``capacity``: the bound the engine was built with;
- ``histogram``: a millisecond summary over every served request;
- ``("ratio", num, den)``: exactly ``num / den`` of the same reading,
  with both operands declared additive and the denominator non-zero;
- ``structural``: the described object's own report, as is.
"""

import copy

import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import (
    GenerationConfig,
    PretrainConfig,
    SpeculativeDecoder,
    build_draft_model,
    build_model,
    pretrain_lm,
    quantization_stats,
    quantize_model,
)
from repro.serve import (
    PromptServeEngine,
    QueryRequest,
    SessionStore,
    TuneRequest,
)
from repro.serve.stats_manifest import STATS_MANIFEST

USERS = (0, 1)


def int8(model):
    converted = copy.deepcopy(model)
    quantize_model(converted, "int8", 32)
    return converted


@pytest.fixture(scope="module")
def served():
    """``(engine, store, stats)`` after tunes, spills, a restore and
    speculative greedy queries; ``stats`` is one reading."""
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, build_corpus(tok, n_sentences=400, seed=0),
                PretrainConfig(steps=60, seed=0))
    draft = build_draft_model("phi-2-sim", tok.vocab_size)
    store = SessionStore()
    engine = PromptServeEngine(
        int8(model), tok, FrameworkConfig.preset("fast"), max_sessions=1,
        session_store=store,
        speculative=SpeculativeDecoder(int8(draft), max_draft=3,
                                       threshold=0.0))
    dataset = make_dataset("LaMP-2")
    generation = GenerationConfig(max_new_tokens=6, temperature=0.0,
                                  eos_id=None)
    for user_id in USERS:                    # the second tune spills user 0
        engine.submit(TuneRequest(user_id=user_id, samples=tuple(
            dataset.generate(make_user(user_id, seed=0), 10,
                             seed=user_id))))
    for user_id in USERS:                    # user 0 restores, 1 spills
        text = dataset.generate(make_user(user_id, seed=0), 12,
                                seed=42)[-1].input_text
        engine.answer_batch([QueryRequest(user_id=user_id, text=text,
                                          generation=generation)] * 2)
    return engine, store, engine.stats()


def test_engine_emits_exactly_the_declared_keys(served):
    _, _, stats = served
    assert set(stats) == set(STATS_MANIFEST)


def test_the_trace_moves_every_counter_the_kinds_are_read_from(served):
    """Otherwise a ratio's ``0.0`` fallback or an empty store would pass
    the per-key checks below without testing them."""
    _, _, stats = served
    for key in ("sessions_spilled", "sessions_restored", "requests_served",
                "decode_rounds", "occupancy_sum", "decode_grouped_rows",
                "decode_forwards", "draft_proposed_tokens",
                "quantized_layers"):
        assert stats[key] > 0, key


@pytest.mark.parametrize("key", sorted(STATS_MANIFEST))
def test_key_reads_as_its_kind(served, key):
    engine, store, stats = served
    kind, value = STATS_MANIFEST[key], stats[key]
    if isinstance(kind, tuple):
        label, numerator, denominator = kind
        assert label == "ratio"
        assert STATS_MANIFEST[numerator] == "additive"
        assert STATS_MANIFEST[denominator] == "additive"
        assert stats[denominator] > 0
        assert value == stats[numerator] / stats[denominator]
    elif kind == "additive":
        assert isinstance(value, int) and not isinstance(value, bool)
        assert value >= 0
    elif kind == "capacity":
        assert value == getattr(engine, key)
    elif kind == "histogram":
        assert set(value) == {"count", "p50_ms", "p99_ms", "mean_ms",
                              "max_ms"}
        assert value["count"] == stats["requests_served"]
        assert 0.0 < value["p50_ms"] <= value["p99_ms"] <= value["max_ms"]
    elif kind == "structural":
        if key == "session_store":
            assert value == store.stats()
        else:
            assert value == quantization_stats(engine.model)[key]
    else:
        pytest.fail(f"{key}: undeclared kind {kind!r}")
