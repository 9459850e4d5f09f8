"""Serving on a weight-quantized base model: determinism, stats, and
blobs that still carry the retired config switches.

The model's owner converts it (and a speculative draft) with
``quantize_model`` before building an engine; engines serve what they
are given."""

import copy

import numpy as np
import pytest

from repro.ag import QuantizedLinear, iter_modules
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
    SessionSnapshot,
    SessionStore,
    TuneRequest,
)
from repro.serve.stats_manifest import STATS_MANIFEST
from tests.engine_calls import answer_text

USERS = (0, 1, 2)
QUANT_KEYS = ("quantized_layers", "weight_bytes", "weight_bytes_saved")


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


def fast():
    return FrameworkConfig.preset("fast")


def int8(model):
    """A converted copy: the caller's own int8 model."""
    converted = copy.deepcopy(model)
    quantize_model(converted, "int8", 32)
    return converted


def trace(tok):
    generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                  eos_id=tok.eos_id)
    ds = make_dataset("LaMP-2")
    tunes, queries = [], []
    for uid in USERS:
        samples = ds.generate(make_user(uid, seed=0), 10, seed=uid)
        tunes.append(TuneRequest(user_id=uid, samples=tuple(samples)))
        text = ds.generate(make_user(uid, seed=0), 12, seed=42)[-1].input_text
        queries.append(QueryRequest(user_id=uid, text=text,
                                    generation=generation))
    return tunes, queries


def serve_trace(engine, tok):
    tunes, queries = trace(tok)
    for request in tunes:
        engine.submit(request)
    return [r.answer for r in engine.answer_batch(queries)]


class TestQuantizedServing:
    def test_restart_byte_identity(self, setup):
        model, tok = setup
        first = serve_trace(
            PromptServeEngine(int8(model), tok, fast(),
                              max_sessions=4), tok)
        second = serve_trace(
            PromptServeEngine(int8(model), tok, fast(),
                              max_sessions=4), tok)
        assert first == second

    def test_stats_keys_emitted_and_declared(self, setup):
        model, tok = setup
        engine = PromptServeEngine(int8(model), tok, fast())
        stats = engine.stats()
        for key in QUANT_KEYS:
            assert key in STATS_MANIFEST
            assert STATS_MANIFEST[key] == "structural"
        assert stats["quantized_layers"] > 0
        assert stats["weight_bytes"] > 0
        assert stats["weight_bytes_saved"] > 0

    def test_float_engine_reports_zero_footprint(self, setup):
        model, tok = setup
        stats = PromptServeEngine(copy.deepcopy(model), tok, fast()).stats()
        assert all(stats[key] == 0 for key in QUANT_KEYS)


class TestQuantizedSpeculative:
    def test_speculative_answers_match_plain_quantized(self, setup):
        model, tok = setup
        draft = build_draft_model("phi-2-sim", tok.vocab_size)
        plain = serve_trace(
            PromptServeEngine(int8(model), tok, fast(),
                              max_sessions=4), tok)
        spec = SpeculativeDecoder(int8(draft), max_draft=3, threshold=0.1)
        speculative = serve_trace(
            PromptServeEngine(int8(model), tok, fast(),
                              max_sessions=4, speculative=spec), tok)
        assert speculative == plain


def weights(model):
    """Every array the model holds, by path: parameters and the packed
    codes and scales of its quantized layers."""
    arrays = {name: p.data.copy() for name, p in model.named_parameters()}
    for index, module in enumerate(iter_modules(model)):
        if isinstance(module, QuantizedLinear):
            arrays[f"q{index}.qweight"] = module.qweight.copy()
            arrays[f"q{index}.scales"] = module.scales.copy()
    return arrays


class TestEnginesNeverConvert:
    """Building an engine reads the model it is given and writes none of
    it: precision is the owner's call, made before any engine exists."""

    @pytest.mark.parametrize("precision", ["float", "int8"])
    def test_construction_leaves_model_and_draft_unchanged(self, setup,
                                                          precision):
        model, tok = setup
        base = copy.deepcopy(model) if precision == "float" else int8(model)
        draft = build_draft_model("phi-2-sim", tok.vocab_size)
        before = [(quantization_stats(m), weights(m)) for m in (base, draft)]
        spec = SpeculativeDecoder(draft, max_draft=3)
        PromptServeEngine(base, tok, fast(), speculative=spec)
        after = [(quantization_stats(m), weights(m)) for m in (base, draft)]
        for (stats_before, arrays_before), (stats_after, arrays_after) in zip(
                before, after):
            assert stats_after == stats_before
            assert arrays_after.keys() == arrays_before.keys()
            for name, array in arrays_before.items():
                assert np.array_equal(arrays_after[name], array), name
        assert quantization_stats(draft)["quantized_layers"] == 0


class TestRetiredConfigKeys:
    """Builds before the switch moved to the model's owner wrote
    ``base_quantization`` and ``quantization_group_size`` into every
    session's config.  Those keys are unknown config keys now: a blob
    carrying them is quarantined and its user re-tunes."""

    @pytest.mark.parametrize("retired", [None, "int8"])
    def test_blob_with_retired_keys_is_quarantined(self, setup, retired):
        model, tok = setup
        generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                      eos_id=tok.eos_id)
        tunes, queries = trace(tok)
        engine = PromptServeEngine(copy.deepcopy(model), tok, fast())
        engine.submit(tunes[0])
        query = queries[0].text
        snap = SessionSnapshot.capture(engine.session(0), mode="raw")
        snap.config.update(base_quantization=retired,
                           quantization_group_size=32)
        snap.user_id = 5
        blob = snap.to_bytes()
        assert SessionSnapshot.from_bytes(blob).config[
            "base_quantization"] == retired
        store = SessionStore()
        store.put(5, blob)
        fresh = PromptServeEngine(engine.model, tok, fast(),
                                  session_store=store)
        with pytest.raises(KeyError, match="no session for user 5"):
            answer_text(fresh, 5, query, generation)
        stats = fresh.stats()
        assert stats["sessions_restored"] == 0
        assert stats["sessions_quarantined"] == 1
        assert 5 not in store

    @pytest.mark.parametrize("key", ["base_quantization",
                                     "quantization_group_size"])
    def test_from_dict_still_refuses_unknown_keys(self, key):
        data = fast().to_dict()
        data[key] = 32 if key == "quantization_group_size" else "int8"
        with pytest.raises(ValueError, match="unknown FrameworkConfig keys"):
            FrameworkConfig.from_dict(data)
        assert not hasattr(FrameworkConfig(), key)
