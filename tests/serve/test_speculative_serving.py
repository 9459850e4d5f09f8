"""Speculative decoding behind the serving stack.

An engine given a ``speculative`` decoder must serve byte-identical
responses to one without it — speculation is invisible above the
scheduler — while the new telemetry keys surface acceptance rate and
tokens-per-forward through ``stats()``, declared in the stats manifest.
"""

import numpy as np
import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import (
    GenerationConfig,
    PretrainConfig,
    SpeculativeDecoder,
    build_draft_model,
    build_model,
    distill_draft,
    pretrain_lm,
)
from repro.serve import PromptServeEngine, QueryRequest, TuneRequest
from repro.serve.stats_manifest import STATS_MANIFEST

SPEC_KEYS = ("decode_forwards", "spec_rounds", "draft_forwards",
             "draft_proposed_tokens", "draft_accepted_tokens",
             "tokens_per_forward", "draft_acceptance_rate")


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=400, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=60, seed=0))
    draft = build_draft_model("phi-2-sim", tok.vocab_size)
    prompts = [np.asarray(tok.encode(text), dtype=np.int64)
               for text in ("the movie was", "a quiet morning",
                            "breaking news today")]
    distill_draft(draft, model, prompts, max_new_tokens=24,
                  pretrain=PretrainConfig(steps=150, seed=1))
    return model, tok, draft


def stream_for(user_id, count, seed=0):
    dataset = make_dataset("LaMP-2")
    return dataset.generate(make_user(user_id, seed=0), count, seed=seed)


def build_engine(setup, speculative=None):
    model, tok, _ = setup
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                               max_sessions=4, speculative=speculative)
    for user_id in (0, 1, 2):
        engine.submit(TuneRequest(
            user_id=user_id,
            samples=tuple(stream_for(user_id, 10, seed=user_id))))
    return engine


def greedy_requests(tok, *, max_new_tokens=8, use_eos=True):
    generation = GenerationConfig(max_new_tokens=max_new_tokens,
                                  temperature=0.0,
                                  eos_id=tok.eos_id if use_eos else None)
    return [QueryRequest(user_id=user_id,
                         text=stream_for(user_id, 1, seed=9)[0].input_text,
                         generation=generation,
                         request_id=f"u{user_id}")
            for user_id in (0, 1, 2)]


def make_spec(setup, **kwargs):
    _, _, draft = setup
    kwargs.setdefault("max_draft", 4)
    kwargs.setdefault("threshold", 0.1)
    return SpeculativeDecoder(draft, **kwargs)


class TestServingEquivalence:
    def test_speculative_responses_identical(self, setup):
        _, tok, _ = setup
        requests = greedy_requests(tok)
        plain = build_engine(setup).answer_batch(requests)
        speculative = build_engine(setup, make_spec(setup)) \
            .answer_batch(requests)
        assert speculative == plain            # every response field

    def test_query_drafts_too_and_returns_the_plain_response(self, setup):
        """``query`` is ``answer_batch`` of one: it runs the speculative
        rounds instead of bypassing the draft model."""
        _, tok, _ = setup
        plain_engine = build_engine(setup)
        engine = build_engine(setup, make_spec(setup))
        for request in greedy_requests(tok, use_eos=False):
            assert engine.query(request) == plain_engine.query(request)
        assert engine.stats()["spec_rounds"] > 0
        assert plain_engine.stats()["spec_rounds"] == 0

    def test_sampled_requests_fall_back_identically(self, setup):
        """temperature > 0 disables drafting but not serving."""
        _, tok, _ = setup
        generation = GenerationConfig(max_new_tokens=6, temperature=0.7,
                                      seed=3)
        requests = [QueryRequest(user_id=0, text="the weather is",
                                 generation=generation, request_id="q")]
        plain = build_engine(setup).answer_batch(requests)
        engine = build_engine(setup, make_spec(setup))
        assert engine.answer_batch(requests) == plain
        assert engine.stats()["draft_proposed_tokens"] == 0


class TestSpeculativeStats:
    def test_stats_keys_present_and_consistent(self, setup):
        _, tok, _ = setup
        engine = build_engine(setup, make_spec(setup))
        engine.answer_batch(greedy_requests(tok, use_eos=False))
        stats = engine.stats()
        for key in SPEC_KEYS:
            assert key in stats, key
        assert stats["draft_proposed_tokens"] > 0
        # Served answers are conditioned on each user's trained prefix,
        # which the draft never saw — acceptance may be low, but the
        # accounting invariants must hold regardless.
        assert 0 <= stats["draft_accepted_tokens"] \
            <= stats["draft_proposed_tokens"]
        assert stats["draft_acceptance_rate"] == pytest.approx(
            stats["draft_accepted_tokens"] / stats["draft_proposed_tokens"])
        assert stats["tokens_per_forward"] == pytest.approx(
            stats["decode_tokens"] / stats["decode_forwards"])
        # Speculation's whole point: more than one token per forward.
        assert stats["tokens_per_forward"] > 1.0
        assert stats["spec_rounds"] <= stats["decode_rounds"]

    def test_plain_engine_emits_spec_keys_as_zeros(self, setup):
        """The keys exist (zeroed) without a decoder, so dashboards never
        branch on configuration."""
        _, tok, _ = setup
        engine = build_engine(setup)
        engine.answer_batch(greedy_requests(tok, use_eos=False))
        stats = engine.stats()
        assert stats["spec_rounds"] == 0
        assert stats["draft_proposed_tokens"] == 0
        assert stats["decode_forwards"] == stats["decode_rounds"]

    def test_manifest_declares_every_spec_key(self):
        for key in SPEC_KEYS:
            assert key in STATS_MANIFEST, key
        assert STATS_MANIFEST["draft_acceptance_rate"] == (
            "ratio", "draft_accepted_tokens", "draft_proposed_tokens")
        assert STATS_MANIFEST["tokens_per_forward"] == (
            "ratio", "decode_tokens", "decode_forwards")
