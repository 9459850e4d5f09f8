"""Pretraining without the graph equals the graph bit for bit.

``pretrain_lm`` runs the serving forward with a tape
(``repro.llm.infer.extend``) and writes every weight's gradient by hand
(``repro.llm.vjp.backward(..., weights=True)`` and the embedding tables'
``scatter_rows``); the autograd loop it replaced lives in
``tests/oracles/training.py``.  Compared with ``np.array_equal``: the
loss curve and every final weight, at a tiny config and at phi-2-sim's
width, two seeds each, and the draft ``distill_draft`` trains.
"""

import numpy as np
import pytest

from repro.data import build_corpus, build_tokenizer
from repro.llm import (GenerationConfig, LMConfig, PretrainConfig,
                       TinyCausalLM, build_draft_model, build_model,
                       distill_draft, generate, pretrain_lm)
from tests.oracles.training import pretrain_graph


@pytest.fixture(scope="module")
def tok():
    return build_tokenizer()


@pytest.fixture(scope="module")
def corpus(tok):
    return build_corpus(tok, n_sentences=200, seed=0)


def tiny(vocab_size):
    return TinyCausalLM(LMConfig(vocab_size=vocab_size, d_model=16,
                                 n_heads=2, n_layers=2, d_ff=24,
                                 max_seq_len=48), seed=3)


def assert_same_weights(ours, theirs):
    assert ours.keys() == theirs.keys()
    for name, value in ours.items():
        assert np.array_equal(value, theirs[name]), name


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("width", ["tiny", "phi-2-sim"])
def test_loss_curve_and_weights_bitwise(tok, corpus, width, seed):
    def make():
        if width == "tiny":
            return tiny(tok.vocab_size)
        return build_model("phi-2-sim", tok.vocab_size)

    config = PretrainConfig(steps=6, batch_size=4, seq_len=24, seed=seed)
    model, reference = make(), make()
    before = model.state_dict()
    losses = pretrain_lm(model, corpus, config)
    assert losses == pretrain_graph(reference, corpus, config)
    assert_same_weights(model.state_dict(), reference.state_dict())
    assert all(not np.array_equal(value, before[name])
               for name, value in model.state_dict().items())


def test_distilled_draft_bitwise(tok, corpus):
    base = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(base, corpus, PretrainConfig(steps=4, seed=0))
    prompts = [corpus[i:i + 6] for i in range(0, 60, 12)]
    config = PretrainConfig(steps=5, batch_size=4, seq_len=16, seed=2)
    draft = build_draft_model("phi-2-sim", tok.vocab_size)
    losses = distill_draft(draft, base, prompts, max_new_tokens=8,
                           pretrain=config)
    # distill_draft's stream: each prompt, then the base's greedy reply.
    greedy = GenerationConfig(max_new_tokens=8, temperature=0.0)
    stream = np.concatenate([piece for prompt in prompts for piece in
                             (prompt, generate(base, prompt, greedy))])
    reference = build_draft_model("phi-2-sim", tok.vocab_size)
    assert losses == pretrain_graph(reference, stream, config)
    assert_same_weights(draft.state_dict(), reference.state_dict())


class TestStreamLength:
    """``rng.integers(0, size - seq_len - 1)`` needs a non-empty range of
    window starts: ``seq_len + 2`` tokens at least."""

    def test_exactly_one_window_is_refused_cleanly(self, tok):
        model = tiny(tok.vocab_size)
        before = model.state_dict()
        config = PretrainConfig(steps=1, batch_size=2, seq_len=8)
        with pytest.raises(ValueError, match="too short for seq_len=8"):
            pretrain_lm(model, np.arange(9) % 7, config)
        assert_same_weights(model.state_dict(), before)

    def test_the_shortest_accepted_stream_trains(self, tok):
        config = PretrainConfig(steps=2, batch_size=2, seq_len=8)
        losses = pretrain_lm(tiny(tok.vocab_size), np.arange(10) % 7, config)
        assert len(losses) == 2

