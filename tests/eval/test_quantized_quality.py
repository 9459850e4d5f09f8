"""The quantization quality harness: perplexity and frontier records."""

import numpy as np
import pytest

from repro.ag import no_grad
from repro.core import FrameworkConfig
from repro.eval.quantized import perplexity, quantization_quality
from repro.eval.runner import TABLE1_METHODS, ExperimentContext
from repro.llm import build_model, quantization_stats, quantize_model
from tests.oracles.graph import forward


def graph_perplexity(model, token_stream, window, max_windows):
    """``perplexity`` as it was, over the autograd forward."""
    ids = np.asarray(token_stream, dtype=np.int64).reshape(-1)
    n_windows = min(max_windows, (ids.size - 1) // window)
    total_nll = 0.0
    with no_grad():
        for index in range(n_windows):
            chunk = ids[index * window:index * window + window + 1]
            logits = forward(model, chunk[:-1][None]).data[0]
            logits = logits.astype(np.float64)
            logits -= logits.max(axis=-1, keepdims=True)
            log_probs = logits - np.log(
                np.exp(logits).sum(axis=-1, keepdims=True))
            total_nll -= log_probs[np.arange(window), chunk[1:]].sum()
    return float(np.exp(total_nll / (n_windows * window)))


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(seed=0, corpus_sentences=600, n_queries=3)


class TestPerplexity:
    def test_deterministic(self, ctx):
        model = ctx.model("phi-2-sim")
        first = perplexity(model, ctx.corpus, window=32, max_windows=4)
        second = perplexity(model, ctx.corpus, window=32, max_windows=4)
        assert first == second
        assert first > 1.0

    def test_pretrained_beats_random(self, ctx):
        from repro.llm import build_model
        random_model = build_model("phi-2-sim", ctx.tokenizer.vocab_size)
        trained = perplexity(ctx.model("phi-2-sim"), ctx.corpus,
                             window=32, max_windows=4)
        untrained = perplexity(random_model, ctx.corpus,
                               window=32, max_windows=4)
        assert trained < untrained

    @pytest.mark.parametrize("mode", [None, "int8"], ids=["float", "int8"])
    def test_equals_the_graph_forward(self, ctx, mode):
        """Graph-free (``infer.extend`` + ``infer.logits``), bit for bit."""
        model = build_model("phi-2-sim", ctx.tokenizer.vocab_size)
        model.load_state_dict(ctx.model("phi-2-sim").state_dict())
        if mode is not None:
            quantize_model(model, mode)
        assert perplexity(model, ctx.corpus, window=32, max_windows=4) == \
            graph_perplexity(model, ctx.corpus, 32, 4)

    def test_short_stream_rejected(self, ctx):
        with pytest.raises(ValueError):
            perplexity(ctx.model("phi-2-sim"), np.arange(10), window=64)


class TestQuantizationQuality:
    def test_frontier_records_and_float_model_untouched(self, ctx):
        model = ctx.model("phi-2-sim")
        before = {name: p.data.copy()
                  for name, p in model.named_parameters()}
        report = quantization_quality(
            ctx, "phi-2-sim", "LaMP-1",
            points=(("int8", 32), ("int4", 32)),
            user_ids=(0,), ppl_windows=4)
        # the context's memoised float model must not have been converted
        assert quantization_stats(model)["quantized_layers"] == 0
        after = dict(model.named_parameters())
        assert all((before[name] == after[name].data).all()
                   for name in before)
        assert set(report) == {"float32", "points"}
        assert len(report["points"]) == 2
        int8, int4 = report["points"]
        # On a small window sample the ratio is noisy in either direction;
        # what must hold is that quantization barely moves perplexity
        # while int4 shrinks the resident model well below int8.
        assert int8["perplexity_ratio"] == pytest.approx(1.0, abs=0.1)
        assert int4["perplexity_ratio"] == pytest.approx(1.0, abs=0.2)
        assert 0 < int4["weight_bytes"] < int8["weight_bytes"]
        assert int8["quantized_layers"] == int4["quantized_layers"] > 0
        assert report["float32"]["weight_bytes"] > int8["weight_bytes"]
        assert int4["weight_bytes"] <= 0.3 * report["float32"]["weight_bytes"]
        # the recommended point (int8, group 32) must cost next to nothing
        assert int8["accuracy_delta"] >= -0.05
        assert int8["perplexity_ratio"] <= 1.05

    def test_quantized_arms_never_hit_the_float_memo(self, ctx, monkeypatch):
        """The float and quantized arms share one cell key (same method,
        config, users); only the served model differs.  A memo hit across
        them would report the float score as the arm's, a silent 0.0
        delta.  Seed the float cell with a score no 3-query cell can
        reach and check that no arm reads it, or writes the memo."""
        sentinel = 0.123
        method = next(m for m in TABLE1_METHODS if m.name == "NVCiM-PT")
        key = ("phi-2-sim", "LaMP-1",
               method.apply(FrameworkConfig(buffer_capacity=5)), (0,))
        monkeypatch.setattr(ctx, "_scores", {key: sentinel})
        report = quantization_quality(ctx, "phi-2-sim", "LaMP-1",
                                      points=(("int8", 32), ("int4", 32)),
                                      user_ids=(0,), ppl_windows=2)
        assert report["float32"]["accuracy"] == sentinel
        for point in report["points"]:
            assert point["accuracy"] != sentinel
            assert point["accuracy_delta"] == point["accuracy"] - sentinel
        assert ctx._scores == {key: sentinel}
