"""The quantization quality harness: perplexity and frontier records.

Deployment story under test: users' OVT libraries are tuned against the
*float32* base model (tuning happens off-device or before compression),
then served by an engine whose base model has been converted to the
packed int8/int4 execution path.  The harness measures what that
conversion costs in output quality:

- :func:`perplexity` — teacher-forced perplexity of a model over corpus
  windows, the standard intrinsic quality number for weight quantization.
- :func:`quantization_quality` — one frontier point per requested
  ``(mode, group_size)``: answer accuracy through the full serving path
  (retrieval -> soft prompt -> decode) and perplexity, each with its
  delta vs the float32 reference, plus the resident-weight footprint.

The tests below gate the shipped default's deltas; decode speed is the
spine's ``llm.int8_tokens_per_s_b8``.
"""

import copy

import numpy as np
import pytest

from repro.ag import Linear, iter_modules, no_grad
from repro.core import FrameworkConfig
from repro.eval.metrics import score_output
from repro.eval.runner import TABLE1_METHODS, ExperimentContext, evaluate_method
from repro.llm import build_model, infer, quantization_stats, quantize_model
from repro.llm.transformer import TinyCausalLM
from repro.serve import PromptServeEngine, QueryRequest
from tests.oracles.graph import forward


def perplexity(model: TinyCausalLM, token_stream: np.ndarray, *,
               window: int = 64, max_windows: int = 32) -> float:
    """Teacher-forced perplexity over non-overlapping corpus windows.

    ``token_stream`` is a flat id array (the pretraining corpus).  Each
    window of ``window + 1`` ids contributes ``window`` next-token
    predictions; the result is ``exp`` of the mean negative log
    likelihood across all scored positions.  Deterministic: no sampling,
    no rng, evaluation order fixed by the stream itself.
    """
    ids = np.asarray(token_stream, dtype=np.int64).reshape(-1)
    n_windows = min(max_windows, (ids.size - 1) // window)
    if n_windows <= 0:
        raise ValueError(
            f"token stream too short for one {window}-token window")
    total_nll = 0.0
    total_tokens = 0
    for index in range(n_windows):
        start = index * window
        chunk = ids[start:start + window + 1]
        hidden, _ = infer.extend(
            model, infer.embed(model.token_embedding, chunk[:-1][None]))
        # Log-softmax in float64 for a stable sum across windows.
        logits = infer.logits(model, hidden)[0].astype(np.float64)
        logits -= logits.max(axis=-1, keepdims=True)
        log_probs = logits - np.log(
            np.exp(logits).sum(axis=-1, keepdims=True))
        total_nll -= log_probs[np.arange(window), chunk[1:]].sum()
        total_tokens += window
    return float(np.exp(total_nll / total_tokens))


def served_accuracy(context: ExperimentContext, model: TinyCausalLM,
                    model_name: str, dataset_name: str,
                    config: FrameworkConfig,
                    user_ids: tuple[int, ...]) -> float:
    """One cell of :func:`~repro.eval.runner.evaluate_method` served on
    ``model`` instead of the context's float ``model_name``: the same
    memoised libraries and queries, one engine, one batch."""
    engine = PromptServeEngine(model, context.tokenizer, config,
                               max_sessions=len(user_ids))
    generation = context.generation_config()
    requests, expected = [], []
    for user_id in user_ids:
        task = context.user_task(dataset_name, user_id,
                                 config.buffer_capacity)
        engine.load_session(user_id, context.library(
            model_name, dataset_name, user_id, config))
        for query in task.queries:
            requests.append(QueryRequest(user_id=user_id,
                                         text=query.input_text,
                                         generation=generation))
            expected.append((task.dataset.metric, query.target_text))
    responses = engine.answer_batch(requests)
    return float(np.mean([score_output(metric, response.answer, target)
                          for response, (metric, target)
                          in zip(responses, expected)]))


def quantization_quality(
    context: ExperimentContext,
    model_name: str = "phi-2-sim",
    dataset_name: str = "LaMP-1",
    *,
    points: tuple[tuple[str, int], ...] = (("int8", 32), ("int4", 32)),
    user_ids: tuple[int, ...] = (0, 1),
    ppl_window: int = 64,
    ppl_windows: int = 16,
) -> dict:
    """Accuracy and perplexity deltas vs float32, one record per point.

    Returns ``{"float32": {...}, "points": [{...}, ...]}`` where the
    reference record carries absolute accuracy/perplexity and every
    point record adds ``accuracy_delta`` (point minus float — negative
    means the quantized path scores lower), ``perplexity_ratio``
    (point over float — above 1.0 means worse), and the byte footprint
    from :func:`repro.llm.quantization.quantization_stats`.

    Accuracy is the NVCiM-PT column: the float reference is
    :func:`~repro.eval.runner.evaluate_method`, whose libraries are tuned
    against the context's memoised float model, and each point converts
    one ``deepcopy`` of it that serves the same libraries
    (:func:`served_accuracy`) and scores its perplexity, so the shared
    float model — and the libraries tuned against it — are never
    touched.
    """
    base_config = FrameworkConfig(buffer_capacity=5)
    method = next(m for m in TABLE1_METHODS if m.name == "NVCiM-PT")
    float_model = context.model(model_name)
    float_accuracy = evaluate_method(context, model_name, dataset_name,
                                     method, base_config, user_ids=user_ids)
    float_ppl = perplexity(float_model, context.corpus,
                           window=ppl_window, max_windows=ppl_windows)
    float_bytes = sum(module.weight.data.nbytes
                      for module in iter_modules(float_model)
                      if isinstance(module, Linear))
    records = []
    for mode, group_size in points:
        arm = copy.deepcopy(float_model)
        quantize_model(arm, mode, group_size)
        accuracy = served_accuracy(context, arm, model_name, dataset_name,
                                   method.apply(base_config), user_ids)
        ppl = perplexity(arm, context.corpus,
                         window=ppl_window, max_windows=ppl_windows)
        stats = quantization_stats(arm)
        records.append({
            "mode": mode,
            "group_size": group_size,
            "accuracy": accuracy,
            "accuracy_delta": accuracy - float_accuracy,
            "perplexity": ppl,
            "perplexity_ratio": ppl / float_ppl,
            "quantized_layers": stats["quantized_layers"],
            "weight_bytes": stats["weight_bytes"],
            "weight_bytes_saved": stats["weight_bytes_saved"],
        })
    return {
        "float32": {"accuracy": float_accuracy, "perplexity": float_ppl,
                    "weight_bytes": int(float_bytes)},
        "points": records,
    }


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
        """The float and quantized arms share one cell (same method,
        config, users); only the served model differs, and only the float
        arm is a memoised cell.  An arm that read the memo would report
        the float score as its own, a silent 0.0 delta.  Seed the float
        cell with a score no 3-query cell can reach and check that no arm
        reads it, or writes the memo."""
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
