"""Quality harness for the weight-quantized serving path.

Deployment story under test: users' OVT libraries are tuned against the
*float32* base model (tuning happens off-device or before compression),
then served by an engine whose base model has been converted to the
packed int8/int4 execution path.  This module measures what that
conversion costs in output quality:

- :func:`perplexity` — teacher-forced perplexity of a model over corpus
  windows, the standard intrinsic quality number for weight quantization.
- :func:`quantization_quality` — one frontier point per requested
  ``(mode, group_size)``: answer accuracy through the full serving path
  (retrieval -> soft prompt -> decode) and perplexity, each with its
  delta vs the float32 reference, plus the resident-weight footprint.

``tests/eval/test_quantized_quality.py`` gates the shipped default's
deltas; decode speed is the spine's ``llm.int8_tokens_per_s_b8``.
"""

from __future__ import annotations

import copy

import numpy as np

from ..ag import Linear, iter_modules
from ..core.framework import FrameworkConfig
from ..llm import infer
from ..llm.quantization import quantization_stats, quantize_model
from ..llm.transformer import TinyCausalLM
from .runner import TABLE1_METHODS, ExperimentContext, evaluate_method

__all__ = ["perplexity", "quantization_quality"]


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

    Accuracy is :func:`~repro.eval.runner.evaluate_method` on the
    NVCiM-PT column: libraries are tuned against the context's memoised
    float model, and each point converts one ``deepcopy`` of it that
    serves the point's accuracy and scores its perplexity, so the shared
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
        accuracy = evaluate_method(context, model_name, dataset_name, method,
                                   base_config, user_ids=user_ids, model=arm)
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
