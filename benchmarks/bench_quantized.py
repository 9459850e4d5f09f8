"""Weight-quantized decode vs float32: the speed x accuracy frontier.

The frozen base model's dense float32 GEMMs are the serving decode
loop's FLOPs/bandwidth floor.  ``quantize_model`` converts every dense
sublayer Linear to :class:`repro.ag.QuantizedLinear` — packed int8/int4
codes, per-group scales, and a fused dequant-matmul kernel whose column
blocks stay cache-resident while the float weights would stream — so
tokens/s rises exactly where the model is big enough for float weights
to spill the last cache level.  The bench model (``quant-bench-sim``,
d_model 512 / d_ff 2048) is sized for that regime; the simulator-scale
paper models are small enough that both paths are cache-resident, which
is why the *accuracy* gates run on ``phi-2-sim`` while the *speed* gate
runs here.

Usage:
    PYTHONPATH=src python benchmarks/bench_quantized.py            # timing
    PYTHONPATH=src python benchmarks/bench_quantized.py --smoke    # CI gate
    PYTHONPATH=src python benchmarks/bench_quantized.py --quick \
        --json BENCH_quantized.json                                # artifact

Smoke mode gates the whole subsystem: per-layer fused-vs-reference
equivalence and batch-layout determinism, int8 decode tokens/s at batch
8 >= ``--min-speedup`` (1.3x) the float path, int4 resident weight bytes
<= 0.3x float32, and the eval-runner accuracy/perplexity deltas at the
shipped default (int8, group 32) within ``--max-accuracy-drop`` /
``--max-ppl-ratio``.  Timing interleaves float/quantized repetitions and
compares medians, so a background-load spike hits both arms instead of
fabricating (or destroying) a speedup.
"""

from __future__ import annotations

import argparse
import copy
import json
import statistics
import sys
import time

import numpy as np

from repro.ag import QuantizedLinear, iter_modules
from repro.data import build_corpus, build_tokenizer
from repro.eval.quantized import quantization_quality
from repro.eval.runner import ExperimentContext
from repro.llm import (
    DecodeScheduler,
    EdgeModelSpec,
    GenerationConfig,
    MODEL_REGISTRY,
    build_model,
    prefill,
    quantization_stats,
    quantize_model,
    register_model,
)

# Sized so one FF weight matrix (512 x 2048 float32 = 4 MiB) exceeds a
# typical L2 while its int8 codes (1 MiB) fit: the fused kernel's win is
# cache residency, not instruction count.
BENCH_SPEC = EdgeModelSpec(
    name="quant-bench-sim", paper_model="edge-7B-class",
    d_model=512, n_heads=8, n_layers=3, d_ff=2048, base_seed=404,
)
if "quant-bench-sim" not in MODEL_REGISTRY:
    register_model(BENCH_SPEC)

PROMPTS = [
    "the movie was", "a quiet morning", "science fiction story",
    "my favorite recipe", "breaking news today", "the weather is",
    "he opened the door", "numbers and letters",
]


def build_bench_model(tok):
    """The bench-scale model, randomly initialized.

    Decode timing doesn't need trained weights — greedy emission is
    deterministic either way, and the GEMM cost is weight-value
    independent — so the bench skips pretraining a 10M-parameter model.
    """
    return build_model("quant-bench-sim", tok.vocab_size, max_seq_len=128)


def check_kernel_equivalence(model, *, mode: str, group_size: int,
                             rtol: float = 2e-4) -> int:
    """Fused kernel vs explicit dequantized-weights GEMM, every layer.

    Also checks batch-layout determinism: each row of a (B, 1, d) batch
    must be bitwise identical to the same row served alone.
    """
    quantized = copy.deepcopy(model)
    quantize_model(quantized, mode, group_size)
    rng = np.random.default_rng(0)
    failures = 0
    for module in iter_modules(quantized):
        if not isinstance(module, QuantizedLinear):
            continue
        x = rng.normal(size=(4, 1, module.in_features)).astype(np.float32)
        fused = module.affine_numpy(x)
        reference = x @ module.dequantized_weight()
        if module.bias is not None:
            reference = reference + module.bias.data
        scale = max(1.0, float(np.abs(reference).max()))
        if float(np.abs(fused - reference).max()) > rtol * scale:
            failures += 1
            print(f"FAIL equivalence {mode} layer "
                  f"({module.in_features}x{module.out_features})")
        solo = np.concatenate([module.affine_numpy(x[i:i + 1])
                               for i in range(x.shape[0])])
        if not (solo == fused).all():
            failures += 1
            print(f"FAIL batch-layout determinism {mode} layer "
                  f"({module.in_features}x{module.out_features})")
    return failures


def decode_run(model, prompts, *, batch: int, max_new: int):
    """Drain one batch through the scheduler; timed decode loop only."""
    scheduler = DecodeScheduler(model)
    sequences = []
    for index in range(batch):
        ids = prompts[index % len(prompts)]
        state = prefill(model, ids[None])
        sequences.append(scheduler.admit(
            state,
            GenerationConfig(max_new_tokens=max_new, temperature=0.0),
            prompt_ids=ids))
    start = time.perf_counter()
    while scheduler.has_active:
        scheduler.decode_round()
    elapsed = time.perf_counter() - start
    return elapsed, [tuple(seq.generated) for seq in sequences]


def timed_comparison(float_model, quantized_model, prompts, *, batch: int,
                     max_new: int, reps: int) -> dict:
    """Interleaved float/quantized decode medians at one batch size."""
    float_times, quant_times = [], []
    for _ in range(reps):
        elapsed, _ = decode_run(float_model, prompts, batch=batch,
                                max_new=max_new)
        float_times.append(elapsed)
        elapsed, _ = decode_run(quantized_model, prompts, batch=batch,
                                max_new=max_new)
        quant_times.append(elapsed)
    tokens = batch * max_new
    t_float = statistics.median(float_times)
    t_quant = statistics.median(quant_times)
    return {
        "tokens": tokens,
        "tokens_per_s_float32": tokens / t_float,
        "tokens_per_s_quantized": tokens / t_quant,
        "speedup": t_float / t_quant,
    }


def run_gated(*, batch: int, max_new: int, reps: int, min_speedup: float,
              max_int4_bytes_ratio: float, max_accuracy_drop: float,
              max_ppl_ratio: float, equivalence: bool, quality: bool,
              json_path: str | None, label: str) -> int:
    tok = build_tokenizer()
    build_corpus(tok, n_sentences=50, seed=0)  # materialize tokenizer vocab
    model = build_bench_model(tok)
    model.eval()
    prompts = [np.asarray(tok.encode(text), dtype=np.int64)
               for text in PROMPTS]

    failures = 0
    if equivalence:
        for mode in ("int8", "int4"):
            failures += check_kernel_equivalence(model, mode=mode,
                                                 group_size=32)
        print(f"equivalence: {'OK' if not failures else 'FAIL'}")
        if failures:
            return 1

    # --- speed: int8 decode at serving batch size ----------------------
    int8_model = copy.deepcopy(model)
    quantize_model(int8_model, "int8", 32)
    int8_model.eval()
    timing = timed_comparison(model, int8_model, prompts, batch=batch,
                              max_new=max_new, reps=reps)
    print(f"\n=== Quantized decode: batch {batch} x {max_new} tokens "
          f"(quant-bench-sim, int8 g32) ===")
    print(f"float32:   {timing['tokens_per_s_float32']:8.1f} tok/s")
    print(f"int8:      {timing['tokens_per_s_quantized']:8.1f} tok/s")
    print(f"speedup:   {timing['speedup']:8.2f}x")

    # --- memory: int4 resident bytes -----------------------------------
    int4_model = copy.deepcopy(model)
    quantize_model(int4_model, "int4", 32)
    int4_stats = quantization_stats(int4_model)
    dense_bytes = int4_stats["weight_bytes"] + int4_stats["weight_bytes_saved"]
    int4_ratio = int4_stats["weight_bytes"] / dense_bytes
    print(f"int4 bytes: {int4_stats['weight_bytes']} / {dense_bytes} "
          f"({int4_ratio:.3f}x float32)")

    # --- quality: eval-runner deltas at the shipped default ------------
    quality_report = None
    if quality:
        context = ExperimentContext(seed=0, corpus_sentences=600,
                                    n_queries=4)
        quality_report = quantization_quality(
            context, "phi-2-sim", "LaMP-1",
            points=(("int8", 32), ("int4", 32)), user_ids=(0, 1),
            ppl_windows=8)
        print("\nfrontier (phi-2-sim, LaMP-1):")
        print(f"  float32: accuracy {quality_report['float32']['accuracy']:.3f}"
              f"  ppl {quality_report['float32']['perplexity']:.3f}")
        for point in quality_report["points"]:
            print(f"  {point['mode']:>5} g{point['group_size']}: "
                  f"accuracy {point['accuracy']:.3f} "
                  f"(delta {point['accuracy_delta']:+.3f})  "
                  f"ppl ratio {point['perplexity_ratio']:.4f}  "
                  f"bytes {point['weight_bytes']}")

    if json_path:
        payload = {
            "benchmark": "quantized",
            "config": {"batch": batch, "tokens_per_answer": max_new,
                       "model": "quant-bench-sim", "group_size": 32,
                       "reps": reps, "mode": label},
            **timing,
            "int4_bytes_ratio": int4_ratio,
            "int4_weight_bytes": int4_stats["weight_bytes"],
            "quality": quality_report,
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {json_path}")

    if timing["speedup"] < min_speedup:
        print(f"FAIL: int8 speedup {timing['speedup']:.2f}x below required "
              f"{min_speedup}x")
        return 1
    if int4_ratio > max_int4_bytes_ratio:
        print(f"FAIL: int4 byte ratio {int4_ratio:.3f} above "
              f"{max_int4_bytes_ratio}")
        return 1
    if quality_report is not None:
        shipped = quality_report["points"][0]   # int8 g32, the default
        if shipped["accuracy_delta"] < -max_accuracy_drop:
            print(f"FAIL: int8 accuracy delta {shipped['accuracy_delta']:+.3f} "
                  f"below -{max_accuracy_drop}")
            return 1
        if shipped["perplexity_ratio"] > max_ppl_ratio:
            print(f"FAIL: int8 perplexity ratio "
                  f"{shipped['perplexity_ratio']:.4f} above {max_ppl_ratio}")
            return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: equivalence + speedup + bytes + "
                             "accuracy-delta requirements")
    parser.add_argument("--quick", action="store_true",
                        help="reduced timing run (CI perf artifact)")
    parser.add_argument("--batch", type=int, default=8,
                        help="concurrent sequences in the decode batch")
    parser.add_argument("--tokens", type=int, default=32,
                        help="tokens generated per sequence")
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="required int8-vs-float32 tokens/s ratio")
    parser.add_argument("--max-int4-bytes", type=float, default=0.3,
                        help="max int4 resident bytes as a float32 fraction")
    parser.add_argument("--max-accuracy-drop", type=float, default=0.05,
                        help="max answer-accuracy drop at int8 g32")
    parser.add_argument("--max-ppl-ratio", type=float, default=1.05,
                        help="max perplexity ratio at int8 g32")
    parser.add_argument("--json", type=str, default=None,
                        help="write machine-readable results here")
    args = parser.parse_args(argv)
    common = dict(min_speedup=args.min_speedup,
                  max_int4_bytes_ratio=args.max_int4_bytes,
                  max_accuracy_drop=args.max_accuracy_drop,
                  max_ppl_ratio=args.max_ppl_ratio,
                  json_path=args.json)
    if args.smoke:
        return run_gated(batch=8, max_new=24, reps=7, equivalence=True,
                         quality=True, label="smoke", **common)
    if args.quick:
        return run_gated(batch=min(args.batch, 8),
                         max_new=min(args.tokens, 24), reps=5,
                         equivalence=False, quality=False, label="quick",
                         **common)
    return run_gated(batch=args.batch, max_new=args.tokens, reps=9,
                     equivalence=True, quality=True, label="full", **common)


if __name__ == "__main__":
    sys.exit(main())
