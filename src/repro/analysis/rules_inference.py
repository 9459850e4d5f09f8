"""The serving and tune paths stay graph-free: INF-001 and TUNE-001.

Serving runs on raw float32 ndarrays (:mod:`repro.llm.infer`): one decode
loop, no autograd graph, no ``Module.training`` flips a concurrent thread
could observe.  The autograd ``forward`` is the training graph and the
cached autograd step is a test oracle (``tests/oracles/generation.py``).
INF-001 keeps a second decode path from growing back: the first
``Tensor(...)`` wrap or ``no_grad()`` block in the inference modules is
how one would start.  TUNE-001 does the same for the tune epoch a
``tune`` request runs: its autoencoder update and soft-prompt steps
differentiate by hand, and their autograd references are test oracles.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import RULES, FileContext, Rule
from .findings import Finding

__all__ = ["GraphFreeInference", "GraphFreeTuning"]

_INFERENCE_FILES = ("repro/llm/infer.py", "repro/llm/kv_cache.py",
                    "repro/llm/generation.py", "repro/llm/speculative.py")
_INFERENCE_DIRS = ("serve", "gateway")
# Training code that lives in an inference module.
_TRAINING_FUNCTIONS = {"distill_draft"}
_CACHE_KEYWORDS = {"past_kv", "use_cache"}


def _walk_inference(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into the training functions."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.FunctionDef)
                and child.name in _TRAINING_FUNCTIONS):
            continue
        yield child
        yield from _walk_inference(child)


@RULES.register("INF-001")
class GraphFreeInference(Rule):
    """No ``Tensor(...)``, ``no_grad``, ``.train()`` or ``past_kv=`` /
    ``use_cache=`` on the inference path.

    Covers ``llm/infer.py``, ``llm/kv_cache.py``, ``llm/generation.py``,
    ``llm/speculative.py`` (outside ``distill_draft``, which trains),
    ``serve/`` and ``gateway/``.  ``KVCache`` and ``KVBuffer`` hold
    ndarrays and every token is decoded by the scheduler's span forward;
    wrapping arrays in ``Tensor``, opening a ``no_grad()`` block,
    restoring train mode after a temporary ``eval()``, or threading a
    cache through the autograd ``forward`` are the four marks of a second
    decode loop.
    Trained KV prefixes arrive as ``Tensor`` pairs and may be *read*
    (``.data``); ``eval()`` may be pinned once at construction.
    """

    rule_id = "INF-001"
    title = "the inference path builds no Tensor and toggles no mode"
    default_hint = ("decode through DecodeScheduler / repro.llm.infer on raw "
                    "ndarrays; an autograd reference belongs in "
                    "tests/oracles/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.rel in _INFERENCE_FILES
                or ctx.in_dir(*_INFERENCE_DIRS)):
            return
        for node in _walk_inference(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "train":
                    yield self.finding(
                        ctx, node,
                        ".train() on the inference path: a mode flip is "
                        "visible to every thread sharing the model")
                elif "Tensor" in (getattr(func, "id", None),
                                  getattr(func, "attr", None)):
                    yield self.finding(
                        ctx, node,
                        "Tensor(...) constructed on the inference path; "
                        "caches and logits are plain ndarrays")
                for keyword in node.keywords:
                    if keyword.arg in _CACHE_KEYWORDS:
                        yield self.finding(
                            ctx, node,
                            f"{keyword.arg}= threads a KV cache through "
                            f"the autograd forward")
            elif isinstance(node, ast.arg) and node.arg in _CACHE_KEYWORDS:
                yield self.finding(
                    ctx, node,
                    f"parameter {node.arg!r}: the inference path has one "
                    f"cache API (prefill's shared KVCache, copied into a "
                    f"private KVBuffer that decode_span advances)")
            elif "no_grad" in (getattr(node, "id", None),
                               getattr(node, "attr", None),
                               getattr(node, "name", None)):
                yield self.finding(
                    ctx, node,
                    "no_grad on the inference path: graph-free code has "
                    "no graph to disable")


_TUNE_FILES = ("repro/compression/autoencoder.py", "repro/tuning/vanilla.py",
               "repro/core/noise_training.py", "repro/core/framework.py",
               "repro/llm/vjp.py")


@RULES.register("TUNE-001")
class GraphFreeTuning(Rule):
    """No ``Tensor(...)`` and no ``.backward()`` on the tune path.

    Covers ``compression/autoencoder.py``, ``tuning/vanilla.py``,
    ``core/noise_training.py``, ``core/framework.py`` and
    ``llm/vjp.py``: the tune epoch a ``tune`` request runs beside the
    decode rounds.  The autoencoder's ``fit`` and the soft-prompt step of
    ``VanillaPromptTuner`` (which ``NoiseAwareTrainer`` wraps) run on raw
    arrays with a hand-written backward that is bit-identical to the
    autograd graph; the graph versions are test oracles
    (``tests/oracles/autoencoder.py``, ``tests/oracles/tuning.py``).
    Prefix tuning, P-tuning v2 and DEPT — baselines off the serving path
    — still use the graph.
    """

    rule_id = "TUNE-001"
    title = "the tune path builds no autograd graph"
    default_hint = ("compute the loss and its gradient on raw ndarrays "
                    "(repro.llm.vjp, OVTAutoencoder._train_step); an "
                    "autograd reference belongs in tests/oracles/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel not in _TUNE_FILES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if "Tensor" in (getattr(func, "id", None),
                            getattr(func, "attr", None)):
                yield self.finding(
                    ctx, node,
                    "Tensor(...) constructed on the tune path: a tune "
                    "epoch runs on raw ndarrays")
            elif isinstance(func, ast.Attribute) and func.attr == "backward":
                yield self.finding(
                    ctx, node,
                    ".backward() on the tune path: gradients are "
                    "written by hand, not replayed from a graph")
