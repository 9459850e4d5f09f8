"""The serving and training paths stay graph-free: INF-001 and TUNE-001.

Serving runs on raw float32 ndarrays (:mod:`repro.llm.infer`): one decode
loop, no autograd graph.  The autograd forward and the cached autograd
step are test oracles (``tests/oracles/``).  INF-001 keeps a second
decode path from growing back: the first ``Tensor(...)`` wrap or
``no_grad()`` block in the inference modules is how one would start.
TUNE-001 does the same for training: the tune epoch a ``tune`` request
runs, the prompt-tuning baselines and pretraining differentiate by hand
(:mod:`repro.llm.vjp`), and their autograd references are test oracles.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule
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


class GraphFreeInference(Rule):
    """No ``Tensor(...)``, ``no_grad`` or ``past_kv=`` / ``use_cache=`` on
    the inference path.

    Covers ``llm/infer.py``, ``llm/kv_cache.py``, ``llm/generation.py``,
    ``llm/speculative.py`` (outside ``distill_draft``, which trains),
    ``serve/`` and ``gateway/``.  ``KVCache`` and ``KVBuffer`` hold
    ndarrays — trained KV prefixes and soft prompts too — and every token
    is decoded by the scheduler's span forward; wrapping arrays in
    ``Tensor``, opening a ``no_grad()`` block, or threading a cache
    through an autograd forward are the three marks of a second decode
    loop.
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
                if "Tensor" in (getattr(func, "id", None),
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


_TUNE_FILES = ("repro/compression/autoencoder.py",
               "repro/core/noise_training.py", "repro/core/framework.py",
               "repro/llm/vjp.py", "repro/llm/pretrain.py")
_TUNE_DIRS = ("tuning",)


class GraphFreeTuning(Rule):
    """No ``Tensor(...)`` and no ``.backward()`` where the repo trains.

    Covers every module under ``tuning/`` (the four prompt-tuning methods
    and their loop), ``compression/autoencoder.py``,
    ``core/noise_training.py``, ``core/framework.py``, ``llm/vjp.py`` and
    ``llm/pretrain.py`` (which ``distill_draft`` runs too).  The
    autoencoder's ``fit``, every prompt-tuning step and every pretraining
    step run the serving forward on raw arrays (``infer.extend`` with a
    tape) and a hand-written backward that is bit-identical to the
    autograd graph; the graph versions are test
    oracles (``tests/oracles/autoencoder.py``, ``tests/oracles/tuning.py``,
    ``tests/oracles/training.py``), and so is the autograd transformer
    (``tests/oracles/graph.py``).
    """

    rule_id = "TUNE-001"
    title = "training builds no autograd graph"
    default_hint = ("compute the loss and its gradient on raw ndarrays "
                    "(infer.extend with a tape and repro.llm.vjp, "
                    "OVTAutoencoder._train_step); an autograd reference "
                    "belongs in tests/oracles/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.rel in _TUNE_FILES or ctx.in_dir(*_TUNE_DIRS)):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if "Tensor" in (getattr(func, "id", None),
                            getattr(func, "attr", None)):
                yield self.finding(
                    ctx, node,
                    "Tensor(...) constructed on a training path: "
                    "training runs on raw ndarrays")
            elif isinstance(func, ast.Attribute) and func.attr == "backward":
                yield self.finding(
                    ctx, node,
                    ".backward() on a training path: gradients are "
                    "written by hand, not replayed from a graph")
