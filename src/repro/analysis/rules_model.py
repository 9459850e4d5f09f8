"""The shared base model is read-only after set-up: MODEL-001."""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule
from .findings import Finding

__all__ = ["ReadOnlyBaseModel"]

_CONVERTERS = {"quantize_model", "quantize_model_weights"}


class ReadOnlyBaseModel(Rule):
    """No model conversion, ``requires_grad`` write or weight swap under
    ``serve/``, ``gateway/``, ``core/`` and ``tuning/``.

    ``TinyCausalLM`` is built frozen, ``pretrain_lm`` is the one writer of
    its weights and ``quantize_model`` converts it before an engine holds
    it; from then on every engine, worker, tuner and gateway thread shares
    the one object.  Flags calls to ``quantize_model`` /
    ``quantize_model_weights`` and stores (plain, unpacked, augmented or
    through a subscript) into ``.requires_grad``, ``<...>.weight.data``
    and ``<...>.bias.data``.  A variant (DEPT's shifted embedding table)
    is built on a copy.
    """

    rule_id = "MODEL-001"
    title = "the shared base model is read-only after set-up"
    default_hint = ("convert and train the model where it is built, before "
                    "an engine or tuner holds it; build a variant on a copy")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dir("serve", "gateway", "core", "tuning"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in _CONVERTERS:
                    yield self.finding(
                        ctx, node, f"{name}() converts a shared model")
            elif (isinstance(node, (ast.Attribute, ast.Subscript))
                  and isinstance(node.ctx, ast.Store)):
                target = node
                while isinstance(target, ast.Subscript):   # x.data[i] = v
                    target = target.value
                owner = getattr(getattr(target, "value", None), "attr", None)
                attr = getattr(target, "attr", None)
                if attr == "requires_grad" or (
                        attr == "data" and owner in ("weight", "bias")):
                    yield self.finding(
                        ctx, target, f"writes .{attr} of a shared model")
