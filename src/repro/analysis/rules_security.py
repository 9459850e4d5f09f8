"""Codec safety: SEC-001.

PR 7 replaced pickle with a typed JSON + raw-array codec
(:mod:`repro.serve.codec`) precisely so that a spilled session file can
never execute code when loaded.  SEC-001 keeps that boundary enforced
everywhere: no ``pickle``/``marshal``/``shelve`` import and no
``eval``/``exec``/``compile`` call anywhere under ``src/repro/``.
``np.load(..., allow_pickle=True)`` counts too — it is pickle with a
numpy hat on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule, attribute_chain
from .findings import Finding

__all__ = ["NoCodeExecution"]

_BANNED_MODULES = {"pickle", "cPickle", "marshal", "shelve", "dill"}
_BANNED_BUILTINS = {"eval", "exec", "compile"}


class NoCodeExecution(Rule):
    """No pickle/marshal imports, no eval/exec/compile calls.

    Session state crosses process and disk boundaries; the only
    deserializers allowed are the typed ones in ``repro/serve/codec.py``.
    A pickle import anywhere is an arbitrary-code-execution path waiting
    for an attacker-controlled spill file.
    """

    rule_id = "SEC-001"
    title = "no pickle/marshal/eval/exec anywhere under src/repro/"
    default_hint = ("serialize through repro.serve.codec (typed JSON + raw "
                    "arrays); dynamic code execution has no place in the "
                    "serving stack")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _BANNED_MODULES:
                        yield self.finding(
                            ctx, node,
                            f"import of {alias.name!r}: loading this format "
                            f"executes arbitrary code from the payload")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in _BANNED_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"import from {node.module!r}: loading this format "
                        f"executes arbitrary code from the payload")
            elif isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if chain is None:
                    continue
                if len(chain) == 1 and chain[0] in _BANNED_BUILTINS:
                    yield self.finding(
                        ctx, node,
                        f"{chain[0]}(...) executes dynamically built code; "
                        f"the codec boundary forbids it")
                elif chain[0].split(".")[0] in _BANNED_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"{'.'.join(chain)}(...) round-trips through an "
                        f"unsafe serializer")
                elif (chain[-1] == "load"
                      and chain[0] in ("np", "numpy")
                      and any(kw.arg == "allow_pickle"
                              and not (isinstance(kw.value, ast.Constant)
                                       and kw.value.value is False)
                              for kw in node.keywords)):
                    yield self.finding(
                        ctx, node,
                        "np.load(..., allow_pickle=True) is pickle by "
                        "another name")
