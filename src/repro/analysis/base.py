"""The rule framework: file context and rule protocol.

Rules are small classes listed in :data:`repro.analysis.RULES`, keyed by
their own ``rule_id``.  The engine parses each file under ``src/repro/``
exactly once and hands every rule the same :class:`FileContext`; a rule
yields :class:`~repro.analysis.findings.Finding`s for the invariants it
enforces.  Everything here is pure stdlib ``ast`` — a rule never imports
the module it inspects, so the linter cannot be broken by (or have side
effects on) the code under analysis.

Adding a rule: write the class in a ``rules_*`` module and add it to
the ``RULES`` table in ``repro/analysis/__init__.py``:

    class MyRule(Rule):
        rule_id = "XYZ-001"
        title = "one-line invariant statement"

        def check(self, ctx: FileContext):
            for node in ast.walk(ctx.tree):
                ...
                yield self.finding(ctx, node, "message", hint="fix hint")
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .findings import Finding

__all__ = ["FileContext", "Rule", "attribute_chain", "self_attribute_target"]


@dataclass
class FileContext:
    """One parsed source file, shared by every rule."""

    path: Path           # absolute path on disk
    rel: str             # posix path relative to the source root, "repro/..."
    source: str
    tree: ast.Module
    root: Path           # the package directory being analyzed (".../repro")

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    def in_dir(self, *subdirs: str) -> bool:
        """True when the file lives under any ``repro/<subdir>/``."""
        return any(self.rel.startswith(f"repro/{d}/") for d in subdirs)


class Rule:
    """Base class for lint rules; subclasses implement :meth:`check`."""

    rule_id: str = ""
    title: str = ""
    default_hint: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str, *,
                hint: str | None = None) -> Finding:
        return Finding(file=ctx.rel, line=getattr(node, "lineno", 1),
                       rule=self.rule_id, message=message,
                       hint=self.default_hint if hint is None else hint)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def attribute_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def self_attribute_target(node: ast.AST) -> str | None:
    """The attribute name when ``node`` stores into ``self.<attr>``.

    Recognises plain attributes (``self.x``), subscript stores
    (``self.x[k]``), and nothing deeper — mutating ``self.x.y`` mutates
    the *referenced* object, which lock discipline cannot see statically.
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None
