"""Snapshot completeness: SNAP-001.

PR 7's guarantee — a spilled session restores bit-identically — only
holds while ``snapshot()/restore()`` cover *every* piece of mutable
state.  The failure mode is silent: someone adds ``self.new_counter``
to ``__init__``, snapshots keep round-tripping (they just drop it), and
the bug surfaces weeks later as a counter that resets across eviction.

For every class that defines ``snapshot()``, each instance attribute
assigned in ``__init__`` must be *mentioned* somewhere in the class's
snapshot-family methods (``snapshot``, ``restore``,
``from_snapshot``, ``_check_snapshot``) — as a
``self.<attr>`` access or as a string key — or be listed in an explicit
class-level ``_SNAPSHOT_EXCLUDED`` tuple documenting why it does not
travel (config re-supplied by the caller, derived caches rebuilt
lazily, ...).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule
from .findings import Finding

__all__ = ["SnapshotCompleteness", "SNAPSHOT_METHODS"]

SNAPSHOT_METHODS = ("snapshot", "restore", "from_snapshot",
                    "_check_snapshot")


def _init_attrs(init: ast.FunctionDef) -> dict[str, int]:
    """Attribute -> first assignment line for every ``self.x = ...``."""
    attrs: dict[str, int] = {}
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        flat: list[ast.AST] = []
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                flat.extend(target.elts)
            else:
                flat.append(target)
        for target in flat:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in attrs):
                attrs[target.attr] = node.lineno
    return attrs


def _mentioned_names(methods: list[ast.FunctionDef]) -> set[str]:
    """Every ``self.<attr>`` name and string constant in the methods."""
    names: set[str] = set()
    for method in methods:
        for node in ast.walk(method):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.add(node.value)
    return names


def _excluded(cls: ast.ClassDef) -> set[str]:
    """Names in a class-level ``_SNAPSHOT_EXCLUDED`` tuple/list."""
    for node in cls.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Name)
                    and target.id == "_SNAPSHOT_EXCLUDED"
                    and isinstance(node.value, (ast.Tuple, ast.List))):
                return {elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)}
    return set()


class SnapshotCompleteness(Rule):
    """``__init__`` state must travel through snapshot/restore."""

    rule_id = "SNAP-001"
    title = "every __init__ attribute must be snapshotted or excluded"
    default_hint = ("capture the attribute in snapshot()/restore(), or add "
                    "it to the class's _SNAPSHOT_EXCLUDED tuple with a "
                    "comment saying why it does not travel")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {m.name: m for m in node.body
                       if isinstance(m, ast.FunctionDef)}
            if "snapshot" not in methods or "__init__" not in methods:
                continue
            family = [methods[name] for name in SNAPSHOT_METHODS
                      if name in methods]
            covered = _mentioned_names(family) | _excluded(node)
            for attr, line in sorted(_init_attrs(methods["__init__"]).items(),
                                     key=lambda item: item[1]):
                if attr in covered:
                    continue
                anchor = ast.copy_location(ast.Pass(), methods["__init__"])
                anchor.lineno = line
                yield self.finding(
                    ctx, anchor,
                    f"{node.name}.__init__ assigns self.{attr} but "
                    f"snapshot()/restore() never mention it and it is "
                    f"not in _SNAPSHOT_EXCLUDED; the attribute will "
                    f"silently reset on a spill/restore cycle")
