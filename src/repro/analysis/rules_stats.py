"""Stats declaration contract: STATS-001.

How a ``stats()`` key may be read is semantic: additive counters total,
ratios recompute from their numerator and denominator, histogram
summaries are never added up.  The semantics live in one pure-literal
manifest (``repro/serve/stats_manifest.py``); this rule closes the loop
by checking that every key the engine *emits* is declared there.  An
undeclared key is exactly the bug the manifest exists to prevent — a
counter whose kind nothing records, so anything that totals or exports
the stats must guess it.

The manifest is read with ``ast.literal_eval``, never imported: the
linter must not execute serve code, and the literal-ness requirement is
itself part of the contract (checked here too).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from .base import FileContext, Rule
from .findings import Finding

__all__ = ["UndeclaredStatKey", "load_manifest"]

MANIFEST_REL = "serve/stats_manifest.py"
_STATS_CLASSES = ("PromptServeEngine",)
_SCALAR_KINDS = ("additive", "capacity", "histogram", "structural")


def load_manifest(root: Path) -> dict | None:
    """The ``STATS_MANIFEST`` literal, or None when absent/non-literal."""
    path = root / MANIFEST_REL
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "STATS_MANIFEST":
                try:
                    manifest = ast.literal_eval(node.value)
                except ValueError:
                    return None
                return manifest if isinstance(manifest, dict) else None
    return None


def _emitted_keys(stats: ast.FunctionDef) -> dict[str, int]:
    """String key -> line for every key ``stats()`` can emit.

    Covers dict-literal keys (``return {"k": ...}``) and constant
    subscript stores (``aggregate["k"] = ...``).  Keys built from
    variables — e.g. the manifest-driven merge loop itself — are by
    construction declared, so they need no static check.
    """
    keys: dict[str, int] = {}
    for node in ast.walk(stats):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and key.value not in keys):
                    keys[key.value] = key.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                        and target.slice.value not in keys):
                    keys[target.slice.value] = target.lineno
    return keys


class UndeclaredStatKey(Rule):
    """Every engine stats() key must be declared in the stats manifest."""

    rule_id = "STATS-001"
    title = "stats() keys must be declared in serve/stats_manifest.py"
    default_hint = ("add the key to STATS_MANIFEST with its aggregation "
                    "kind: additive, capacity, histogram, structural, or "
                    "('ratio', num, den)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.rel.startswith("repro/serve/"):
            return
        manifest = load_manifest(ctx.root)
        if ctx.rel == f"repro/{MANIFEST_REL}":
            if manifest is None:
                anchor = ast.Pass(lineno=1, col_offset=0)
                yield self.finding(
                    ctx, anchor,
                    "STATS_MANIFEST is missing or not a pure literal; the "
                    "linter (and anything else that must not import serve "
                    "code) reads it with ast.literal_eval",
                    hint="keep STATS_MANIFEST a literal dict assignment")
                return
            # Manifest self-consistency: ratio entries must reference
            # declared additive numerators/denominators.
            for key, kind in manifest.items():
                ok = (kind in _SCALAR_KINDS
                      or (isinstance(kind, tuple) and len(kind) == 3
                          and kind[0] == "ratio"
                          and all(part in manifest for part in kind[1:])))
                if not ok:
                    anchor = ast.Pass(lineno=1, col_offset=0)
                    yield self.finding(
                        ctx, anchor,
                        f"manifest entry {key!r} has invalid kind {kind!r} "
                        f"(unknown kind, or ratio referencing undeclared "
                        f"keys)")
            return
        for node in ast.walk(ctx.tree):
            if (not isinstance(node, ast.ClassDef)
                    or node.name not in _STATS_CLASSES):
                continue
            stats = next((m for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and m.name == "stats"), None)
            if stats is None:
                continue
            if manifest is None:
                yield self.finding(
                    ctx, stats,
                    f"{node.name}.stats() cannot be checked: "
                    f"{MANIFEST_REL} is missing or not a pure literal")
                continue
            for key, line in sorted(_emitted_keys(stats).items(),
                                    key=lambda item: item[1]):
                if key in manifest:
                    continue
                anchor = ast.Pass(lineno=line, col_offset=0)
                yield self.finding(
                    ctx, anchor,
                    f"{node.name}.stats() emits {key!r} but "
                    f"STATS_MANIFEST does not declare what kind of "
                    f"number it is")
