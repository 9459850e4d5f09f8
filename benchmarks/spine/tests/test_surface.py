"""The stable-surface rule: the benchmark reaches ``repro`` only through
names a package ``__init__`` exports, and never through the reference
switches later ROADMAP items delete — so a refactor that keeps the public
surface cannot be blocked by frozen benchmark code."""

import ast
import importlib

import pytest

from spine import SPINE_DIR, tracing

SOURCES = sorted(path for path in SPINE_DIR.rglob("*.py")
                 if "out" not in path.relative_to(SPINE_DIR).parts)

# Spelled in pieces so that this file passes its own grep.
FORBIDDEN = ["batched=" + "False", "vectorized" + "=", "use_cache=" + "False",
             "reference" + "_forward", "_Fast" + "Draft", "_Draft" + "Round"]


def _is_package(module_name: str) -> bool:
    return hasattr(importlib.import_module(module_name), "__path__")


def test_there_are_sources_to_check():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_exported_names_are_imported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("repro."), (
                    f"{path.name}: import {alias.name}")
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        module = node.module or ""
        if module != "repro" and not module.startswith("repro."):
            continue
        assert _is_package(module), (
            f"{path.name}: {module} is a module, not a package")
        exported = set(importlib.import_module(module).__all__)
        for alias in node.names:
            assert alias.name in exported, (
                f"{path.name}: {module}.{alias.name} is not exported")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_reference_switch_is_used(path):
    text = path.read_text(encoding="utf-8")
    for needle in FORBIDDEN:
        assert needle not in text, f"{path.name} uses {needle!r}"


def test_wrap_table_targets_are_exported():
    for _, layer, target in tracing.WRAP_TABLE:
        module_name, _, path = target.partition(":")
        assert _is_package(module_name), target
        assert module_name == f"repro.{layer}", target
        exported = importlib.import_module(module_name).__all__
        assert path.split(".")[0] in exported, target
