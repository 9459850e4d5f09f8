"""Docs stay true: executable snippets, generated catalog, live links.

Three freshness guarantees over ``README.md`` and ``docs/*.md``:

- every fenced ``python`` code block actually runs.  Blocks are
  concatenated per file and executed in ONE subprocess, so later blocks
  may build on names defined by earlier ones (the files read top to
  bottom).  A fence whose info string carries extra words — e.g.
  ``python fragment`` — is illustrative and skipped;
- ``docs/analysis.md`` is byte-identical to what the rule zoo renders
  (``python -m repro.analysis --catalog``), so the catalog cannot drift
  from the registered rules;
- every relative markdown link resolves to a file or directory that
  exists in the repo.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS_DIR = REPO_ROOT / "docs"

_FENCE = re.compile(r"^(`{3,})(.*)$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted(DOCS_DIR.glob("*.md")))
    return files


def fenced_blocks(text: str) -> list[tuple[str, str]]:
    """``(info_string, body)`` for every fenced code block, in order."""
    blocks: list[tuple[str, str]] = []
    fence: str | None = None
    info = ""
    body: list[str] = []
    for line in text.splitlines():
        match = _FENCE.match(line)
        if fence is None:
            if match:
                fence, info, body = match.group(1), match.group(2).strip(), []
        elif match and match.group(1).startswith(fence) and not match.group(2):
            blocks.append((info, "\n".join(body)))
            fence = None
        else:
            body.append(line)
    assert fence is None, "unterminated code fence"
    return blocks


def python_blocks(path: Path) -> list[str]:
    """Executable python blocks: info string exactly ``python``."""
    return [body for info, body in fenced_blocks(path.read_text())
            if info.split() == ["python"]]


@pytest.mark.parametrize("path", markdown_files(),
                         ids=lambda p: p.relative_to(REPO_ROOT).as_posix())
class TestDocsSnippets:
    def test_python_blocks_execute(self, path: Path, tmp_path: Path) -> None:
        blocks = python_blocks(path)
        if not blocks:
            pytest.skip(f"{path.name} has no executable python blocks")
        script = tmp_path / f"snippets_{path.stem}.py"
        script.write_text("\n\n".join(blocks) + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, str(script)],
                              cwd=REPO_ROOT, env=env, timeout=600,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (
            f"python blocks of {path.name} failed "
            f"(concatenated into {script.name}):\n"
            f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}")

    def test_relative_links_resolve(self, path: Path) -> None:
        # Strip code blocks first: a ``[x](y)`` inside a snippet is code,
        # not a link.
        text = path.read_text()
        prose = []
        fence: str | None = None
        for line in text.splitlines():
            match = _FENCE.match(line)
            if fence is None:
                if match:
                    fence = match.group(1)
                else:
                    prose.append(line)
            elif (match and match.group(1).startswith(fence)
                  and not match.group(2)):
                fence = None
        broken = []
        for target in _LINK.findall("\n".join(prose)):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"broken relative links in {path.name}: {broken}"


class TestAnalysisCatalog:
    def test_catalog_matches_rule_zoo(self) -> None:
        from repro.analysis.catalog import render_catalog

        committed = (DOCS_DIR / "analysis.md").read_text()
        rendered = render_catalog()
        assert committed == rendered, (
            "docs/analysis.md is stale — regenerate it with:\n"
            "  PYTHONPATH=src python -m repro.analysis --catalog "
            "> docs/analysis.md")

    def test_catalog_covers_every_registered_rule(self) -> None:
        from repro.analysis import RULES

        committed = (DOCS_DIR / "analysis.md").read_text()
        missing = [name for name in sorted(RULES)
                   if f"## {name}" not in committed]
        assert not missing, f"rules missing from docs/analysis.md: {missing}"
