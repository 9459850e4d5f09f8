"""The analysis engine: walk, check, suppress, report.

One pass over every ``*.py`` under the package root parses each file
once and hands the shared :class:`~repro.analysis.base.FileContext` to
every rule.  Raw findings then meet the one way to accept
one: an inline ``# repro: noqa[RULE-ID] <reason>`` on the offending line
waives that rule there.  The reason is mandatory (SUP-001 fires without
one) and a suppression that no longer matches any finding is itself an
error (SUP-002), so waivers cannot outlive the code they excused.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from .base import FileContext
from .findings import Finding

__all__ = ["Suppression", "Report", "run_analysis", "iter_contexts",
           "parse_suppressions"]

# Inline waiver:  # repro: noqa[RULE-ID] reason for waiving it here
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*noqa\[([A-Z]+-\d{3})\]\s*(.*?)\s*$")


@dataclass
class Suppression:
    """One inline waiver: rule ``rule`` is excused on ``file:line``."""

    file: str
    line: int
    rule: str
    reason: str
    used: bool = False


def parse_suppressions(rel: str, source: str) -> list[Suppression]:
    """Real ``# repro: noqa[...]`` comments (tokenized, so the same text
    inside a docstring or string literal does not count)."""
    sups = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return sups
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match:
            sups.append(Suppression(file=rel, line=token.start[0],
                                    rule=match.group(1),
                                    reason=match.group(2)))
    return sups


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parents[1]


def iter_contexts(root: Path) -> list[FileContext]:
    """Parse every ``*.py`` under ``root`` once, in stable order."""
    root = root.resolve()
    contexts = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        source = path.read_text(encoding="utf-8")
        rel = (Path(root.name) / path.relative_to(root)).as_posix()
        contexts.append(FileContext(path=path, rel=rel, source=source,
                                    tree=ast.parse(source, filename=rel),
                                    root=root))
    return contexts


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class Report:
    """Everything one analysis run produced, as data."""

    findings: list[Finding] = field(default_factory=list)    # fail the run
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [{**f.to_dict(), "reason": reason}
                           for f, reason in self.suppressed],
        }

    def render_text(self) -> str:
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
        lines.append(
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{self.files_checked} file(s), "
            f"{len(self.rules_run)} rule(s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_analysis(root: Path | None = None, *,
                 rules: dict | None = None) -> Report:
    """Check every file under ``root`` with every rule in ``rules``
    (default: the full :data:`repro.analysis.RULES` table)."""
    from . import RULES  # built by the package after it imports this module
    rules = RULES if rules is None else rules
    root = (root or default_root()).resolve()
    instances = {rule_id: cls() for rule_id, cls in sorted(rules.items())}

    raw: list[Finding] = []
    suppressions: list[Suppression] = []
    contexts = iter_contexts(root)
    for ctx in contexts:
        suppressions.extend(parse_suppressions(ctx.rel, ctx.source))
        for rule in instances.values():
            raw.extend(rule.check(ctx))

    report = Report(files_checked=len(contexts),
                    rules_run=tuple(instances))

    # Suppressions waive same-file/line/rule findings (and must be both
    # reasoned and load-bearing).
    by_key = {(s.file, s.line, s.rule): s for s in suppressions}
    kept: list[Finding] = []
    for finding in raw:
        sup = by_key.get(finding.key())
        if sup is not None:
            sup.used = True
            report.suppressed.append((finding, sup.reason))
        else:
            kept.append(finding)
    for sup in suppressions:
        if not sup.reason:
            kept.append(Finding(
                file=sup.file, line=sup.line, rule="SUP-001",
                message=f"suppression of {sup.rule} has no reason; "
                        f"write why the waiver is sound",
                hint="# repro: noqa[RULE-ID] <reason>"))
        if not sup.used:
            kept.append(Finding(
                file=sup.file, line=sup.line, rule="SUP-002",
                message=(f"suppression of {sup.rule} matches no finding; "
                         f"the code it excused is gone — delete it"
                         if sup.rule in RULES else
                         f"suppression of unknown rule {sup.rule}; "
                         f"rules: {sorted(RULES)}"),
                hint="remove the stale # repro: noqa comment"))

    report.findings = sorted(kept)
    return report
