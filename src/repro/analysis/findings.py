"""Structured lint findings.

A :class:`Finding` is one rule violation at one source location.  It is
deliberately a plain value — JSON-serializable, orderable, hashable on
its location key — because everything downstream (the text/JSON
formatters, the suppression matcher) works on findings as data, not on
rule internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation: rule id, location, message, fix hint."""

    file: str            # path relative to the source root, e.g. "repro/serve/engine.py"
    line: int            # 1-based line of the offending node
    rule: str            # e.g. "RNG-001"
    message: str = field(compare=False)
    hint: str = field(compare=False, default="")

    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def key(self) -> tuple[str, int, str]:
        """Identity used by suppressions."""
        return (self.file, self.line, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        text = f"{self.location()}: {self.rule}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
