"""Render the rule zoo as a markdown catalog (``--catalog``).

``docs/analysis.md`` is generated from this module so the documented
rule set can never drift from the one that runs: each entry is built
from the live :data:`~repro.analysis.RULES` table — rule id,
one-line title, the rule class's own docstring, and its default fix
hint.  ``tests/test_docs.py`` regenerates the catalog and fails when the
committed file differs.
"""

from __future__ import annotations

import inspect

from . import RULES

__all__ = ["render_catalog"]

_HEADER = """\
# Static analysis rule catalog

<!-- Generated by `PYTHONPATH=src python -m repro.analysis --catalog`.
     Do not edit by hand: tests/test_docs.py regenerates this file and
     fails on drift. -->

`repro.analysis` is a pure-stdlib `ast` linter enforcing the invariants
the test suite cannot see directly — determinism, lock discipline,
snapshot completeness, codec safety, stats aggregation.  Run it with:

```bash
PYTHONPATH=src python -m repro.analysis                   # text report
PYTHONPATH=src python -m repro.analysis --format json     # machine-readable
PYTHONPATH=src python -m repro.analysis --catalog         # this document
```

Exit status 0 means clean: no findings, every suppression reasoned and
load-bearing.
"""

_FOOTER = """\
## Engine-level checks: SUP-001 / SUP-002

Suppressions are findings too.  An inline waiver must carry a reason —

```python fragment
jitter = np.random.default_rng(0)  # repro: noqa[RNG-001] plot jitter only
```

— and the engine itself enforces two meta-invariants: a suppression
without a reason fails as `SUP-001`, and a suppression that no longer
matches any finding fails as `SUP-002`, so waivers cannot outlive the
code they excused.  A suppression naming no rule in the table fails as
`SUP-002` too, and its message lists the rule ids.

## Accepting a finding

There is one way: an inline `# repro: noqa[RULE-ID] <reason>` on the
offending line, next to the code it excuses, saying why the waiver is
sound.  There is no baseline file of known findings; a new rule lands
with the tree clean under it.

## Adding a rule

Subclass `repro.analysis.Rule` with its own `rule_id`, yield
`Finding`s from `check(ctx)`, add the class to the `RULES` table in
`repro/analysis/__init__.py`, and add its true-positive /
true-negative / suppressed fixtures in `tests/analysis/test_rules.py`.
A rule in that table appears in this catalog automatically.
"""


def render_catalog() -> str:
    """The markdown rule catalog, one section per rule."""
    parts = [_HEADER]
    for rule_id, rule in sorted(RULES.items()):
        parts.append(f"## {rule_id} — {rule.title}")
        doc = inspect.getdoc(rule)
        if doc:
            parts.append(doc)
        if rule.default_hint:
            parts.append(f"**Fix hint:** {rule.default_hint}")
    parts.append(_FOOTER)
    return "\n\n".join(parts).rstrip() + "\n"
