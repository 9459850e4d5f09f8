"""CLI: ``python -m repro.analysis``.

Exit status is the contract CI relies on: 0 when the tree is clean
(no findings, every suppression reasoned and load-bearing), 1 otherwise.

    python -m repro.analysis                     # text report
    python -m repro.analysis --format json       # machine-readable
    python -m repro.analysis --output out.json   # also write the JSON
    python -m repro.analysis --catalog           # docs/analysis.md source
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine as _engine


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST lint for the repro invariants: determinism, "
                    "lock discipline, snapshot completeness, codec "
                    "safety, stats aggregation.")
    parser.add_argument("--root", type=Path, default=None,
                        help="package directory to analyze (default: the "
                             "installed repro package)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="report format on stdout")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--catalog", action="store_true",
                        help="print the markdown rule catalog (the source "
                             "of docs/analysis.md) and exit")
    args = parser.parse_args(argv)

    if args.catalog:
        from .catalog import render_catalog
        print(render_catalog(), end="")
        return 0

    report = _engine.run_analysis(args.root)
    if args.fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    if args.output is not None:
        args.output.write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                               encoding="utf-8")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
