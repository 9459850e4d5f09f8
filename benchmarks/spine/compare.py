"""Compare two result files of ``run.py`` (suite mode).

    python3 benchmarks/spine/compare.py A.json B.json

For every workload x end-to-end metric: both medians, the bound, and a
verdict for B against A —

* ``regressed``   B's median is worse than A's by more than the bound;
* ``improved``    B's median is better by more than A's own spread, and
                  every run of B reads better than every run of A;
* ``unresolved``  either side's spread (q3 - q1 over the median) is wider
                  than the bound, and the runs do not separate cleanly;
* ``unchanged``   otherwise.

Then every exact count (traced pass) and ``answers_sha256`` that differs.
Exit status 1 when anything regressed or an exact count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spine.catalog import END_TO_END  # noqa: E402
from spine.measure import spread  # noqa: E402


def _spread(values: list[float]) -> float:
    """The driver's spread; a single run has none."""
    return spread(values) if len(values) >= 2 else 0.0


def verdict(a: list[float], b: list[float], *, better: str,
            bound: float) -> str:
    """B against A for one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / median_a
    separated_better = (max(b) < min(a) if better == "lower"
                        else min(b) > max(a))
    separated_worse = (min(b) > max(a) if better == "lower"
                       else max(b) < min(a))
    noisy = max(_spread(a), _spread(b)) > bound
    if worse_by > bound and (not noisy or separated_worse):
        return "regressed"
    if noisy and not (separated_better or separated_worse):
        return "unresolved"
    if separated_better and -worse_by > _spread(a):
        return "improved"
    return "unchanged"


def _runs(result: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]
            for run in result["workloads"][workload]["runs"]]


def compare(result_a: dict, result_b: dict) -> tuple[list[str], int]:
    """``(report lines, number of regressions + differing counts)``."""
    lines = [f"{'workload':<20} {'metric':<14} {'A median':>12} "
             f"{'B median':>12} {'unit':<6} {'bound':>6}  verdict"]
    bad = 0
    shared = [name for name in result_a["workloads"]
              if name in result_b["workloads"]]
    for workload in shared:
        for metric in END_TO_END:
            a = _runs(result_a, workload, metric.name)
            b = _runs(result_b, workload, metric.name)
            outcome = verdict(a, b, better=metric.better, bound=metric.bound)
            bad += outcome == "regressed"
            lines.append(
                f"{workload:<20} {metric.name:<14} "
                f"{statistics.median(a):>12.5g} {statistics.median(b):>12.5g} "
                f"{metric.unit:<6} {metric.bound:>6.2f}  {outcome}"
                f"  (n={len(a)}/{len(b)}, spread "
                f"{_spread(a):.3f}/{_spread(b):.3f})")
        for side, result in (("A", result_a), ("B", result_b)):
            failed = sum(run["failed"]
                         for run in result["workloads"][workload]["runs"])
            if failed:
                bad += 1
                lines.append(f"{workload:<20} {side}: {failed} failed "
                             f"operations")
    lines.append("")
    lines.append("exact counts (traced pass) that differ:")
    differing = 0
    for workload in shared:
        traced_a = result_a["workloads"][workload].get("traced")
        traced_b = result_b["workloads"][workload].get("traced")
        if not traced_a or not traced_b:
            lines.append(f"  {workload}: no traced pass on both sides")
            continue
        if (traced_a["seed"], traced_a["seconds"]) != (
                traced_b["seed"], traced_b["seconds"]):
            lines.append(f"  {workload}: traced with different seed or "
                         f"seconds; counts are not comparable")
            continue
        counts_a, counts_b = traced_a["exact_counts"], traced_b["exact_counts"]
        for key in sorted(set(counts_a) | set(counts_b)):
            if counts_a.get(key) != counts_b.get(key):
                differing += 1
                lines.append(f"  {workload}.{key}: {counts_a.get(key)!r} "
                             f"!= {counts_b.get(key)!r}")
    if not differing:
        lines.append("  none")
    return lines, bad + differing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    result_a, result_b = (json.loads(Path(path).read_text(encoding="utf-8"))
                          for path in argv)
    lines, bad = compare(result_a, result_b)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
