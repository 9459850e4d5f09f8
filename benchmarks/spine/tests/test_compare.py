"""Verdicts of ``compare.py``."""

from spine import compare

STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]


def shifted(values, factor):
    return [v * factor for v in values]


def test_unchanged_within_the_bound():
    assert compare.verdict(STEADY, shifted(STEADY, 1.05), better="lower",
                           bound=0.10) == "unchanged"


def test_regressed_beyond_the_bound_in_either_direction_of_better():
    assert compare.verdict(STEADY, shifted(STEADY, 1.2), better="lower",
                           bound=0.10) == "regressed"
    assert compare.verdict(STEADY, shifted(STEADY, 0.8), better="higher",
                           bound=0.10) == "regressed"


def test_improved_needs_every_run_better():
    assert compare.verdict(STEADY, shifted(STEADY, 0.8), better="lower",
                           bound=0.10) == "improved"
    overlapping = shifted(STEADY, 0.8)[:-1] + [10.0]
    assert compare.verdict(STEADY, overlapping, better="lower",
                           bound=0.10) == "unchanged"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.5, 12.5, 9.5, 10.5, 10.0]
    assert compare.verdict(noisy, shifted(noisy, 1.08), better="lower",
                           bound=0.10) == "unresolved"
    # ... unless the runs separate cleanly.
    assert compare.verdict(noisy, shifted(noisy, 2.0), better="lower",
                           bound=0.10) == "regressed"


def test_report_lists_differing_exact_counts():
    def result(sha):
        run = {"metrics": {m.name: 1.0 for m in compare.END_TO_END},
               "failed": 0}
        return {"workloads": {"w": {
            "runs": [run],
            "traced": {"seed": 0, "seconds": 10,
                       "exact_counts": {"requests": 5,
                                        "answers_sha256": sha}}}}}
    lines, bad = compare.compare(result("aa"), result("aa"))
    assert bad == 0 and lines[-1].strip() == "none"
    lines, bad = compare.compare(result("aa"), result("bb"))
    assert bad == 1 and "w.answers_sha256" in lines[-1]
