"""``BENCHMARK.json`` against the catalogue and the driver's limits."""

import json
import re

from spine import REPO_ROOT, catalog
from spine.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_file_is_what_the_catalogue_generates():
    assert load() == catalog.benchmark_json(WORKLOADS.values())


def test_shape_and_limits():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (REPO_ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 1 <= len(spec["paths"]) <= 16
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p
               for p in spec["paths"])
    assert len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_setup_time_is_an_end_to_end_metric_with_the_largest_bound():
    metrics = {m["name"]: m for m in load()["end_to_end"]}
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())


def test_every_layer_on_the_serving_path_has_metrics():
    layers = {metric.layer for metric in catalog.PER_LAYER}
    assert {"gateway", "serve", "core", "tuning", "compression",
            "retrieval", "cim", "nvm", "llm", "ag"} <= layers
    for metric in catalog.PER_LAYER:
        assert metric.kind in ("T", "C", "S") and metric.moves


def test_readme_glossary_names_every_metric_and_workload():
    readme = (REPO_ROOT / "benchmarks/spine/README.md").read_text("utf-8")
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert f"`{metric.name}`" in readme, metric.name
    for name in WORKLOADS:
        assert f"`{name}`" in readme
