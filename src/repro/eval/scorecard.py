"""The paper's claims as seeded assertions: ``python -m repro.eval``.

NVCiM-PT's contribution is a set of *orderings* — NVCiM-PT against every
baseline (Table I), graceful behaviour under a shrinking buffer
(Table III) and growing device variation (Table IV), per-domain OVTs
against one4all prompts (Fig. 1), CiM against CPU retrieval (Fig. 5).
Each one is a function here, registered with :func:`claim`, that measures
it on a seeded grid and returns the table it regenerates, the numbers
its verdict reads, and the verdict; the decorator states the paper
source and the margin.  Everything derives from :data:`SEED` through
:class:`ExperimentContext`, so two runs give identical records.

:data:`REDUCED` is the grid tier-1 asserts
(``tests/eval/test_scorecard.py``); ``--full`` widens it to the paper's
models, devices and sweeps.  A margin is part of the claim: when a claim
does not hold, it is reported (or strict-xfailed with its numbers) —
the margin is never widened until it passes.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ..cim import PAPER_SCALE_STORAGE, retrieval_cost
from ..core import FrameworkConfig, KSelectionConfig
from ..nvm import available_devices
from ..retrieval import SearchConfig
from ..tuning import (
    DEPTTuner,
    PrefixTuner,
    PTuningV2Tuner,
    TuningConfig,
    VanillaPromptTuner,
)
from .runner import (
    TABLE1_METHODS,
    ExperimentContext,
    evaluate_artifact,
    evaluate_method,
)

__all__ = ["SEED", "Scale", "REDUCED", "FULL", "CLAIMS", "claim",
           "run_scorecard", "main"]

SEED = 0
METHODS = {method.name: method for method in TABLE1_METHODS}
NVCIM_PT = METHODS["NVCiM-PT"]


@dataclass(frozen=True)
class Scale:
    """How much of the paper's grid one scorecard run scores."""

    name: str
    user_ids: tuple[int, ...]
    n_queries: int                  # scored queries per user per cell
    models: tuple[str, ...]         # Table I / Fig. 1
    devices: tuple[str, ...]        # Table I
    datasets: tuple[str, ...]       # Table I / Fig. 1
    buffers: tuple[int, ...]        # Table III sweep
    sigmas: tuple[float, ...]       # Table IV sweep
    sigma_buffer: int               # Table IV buffer (paper: 20)
    extra_arms: bool                # ablation arms no verdict reads


REDUCED = Scale(
    "reduced", user_ids=(0, 1), n_queries=20,
    models=("phi-2-sim",), devices=("NVM-1", "NVM-3"),
    datasets=("LaMP-1", "LaMP-2", "LaMP-5"),
    buffers=(10, 25), sigmas=(0.05, 0.10, 0.15), sigma_buffer=25,
    extra_arms=False)
FULL = Scale(
    "full", user_ids=(0, 1, 2), n_queries=20,
    models=("gemma-2b-sim", "mistral-7b-gptq-sim", "phi-2-sim"),
    devices=tuple(available_devices()),
    datasets=("LaMP-1", "LaMP-2", "LaMP-3", "LaMP-5", "LaMP-7"),
    buffers=(10, 20, 30, 40, 50, 60),
    sigmas=(0.025, 0.050, 0.075, 0.100, 0.125, 0.150), sigma_buffer=20,
    extra_arms=True)


@dataclass(frozen=True)
class Claim:
    source: str         # the paper table / figure it reproduces
    statement: str
    margin: float
    measure: Callable   # (context, scale, margin) -> (table, measured, ok)


CLAIMS: dict[str, Claim] = {}


def claim(source: str, statement: str, margin: float = 0.0):
    """Register ``measure(context, scale, margin)`` as a scorecard claim."""
    def register(measure):
        CLAIMS[measure.__name__] = Claim(source, statement, margin, measure)
        return measure
    return register


def _config(**overrides) -> FrameworkConfig:
    """The paper's main cell (Table I: buffer 25, NVM-3, sigma 0.1)."""
    return FrameworkConfig.preset("table1", seed=SEED, **overrides)


def _score(context, scale, config, *, method=NVCIM_PT, dataset="LaMP-2",
           model="phi-2-sim") -> float:
    return evaluate_method(context, model, dataset, method, config,
                           user_ids=scale.user_ids)


def _method_sweep(context, scale, configs: dict) -> dict:
    """``{row: {method: score}}`` for Phi-2 / LaMP-5 (Tables III, IV)."""
    return {row: {name: _score(context, scale, config, method=method,
                               dataset="LaMP-5")
                  for name, method in METHODS.items()}
            for row, config in configs.items()}


def _column_means(table: dict) -> dict:
    columns = next(iter(table.values()))
    return {column: float(np.mean([row[column] for row in table.values()]))
            for column in columns}


# ----------------------------------------------------------------------
def _table1_grid(context, scale) -> dict:
    """``{cell: {method: score}}``, read by both Table I claims (the
    context scores each cell once)."""
    return {
        f"{model} {device} {dataset}": {
            name: _score(context, scale, _config(device_name=device),
                         method=method, dataset=dataset, model=model)
            for name, method in METHODS.items()}
        for model in scale.models for device in scale.devices
        for dataset in scale.datasets}


@claim("Table I", "over the grid NVCiM-PT is within the margin of the best "
       "method and above No-Miti(MIPS), and noise-aware training lifts "
       "NVP*(MIPS) over No-Miti(MIPS)", margin=0.02)
def table1_method_ordering(context, scale, margin):
    table = _table1_grid(context, scale)
    means = _column_means(table)
    ok = (means["NVCiM-PT"] >= max(means.values()) - margin
          and means["NVCiM-PT"] > means["No-Miti(MIPS)"]
          and means["NVP*(MIPS)"] > means["No-Miti(MIPS)"])
    return table, means, ok


@claim("Table I (last two columns)", "over the same grid scaled search "
       "lifts NVCiM-PT above NVP*(MIPS), the same noise-aware OVTs "
       "retrieved by MIPS")
def table1_ssa_over_mips(context, scale, margin):
    table = {cell: {name: row[name] for name in ("NVCiM-PT", "NVP*(MIPS)")}
             for cell, row in _table1_grid(context, scale).items()}
    means = _column_means(table)
    return table, means, means["NVCiM-PT"] > means["NVP*(MIPS)"] + margin


@claim("Table I (last two columns)", "under sigma = 0.15 scaled search is "
       "no worse than MIPS over the same noise-aware OVTs by more than the "
       "margin", margin=0.10)
def ssa_vs_mips_under_noise(context, scale, margin):
    # One noise draw per programmed deployment decides all of its
    # queries, so devices x datasets x users (not queries) size the margin.
    table = {
        f"{device} {dataset}": {
            name: _score(context, scale,
                         _config(sigma=0.15, device_name=device),
                         method=METHODS[name], dataset=dataset)
            for name in ("NVCiM-PT", "NVP*(MIPS)")}
        for device in scale.devices for dataset in scale.datasets}
    means = _column_means(table)
    return table, means, means["NVCiM-PT"] >= means["NVP*(MIPS)"] - margin


@claim("Table III", "across buffer sizes NVCiM-PT stays above "
       "No-Miti(MIPS), and the smallest buffer keeps it within the margin "
       "of the largest", margin=0.10)
def table3_buffer_size(context, scale, margin):
    table = _method_sweep(context, scale, {
        f"{size} samples": _config(buffer_capacity=size)
        for size in scale.buffers})
    means = _column_means(table)
    nvcim = [row["NVCiM-PT"] for row in table.values()]
    measured = {"NVCiM-PT mean": means["NVCiM-PT"],
                "No-Miti(MIPS) mean": means["No-Miti(MIPS)"],
                "NVCiM-PT smallest": nvcim[0], "NVCiM-PT largest": nvcim[-1]}
    ok = (means["NVCiM-PT"] > means["No-Miti(MIPS)"]
          and nvcim[0] >= nvcim[-1] - margin)
    return table, measured, ok


@claim("Table IV", "across device variation NVCiM-PT is within the margin "
       "of the best method, and the unmitigated No-Miti(MIPS) baseline at "
       "the largest sigma does not beat itself at the smallest by more "
       "than the margin", margin=0.02)
def table4_device_variation(context, scale, margin):
    table = _method_sweep(context, scale, {
        f"sigma {sigma:.3f}": _config(buffer_capacity=scale.sigma_buffer,
                                      sigma=sigma)
        for sigma in scale.sigmas})
    means = _column_means(table)
    no_miti = [row["No-Miti(MIPS)"] for row in table.values()]
    measured = {**means, "No-Miti(MIPS) smallest sigma": no_miti[0],
                "No-Miti(MIPS) largest sigma": no_miti[-1]}
    ok = (means["NVCiM-PT"] >= max(means.values()) - margin
          and no_miti[-1] <= no_miti[0] + margin)
    return table, measured, ok


@claim("Fig. 1", "per-domain OVT prefix tuning beats every one4all prompt "
       "(Vanilla, DEPT, P-tuning v2) trained on the latest buffer only")
def fig1_ovt_vs_one4all(context, scale, margin):
    tuning = TuningConfig(steps=40, lr=0.05)
    buffer_capacity = _config().buffer_capacity
    table = {}
    for model_name in scale.models:
        model = context.model(model_name)
        one4all = {
            "Vanilla": VanillaPromptTuner(model, context.tokenizer, tuning),
            "DEPT": DEPTTuner(model, context.tokenizer, tuning),
            "P-t* v2": PTuningV2Tuner(model, context.tokenizer, tuning)}
        for dataset in scale.datasets:
            scores = {name: [] for name in (*one4all, "OVT")}
            for user_id in scale.user_ids:
                task = context.user_task(dataset, user_id, buffer_capacity)
                metric = task.dataset.metric
                for name, tuner in one4all.items():
                    scores[name].append(evaluate_artifact(
                        context, model_name, tuner.fit(task.last_buffer),
                        task.queries, metric))
                # Oracle domain match, no NVM: Fig. 1 isolates the
                # learning method.
                per_domain = {}
                for sample in task.training_stream:
                    if sample.domain not in per_domain:
                        per_domain[sample.domain] = PrefixTuner(
                            model, context.tokenizer, tuning).fit([sample])
                scores["OVT"].append(float(np.mean([
                    evaluate_artifact(context, model_name,
                                      per_domain.get(query.domain), [query],
                                      metric)
                    for query in task.queries])))
            table[f"{model_name} {dataset}"] = {
                name: float(np.mean(values))
                for name, values in scores.items()}
    means = _column_means(table)
    ok = means["OVT"] > max(v for k, v in means.items() if k != "OVT") + margin
    return table, means, ok


@claim("Fig. 2", "DRAM footprint and SSD<->DRAM transfer time of OVTs kept "
       "off-NVM grow monotonically into the paper's bands (x100 MB at 9000 "
       "OVTs, tens of seconds at 1e5)")
def fig2_ovt_storage(context, scale, margin):
    store = PAPER_SCALE_STORAGE
    table = {f"{n} OVTs": {"memory MB": store.memory_mb(n),
                           "DRAM fraction": store.dram_fraction(n),
                           "transfer s": store.transfer_time_s(n)}
             for n in (100, 1000, 3000, 5000, 7000, 9000, 20000, 100000)}
    rows = list(table.values())
    monotone = all(later[column] > earlier[column]
                   for earlier, later in zip(rows, rows[1:])
                   for column in ("memory MB", "transfer s"))
    measured = {"memory MB at 9000": table["9000 OVTs"]["memory MB"],
                "transfer s at 1e5": table["100000 OVTs"]["transfer s"]}
    ok = (monotone and 400 < measured["memory MB at 9000"] < 2000
          and 10 < measured["transfer s at 1e5"] < 120)
    return table, measured, ok


@claim("Fig. 5", "at 1e5 stored OVTs RRAM CiM retrieval is 50-400x faster "
       "and 20-250x more energy-efficient than the Jetson-class CPU (paper: "
       "~120x / ~60x), and FeFET spends less energy than RRAM at every size")
def fig5_cim_vs_cpu(context, scale, margin):
    counts = (1000, 5000, 10000, 20000, 50000, 100000)
    table = {}
    for n in counts:
        reports = {b: retrieval_cost(b, n) for b in ("RRAM", "FeFET", "CPU")}
        table[f"{n} OVTs"] = {
            **{f"{b} ns": r.latency_ns for b, r in reports.items()},
            **{f"{b} uJ": r.energy_pj / 1e6 for b, r in reports.items()}}
    top = table[f"{counts[-1]} OVTs"]
    measured = {"latency gain": top["CPU ns"] / top["RRAM ns"],
                "energy gain": top["CPU uJ"] / top["RRAM uJ"]}
    ok = (50 < measured["latency gain"] < 400
          and 20 < measured["energy gain"] < 250
          and all(row["FeFET uJ"] < row["RRAM uJ"] for row in table.values()))
    return table, measured, ok


def _ablation(context, scale, verdict_arms: dict, extra_arms: dict,
              dataset="LaMP-2"):
    arms = {**verdict_arms, **(extra_arms if scale.extra_arms else {})}
    scores = {name: _score(context, scale, config, dataset=dataset)
              for name, config in arms.items()}
    return {name: {"score": score} for name, score in scores.items()}, scores


@claim("Eq. 5 ablation", "under sigma = 0.15 the paper's weighted scales "
       "{1,2,4} are no worse than scale {1} alone by more than the margin",
       margin=0.10)
def ablation_ssa_scales(context, scale, margin):
    # Every variant keeps scale 1 first: OVT restoration reads the
    # scale-1 store (the other scales exist only for retrieval).
    variants = {
        "scale {1}": SearchConfig(scales=(1,), weights=(1.0,)),
        "scales {1,2}": SearchConfig(scales=(1, 2), weights=(1.0, 0.8)),
        "paper {1,2,4}": SearchConfig(),
        "{1,2,4} uniform": SearchConfig(weights=(1.0, 1.0, 1.0)),
        "{1,4} coarse-heavy": SearchConfig(scales=(1, 4), weights=(0.5, 1.0))}
    table = {
        device: {name: _score(context, scale, _config(
            sigma=0.15, device_name=device, search=search))
            for name, search in variants.items()}
        for device in scale.devices}
    means = _column_means(table)
    return table, means, means["paper {1,2,4}"] >= means["scale {1}"] - margin


@claim("Eq. 2 ablation", "adaptive k is no worse than one representative "
       "per buffer, which cannot cover the domain mix, by more than the "
       "margin", margin=0.05)
def ablation_k_selection(context, scale, margin):
    def fixed(k):
        return _config(k_selection=KSelectionConfig(n_min=k, n_max=k))
    table, scores = _ablation(
        context, scale, {"adaptive": _config(), "fixed k=1": fixed(1)},
        {"fixed k=2": fixed(2), "fixed k=6": fixed(6)})
    return table, scores, scores["adaptive"] >= scores["fixed k=1"] - margin


@claim("Eq. 4 ablation", "tiered noise injection is no worse than training "
       "without injection by more than the margin", margin=0.05)
def ablation_noise_tiers(context, scale, margin):
    table, scores = _ablation(
        context, scale,
        {"tiered": _config(noise_factors=(1.0, 1.6, 1.6, 1.0)),
         "none": _config(noise_factors=(0.0, 0.0, 0.0, 0.0))},
        {"flat": _config(noise_factors=(1.3, 1.3, 1.3, 1.3))},
        dataset="LaMP-5")
    return table, scores, scores["tiered"] >= scores["none"] - margin


@claim("autoencoder ablation", "the paper's 48-dim OVT code stays "
       "functional (score above the margin)", margin=0.3)
def ablation_code_size(context, scale, margin):
    table, scores = _ablation(
        context, scale, {"code dim 48": _config(code_dim=48)},
        {"code dim 16": _config(code_dim=16),
         "code dim 32": _config(code_dim=32)})
    return table, scores, scores["code dim 48"] > margin


# ----------------------------------------------------------------------
def run_scorecard(scale: Scale = REDUCED, *, names=None,
                  context: ExperimentContext | None = None) -> Iterator[dict]:
    """Yield one JSON-ready record per named claim (default: all), each
    as soon as it is measured."""
    if context is None:
        context = ExperimentContext(seed=SEED, n_queries=scale.n_queries)
    for name in names or CLAIMS:
        spec = CLAIMS[name]
        table, measured, ok = spec.measure(context, scale, spec.margin)
        yield {
            "claim": name, "source": spec.source,
            "statement": spec.statement, "seed": SEED, "scale": scale.name,
            "users": len(scale.user_ids), "queries_per_user": scale.n_queries,
            "margin": spec.margin, "measured": measured, "passed": bool(ok),
            "table": table}


def _print_record(record: dict) -> None:
    table = record["table"]
    header = ["", *next(iter(table.values()))]
    rows = [[label, *(f"{value:,.3f}" for value in row.values())]
            for label, row in table.items()]
    widths = [max(len(row[i]) for row in [header, *rows])
              for i in range(len(header))]
    print(f"\n=== {record['source']} — {record['claim']} ===")
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    print(f"{'PASS' if record['passed'] else 'FAIL'}: {record['statement']} "
          f"(margin {record['margin']}) " + ", ".join(
              f"{key} {value:.3f}" for key, value in record["measured"].items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Measure the paper's claims on a seeded grid; exit 1 "
                    "when any does not hold.")
    parser.add_argument("--full", action="store_true",
                        help="the paper's models, devices and sweeps "
                             "instead of the reduced tier-1 grid")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON record list to this path")
    args = parser.parse_args(argv)
    records = []
    for record in run_scorecard(FULL if args.full else REDUCED):
        _print_record(record)
        records.append(record)
    if args.output is not None:
        args.output.write_text(json.dumps(records, indent=2) + "\n",
                               encoding="utf-8")
    failed = [record["claim"] for record in records if not record["passed"]]
    print(f"\n{len(records) - len(failed)}/{len(records)} claims hold"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0
