"""The metric catalogue: every number the spine reports, by name.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 benchmarks/spine/catalog.py`` rewrites it; a self-test keeps
the two equal).  Kinds of per-layer metric:

* ``T`` — from the traced pass: median per call over the workload's own
  spans of that name (the fixed tour's where the workload made no such
  call), or a share of the workload's traced time;
* ``C`` — an exact count from ``stats()`` or the responses; repeats
  bit-for-bit for one ``(workload, seed, seconds)``;
* ``S`` — the layer suite at fixed shapes, independent of the workload.

``moves`` names the end-to-end metric and workload a layer metric is
expected to move — written down before anything is optimised.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

RUN_SECONDS = 20
COMMAND = ["python3", "benchmarks/spine/run.py"]
PATHS = ["benchmarks/spine"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    kind: str
    moves: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# Times and rates are at reference speed (see ``measure.Rests``).
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "one complete set-up: tokenizer, corpus, pretraining, every "
             "user tuned and warmed"),
    EndToEnd("query_p50_ms", "ms", "lower", 0.15,
             "client-observed query latency, median (batch_decode: one "
             "answer_batch call)"),
    EndToEnd("query_p90_ms", "ms", "lower", 0.20,
             "client-observed query latency, 90th percentile"),
    EndToEnd("queries_per_s", "1/s", "higher", 0.20,
             "answered queries per second of work, median of 10 "
             "equal-work segments"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05,
             "ru_maxrss of the workload process when the timed phase ends"),
)

_CHAT = "query_p50_ms, queries_per_s @ resident_chat"
_TUNE = ("query_p90_ms @ tune_while_serving (the stall is one epoch); "
         "setup_s everywhere")
_CHURN = "query_p50_ms, query_p90_ms, queries_per_s @ session_churn"
_DECODE = "queries_per_s @ batch_decode (tok/s = 40 x)"

PER_LAYER: tuple[PerLayer, ...] = (
    # gateway
    PerLayer("gateway.overhead_p50_ms", "ms", "lower", "T",
             _CHAT + "; nothing @ batch_decode"),
    PerLayer("gateway.loop_cpu_share", "ratio", "lower", "T", _CHAT),
    PerLayer("gateway.wire_us", "us", "lower", "S", _CHAT),
    PerLayer("gateway.tune_wire_ms", "ms", "lower", "S", _TUNE),
    PerLayer("gateway.completed", "count", "higher", "C",
             "queries_per_s @ resident_chat"),
    PerLayer("gateway.rejected", "count", "lower", "C",
             "failed @ every HTTP workload"),
    # serve: the request path
    PerLayer("serve.begin_query_ms", "ms", "lower", "T", _CHAT),
    PerLayer("serve.begin_query_self_ms", "ms", "lower", "T", _CHAT),
    PerLayer("serve.round_self_ms", "ms", "lower", "T",
             "query_p90_ms @ tune_while_serving (lock wait lands here)"),
    PerLayer("serve.lock_wait_ms_per_query", "ms", "lower", "T",
             "query_p90_ms, queries_per_s @ tune_while_serving (the engine "
             "lock); @ session_churn it is the wait for the disk"),
    PerLayer("serve.tune_p50_ms", "ms", "lower", "T", _TUNE),
    PerLayer("serve.submit_ms", "ms", "lower", "T", _TUNE),
    PerLayer("serve.stats_ms", "ms", "lower", "T", "nothing end to end"),
    PerLayer("serve.prefill_hit_share", "ratio", "higher", "C", _CHAT),
    PerLayer("serve.batch_occupancy", "count", "higher", "C", _DECODE),
    PerLayer("serve.tokens_per_round", "count", "higher", "C", _DECODE),
    # serve: durability
    PerLayer("serve.capture_ms", "ms", "lower", "T", _CHURN),
    PerLayer("serve.to_bytes_ms", "ms", "lower", "T", _CHURN),
    PerLayer("serve.store_put_ms", "ms", "lower", "T", _CHURN),
    PerLayer("serve.store_get_ms", "ms", "lower", "T", _CHURN),
    PerLayer("serve.from_bytes_ms", "ms", "lower", "T", _CHURN),
    PerLayer("serve.build_session_ms", "ms", "lower", "T", _CHURN),
    PerLayer("serve.durability_share", "ratio", "lower", "T",
             _CHURN + "; 0 elsewhere"),
    PerLayer("serve.restore_share", "ratio", "lower", "C", _CHURN),
    PerLayer("serve.spills", "count", "lower", "C", _CHURN),
    PerLayer("serve.spill_bytes_per_query", "B", "lower", "C",
             "peak_rss_mb, queries_per_s @ session_churn"),
    PerLayer("serve.blob_bytes_raw", "B", "lower", "S",
             "peak_rss_mb, queries_per_s @ session_churn (every spill "
             "writes one to disk, every restore reads one)"),
    PerLayer("serve.blob_bytes_recipe", "B", "lower", "S",
             "nothing (recipe mode is not the default)"),
    PerLayer("serve.codec_encode_mb_per_s", "MiB/s", "higher", "S", _CHURN),
    PerLayer("serve.codec_decode_mb_per_s", "MiB/s", "higher", "S", _CHURN),
    # core
    PerLayer("core.epoch_ms", "ms", "lower", "T", _TUNE),
    PerLayer("core.select_ms", "ms", "lower", "T", _TUNE),
    PerLayer("core.deploy_ms", "ms", "lower", "T",
             "query_p90_ms @ tune_while_serving; setup_s"),
    PerLayer("core.encode_query_us", "us", "lower", "T", _CHAT),
    PerLayer("core.restored_prompt_us", "us", "lower", "T",
             "query_p90_ms @ resident_chat"),
    # tuning
    PerLayer("tuning.train_ms", "ms", "lower", "T", _TUNE),
    PerLayer("tuning.train_share", "ratio", "lower", "T", _TUNE),
    PerLayer("tuning.step_ms", "ms", "lower", "S", _TUNE),
    # compression
    PerLayer("compression.fit_ms", "ms", "lower", "T", _TUNE),
    PerLayer("compression.fit_share", "ratio", "lower", "T", _TUNE),
    PerLayer("compression.encode_us", "us", "lower", "T", _CHAT),
    PerLayer("compression.decode_us", "us", "lower", "T",
             "query_p90_ms @ resident_chat"),
    # retrieval
    PerLayer("retrieval.search_us", "us", "lower", "T", _CHAT),
    PerLayer("retrieval.restore_us", "us", "lower", "T",
             "query_p90_ms @ resident_chat"),
    PerLayer("retrieval.build_ms", "ms", "lower", "T",
             "query_p90_ms @ tune_while_serving; setup_s"),
    PerLayer("retrieval.search_us_b1", "us", "lower", "S", _CHAT),
    PerLayer("retrieval.search_us_b8", "us", "lower", "S",
             _DECODE + " (admission only)"),
    PerLayer("retrieval.search_us_b32", "us", "lower", "S",
             "nothing yet (no workload batches 32 searches)"),
    # cim: host time, then the simulated figures (paper Fig. 5), which
    # must stay identical under any simulator-only speed-up
    PerLayer("cim.matmat_us", "us", "lower", "T", _CHAT),
    PerLayer("cim.read_columns_us", "us", "lower", "T",
             "query_p90_ms @ resident_chat"),
    PerLayer("cim.sim_latency_us_per_query", "us", "lower", "C",
             "nothing end to end (simulated time)"),
    PerLayer("cim.sim_energy_uj_per_query", "uJ", "lower", "C",
             "nothing end to end (simulated energy)"),
    PerLayer("cim.mvm_ops_per_query", "count", "lower", "C",
             "nothing end to end (simulated work)"),
    PerLayer("cim.adc_conversions_per_query", "count", "lower", "C",
             "nothing end to end (simulated work)"),
    PerLayer("cim.cell_reads_per_query", "count", "lower", "C",
             "nothing end to end (simulated work)"),
    PerLayer("cim.write_pulses_per_tune", "count", "lower", "C",
             "nothing end to end (simulated work; the tour's one re-tuned "
             "library)"),
    # nvm
    PerLayer("nvm.matmat_us", "us", "lower", "T", _CHAT),
    PerLayer("nvm.program_ms", "ms", "lower", "T",
             "query_p90_ms @ tune_while_serving; setup_s"),
    PerLayer("nvm.read_cells_us", "us", "lower", "T",
             "query_p90_ms @ resident_chat"),
    PerLayer("nvm.matmat_us_t16", "us", "lower", "S", _CHAT),
    PerLayer("nvm.matmat_us_t64", "us", "lower", "S",
             "nothing yet (no workload fills that many tiles)"),
    PerLayer("nvm.program_ms_t64", "ms", "lower", "S", "setup_s"),
    PerLayer("nvm.snapshot_ms", "ms", "lower", "S", _CHURN),
    PerLayer("nvm.restore_ms", "ms", "lower", "S", _CHURN),
    # llm
    PerLayer("llm.decode_round_ms", "ms", "lower", "T",
             _DECODE + "; query_p50_ms @ resident_chat"),
    PerLayer("llm.decode_share", "ratio", "lower", "T",
             _DECODE + " (a 20% faster round at share s is about "
             "0.2*s more tok/s)"),
    PerLayer("llm.prefill_ms", "ms", "lower", "T",
             "query_p90_ms @ resident_chat; " + _DECODE),
    PerLayer("llm.prefill_share", "ratio", "lower", "T", _DECODE),
    PerLayer("llm.round_ms_b1_ctx64", "ms", "lower", "S",
             "query_p50_ms @ resident_chat"),
    PerLayer("llm.round_ms_b8_ctx64", "ms", "lower", "S", _DECODE),
    PerLayer("llm.round_ms_b8_ctx192", "ms", "lower", "S",
             _DECODE + " (context scaling: the per-token K/V "
             "re-concatenate)"),
    PerLayer("llm.prefill_ms_t32", "ms", "lower", "S",
             "query_p90_ms @ resident_chat"),
    PerLayer("llm.prefill_ms_t128", "ms", "lower", "S",
             "nothing yet (queries are 7 tokens)"),
    PerLayer("llm.tokens_per_s_b8", "tok/s", "higher", "S", _DECODE),
    PerLayer("llm.spec_tokens_per_s_b8", "tok/s", "higher", "S",
             "nothing yet (speculation is a configuration variant)"),
    PerLayer("llm.spec_acceptance_rate", "ratio", "higher", "S",
             "llm.spec_tokens_per_s_b8"),
    PerLayer("llm.spec_tokens_per_forward", "count", "higher", "S",
             "llm.spec_tokens_per_s_b8"),
    PerLayer("llm.int8_tokens_per_s_b8", "tok/s", "higher", "S",
             "nothing yet (int8 is a configuration variant)"),
    PerLayer("llm.int8_weight_bytes", "B", "lower", "S",
             "nothing yet (int8 is a configuration variant)"),
    # ag
    PerLayer("ag.linear_us_b8", "us", "lower", "S", _DECODE),
    PerLayer("ag.qlinear_int8_us_b8", "us", "lower", "S",
             "llm.int8_tokens_per_s_b8"),
    PerLayer("ag.qlinear_int4_us_b8", "us", "lower", "S",
             "nothing yet (int4 is a configuration variant)"),
    PerLayer("ag.train_step_ms", "ms", "lower", "S", _TUNE),
    # the tracer itself
    PerLayer("trace.overhead_share", "ratio", "lower", "T",
             "nothing (tracing is off for end-to-end runs)"),
    PerLayer("trace.coverage_share", "ratio", "higher", "T",
             "nothing (how much server CPU sits inside named spans)"),
)


def benchmark_json(workloads) -> dict:
    """The contract file, from the catalogue and the workload registry."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from spine import REPO_ROOT
    from spine.workloads import WORKLOADS
    target = REPO_ROOT / "BENCHMARK.json"
    target.write_text(
        json.dumps(benchmark_json(WORKLOADS.values()), indent=2) + "\n",
        encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
