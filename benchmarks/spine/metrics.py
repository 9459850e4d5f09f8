"""From observations and spans to the numbers in the catalogue."""

from __future__ import annotations

import statistics

from .catalog import END_TO_END, PER_LAYER
from .measure import (N_SEGMENTS, TooFewSamples,
                      highest_supported_percentile, percentile,
                      samples_beyond, segment_rates)
from .tracing import durations_ms, self_times, total_s
from .workloads import Observation, Workload, answers_digest
from .world import World

DURABILITY_SPANS = ("serve.capture", "serve.to_bytes", "serve.store_put",
                    "serve.store_get", "serve.from_bytes",
                    "serve.build_session")


def end_to_end_metrics(workload: Workload, world: World,
                       observation: Observation, peak_rss: float, *,
                       strict: bool = True) -> tuple[dict, dict]:
    """``(metrics by name, sample counts by name)``.

    Times are at reference speed: each latency is multiplied by the
    machine's speed in the round it ended in, and a rate counts each
    round's seconds likewise (``measure.Rests``).

    ``strict=False`` (smoke runs) lifts the ten-samples-beyond rule and
    shortens the segment count to what a seconds-long run can fill.
    """
    rests = observation.rests
    latencies = observation.latencies_reference_ms
    # One latency sample is one query, or for batch_decode one batch of
    # queries_per_sample of them.
    queries_per_sample = len(observation.queries) / max(len(latencies), 1)
    n_segments = N_SEGMENTS if strict else 2
    rates = segment_rates(observation.latency_ends, rests.stretches,
                          rests.speeds, weight=queries_per_sample,
                          n_segments=n_segments)
    metrics = {
        "setup_s": world.setup_s,
        "query_p50_ms": percentile(latencies, 50),
        "query_p90_ms": _tail(latencies, 90, strict),
        "queries_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss,
    }
    counts = {
        "setup_s": 1,
        "query_p50_ms": len(latencies),
        "query_p90_ms": len(latencies),
        "queries_per_s": n_segments,
        "peak_rss_mb": 1,
    }
    assert set(metrics) == {m.name for m in END_TO_END}
    return metrics, counts


def _tail(latencies, pct: float, strict: bool) -> float:
    """The tail percentile.  A run too short to carry it (a slow
    machine, a smoke run) still reports the number — ``diagnostics``
    says how many samples lay beyond it — rather than no result."""
    try:
        if strict:
            return percentile(latencies, pct)
    except TooFewSamples:
        pass
    return percentile(latencies, pct, min_beyond=0)


def diagnostics(world: World, observation: Observation) -> dict:
    """Printed, never bounded: the times as the clock read them, the
    machine's speed while it did, the highest percentile the sample
    carries, and the token rate."""
    latencies = observation.latencies_ms
    top = highest_supported_percentile(len(latencies))
    return {
        "latency_samples": len(latencies),
        "samples_beyond_p90": samples_beyond(len(latencies), 90),
        "wall_query_p50_ms": percentile(latencies, 50),
        "wall_query_p90_ms": percentile(latencies, 90, min_beyond=0),
        f"wall_query_p{top:g}_ms": percentile(latencies, top, min_beyond=0),
        "wall_setup_s": world.setup_wall_s,
        "wall_s": observation.wall_s,
        "wall_tokens_per_s": (observation.stat_delta("decode_tokens")
                              / observation.wall_s),
        "machine_speed_median": statistics.median(observation.rests.speeds),
        "kernel_slowdown_medians": observation.rests.median_slowdowns(),
        "minor_faults_per_query": (observation.minor_faults
                                   / max(len(observation.queries), 1)),
        "units": observation.units,
    }


def exact_counts(world: World, observation: Observation) -> dict:
    """Counts that repeat bit-for-bit for one (workload, seed, units)."""
    answered = sum(1 for s in observation.queries if s.response is not None)
    tunes_ok = [t for t in observation.tunes if t.response is not None]
    counts = {"requests": answered, "tunes": len(tunes_ok),
              "epochs_fired": sum(t.response.epochs_fired for t in tunes_ok)}
    if observation.tunes:
        # Which of client B's queries meets the tune is a race, and what
        # a re-tuned user answers depends on it; only the request count
        # and the write side are deterministic.
        counts["library_sizes"] = sorted(
            (t.user, t.response.library_size) for t in tunes_ok)
        return counts
    counts.update({
        "generated_tokens": answered * world.spec.new_tokens,
        "answers_sha256": answers_digest(observation.queries),
    })
    for key in ("requests_served", "decode_tokens", "prefill_hits",
                "sessions_created", "sessions_spilled", "sessions_restored",
                "cim_mvm_ops", "cim_adc_conversions", "cim_cell_reads",
                "cim_write_pulses"):
        counts[key] = observation.stat_delta(key)
    return counts


def _median(values) -> float:
    """Median, or 0.0 for a span name that recorded no call."""
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(workload: Workload, world: World,
                      untraced: list[Observation], traced: Observation,
                      spans, suite: dict, tour: dict) -> dict:
    """Every metric of the catalogue's ``PER_LAYER``, by name.

    ``untraced`` are the fixed-work phases run with no tracer installed,
    before and after ``traced``; ``spans`` hold the traced phase
    (``phase == "workload"``) and the tour."""
    own = self_times(spans)

    # The workload's own calls; the tour's only where the workload made
    # none (a tour call is another latency mode: no session to restore,
    # a cold prefill cache).
    def per_call_ms(name, **where):
        own_calls = durations_ms(spans, name, phase="workload", **where)
        return _median(own_calls or durations_ms(spans, name, **where))

    def self_ms(name):
        calls = [s for s in spans if s.name == name]
        own_calls = [s for s in calls if s.phase == "workload"]
        return _median([own[s.id] * 1e3 for s in own_calls or calls])

    # The traced phase proper: what ran between the two stats snapshots
    # (a driver's own post-checks are traced too, but lie outside).
    in_workload = [s for s in spans if s.phase == "workload"
                   and traced.started <= s.start and s.end <= traced.finished]
    roots = [s for s in in_workload if s.cpu is not None]
    root_cpu = sum(s.cpu for s in roots)
    server_cpu = traced.process_cpu_s - traced.client_cpu_s
    coverage = _ratio(root_cpu, server_cpu)
    # What a root engine call spent not computing: waiting for the engine
    # lock (a tune holds it for a whole epoch), for the disk (a spill),
    # or descheduled.
    lock_wait_s = sum(max(0.0, s.duration - s.cpu) for s in in_workload
                      if s.cpu is not None and s.name in (
                          "serve.begin_query", "serve.run_decode_round"))
    # Medians, not wall / units: a phase of a few dozen units is at the
    # mercy of one slow first request.
    untraced_unit_ms = statistics.mean(
        statistics.median(phase.unit_reference_ms) for phase in untraced)
    submit_s = total_s(in_workload, "serve.submit")
    requests = traced.stat_delta("requests_served")
    decode_rounds = traced.stat_delta("decode_rounds")
    store = traced.stats_after["session_store"] or {}
    blob_bytes = _ratio(store.get("bytes", 0), store.get("sessions", 0))
    answered = [s.response for s in traced.queries if s.response is not None]

    metrics = dict(suite)
    metrics.update(tour)
    metrics.update({
        "gateway.loop_cpu_share": max(0.0, 1.0 - coverage),
        "gateway.completed": traced.gateway_completed,
        "gateway.rejected": traced.gateway_rejected,
        "serve.begin_query_ms": per_call_ms("serve.begin_query"),
        "serve.begin_query_self_ms": self_ms("serve.begin_query"),
        "serve.round_self_ms": self_ms("serve.run_decode_round"),
        "serve.lock_wait_ms_per_query": _ratio(lock_wait_s * 1e3, requests),
        # Client-observed, one request = one epoch: beside queries where
        # the workload tunes, else the set-up's own tunes.
        "serve.tune_p50_ms": statistics.median(
            traced.unit_ms if traced.tunes
            else [s * 1e3 for s in world.tune_epoch_s]),
        "serve.submit_ms": per_call_ms("serve.submit"),
        "serve.stats_ms": per_call_ms("serve.stats"),
        "serve.prefill_hit_share": _ratio(traced.stat_delta("prefill_hits"),
                                          requests),
        "serve.batch_occupancy": _ratio(traced.stat_delta("occupancy_sum"),
                                        decode_rounds),
        "serve.tokens_per_round": _ratio(traced.stat_delta("decode_tokens"),
                                         decode_rounds),
        "serve.capture_ms": per_call_ms("serve.capture"),
        "serve.to_bytes_ms": per_call_ms("serve.to_bytes"),
        "serve.store_put_ms": per_call_ms("serve.store_put"),
        "serve.store_get_ms": per_call_ms("serve.store_get"),
        "serve.from_bytes_ms": per_call_ms("serve.from_bytes"),
        "serve.build_session_ms": per_call_ms("serve.build_session"),
        # Of wall time, not CPU time: a spill waits for the disk.
        "serve.durability_share": _ratio(
            total_s(in_workload, DURABILITY_SPANS),
            sum(s.duration for s in roots)),
        "serve.restore_share": _ratio(
            traced.stat_delta("sessions_restored"), requests),
        "serve.spills": traced.stat_delta("sessions_spilled"),
        "serve.spill_bytes_per_query": _ratio(
            traced.stat_delta("sessions_spilled") * blob_bytes, requests),
        "core.epoch_ms": per_call_ms("core.observe", fired=True),
        "core.select_ms": per_call_ms("core.select"),
        "core.deploy_ms": per_call_ms("core.deploy"),
        "core.encode_query_us": per_call_ms("core.encode_query") * 1e3,
        "core.restored_prompt_us": per_call_ms("core.restored_prompt") * 1e3,
        "tuning.train_ms": per_call_ms("tuning.train"),
        "tuning.train_share": _ratio(total_s(in_workload, "tuning.train"),
                                     submit_s),
        "compression.fit_ms": per_call_ms("compression.fit"),
        "compression.fit_share": _ratio(
            total_s(in_workload, "compression.fit"), submit_s),
        "compression.encode_us": per_call_ms("compression.encode") * 1e3,
        "compression.decode_us": per_call_ms("compression.decode") * 1e3,
        "retrieval.search_us": per_call_ms("retrieval.search") * 1e3,
        "retrieval.restore_us": per_call_ms("retrieval.restore") * 1e3,
        "retrieval.build_ms": per_call_ms("retrieval.build"),
        "cim.matmat_us": per_call_ms("cim.matmat") * 1e3,
        "cim.read_columns_us": per_call_ms("cim.read_columns") * 1e3,
        "cim.sim_latency_us_per_query": _ratio(
            sum(r.latency_us for r in answered), len(answered)),
        "cim.sim_energy_uj_per_query": _ratio(
            sum(r.energy_uj for r in answered), len(answered)),
        "cim.mvm_ops_per_query": _ratio(traced.stat_delta("cim_mvm_ops"),
                                        requests),
        "cim.adc_conversions_per_query": _ratio(
            traced.stat_delta("cim_adc_conversions"), requests),
        "cim.cell_reads_per_query": _ratio(
            traced.stat_delta("cim_cell_reads"), requests),
        "nvm.matmat_us": per_call_ms("nvm.matmat") * 1e3,
        "nvm.program_ms": per_call_ms("nvm.program"),
        "nvm.read_cells_us": per_call_ms("nvm.read_cells") * 1e3,
        "llm.decode_round_ms": per_call_ms("llm.decode_round"),
        "llm.decode_share": _ratio(total_s(in_workload, "llm.decode_round"),
                                   root_cpu),
        "llm.prefill_ms": per_call_ms("llm.prefill"),
        "llm.prefill_share": _ratio(total_s(in_workload, "llm.prefill"),
                                    root_cpu),
        "trace.overhead_share": _ratio(
            statistics.median(traced.unit_reference_ms),
            untraced_unit_ms) - 1.0,
        "trace.coverage_share": coverage,
    })
    missing = {m.name for m in PER_LAYER} - set(metrics)
    extra = set(metrics) - {m.name for m in PER_LAYER}
    if missing or extra:
        raise RuntimeError(f"per-layer metrics out of step with the "
                           f"catalogue: missing {sorted(missing)}, "
                           f"unlisted {sorted(extra)}")
    return metrics
