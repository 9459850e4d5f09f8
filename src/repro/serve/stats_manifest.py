"""The stats manifest: what kind of number every serving counter is.

``PromptServeEngine.stats()`` is a flat dict, and a value alone does not
say how it may be read: a counter can be totalled or differenced between
two readings, a ratio cannot, and a histogram summary is neither.
Summing an average or averaging a ratio is the classic dashboard lie.
This module is the one place each key's kind is declared; the STATS-001
lint rule cross-checks it against the keys the engine actually emits.

``STATS_MANIFEST`` must stay a **pure literal**: the linter reads it
with ``ast.literal_eval`` so it can check the manifest without importing
(and therefore executing) any serve code.  Do not compute entries.

Kinds:

- ``"additive"``    — a count or a gauge: totals and differences of it
  mean something.
- ``"capacity"``    — a configured bound.
- ``"histogram"``   — a :class:`~repro.serve.metrics.LatencyHistogram`
  summary (count, percentiles, mean, max): read, never added up.
- ``("ratio", numerator_key, denominator_key)`` — derived from two
  declared keys; a total recomputes it from theirs, since averaging
  ratios would weight an idle period equally with a busy one.
- ``"structural"``  — not a number to aggregate: a description of the
  engine (the session store's stats, the base model's footprint),
  reported as is.
"""

from __future__ import annotations

__all__ = ["STATS_MANIFEST"]

STATS_MANIFEST = {
    # -- session lifecycle ------------------------------------------------
    "active_sessions": "additive",
    "max_sessions": "capacity",
    "evicted_sessions": "additive",
    "sessions_created": "additive",
    "sessions_spilled": "additive",
    "sessions_restored": "additive",
    # Cumulative snapshot-blob bytes this engine handed to / read back
    # from the session store.
    "spilled_bytes": "additive",
    "restored_bytes": "additive",
    # Stored blobs that did not restore and were moved aside; the user is
    # unknown until re-tuned.
    "sessions_quarantined": "additive",
    # Gauge: crossbar state held by resident deployed sessions — each
    # occupied cell's conductance and level, once (5 B a cell; the erased
    # rest of a subarray is not held).
    "resident_nvm_bytes": "additive",
    "session_store": "structural",
    # -- request flow -----------------------------------------------------
    "requests_served": "additive",
    "stored_ovts": "additive",
    "prefill_hits": "additive",
    # Gauge: KV held by prefilled slots, those waiting for their answer
    # (an answered slot lets go of its KV and keeps the answer's tokens;
    # a slot only query/answer_batch used keeps its KV and no answer).
    "prefill_cache_bytes": "additive",
    # Prefill misses run stacked: one forward per prompt length of an
    # admission batch (a batch of eight equal-length misses is one
    # forward of eight rows).
    "prefill_forwards": "additive",
    "prefill_rows": "additive",
    "prefill_rows_per_forward": ("ratio", "prefill_rows", "prefill_forwards"),
    # Gauge: tunes between prepare and publish on resident sessions (each
    # pins its session against LRU eviction until it publishes).
    "tunes_in_flight": "additive",
    "pending_generations": "additive",
    "admitted": "additive",
    # Queries finished at admission from their prefill slot's kept answer
    # (each also a prefill hit); they never enter the decoder.
    "answer_hits": "additive",
    "latency_ms": "histogram",
    # -- decode telemetry -------------------------------------------------
    "decode_rounds": "additive",
    "decode_tokens": "additive",
    "occupancy_sum": "additive",
    "tokens_per_round": ("ratio", "decode_tokens", "decode_rounds"),
    "batch_occupancy": ("ratio", "occupancy_sum", "decode_rounds"),
    # Decode rows that attended beside another row of the same attended
    # length — one batched matmul for the group instead of one per row —
    # and their share of the rows.  A speculative verify span feeds one
    # row per token, so under speculation the share can exceed 1.
    "decode_grouped_rows": "additive",
    "grouped_row_share": ("ratio", "decode_grouped_rows", "occupancy_sum"),
    # -- speculative decoding ----------------------------------------------
    "decode_forwards": "additive",
    "spec_rounds": "additive",
    "draft_forwards": "additive",
    "draft_proposed_tokens": "additive",
    "draft_accepted_tokens": "additive",
    "tokens_per_forward": ("ratio", "decode_tokens", "decode_forwards"),
    "draft_acceptance_rate": ("ratio", "draft_accepted_tokens",
                              "draft_proposed_tokens"),
    # -- weight quantization ----------------------------------------------
    # Resident-model accounting: a property of the one shared base model,
    # not a count of events.
    "quantized_layers": "structural",
    "weight_bytes": "structural",
    "weight_bytes_saved": "structural",
    # -- CiM hardware counters --------------------------------------------
    "cim_mvm_ops": "additive",
    "cim_adc_conversions": "additive",
    "cim_cell_reads": "additive",
    "cim_write_pulses": "additive",
}
