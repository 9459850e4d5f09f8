"""The stats manifest: how every serving counter aggregates across shards.

Single-engine ``stats()`` and fleet-wide ``ShardedPromptEngine.stats()``
must agree on what each key *means* under aggregation — summing an
average or averaging a ratio is the classic dashboard lie.  This module
is the one place that meaning is declared; the sharded engine merges
from it (no hardcoded key lists) and the STATS-001 lint rule
cross-checks it against the keys the engines actually emit.

``STATS_MANIFEST`` must stay a **pure literal**: the linter reads it
with ``ast.literal_eval`` so it can check the manifest without importing
(and therefore executing) any serve code.  Do not compute entries.

Kinds:

- ``"additive"``    — sums across workers (monotonic counters, gauges
  that partition across shards, and per-worker capacity budgets like
  ``max_sessions``).
- ``"capacity"``    — additive, but ``None`` means unbounded and
  poisons the sum (one uncapped worker makes the fleet uncapped).
- ``"histogram"``   — merged sample-by-sample via
  :meth:`~repro.serve.metrics.LatencyHistogram.merge`, never summed.
- ``("ratio", numerator_key, denominator_key)`` — recomputed from the
  *summed* numerator/denominator; averaging per-worker ratios would
  weight idle workers equally with busy ones.
- ``"structural"``  — not aggregated: reported once fleet-wide
  (``session_store``) or synthesized by the sharded engine itself
  (``n_workers``, ``workers``).
"""

from __future__ import annotations

__all__ = ["STATS_MANIFEST"]

STATS_MANIFEST = {
    # -- session lifecycle ------------------------------------------------
    "active_sessions": "additive",
    "max_sessions": "additive",
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
    "prefill_cache_bytes": "additive",
    # Gauge: tunes between prepare and publish on resident sessions (each
    # pins its session against LRU eviction until it publishes).
    "tunes_in_flight": "additive",
    "pending_generations": "additive",
    "queue_depth": "additive",
    "max_pending": "capacity",
    "admitted": "additive",
    "rejected": "additive",
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
    # Resident-model accounting: the base model is shared by every worker,
    # so these are structural (worker 0 speaks for the fleet) — summing
    # would multiply the one model's footprint by n_workers.
    "quantized_layers": "structural",
    "weight_bytes": "structural",
    "weight_bytes_saved": "structural",
    # -- CiM hardware counters --------------------------------------------
    "cim_mvm_ops": "additive",
    "cim_adc_conversions": "additive",
    "cim_cell_reads": "additive",
    "cim_write_pulses": "additive",
    # -- fleet shape (sharded engine only) --------------------------------
    "n_workers": "structural",
    "workers": "structural",
}
