"""Per-user serving state: one training pipeline + one lazy deployment.

A :class:`UserSession` is everything the engine keeps for a single user:
their streaming buffer and OVT library (via
:class:`~repro.core.OVTTrainingPipeline`) and, once the library is
non-empty, an :class:`~repro.core.NVCiMDeployment` whose crossbars hold the
library.  The deployment is (re)programmed lazily: each training epoch
changes the library, so the previous NVM contents are invalidated and the
next query pays one reprogramming — exactly the write-then-serve cadence of
the paper's edge device.

The session also keeps a small LRU cache of decode-ready
:class:`~repro.llm.generation.PrefillState`s keyed by ``(query text, OVT
index)``: a repeated query (within a batch or across batches) pays the KV
prefill once and every answer is produced by incremental decode steps
against the cached state.  Training invalidates the cache along with the
deployment, since a retrained library restores different soft prompts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from ..core.framework import (
    FrameworkConfig,
    NVCiMDeployment,
    OVTLibrary,
    OVTTrainingPipeline,
)
from ..data.lamp import Sample
from ..nvm.crossbar import CrossbarStats
from ..llm.generation import PrefillState, prefill
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM

__all__ = ["UserSession"]

# Per-session bound on cached prefill states (each holds per-layer KV
# tensors, so the footprint is context-length x layers, not unbounded).
_MAX_PREFILL_STATES = 32


class UserSession:
    """One user's OVT library and NVM deployment over the shared model."""

    def __init__(self, user_id: int, model: TinyCausalLM,
                 tokenizer: Tokenizer,
                 config: FrameworkConfig | None = None):
        self.user_id = user_id
        self.config = config if config is not None else FrameworkConfig()
        self.pipeline = OVTTrainingPipeline(model, tokenizer, self.config)
        self._deployment: NVCiMDeployment | None = None
        self._prefill_states: OrderedDict[tuple[str, int], PrefillState] = \
            OrderedDict()
        self.epochs_completed = 0
        self.queries_served = 0
        self.prefill_hits = 0
        # Crossbar counters of deployments this session has retired
        # (training/adoption reprograms fresh matrices); cim_stats() adds
        # the live deployment so the session's totals stay cumulative.
        self._retired_cim = CrossbarStats()
        # Generations admitted to the engine's decoder and not yet retired.
        # In-flight decode state is owned by the sequences themselves, so
        # this counter is telemetry (and an eviction-policy input), not a
        # correctness requirement: evicting a session mid-flight leaves its
        # pending generations running to completion.
        self.generations_in_flight = 0

    # ------------------------------------------------------------------
    @property
    def model(self) -> TinyCausalLM:
        return self.pipeline.model

    @property
    def tokenizer(self) -> Tokenizer:
        return self.pipeline.tokenizer

    @property
    def library(self) -> OVTLibrary:
        return self.pipeline.library

    @property
    def is_deployed(self) -> bool:
        """Whether the library is currently programmed onto the crossbars."""
        return self._deployment is not None

    # ------------------------------------------------------------------
    # Training mode
    # ------------------------------------------------------------------
    def observe(self, sample: Sample) -> bool:
        """Absorb one interaction; True when a training epoch just ran."""
        fired = self.pipeline.observe(sample)
        if fired:
            self.epochs_completed += 1
            self._retire_deployment()  # library changed; reprogram lazily
            self._prefill_states.clear()  # restored prompts change too
        return fired

    def extend(self, samples: list[Sample]) -> int:
        """Absorb many interactions; returns the number of epochs fired."""
        return sum(self.observe(sample) for sample in samples)

    def adopt_library(self, library: OVTLibrary) -> None:
        """Serve a library trained elsewhere (e.g. restored from storage)."""
        self.pipeline.library = library
        self._retire_deployment()
        self._prefill_states.clear()

    def _retire_deployment(self) -> None:
        """Invalidate the deployment, banking its crossbar counters."""
        if self._deployment is not None:
            self._retired_cim.add(self._deployment.engine.aggregate_stats())
        self._deployment = None

    def cim_stats(self) -> CrossbarStats:
        """Cumulative crossbar counters: retired deployments + the live
        one.  Monotonic across retraining, unlike reading the current
        deployment's counters directly."""
        total = CrossbarStats().add(self._retired_cim)
        if self._deployment is not None:
            total.add(self._deployment.engine.aggregate_stats())
        return total

    def nvm_bytes(self) -> int:
        """Resident bytes of the live deployment's crossbar state (0 while
        undeployed)."""
        if self._deployment is None:
            return 0
        return self._deployment.engine.nvm_bytes()

    # ------------------------------------------------------------------
    # Inference mode
    # ------------------------------------------------------------------
    def deployment(self) -> NVCiMDeployment:
        """The NVM deployment, (re)programming the crossbars if stale."""
        if not self.library.ovts:
            raise RuntimeError(
                "no OVTs trained yet; feed more samples via observe()"
            )
        if self._deployment is None:
            self._deployment = NVCiMDeployment(
                self.pipeline.model, self.pipeline.tokenizer, self.library,
                self.config)
        return self._deployment

    def prefill_state(
        self,
        text: str,
        ovt_index: int,
        restore_prompt: Callable[[], np.ndarray],
    ) -> PrefillState:
        """Decode-ready prefill of ``prompt + text``, cached per session.

        ``restore_prompt`` is only invoked on a cache miss, so a repeated
        query skips the NVM read-back and autoencoder decode entirely.  It
        must restore the soft prompt for ``ovt_index`` from the *current*
        deployment — the cache key assumes it, and training (which changes
        what each index restores to) clears the cache.
        """
        key = (text, ovt_index)
        state = self._prefill_states.get(key)
        if state is not None:
            self._prefill_states.move_to_end(key)
            self.prefill_hits += 1
            return state
        ids = self.tokenizer.encode(text)
        state = prefill(self.model, ids, soft_prompt=restore_prompt())
        self._prefill_states[key] = state
        while len(self._prefill_states) > _MAX_PREFILL_STATES:
            self._prefill_states.popitem(last=False)
        return state

    def prefill_cache_bytes(self) -> int:
        """Approximate KV footprint of the cached prefill states."""
        return sum(state.cache.memory_bytes()
                   for state in self._prefill_states.values())
