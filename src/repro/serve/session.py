"""Per-user serving state: one training pipeline + one NVM deployment.

A :class:`UserSession` is everything the engine keeps for a single user:
their streaming buffer and OVT library (via
:class:`~repro.core.OVTTrainingPipeline`) and, once the library is
non-empty, an :class:`~repro.core.NVCiMDeployment` whose crossbars hold the
library.

A tune is two steps, so that training never stalls a reader:

* :meth:`UserSession.prepare` trains on a private fork of the pipeline
  and touches nothing a query reads — the engine runs it off its lock;
* :meth:`UserSession.publish` installs the fork.  When an epoch fired it
  retires the old deployment, programs the new library onto fresh
  crossbars and clears the prefill cache — the paper's write-then-serve
  cadence: OVTs are written to NVM at the end of training.

A query therefore sees the library before a tune or after it, never a mix.
The engine's ``submit`` is the one tune path; a session outside an engine
tunes the same way, ``session.publish(*session.prepare(samples))``.
:meth:`UserSession.deployment` still programs lazily a session that has
none — one restored from a recipe snapshot, or serving an adopted library.

The session also keeps a small LRU cache of decode-ready prefills
(:class:`PrefillSlot` entries, filled by the engine's admission
:class:`PrefillBatch`) keyed by ``(query text, OVT index)``: a repeated
query (within a batch or across batches) pays the KV prefill once.  A
slot is *queued* on a batch, then *prefilled* (it holds the KV state
decodes start from), then — on the engine's serving path,
``begin_query`` — *answered*: it keeps the first answer that completes
from it, with the :class:`~repro.llm.generation.GenerationConfig` it was
decoded under, and lets go of the KV state, since decoding the same
state under the same config is deterministic (greedy, or sampled from
the config's seed).  A repeat under that config is answered without
decoding; one under another config, or from a call that always decodes,
takes a fresh slot in its place.  Publishing an epoch clears the cache along with the
deployment, since a retrained library restores different soft prompts.
"""

from __future__ import annotations

import threading
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
from ..llm.generation import (
    GenerationConfig,
    PrefillState,
    check_prompt_room,
    prefill,
)
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM

__all__ = ["UserSession", "PrefillSlot", "PrefillBatch", "SlotAnswer"]

# Per-session bound on cached prefill states (each holds per-layer KV
# tensors, so the footprint is context-length x layers, not unbounded).
_MAX_PREFILL_STATES = 32
# How a generation may end for its answer to be kept: the ones a decode
# of the same state under the same config always reaches.
_KEPT_REASONS = ("eos", "length", "context")


class SlotAnswer:
    """The answer a :class:`PrefillSlot` keeps.

    Reads as the retired sequence it came from (``config``,
    ``finish_reason``, ``token_ids()``), so the engine finalises a query
    answered from it as it finalises a decoded one.
    """

    __slots__ = ("config", "tokens", "finish_reason")

    def __init__(self, config: GenerationConfig, tokens: np.ndarray,
                 finish_reason: str):
        self.config = config
        self.tokens = tokens
        self.finish_reason = finish_reason

    def token_ids(self) -> np.ndarray:
        return self.tokens


class PrefillSlot:
    """A prefill-LRU entry, in one of three states.

    *Queued*: the prompt (``ids``, ``soft_prompt``; None once run) waits
    on a :class:`PrefillBatch`.  *Prefilled*: the batch ran and ``state``
    holds the :class:`~repro.llm.generation.PrefillState`.  *Answered*:
    ``answer`` holds the first answer completed from the slot
    (:meth:`keep`) and ``state`` is let go.
    """

    __slots__ = ("ids", "soft_prompt", "state", "answer")

    def __init__(self, ids: np.ndarray, soft_prompt: np.ndarray):
        self.ids: np.ndarray | None = ids
        self.soft_prompt: np.ndarray | None = soft_prompt
        self.state: PrefillState | None = None
        self.answer: SlotAnswer | None = None

    def keep(self, sequence) -> None:
        """Keep a retired generation's answer and let go of the KV state.

        ``sequence`` is a retired :class:`~repro.llm.generation
        .DecodeSequence` (or the :class:`SlotAnswer` a query was answered
        from, which changes nothing).  Only the first answer is kept, and
        only one that ended on EOS or a limit: one cut by a deadline or a
        cancel is a prefix of what the config decodes to.
        """
        if (self.answer is not None
                or sequence.finish_reason not in _KEPT_REASONS):
            return
        self.answer = SlotAnswer(sequence.config, sequence.token_ids(),
                                 sequence.finish_reason)
        self.state = None


class PrefillBatch:
    """The prefill misses of one admission, run together.

    :meth:`run` stacks the prompts of equal shape and prefills each stack
    with one :func:`~repro.llm.generation.prefill` — bitwise the prompts'
    prefills one by one.  The engine's single-query admission is the
    batch of one.
    """

    def __init__(self, model: TinyCausalLM):
        self.model = model
        self._slots: list[PrefillSlot] = []

    def __len__(self) -> int:
        """Prompts added and not yet run."""
        return len(self._slots)

    def add(self, ids: np.ndarray, soft_prompt: np.ndarray) -> PrefillSlot:
        """Queue one prompt (1-D ids behind its (P, d_model) soft prompt);
        raises ``ValueError``, queueing nothing, where :func:`prefill`
        would refuse it."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        check_prompt_room(self.model, ids.size, len(soft_prompt))
        slot = PrefillSlot(ids, soft_prompt)
        self._slots.append(slot)
        return slot

    def run(self) -> int:
        """Prefill every queued prompt into its slot; returns the number
        of forwards run (one per distinct prompt shape).  A stack whose
        forward raises leaves its slots, and those of the stacks after
        it, queued (``ids`` set)."""
        stacks: dict[tuple[int, int], list[PrefillSlot]] = {}
        for slot in self._slots:
            stacks.setdefault((slot.ids.size, len(slot.soft_prompt)),
                              []).append(slot)
        self._slots = []
        for stack in stacks.values():
            states = prefill(
                self.model, np.stack([slot.ids for slot in stack]),
                soft_prompt=np.stack([slot.soft_prompt for slot in stack]))
            for slot, state in zip(stack, states):
                slot.state, slot.ids, slot.soft_prompt = state, None, None
        return len(stacks)


class UserSession:
    """One user's OVT library and NVM deployment over the shared model."""

    def __init__(self, user_id: int, model: TinyCausalLM,
                 tokenizer: Tokenizer,
                 config: FrameworkConfig | None = None,
                 library: OVTLibrary | None = None):
        """``library`` is what the session starts serving (a restored
        library, handed to its pipeline); by default an empty one."""
        self.user_id = user_id
        self.config = config if config is not None else FrameworkConfig()
        self.pipeline = OVTTrainingPipeline(model, tokenizer, self.config,
                                            library)
        self._deployment: NVCiMDeployment | None = None
        self._prefill_states: OrderedDict[tuple[str, int], PrefillSlot] = \
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
        # Tunes between prepare and publish (the engine's gauge, and its
        # eviction pin: a session leaving mid-tune would lose the tune).
        self.tunes_in_flight = 0
        # Serialises this user's tunes in an engine: prepare forks the
        # pipeline that publish replaces, so two tunes of one user must not
        # overlap.  Taken before the engine lock, never while holding it.
        self.tune_lock = threading.Lock()

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
        """Whether the library is currently programmed onto the crossbars:
        from the publish of an epoch (or a raw restore) on; a session
        restored from a recipe, or serving an adopted library, is
        programmed by its next query."""
        return self._deployment is not None

    # ------------------------------------------------------------------
    # Training mode
    # ------------------------------------------------------------------
    def prepare(self, samples: list[Sample]
                ) -> tuple[OVTTrainingPipeline, int]:
        """Absorb interactions into a fork of the pipeline; returns the
        fork and the number of epochs it fired.

        Reads the current pipeline and changes nothing: the session keeps
        serving its library until :meth:`publish` installs the fork.
        """
        pipeline = self.pipeline.fork()
        return pipeline, sum(pipeline.observe(sample) for sample in samples)

    def publish(self, pipeline: OVTTrainingPipeline, epochs: int) -> None:
        """Install what :meth:`prepare` trained.

        After an epoch the old deployment is retired *before* the new
        library is programmed, so the two sets of crossbars are never
        held at once.
        """
        self.pipeline = pipeline
        if epochs:
            self.epochs_completed += epochs
            self._retire_deployment()
            self._prefill_states.clear()   # restored prompts change too
            self.deployment()

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
        """The NVM deployment, programming the crossbars if there is none."""
        if not self.library.ovts:
            raise RuntimeError(
                "no OVTs trained yet; tune this user first"
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
        batch: PrefillBatch,
        generation: GenerationConfig | None,
    ) -> PrefillSlot:
        """The slot of the decode-ready prefill of ``prompt + text``,
        cached per session.

        A hit returns the cached slot — its state already there, arriving
        with ``batch`` when an earlier query of the same batch missed on
        the same key, or let go because the slot holds an answer decoded
        under ``generation``.  ``generation`` is the config of a query
        that may take the slot's answer, None for one that decodes in any
        case.  A miss queues the prompt on ``batch`` (its state arrives
        when the batch runs) and caches the slot at once, so the LRU's
        contents and order are what prefilling the queries one by one
        would leave; the fresh slot replaces an answered one, dropping
        its answer.  ``restore_prompt`` is only invoked on a miss, so a
        repeated query skips the NVM read-back and autoencoder decode
        entirely.  It must restore the soft prompt for ``ovt_index`` from
        the *current* deployment — the cache key assumes it, and
        publishing an epoch (which changes what each index restores to)
        clears the cache.
        """
        key = (text, ovt_index)
        slot = self._prefill_states.get(key)
        if slot is not None:
            self._prefill_states.move_to_end(key)
            if slot.answer is None or slot.answer.config == generation:
                self.prefill_hits += 1
                return slot
        slot = batch.add(self.tokenizer.encode(text), restore_prompt())
        self._prefill_states[key] = slot
        while len(self._prefill_states) > _MAX_PREFILL_STATES:
            self._prefill_states.popitem(last=False)
        return slot

    def prefill_cache_bytes(self) -> int:
        """Approximate KV footprint of the cached prefill states: the
        prefilled slots, not yet answered (an answered slot has let go
        of its KV)."""
        return sum(slot.state.cache.memory_bytes()
                   for slot in self._prefill_states.values()
                   if slot.state is not None)
