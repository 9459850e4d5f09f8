"""Common set-up: tokenizer, corpus, pretrained base model, an engine
whose users are all *tuned* through ``engine.submit`` and warmed with one
query each, so every crossbar is programmed before anything is timed.

Only the ``WorldSpec`` and the workload seed decide what is built; the
whole of :func:`build_world` is what ``setup_s`` times.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro import (
    FrameworkConfig,
    GenerationConfig,
    PromptServeEngine,
    QueryRequest,
    SessionStore,
    TuneRequest,
    build_corpus,
    build_model,
    build_tokenizer,
    make_dataset,
    make_user,
)
from repro.llm import PretrainConfig, pretrain_lm

from . import OUT_DIR
from .measure import Rests

MODEL_NAME = "phi-2-sim"
PRESET = "fast"
DATASET = "LaMP-2"
TUNE_SAMPLES = 10          # == the preset's buffer: one request, one epoch
POOL_TEXTS = 64            # per-user query texts; > the 32-entry prefill LRU
_POOL_DRAW = 256           # samples drawn per attempt while filling a pool


@dataclass(frozen=True)
class WorldSpec:
    n_users: int = 8
    max_sessions: int = 8
    new_tokens: int = 4
    session_store: bool = False
    corpus_sentences: int = 400
    pretrain_steps: int = 60


@dataclass
class World:
    spec: WorldSpec
    seed: int
    tokenizer: object
    model: object
    engine: PromptServeEngine
    generation: GenerationConfig
    pools: dict[int, list[str]]
    warmup: dict[int, object]            # user -> set-up QueryResponse
    tune_epoch_s: list[float] = field(default_factory=list)
    # user -> index of that user's next tune round (0 was the set-up's)
    next_round: dict[int, int] = field(default_factory=dict)
    setup_s: float = 0.0                 # at reference speed
    setup_wall_s: float = 0.0            # as the clock read it
    store_dir: str | None = None         # the on-disk SessionStore's

    def close(self) -> None:
        """Delete the session store's directory."""
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    @property
    def users(self) -> list[int]:
        return list(range(self.spec.n_users))

    def pool_part(self, part: int) -> dict[int, list[str]]:
        """Each user's ``part``-th pool of ``POOL_TEXTS`` texts.

        A traced run drives the workload several times over; disjoint
        pools keep a later pass's fresh texts fresh.  Set-up builds part
        0 (plus the warm-up text); later parts are drawn on first use,
        outside anything timed.
        """
        need = (part + 1) * POOL_TEXTS + 1
        for user, pool in self.pools.items():
            if len(pool) < need:
                self.pools[user] = text_pool(self.seed, user, need)
        # Index 0 is the warm-up text, which no plan draws.
        return {user: pool[1 + part * POOL_TEXTS:1 + (part + 1) * POOL_TEXTS]
                for user, pool in self.pools.items()}


def seeded_rng(seed: int, *labels) -> random.Random:
    """A generator for one labelled purpose; independent of call order."""
    return random.Random(f"{seed}/" + "/".join(map(str, labels)))


def derive_seed(seed: int, *labels) -> int:
    return seeded_rng(seed, *labels).getrandbits(31)


def tune_samples(seed: int, user_id: int, round_index: int) -> tuple:
    """The ten interactions of one tune request (one training epoch)."""
    dataset = make_dataset(DATASET)
    return tuple(dataset.generate(
        make_user(user_id, seed=0), TUNE_SAMPLES,
        seed=derive_seed(seed, "tune", user_id, round_index)))


def text_pool(seed: int, user_id: int, size: int) -> list[str]:
    """``size`` distinct query texts of one user, in seeded order.  A
    longer pool starts with the shorter one (the draws do not depend on
    ``size``)."""
    dataset = make_dataset(DATASET)
    texts: list[str] = []
    seen: set[str] = set()
    attempt = 0
    while len(texts) < size:
        batch = dataset.generate(
            make_user(user_id, seed=0), _POOL_DRAW,
            seed=derive_seed(seed, "pool", user_id, attempt))
        for sample in batch:
            if sample.input_text not in seen:
                seen.add(sample.input_text)
                texts.append(sample.input_text)
        attempt += 1
        if attempt > 16:
            raise RuntimeError(
                f"user {user_id} has fewer than {size} distinct texts")
    return texts[:size]


def build_world(spec: WorldSpec, seed: int) -> World:
    started = time.perf_counter()
    # A rest before and after the shared part and after each user: see
    # ``measure.Rests``.
    rests = Rests()
    rests.rest()
    tokenizer = build_tokenizer()
    corpus = build_corpus(tokenizer, n_sentences=spec.corpus_sentences, seed=0)
    model = build_model(MODEL_NAME, tokenizer.vocab_size)
    pretrain_lm(model, corpus,
                PretrainConfig(steps=spec.pretrain_steps, seed=0))
    # On disk, inside the checkout: a spill is a write plus an atomic
    # rename of the whole blob, and that is the path under test.
    store, store_dir = None, None
    if spec.session_store:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        store_dir = tempfile.mkdtemp(prefix="sessions-", dir=OUT_DIR)
        store = SessionStore(store_dir)
    engine = PromptServeEngine(
        model, tokenizer, FrameworkConfig.preset(PRESET),
        max_sessions=spec.max_sessions, session_store=store)
    # Greedy and EOS-free, so every answer has exactly new_tokens tokens.
    generation = GenerationConfig(max_new_tokens=spec.new_tokens,
                                  temperature=0.0, eos_id=None)
    world = World(spec, seed, tokenizer, model, engine, generation,
                  pools={}, warmup={}, store_dir=store_dir)
    rests.rest()
    for user_id in range(spec.n_users):
        world.pools[user_id] = text_pool(seed, user_id, POOL_TEXTS + 1)
        world.next_round[user_id] = 1
        request = TuneRequest(user_id=user_id,
                              samples=tune_samples(seed, user_id, 0),
                              request_id=f"setup-tune-{user_id}")
        tune_started = time.perf_counter()
        response = engine.submit(request)
        world.tune_epoch_s.append(time.perf_counter() - tune_started)
        if response.epochs_fired != 1:
            raise RuntimeError(
                f"set-up tune of user {user_id} fired "
                f"{response.epochs_fired} epochs, expected 1")
        # Warm-up right after the tune: the crossbars are programmed
        # while the session is still resident.
        world.warmup[user_id] = engine.query(QueryRequest(
            user_id=user_id, text=world.pools[user_id][0],
            generation=generation, request_id=f"setup-warm-{user_id}"))
        rests.rest()
    world.setup_s = rests.reference_seconds()
    world.setup_wall_s = time.perf_counter() - started
    return world

