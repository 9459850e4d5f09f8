"""Experiment harness reproducing the paper's evaluation protocol.

Protocol (Section IV): each user's data arrives in *sessions* — the buffer
fills from one latent domain at a time (this is the domain shift the paper
targets), the framework trains OVTs per full buffer, and evaluation queries
are drawn across **all** of the user's domains.  One4all baselines only see
the most recent buffer, so their prompt reflects the latest domain only;
NVCiM-PT accumulates one OVT per domain in NVM and retrieves per query.

Scores: Accuracy for LaMP-1/2/3, ROUGE-1 F1 for LaMP-5/7, averaged over
queries and users (the paper averages over >100 users; benches default to a
handful and expose the count).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.framework import (
    FrameworkConfig,
    OVTLibrary,
    OVTTrainingPipeline,
)
from ..data.lamp import LaMPDataset, Sample, make_dataset
from ..data.users import UserProfile, make_user
from ..data.corpus import build_corpus, build_tokenizer
from ..llm.generation import GenerationConfig
from ..llm.registry import load_pretrained_model
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from ..serve import PromptServeEngine, QueryRequest
from ..tuning import PromptArtifact, generate_with_artifact
from .metrics import score_output

__all__ = ["MethodSpec", "TABLE1_METHODS", "ExperimentContext",
           "UserTask", "evaluate_method", "evaluate_artifact"]


@dataclass(frozen=True)
class MethodSpec:
    """One column of the paper's comparison tables."""

    name: str
    noise_aware: bool
    mitigation: str
    retrieval: str

    def apply(self, config: FrameworkConfig) -> FrameworkConfig:
        return replace(config, noise_aware=self.noise_aware,
                       mitigation=self.mitigation, retrieval=self.retrieval)


TABLE1_METHODS: tuple[MethodSpec, ...] = (
    MethodSpec("SWV", noise_aware=False, mitigation="swv", retrieval="ssa"),
    MethodSpec("CxDNN", noise_aware=False, mitigation="cxdnn", retrieval="ssa"),
    MethodSpec("CorrectNet", noise_aware=False, mitigation="correctnet",
               retrieval="ssa"),
    MethodSpec("No-Miti(MIPS)", noise_aware=False, mitigation="none",
               retrieval="mips"),
    MethodSpec("NVP*(MIPS)", noise_aware=True, mitigation="none",
               retrieval="mips"),
    MethodSpec("NVCiM-PT", noise_aware=True, mitigation="none",
               retrieval="ssa"),
)


@dataclass
class UserTask:
    """One (dataset, user) evaluation unit with its stream and queries."""

    dataset: LaMPDataset
    user: UserProfile
    training_stream: list[Sample]
    queries: list[Sample]
    last_buffer: list[Sample]     # what a one4all method would train on


class ExperimentContext:
    """Shared, memoised heavy state: tokenizer, corpus, pretrained models,
    trained OVT libraries, scored table cells."""

    def __init__(self, *, seed: int = 0, corpus_sentences: int = 3000,
                 n_queries: int = 10):
        self.seed = seed
        self.n_queries = n_queries
        self.tokenizer: Tokenizer = build_tokenizer()
        self.corpus = build_corpus(self.tokenizer,
                                   n_sentences=corpus_sentences, seed=seed)
        self._models: dict[str, TinyCausalLM] = {}
        self._libraries: dict[tuple, OVTLibrary] = {}
        self._scores: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    def model(self, name: str) -> TinyCausalLM:
        if name not in self._models:
            self._models[name] = load_pretrained_model(
                name, self.corpus, self.tokenizer.vocab_size, seed=self.seed)
        return self._models[name]

    def generation_config(self, max_new_tokens: int = 10) -> GenerationConfig:
        """Paper settings (temperature 0.1); output capped at the task's
        short answers rather than the paper's 100-token ceiling."""
        return GenerationConfig(max_new_tokens=max_new_tokens,
                                temperature=0.1, seed=self.seed,
                                eos_id=self.tokenizer.eos_id)

    # ------------------------------------------------------------------
    def user_task(self, dataset_name: str, user_id: int,
                  buffer_capacity: int) -> UserTask:
        """Build the session stream + queries for one user.

        The stream visits each of the user's domains in turn, one full
        buffer per domain (the paper's domain-shift setting).
        """
        dataset = make_dataset(dataset_name)
        user = make_user(user_id, seed=self.seed)
        domains = dataset.user_domains(user)
        stream: list[Sample] = []
        last_buffer: list[Sample] = []
        for epoch, domain in enumerate(domains):
            chunk = dataset.generate(user, buffer_capacity,
                                     seed=self.seed * 1000 + epoch,
                                     domains=[domain])
            stream.extend(chunk)
            last_buffer = chunk
        queries = dataset.generate(user, self.n_queries,
                                   seed=self.seed * 1000 + 999)
        return UserTask(dataset, user, stream, queries, last_buffer)

    # ------------------------------------------------------------------
    def library(self, model_name: str, dataset_name: str, user_id: int,
                config: FrameworkConfig) -> OVTLibrary:
        """Train (or reuse) the OVT library for one user.

        Libraries depend only on the tuning settings (noise_aware, buffer
        size, tuning config; sigma and the noise tiers only when training
        is noise-aware) — not on device/mitigation/retrieval — so Table I
        reuses each library across its five devices and three
        retrieval/mitigation variants, and the Table IV sweep trains the
        plain-tuning baselines once.
        """
        injected = config.noise_aware and (round(config.sigma, 6),
                                           config.noise_factors)
        key = (model_name, dataset_name, user_id, injected,
               config.buffer_capacity, config.tuning, config.k_selection,
               config.code_dim, config.seed)
        if key not in self._libraries:
            task = self.user_task(dataset_name, user_id,
                                  config.buffer_capacity)
            pipeline = OVTTrainingPipeline(self.model(model_name),
                                           self.tokenizer, config)
            self._libraries[key] = pipeline.run(task.training_stream)
        return self._libraries[key]


def evaluate_method(
    context: ExperimentContext,
    model_name: str,
    dataset_name: str,
    method: MethodSpec,
    config: FrameworkConfig,
    *,
    user_ids: tuple[int, ...] = (0, 1, 2),
) -> float:
    """Mean score of ``method`` over the given users (one table cell).

    Evaluation runs through the serving layer: one engine per cell over
    the context's ``model_name``, each user's memoised library loaded
    into a session and the cell's queries served as one batch (so
    per-user crossbar programming is amortised).  Everything is seeded,
    so a cell is scored once per context: tables that share a cell
    (Table I's main column is a row of Tables III/IV and the baseline arm
    of every ablation) share its score.
    """
    base = method.apply(config)
    key = (model_name, dataset_name, base, user_ids)
    if key in context._scores:
        return context._scores[key]
    engine = PromptServeEngine(context.model(model_name), context.tokenizer,
                               base, max_sessions=max(len(user_ids), 1))
    generation = context.generation_config()
    requests: list[QueryRequest] = []
    expected: list[tuple[str, str]] = []   # (metric, target) per request
    for user_id in user_ids:
        task = context.user_task(dataset_name, user_id, base.buffer_capacity)
        engine.load_session(
            user_id, context.library(model_name, dataset_name, user_id, base))
        for query in task.queries:
            requests.append(QueryRequest(user_id=user_id,
                                         text=query.input_text,
                                         generation=generation))
            expected.append((task.dataset.metric, query.target_text))
    responses = engine.answer_batch(requests)
    scores = [score_output(metric, response.answer, target)
              for response, (metric, target) in zip(responses, expected)]
    context._scores[key] = float(np.mean(scores))
    return context._scores[key]


def evaluate_artifact(
    context: ExperimentContext,
    model_name: str,
    artifact: PromptArtifact | None,
    queries: list[Sample],
    metric: str,
) -> float:
    """Mean score of a single prompt artifact over ``queries``
    (used by the Fig. 1 one4all baselines)."""
    model = context.model(model_name)
    generation = context.generation_config()
    scores = [
        score_output(metric,
                     generate_with_artifact(model, context.tokenizer,
                                            artifact, q.input_text,
                                            generation),
                     q.target_text)
        for q in queries
    ]
    return float(np.mean(scores))
