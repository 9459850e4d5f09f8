"""Shared types and sequence plumbing for all prompt-tuning methods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.lamp import Sample
from ..llm.tokenizer import Tokenizer

__all__ = ["VirtualTokens", "PromptArtifact", "TuningConfig",
           "build_training_ids", "TrainingBatch", "build_training_batch",
           "IGNORE_INDEX"]

IGNORE_INDEX = -100


@dataclass
class VirtualTokens:
    """A trained set of virtual tokens (the OVT when trained per-sample).

    ``matrix`` has shape (n_tokens, d_model) — the soft prompt prepended to
    input embeddings at inference time.
    """

    matrix: np.ndarray
    source: Sample | None = None
    domain: str = ""

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float32)
        if self.matrix.ndim != 2:
            raise ValueError("virtual tokens must be a (n_tokens, d_model) matrix")

    @property
    def n_tokens(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_model(self) -> int:
        return self.matrix.shape[1]

    def copy(self) -> "VirtualTokens":
        return VirtualTokens(self.matrix.copy(), self.source, self.domain)


@dataclass
class PromptArtifact:
    """What a tuning method produces: either a soft prompt, per-layer KV
    prefixes, or both (DEPT additionally carries an embedding delta)."""

    soft_prompt: VirtualTokens | None = None
    prefix_kv: list[tuple[np.ndarray, np.ndarray]] | None = None
    embedding_delta: np.ndarray | None = None
    method: str = ""


@dataclass(frozen=True)
class TuningConfig:
    """Hyper-parameters shared by every prompt-tuning method.

    The paper uses HuggingFace prompt tuning with Adam at lr=1e-4 and a
    scheduler; the default lr here is scaled up for the much smaller
    stand-in models.
    """

    n_virtual_tokens: int = 8
    steps: int = 60
    lr: float = 0.05
    weight_decay: float = 0.0
    grad_clip: float = 1.0
    warmup_fraction: float = 0.1
    anchor_weight: float = 10.0  # L2 pull toward the embedding-space init
    seed: int = 0

    def __post_init__(self):
        if self.n_virtual_tokens <= 0:
            raise ValueError("n_virtual_tokens must be positive")
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.anchor_weight < 0:
            raise ValueError("anchor_weight must be non-negative")


# An additive-noise hook: given the virtual tokens before a forward pass,
# the noise added to them for that pass (None: none).  Noise-aware
# training supplies one; plain training has none.
PromptTransform = Callable[[np.ndarray], np.ndarray | None]


def build_training_ids(
    sample: Sample, tokenizer: Tokenizer,
) -> tuple[np.ndarray, np.ndarray]:
    """Token ids and loss mask for one training sample.

    Returns ``(full_ids, loss_positions)`` where ``full_ids`` is
    input + target + EOS and ``loss_positions[j]`` is True when token j
    belongs to the supervised continuation (target or EOS).
    """
    input_ids = tokenizer.encode(sample.input_text)
    target_ids = tokenizer.encode(sample.target_text)
    if input_ids.size == 0 or target_ids.size == 0:
        raise ValueError("sample has empty input or target text")
    full = np.concatenate([input_ids, target_ids, [tokenizer.eos_id]])
    loss_positions = np.zeros(full.size, dtype=bool)
    loss_positions[input_ids.size:] = True
    return full, loss_positions


def make_target_vector(full_ids: np.ndarray, loss_positions: np.ndarray,
                       prompt_len: int) -> np.ndarray:
    """Next-token targets for a sequence preceded by ``prompt_len`` virtual
    tokens.

    The model input is ``[prompt, full_ids[:-1]]`` (length
    ``prompt_len + T - 1``); position p predicts ``full_ids[p - prompt_len
    + 1]``.  Unsupervised positions get :data:`IGNORE_INDEX`.
    """
    full_ids = np.asarray(full_ids)
    loss_positions = np.asarray(loss_positions, dtype=bool)
    length = prompt_len + full_ids.size - 1
    targets = np.full(length, IGNORE_INDEX, dtype=np.int64)
    supervised = np.nonzero(loss_positions[1:])[0] + 1
    targets[prompt_len + supervised - 1] = full_ids[supervised]
    return targets


@dataclass
class TrainingBatch:
    """A minibatch padded to a common length for one batched forward.

    ``input_ids`` is (B, L) right-padded with the tokenizer's pad id;
    ``key_padding_mask`` is (B, L), True at padded slots; ``targets`` is
    (B, prompt_len + L) with :data:`IGNORE_INDEX` at prompt, unsupervised
    and padded positions, aligned with the logits of a forward over
    ``[prompt, input_ids]``.
    """

    input_ids: np.ndarray
    key_padding_mask: np.ndarray
    targets: np.ndarray
    lengths: np.ndarray
    prompt_len: int

    @property
    def batch_size(self) -> int:
        return self.input_ids.shape[0]


def build_training_batch(samples: list[Sample], tokenizer: Tokenizer,
                         prompt_len: int = 0) -> TrainingBatch:
    """Pad a minibatch of samples for one batched training forward."""
    if not samples:
        raise ValueError("training batch needs at least one sample")
    if prompt_len < 0:
        raise ValueError("prompt_len must be non-negative")
    encoded = [build_training_ids(sample, tokenizer) for sample in samples]
    lengths = np.array([ids.size - 1 for ids, _ in encoded], dtype=np.int64)
    batch, max_len = len(encoded), int(lengths.max())
    input_ids = np.full((batch, max_len), tokenizer.pad_id, dtype=np.int64)
    key_padding_mask = np.ones((batch, max_len), dtype=bool)
    targets = np.full((batch, prompt_len + max_len), IGNORE_INDEX,
                      dtype=np.int64)
    for i, (full_ids, loss_positions) in enumerate(encoded):
        t = full_ids.size - 1
        input_ids[i, :t] = full_ids[:-1]
        key_padding_mask[i, :t] = False
        targets[i, :prompt_len + t] = make_target_vector(
            full_ids, loss_positions, prompt_len)
    return TrainingBatch(input_ids, key_padding_mask, targets, lengths,
                         prompt_len)
