"""Edge-LLM model zoo.

The paper evaluates three models that fit on edge devices: Gemma-2B, Phi-2
and Mistral-7B-GPTQ.  Their stand-ins here differ in width, depth, seed and
(for the GPTQ entry) weight precision, so every experiment still spans three
genuinely different frozen base models.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .pretrain import PretrainConfig, pretrain_lm
from .quantization import quantize_model_weights
from .transformer import LMConfig, TinyCausalLM

__all__ = ["EdgeModelSpec", "MODEL_REGISTRY", "available_models",
           "model_spec", "build_model", "load_pretrained_model",
           "clear_model_cache"]


@dataclass(frozen=True)
class EdgeModelSpec:
    """Architecture + precision recipe for one edge-LLM stand-in."""

    name: str
    paper_model: str
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    quantize_bits: int | None = None
    base_seed: int = 0

    def lm_config(self, vocab_size: int, max_seq_len: int = 256) -> LMConfig:
        return LMConfig(vocab_size=vocab_size, d_model=self.d_model,
                        n_heads=self.n_heads, n_layers=self.n_layers,
                        d_ff=self.d_ff, max_seq_len=max_seq_len)

    def build(self, vocab_size: int, *, seed: int | None = None,
              max_seq_len: int = 256) -> TinyCausalLM:
        """An un-pretrained model of this spec (seeded by ``base_seed``
        unless ``seed`` is given)."""
        return TinyCausalLM(self.lm_config(vocab_size, max_seq_len),
                            seed=self.base_seed if seed is None else seed)


# The paper's three edge LLMs, by stand-in name.
MODEL_REGISTRY: dict[str, EdgeModelSpec] = {spec.name: spec for spec in (
    EdgeModelSpec(
        name="gemma-2b-sim", paper_model="Gemma-2B",
        d_model=64, n_heads=4, n_layers=3, d_ff=160, base_seed=101,
    ),
    EdgeModelSpec(
        name="mistral-7b-gptq-sim", paper_model="Mistral-7B-GPTQ",
        d_model=72, n_heads=4, n_layers=4, d_ff=192,
        quantize_bits=4, base_seed=202,
    ),
    EdgeModelSpec(
        name="phi-2-sim", paper_model="Phi-2",
        d_model=56, n_heads=4, n_layers=3, d_ff=144, base_seed=303,
    ),
)}

# Cache of pretrained weights keyed by everything the weights depend on:
# model name, vocabulary size, context length, the whole (frozen)
# PretrainConfig and a digest of the whole token stream.  Stores state
# dicts so callers always get a fresh object.
_PRETRAINED_CACHE: dict[tuple, dict[str, np.ndarray]] = {}


def available_models() -> list[str]:
    """Names accepted by :func:`build_model` / :func:`load_pretrained_model`."""
    return sorted(MODEL_REGISTRY)


def model_spec(name: str) -> EdgeModelSpec:
    """The spec of a zoo model, by name."""
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {available_models()}"
        ) from None


def build_model(name: str, vocab_size: int, *, seed: int | None = None,
                max_seq_len: int = 256) -> TinyCausalLM:
    """Instantiate an un-pretrained zoo model."""
    return model_spec(name).build(vocab_size, seed=seed,
                                  max_seq_len=max_seq_len)


def load_pretrained_model(
    name: str,
    token_stream: np.ndarray,
    vocab_size: int,
    *,
    seed: int = 0,
    pretrain: PretrainConfig | None = None,
    max_seq_len: int = 256,
) -> TinyCausalLM:
    """Build, pretrain (memoised) and optionally quantize a zoo model.

    Pretraining the same model on the same corpus under an equal
    :class:`PretrainConfig` (``seed`` only builds the default one) twice
    reuses cached weights, which keeps the large experiment grids
    affordable.
    """
    spec = model_spec(name)
    config = pretrain or PretrainConfig(seed=seed)
    token_stream = np.asarray(token_stream, dtype=np.int64).reshape(-1)
    fingerprint = (name, vocab_size, max_seq_len, config,
                   hashlib.sha256(token_stream.tobytes()).digest())
    model = build_model(name, vocab_size, max_seq_len=max_seq_len)
    if fingerprint in _PRETRAINED_CACHE:
        model.load_state_dict(_PRETRAINED_CACHE[fingerprint])
    else:
        pretrain_lm(model, token_stream, config)
        if spec.quantize_bits is not None:
            quantize_model_weights(model, bits=spec.quantize_bits)
        _PRETRAINED_CACHE[fingerprint] = model.state_dict()
    return model


def clear_model_cache() -> None:
    """Drop memoised pretrained weights (tests use this)."""
    _PRETRAINED_CACHE.clear()
