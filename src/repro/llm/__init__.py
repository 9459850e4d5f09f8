"""Edge-LLM substrate: tokenizer, transformer, generation, model zoo."""

from . import infer
from .attention import KVPrefix, MultiHeadSelfAttention
from .generation import (
    DecodeRoundReport,
    DecodeScheduler,
    DecodeSequence,
    GenerationConfig,
    PrefillState,
    check_prompt_room,
    decode_from,
    generate,
    prefill,
)
from .kv_cache import KVBuffer, KVCache, KVSlab
from .pretrain import PretrainConfig, pretrain_lm
from .quantization import (
    QUANTIZATION_BITS,
    quantization_stats,
    quantize_model,
    quantize_model_weights,
)
from .registry import (
    MODEL_REGISTRY,
    EdgeModelSpec,
    available_models,
    build_model,
    clear_model_cache,
    load_pretrained_model,
)
from .speculative import (
    SpeculativeDecoder,
    build_draft_model,
    distill_draft,
    draft_spec,
)
from .tokenizer import BOS, EOS, PAD, SEP, UNK, Tokenizer
from .transformer import LMConfig, TinyCausalLM

__all__ = [
    "Tokenizer", "PAD", "BOS", "EOS", "UNK", "SEP",
    "MultiHeadSelfAttention", "KVPrefix", "KVCache", "KVSlab", "KVBuffer",
    "LMConfig", "TinyCausalLM", "infer",
    "GenerationConfig", "PrefillState", "check_prompt_room",
    "generate", "prefill", "decode_from",
    "DecodeSequence", "DecodeScheduler", "DecodeRoundReport",
    "PretrainConfig", "pretrain_lm",
    "quantize_model_weights", "QUANTIZATION_BITS", "quantize_model",
    "quantization_stats",
    "EdgeModelSpec", "MODEL_REGISTRY", "available_models",
    "build_model", "load_pretrained_model", "clear_model_cache",
    "SpeculativeDecoder", "draft_spec",
    "build_draft_model", "distill_draft",
]
