"""Prompt tuning methods: vanilla PT, prefix tuning, DEPT, P-tuning v2."""

from .apply import generate_with_artifact
from .base import (
    IGNORE_INDEX,
    PromptArtifact,
    TuningConfig,
    VirtualTokens,
    build_training_batch,
    build_training_ids,
    make_target_vector,
)
from .dept import DEPTTuner
from .prefix import PrefixTuner, prefix_loss_and_grad
from .ptuning_v2 import PTuningV2Tuner
from .trainer import train_prompt_parameters
from .vanilla import (
    VanillaPromptTuner,
    initial_prompt_matrix,
    prompt_loss_and_grad,
)

__all__ = [
    "VirtualTokens", "PromptArtifact", "TuningConfig", "IGNORE_INDEX",
    "build_training_ids", "make_target_vector",
    "build_training_batch",
    "VanillaPromptTuner", "PrefixTuner", "DEPTTuner", "PTuningV2Tuner",
    "initial_prompt_matrix", "prompt_loss_and_grad",
    "prefix_loss_and_grad",
    "train_prompt_parameters", "generate_with_artifact",
]
