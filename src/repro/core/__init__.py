"""The paper's contribution: RS + NT + SSA composed into NVCiM-PT."""

from .framework import (
    FrameworkConfig,
    NVCiMDeployment,
    OVTLibrary,
    OVTTrainingPipeline,
)
from .noise_training import NoiseAwareTrainer, NoiseInjectionConfig, NoiseInjector
from .selection import (
    KSelectionConfig,
    SelectionResult,
    compute_k,
    cosine_similarity,
    kmeans,
    select_representatives,
)

__all__ = [
    "compute_k", "kmeans", "cosine_similarity", "select_representatives",
    "KSelectionConfig", "SelectionResult",
    "NoiseInjectionConfig", "NoiseInjector", "NoiseAwareTrainer",
    "FrameworkConfig", "OVTLibrary", "OVTTrainingPipeline",
    "NVCiMDeployment",
]
