"""OVT retrieval: multi-scale pooling, SSA and MIPS on CiM."""

from .engine import (
    MIPS_CONFIG,
    RETRIEVAL_REGISTRY,
    SSA_CONFIG,
    CiMSearchEngine,
    SearchConfig,
)
from .pooling import multi_scale_batch

__all__ = [
    "multi_scale_batch",
    "SearchConfig", "SSA_CONFIG", "MIPS_CONFIG",
    "CiMSearchEngine", "RETRIEVAL_REGISTRY",
]
