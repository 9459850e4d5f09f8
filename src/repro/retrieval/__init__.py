"""OVT retrieval: multi-scale pooling, SSA and MIPS on CiM."""

from .engine import (
    MIPS_CONFIG,
    RETRIEVAL_REGISTRY,
    SSA_CONFIG,
    CiMSearchEngine,
    SearchConfig,
)
from .pooling import avg_pool_rows, multi_scale_vectors, pad_rows

__all__ = [
    "pad_rows", "avg_pool_rows", "multi_scale_vectors",
    "SearchConfig", "SSA_CONFIG", "MIPS_CONFIG",
    "CiMSearchEngine", "RETRIEVAL_REGISTRY",
]
