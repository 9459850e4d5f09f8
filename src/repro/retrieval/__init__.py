"""OVT retrieval: multi-scale pooling, SSA and MIPS on CiM."""

from .engine import (
    MIPS_CONFIG,
    RETRIEVAL_REGISTRY,
    SSA_CONFIG,
    CiMSearchEngine,
    SearchConfig,
    register_retrieval,
    wmsdp_reference,
)
from .pooling import avg_pool_rows, multi_scale_vectors, pad_rows

__all__ = [
    "pad_rows", "avg_pool_rows", "multi_scale_vectors",
    "SearchConfig", "SSA_CONFIG", "MIPS_CONFIG",
    "CiMSearchEngine", "wmsdp_reference",
    "RETRIEVAL_REGISTRY", "register_retrieval",
]
