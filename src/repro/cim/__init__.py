"""Computing-in-memory architecture: accelerator, cost and memory models."""

from .accelerator import CiMMatrix, MitigationHooks
from .energy import (
    CIM_TECH,
    CPU_JETSON_ORIN,
    RetrievalCostReport,
    cim_cost,
    cpu_cost,
    retrieval_cost,
)
from .memory_model import PAPER_SCALE_STORAGE, OVTStorageModel

__all__ = [
    "CiMMatrix", "MitigationHooks",
    "RetrievalCostReport", "cim_cost", "cpu_cost", "retrieval_cost",
    "CIM_TECH", "CPU_JETSON_ORIN",
    "OVTStorageModel", "PAPER_SCALE_STORAGE",
]
