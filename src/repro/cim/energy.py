"""Latency and energy models for OVT retrieval (paper Fig. 5).

The paper reports NeuroSim-derived numbers for the crossbar array plus
peripheral circuits at the 22nm node, compared against a Jetson Orin CPU.
We reproduce that with per-subarray read latency/energy constants for
RRAM and FeFET (NeuroSim-magnitude values), an ADC budget, and a CPU +
DRAM cost model for the software baseline.  One price covers both uses:
:meth:`CiMCostModel.mvm_cost` bills the tiles a store occupies — the
extents the crossbar itself lays out (:func:`repro.nvm.tile_extents`) —
so a served answer is priced from its deployment's banks and Fig. 5
from a paper-scale library laid out by the same rule.  Absolute numbers are
order-of-magnitude; the *ratios* (the figure's message: ~up to 120x
latency and ~60x energy advantage) are what the model is calibrated to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..nvm.crossbar import tile_extents

__all__ = ["CiMCostModel", "CpuCostModel", "RetrievalCostReport",
           "cim_cost", "cpu_cost", "retrieval_cost", "CIM_TECH",
           "CPU_JETSON_ORIN"]


@dataclass(frozen=True)
class CiMCostModel:
    """Per-operation costs of one NVCiM technology at 22nm."""

    name: str
    array_read_latency_ns: float     # one subarray MVM (row-parallel read)
    cell_read_energy_fj: float       # per cell per MVM
    adc_energy_pj: float             # per 8-bit conversion
    adc_time_ns: float               # per conversion
    adcs_per_subarray: int = 8       # columns share ADCs
    parallel_subarrays: int = 32     # bank-level parallelism
    periphery_energy_pj: float = 1200.0  # buffers/interconnect per tile op

    def mvm_cost(self, extent: np.ndarray) -> tuple[float, float]:
        """``(latency_ns, energy_pj)`` of one MVM over the tiles whose
        occupied corners are ``extent`` (``(n_tiles, 2)``, bank order —
        :func:`repro.nvm.tile_extents`).

        A tile reads its rows at once and converts its used columns
        ``adcs_per_subarray`` at a time; tiles run in waves of
        ``parallel_subarrays`` in bank order, each wave as long as its
        slowest tile.  Energy bills every occupied cell read, every
        conversion and each tile's periphery: exactly what
        :meth:`repro.nvm.TileBank.matmat_grouped` counts (one MVM per
        tile, ``used_cols`` conversions), so erased cells cost nothing.
        """
        extent = np.asarray(extent, dtype=np.int64)
        if extent.ndim != 2 or extent.shape[1] != 2 or not len(extent):
            raise ValueError(f"extent must be (n_tiles, 2) with at least "
                             f"one tile, got {extent.shape}")
        used_rows, used_cols = extent.T
        per_tile = (self.array_read_latency_ns
                    + -(-used_cols // self.adcs_per_subarray)
                    * self.adc_time_ns)
        waves = np.maximum.reduceat(
            per_tile, np.arange(0, len(per_tile), self.parallel_subarrays))
        energy = (float((used_rows * used_cols).sum())
                  * self.cell_read_energy_fj * 1e-3
                  + float(used_cols.sum()) * self.adc_energy_pj
                  + len(extent) * self.periphery_energy_pj)
        return float(waves.sum()), energy


@dataclass(frozen=True)
class CpuCostModel:
    """Software retrieval on an edge CPU (Jetson Orin class)."""

    name: str
    effective_gmacs_per_s: float     # sustained MAC throughput
    energy_per_mac_pj: float
    dram_bandwidth_gb_s: float
    dram_energy_pj_per_byte: float

    def latency_ns(self, macs: float, bytes_moved: float) -> float:
        compute = macs / (self.effective_gmacs_per_s * 1e9) * 1e9
        memory = bytes_moved / (self.dram_bandwidth_gb_s * 1e9) * 1e9
        # Compute and streaming overlap imperfectly on a CPU; take max plus
        # a fraction of the smaller term.
        return max(compute, memory) + 0.3 * min(compute, memory)

    def energy_pj(self, macs: float, bytes_moved: float) -> float:
        return macs * self.energy_per_mac_pj + bytes_moved * self.dram_energy_pj_per_byte


# NeuroSim-magnitude constants, 22nm node (system level: array + ADC +
# buffers/interconnect), calibrated so the CPU-vs-CiM ratios land in the
# paper's reported band (up to ~120x latency, ~60x energy at 1e5 OVTs).
CIM_TECH: dict[str, CiMCostModel] = {
    "RRAM": CiMCostModel(name="RRAM", array_read_latency_ns=12.0,
                         cell_read_energy_fj=0.30, adc_energy_pj=2.5,
                         adc_time_ns=4.0),
    "FeFET": CiMCostModel(name="FeFET", array_read_latency_ns=9.0,
                          cell_read_energy_fj=0.20, adc_energy_pj=2.5,
                          adc_time_ns=4.0),
}

# Jetson Orin CPU cluster (not the GPU): 12x A78AE with NEON, LPDDR5
# shared bus at realistic sustained efficiency.
CPU_JETSON_ORIN = CpuCostModel(name="JetsonOrinCPU",
                               effective_gmacs_per_s=30.0,
                               energy_per_mac_pj=4.0,
                               dram_bandwidth_gb_s=40.0,
                               dram_energy_pj_per_byte=10.0)


@dataclass(frozen=True)
class RetrievalCostReport:
    """Cost of one retrieval among ``n_ovts`` candidates: what the serving
    telemetry attaches to each answer.  A batch of queries costs that
    many retrievals — every query still activates every tile once per
    scale — so there is no batch form."""

    backend: str
    n_ovts: int
    latency_ns: float
    energy_pj: float


def cim_cost(backend: str, n_ovts: int,
             extents: Iterable[np.ndarray]) -> RetrievalCostReport:
    """One retrieval on ``backend`` ("RRAM" or "FeFET"): one MVM over
    each store's tiles (one ``extent`` array per scale store)."""
    tech = CIM_TECH[backend]
    latency = energy = 0.0
    for extent in extents:
        store_latency, store_energy = tech.mvm_cost(extent)
        latency += store_latency
        energy += store_energy
    return RetrievalCostReport(backend, n_ovts, latency, energy)


def cpu_cost(n_ovts: int,
             shapes: Iterable[tuple[int, int]]) -> RetrievalCostReport:
    """One retrieval in software: a ``(d, n)`` matvec per scale store,
    streaming every stored int16 value from DRAM."""
    macs = float(sum(d * n for d, n in shapes))
    bytes_moved = macs * 2.0
    return RetrievalCostReport("CPU", n_ovts,
                               CPU_JETSON_ORIN.latency_ns(macs, bytes_moved),
                               CPU_JETSON_ORIN.energy_pj(macs, bytes_moved))


# The paper-scale library Fig. 5 prices: an OVT is 16 tokens x 48 code
# dims (768 scale-1 rows), stored as int16 on 2-bit cells (8 bit slices)
# and searched at scales 1, 2 and 4.
PAPER_CODE_ROWS = 768
PAPER_SLICES = 8
PAPER_SCALES = (1, 2, 4)


def retrieval_cost(backend: str, n_ovts: int) -> RetrievalCostReport:
    """Cost of one scaled-search query over ``n_ovts`` paper-scale OVTs.

    ``backend`` is "RRAM", "FeFET" or "CPU".  The stores are laid out by
    the crossbar's own rule (:func:`repro.nvm.tile_extents`) and priced
    by :func:`cim_cost` / :func:`cpu_cost`, as a served deployment's are.
    """
    if n_ovts <= 0:
        raise ValueError("n_ovts must be positive")
    shapes = [(PAPER_CODE_ROWS // scale, n_ovts) for scale in PAPER_SCALES]
    if backend in CIM_TECH:
        return cim_cost(backend, n_ovts,
                        [tile_extents(shape, PAPER_SLICES)
                         for shape in shapes])
    if backend == "CPU":
        return cpu_cost(n_ovts, shapes)
    raise ValueError(f"unknown backend {backend!r}; use RRAM, FeFET or CPU")
