"""Selective write-verify (SWV), after SWIM (Yan et al., DAC 2022).

SWIM's insight: write-verify is expensive, so only verify the weights (here:
cells) whose error actually matters.  In a bit-sliced int16 layout the error
contribution of a cell grows with its positional weight, so SWV verifies the
most-significant slices only, re-pulsing cells whose conductance deviates
from the target by more than a tolerance.

The tiles of the MSB slices are verified one at a time, each at its
occupied extent: erased cells hold nothing to verify, are never read and
never re-pulsed, and no bank-sized level or mask stack is built.  Because
each tile draws noise from its own spawned generator, the oracle's verify
loop over standalone crossbars (``tests/oracles/per_tile_cim.py``)
produces bit-identical conductances and identical operation counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cim.accelerator import MitigationHooks

__all__ = ["SelectiveWriteVerify"]


@dataclass
class SelectiveWriteVerify(MitigationHooks):
    """Write-verify on the top ``verify_slices`` bit planes."""

    verify_slices: int = 2          # MSB slices to verify
    tolerance_levels: float = 0.15  # allowed |deviation|, conductance units
    max_iterations: int = 1         # SWIM's point: a tight pulse budget

    name = "swv"

    def __post_init__(self):
        if self.verify_slices <= 0:
            raise ValueError("verify_slices must be positive")
        if self.tolerance_levels <= 0:
            raise ValueError("tolerance_levels must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")

    # ------------------------------------------------------------------
    def post_program(self, matrix) -> None:
        """Verify the MSB slices of the matrix's tile bank.

        Per tile and round: one read of its occupied cells, one masked
        re-pulse of those whose error exceeds the tolerance.  A tile
        leaves the loop as soon as it passes.
        """
        bank = matrix.bank
        level_values = bank.device.level_values()
        level_gain = bank.device.n_levels - 1
        first_verified = max(matrix.n_slices - self.verify_slices, 0)
        for slice_index in range(first_verified, matrix.n_slices):
            for index in matrix.slice_tile_indices(slice_index):
                tile = bank.tile(index)
                for _ in range(self.max_iterations):
                    read = tile.read_cells() / level_gain
                    target = level_values[tile.target_levels]
                    mask = np.abs(read - target) > self.tolerance_levels
                    if not mask.any():
                        break
                    tile.reprogram_cells(mask)
