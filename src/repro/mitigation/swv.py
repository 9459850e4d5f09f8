"""Selective write-verify (SWV), after SWIM (Yan et al., DAC 2022).

SWIM's insight: write-verify is expensive, so only verify the weights (here:
cells) whose error actually matters.  In a bit-sliced int16 layout the error
contribution of a cell grows with its positional weight, so SWV verifies the
most-significant slices only, re-pulsing cells whose conductance deviates
from the target by more than a tolerance.

All tiles of the MSB slices are verified with stacked reads and one masked
re-pulse per round.  Because each tile draws noise from its own spawned
generator, a tile-by-tile verify loop (``tests/oracles/per_tile_cim.py``)
produces bit-identical conductances and identical operation counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SelectiveWriteVerify"]


@dataclass
class SelectiveWriteVerify:
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

        Per round: one stacked read of the still-active tiles, one masked
        re-pulse of those whose error exceeds the tolerance.  Tiles drop
        out of the round loop as soon as they pass, exactly like a
        tile-by-tile loop would — reads, re-pulse counts and noise draws
        match it one for one.
        """
        bank = matrix.bank
        first_verified = max(matrix.n_slices - self.verify_slices, 0)
        active = np.concatenate([
            matrix.slice_tile_indices(s)
            for s in range(first_verified, matrix.n_slices)
        ])
        level_values = bank.device.level_values()
        level_gain = bank.device.n_levels - 1
        for _ in range(self.max_iterations):
            if active.size == 0:
                break
            read = bank.read_cells(tiles=active) / level_gain
            target = level_values[bank.target_levels[active]]
            masks = np.abs(read - target) > self.tolerance_levels
            failing = masks.any(axis=(1, 2))
            if not failing.any():
                break
            bank.reprogram_cells(masks[failing], tiles=active[failing])
            active = active[failing]

    def prepare_values(self, values: np.ndarray) -> np.ndarray:
        return values

    def correct_output(self, matrix, outputs: np.ndarray) -> np.ndarray:
        return outputs

    def correct_read_columns(self, matrix, values: np.ndarray,
                             col0: int, col1: int) -> np.ndarray:
        return values
