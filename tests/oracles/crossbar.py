"""Single-subarray oracle: one standalone ``CrossbarArray`` object.

The per-tile reference :class:`repro.nvm.TileBank` is compared against
(through ``tests/oracles/per_tile_cim.py``): an array as big as the data
that falls on it (``rows x cols``), pulsed as the corner of a
``pulse_shape`` physical subarray (default: the array itself; the paper's
subarrays are 384x128).  Its cells are programmed to discrete conductance
levels with device-dependent Gaussian variation and read back either
cell-wise or through an analog matrix-vector multiply with ADC
quantization at the columns.  A bank tile with the same occupied extent
and the same generator programs to the same conductances bit for bit.
:func:`whole_tiles` gathers a bank's tiles into the zero-padded stack a
bank of whole subarrays would hold, for tests that compare whole banks.
"""

import numpy as np

from repro.nvm import CrossbarStats, NVMDevice
from repro.utils import rng_from_seed


class CrossbarArray:
    """One NVM subarray with noisy programming and analog readout."""

    def __init__(self, device: NVMDevice, *, rows: int = 384, cols: int = 128,
                 sigma: float = 0.1, adc_bits: int = 8,
                 rng: np.random.Generator | None = None,
                 pulse_shape: tuple[int, int] | None = None):
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self.pulse_shape = pulse_shape or (rows, cols)
        if self.pulse_shape[0] < rows or self.pulse_shape[1] < cols:
            raise ValueError("the array must fit inside its pulse_shape")
        if adc_bits < 2 or adc_bits > 16:
            raise ValueError("adc_bits must be in [2, 16]")
        self.device = device
        self.rows = rows
        self.cols = cols
        self.sigma = sigma
        self.adc_bits = adc_bits
        self._rng = rng or rng_from_seed(0)
        self._target_levels = np.zeros((rows, cols), dtype=np.int64)
        self._conductance = np.zeros((rows, cols), dtype=np.float32)
        self._programmed = False
        self.stats = CrossbarStats()

    # ------------------------------------------------------------------
    @property
    def conductance(self) -> np.ndarray:
        """The actual (noisy) normalised conductances, shape (rows, cols)."""
        return self._conductance

    @property
    def target_levels(self) -> np.ndarray:
        return self._target_levels

    def program(self, levels: np.ndarray) -> None:
        """Write a full array of level indices with one programming pulse."""
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != (self.rows, self.cols):
            raise ValueError(
                f"level array {levels.shape} does not fit {self.rows}x{self.cols}"
            )
        self._target_levels = levels.copy()
        self._conductance = self._program_values(levels)
        self._programmed = True
        self.stats.cells_programmed += levels.size
        self.stats.write_pulses += levels.size

    def reprogram_cells(self, mask: np.ndarray) -> None:
        """Re-pulse the masked cells (used by write-verify loops)."""
        self._require_programmed()
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._conductance.shape:
            raise ValueError("mask shape mismatch")
        if not mask.any():
            return
        fresh = self._program_values(self._target_levels)
        self._conductance = np.where(mask, fresh, self._conductance)
        self.stats.write_pulses += int(mask.sum())

    def _program_values(self, levels: np.ndarray) -> np.ndarray:
        ideal = self.device.level_values()[levels]
        stds = self.device.sigma_for_levels(levels, self.sigma)
        # One draw per cell of the physical subarray, the array's corner
        # kept: the whole-tile draw TileBank._pulse makes, and the one
        # expression that changes with it ("draw what you occupy" would
        # be size=levels.shape — every conductance re-rolls).
        draws = self._rng.normal(0.0, 1.0, size=self.pulse_shape)[
            :self.rows, :self.cols]
        return (ideal + draws.astype(np.float32) * stds).astype(np.float32)

    # ------------------------------------------------------------------
    def read_cells(self) -> np.ndarray:
        """Cell-wise readout of conductances in level units (float)."""
        self._require_programmed()
        self.stats.cell_reads += self._conductance.size
        return self._conductance * (self.device.n_levels - 1)

    def read_cells_range(self, col0: int, col1: int) -> np.ndarray:
        """Read only columns ``[col0, col1)``, counting only those cells.

        This is the column-range read restore-style accesses use: reading
        one stored column must not bill the energy model for the whole
        subarray.
        """
        self._require_programmed()
        if not 0 <= col0 < col1 <= self.cols:
            raise ValueError(
                f"column range [{col0}, {col1}) outside [0, {self.cols})")
        block = self._conductance[:, col0:col1]
        self.stats.cell_reads += block.size
        return block * (self.device.n_levels - 1)

    def matvec(self, x: np.ndarray, *, quantize_output: bool = True) -> np.ndarray:
        """Analog MVM: returns ``x @ G`` per column, optionally ADC-quantized.

        ``x`` has length ``rows``; output has length ``cols``.  The ADC
        quantizes each column current to ``adc_bits`` over the array's
        dynamic range, as NeuroSim does for SAR ADC columns.
        """
        self._require_programmed()
        x = np.asarray(x, dtype=np.float32).reshape(-1)
        if x.size != self.rows:
            raise ValueError(f"input of {x.size} does not match {self.rows} rows")
        currents = x @ self._conductance
        self.stats.mvm_ops += 1
        if not quantize_output:
            # No ADC on an un-quantized (ideal analog) readout: counting
            # conversions here would inflate the energy model.
            return currents
        self.stats.adc_conversions += self.cols
        full_scale = float(np.abs(x).sum()) or 1.0  # max possible current
        step = 2.0 * full_scale / (2 ** self.adc_bits - 1)
        return np.round(currents / step) * step

    def _require_programmed(self) -> None:
        if not self._programmed:
            raise RuntimeError("crossbar has not been programmed")


def whole_tiles(bank, blocks="conductance") -> np.ndarray:
    """A ``TileBank``'s tiles as one ``(n_tiles, rows, cols)`` stack, zero
    outside each tile's occupied corner — what a bank of whole subarrays
    would hold.  ``blocks`` is one block per tile, or the name of the
    bank's cell array to cut them from (``"conductance"`` /
    ``"target_levels"``)."""
    if isinstance(blocks, str):
        cells = {"conductance": bank._cells, "target_levels": bank._levels}
        blocks = [bank._tile(cells[blocks], i) for i in range(bank.n_tiles)]
    blocks = [np.asarray(block) for block in blocks]
    stack = np.zeros((bank.n_tiles, bank.rows, bank.cols),
                     dtype=blocks[0].dtype)
    for tile, block in zip(stack, blocks):
        tile[:block.shape[0], :block.shape[1]] = block
    return stack
