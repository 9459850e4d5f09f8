"""Per-tile CiM oracle: one ``CrossbarArray`` object per subarray.

Stores a matrix the way :class:`repro.cim.CiMMatrix` does — same codec,
bit-slicing, tile grid and ``spawn_generators`` hierarchy (matrix -> slice
-> tile) — but as a Python grid of standalone crossbars, each as big as the
unpadded block of the digit plane that falls on it, evaluated one small
matvec at a time.  Same per-tile streams and the same occupied extents
means bit-identical conductances, tile for tile; outputs agree to float
tolerance and counters exactly.

The production side of the tile-by-tile comparison reads a bank by
``(bank, index)``: :func:`tile_conductance`, :func:`read_cell_range` (a column range of
some tiles' cells, billed), :func:`tile_currents` (the analog product
before the ADC), :func:`tile_stats` and
:func:`tiles_with_slice` (a ``CiMMatrix``'s flat tile indices with their
bit slice, in the oracle's ``iter_tiles_with_slice`` order).
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.cim import MitigationHooks
from repro.mitigation import SelectiveWriteVerify
from repro.nvm import (CrossbarStats, Int16Codec, slice_to_digits,
                       slice_weights)
from repro.utils import rng_from_seed, spawn_generators
from tests.oracles.crossbar import CrossbarArray

_OFFSET = 32768  # excess code of the int16 bit-slicing


class PerTileCiMMatrix:
    """Drop-in for ``CiMMatrix`` (compute, read-back, counters)."""

    def __init__(self, values, device, *, sigma=0.1, rows=384, cols=128,
                 adc_bits=8, mitigation=None, rng=None):
        self.device = device
        self.subarray_rows, self.subarray_cols = rows, cols
        self.mitigation = mitigation or MitigationHooks()
        prepared = self.mitigation.prepare_values(
            np.asarray(values, dtype=np.float32))
        self.shape = d, n = prepared.shape
        self.codec = Int16Codec.fit(prepared)
        self._ints = self.codec.encode(prepared)
        digits = slice_to_digits(self._ints, device.bits_per_cell)
        self.n_slices = digits.shape[0]
        self.n_row_tiles, self.n_col_tiles = -(-d // rows), -(-n // cols)
        self.n_subarrays = self.n_slices * self.n_row_tiles * self.n_col_tiles
        self.calibration = {}
        self._tiles = []  # [slice][row_tile][col_tile]
        slice_rngs = spawn_generators(rng or rng_from_seed(0), self.n_slices)
        for plane, slice_rng in zip(digits.astype(np.int64), slice_rngs):
            tile_rngs = iter(spawn_generators(
                slice_rng, self.n_row_tiles * self.n_col_tiles))
            grid = []
            for r in range(self.n_row_tiles):
                grid.append([])
                for c in range(self.n_col_tiles):
                    block = plane[r * rows:(r + 1) * rows,
                                  c * cols:(c + 1) * cols]
                    tile = CrossbarArray(device, rows=block.shape[0],
                                         cols=block.shape[1], sigma=sigma,
                                         adc_bits=adc_bits,
                                         rng=next(tile_rngs),
                                         pulse_shape=(rows, cols))
                    tile.program(block)
                    grid[-1].append(tile)
            self._tiles.append(grid)
        if isinstance(self.mitigation, SelectiveWriteVerify):
            self._write_verify(self.mitigation)
        else:
            self.mitigation.post_program(self)

    def _write_verify(self, swv):
        """SWV's verify/re-pulse loop, one tile object at a time."""
        for slice_index, tile in self.iter_tiles_with_slice():
            if slice_index < self.n_slices - swv.verify_slices:
                continue
            for _ in range(swv.max_iterations):
                read = tile.read_cells() / (tile.device.n_levels - 1)
                target = tile.device.level_values()[tile.target_levels]
                mask = np.abs(read - target) > swv.tolerance_levels
                if not mask.any():
                    break
                tile.reprogram_cells(mask)

    def iter_tiles_with_slice(self):
        for slice_index, grid in enumerate(self._tiles):
            for row in grid:
                for tile in row:
                    yield slice_index, tile

    def iter_tiles(self):
        return [tile for _, tile in self.iter_tiles_with_slice()]

    def aggregate_stats(self):
        total = CrossbarStats()
        for tile in self.iter_tiles():
            total.add(tile.stats)
        return total

    def ideal_matrix(self):
        return self.codec.decode(self._ints)

    def matmat(self, queries, *, quantize_output=True):
        """One query, one tile, one small matvec at a time."""
        outputs = np.stack([self._mvm(np.asarray(x, dtype=np.float32),
                                      quantize_output) for x in queries])
        return self.mitigation.correct_output(self, outputs)

    def _mvm(self, x, quantize_output):
        rows, cols, n = self.subarray_rows, self.subarray_cols, self.shape[1]
        total = np.zeros(n, dtype=np.float64)
        weights = slice_weights(self.device.bits_per_cell, self.n_slices)
        for s, grid in enumerate(self._tiles):
            plane = np.zeros(n, dtype=np.float64)
            for r, row in enumerate(grid):
                chunk = x[r * rows:(r + 1) * rows]
                for c, tile in enumerate(row):
                    out = tile.matvec(chunk, quantize_output=quantize_output)
                    plane[c * cols:c * cols + tile.cols] += (
                        out * (self.device.n_levels - 1))
            total += plane * weights[s]
        total -= _OFFSET * float(x.sum())   # every stored word carries +OFFSET
        return (total * self.codec.scale).astype(np.float32)

    def read_matrix(self):
        return self._read(0, self.shape[1], whole_tiles=True)

    def read_columns(self, col0, col1):
        decoded = self._read(col0, col1, whole_tiles=False)
        return self.mitigation.correct_read_columns(self, decoded, col0, col1)

    def _read(self, col0, col1, whole_tiles):
        """Columns ``[col0, col1)``: a full read bills every cell every
        tile holds, a range read only the cells that hold the columns."""
        rows, cols, d = self.subarray_rows, self.subarray_cols, self.shape[0]
        value = np.zeros((d, col1 - col0), dtype=np.float64)
        weights = slice_weights(self.device.bits_per_cell, self.n_slices)
        for ct in range(col0 // cols, (col1 - 1) // cols + 1):
            lo, hi = max(col0 - ct * cols, 0), min(col1 - ct * cols, cols)
            out0 = ct * cols + lo - col0
            for s, grid in enumerate(self._tiles):
                for r, row in enumerate(grid):
                    digits = (row[ct].read_cells()[:, lo:hi] if whole_tiles
                              else row[ct].read_cells_range(lo, hi))
                    value[r * rows:r * rows + len(digits),
                          out0:out0 + hi - lo] += digits * weights[s]
        return self.codec.decode(value - _OFFSET)


def tile_conductance(bank, index):
    """Tile ``index``'s occupied cells, ``(used_rows, used_cols)``: a view."""
    return bank._tile(bank._cells, index)


def read_cell_range(bank, tiles, col0, col1):
    """Columns ``[col0, col1)`` of each tile of ``tiles``' occupied cells
    in level units, one ``(used_rows, col1 - col0)`` block per tile, each
    billed to its tile's ``cell_reads``; a range that leaves a tile's
    occupied columns is a ``ValueError``."""
    tiles = [int(tile) for tile in tiles]
    blocks = []
    for tile in tiles:
        cells = tile_conductance(bank, tile)
        if not 0 <= col0 < col1 <= cells.shape[1]:
            raise ValueError(
                f"column range [{col0}, {col1}) leaves tile {tile}'s "
                f"occupied columns [0, {cells.shape[1]})")
        blocks.append(cells[:, col0:col1] * (bank.device.n_levels - 1))
    bank.cell_reads[tiles] += [block.size for block in blocks]
    return blocks


def tile_currents(bank, chunks):
    """The analog column currents of every tile before the ADC, ``(n_tiles,
    batch, cols)`` and zero in unoccupied columns: one small product of
    its row tile's chunk and its occupied cells per tile."""
    d, n = bank.shape
    n_row_tiles, n_col_tiles = -(-d // bank.rows), -(-n // bank.cols)
    currents = np.zeros((bank.n_tiles, chunks.shape[1], bank.cols),
                        dtype=np.float32)
    for index in range(bank.n_tiles):
        row_tile = index // n_col_tiles % n_row_tiles
        cells = tile_conductance(bank, index)
        used_rows, used_cols = cells.shape
        currents[index, :, :used_cols] = (
            chunks[row_tile][:, :used_rows] @ cells)
    return currents


def tile_stats(bank, index) -> CrossbarStats:
    """A snapshot of tile ``index``'s counters."""
    return CrossbarStats(
        cells_programmed=int(bank.cells_programmed[index]),
        write_pulses=int(bank.write_pulses[index]),
        mvm_ops=int(bank.mvm_ops[index]),
        adc_conversions=int(bank.adc_conversions[index]),
        cell_reads=int(bank.cell_reads[index]),
    )


def tiles_with_slice(matrix):
    """``(slice_index, flat bank index)`` of every tile of a
    ``CiMMatrix``; slice 0 holds the LSB digits."""
    per_slice = matrix.n_row_tiles * matrix.n_col_tiles
    return [(flat // per_slice, flat) for flat in range(matrix.n_subarrays)]


@contextmanager
def per_tile_stores():
    """Inside this block ``CiMSearchEngine.build`` programs per-tile stores."""
    with mock.patch("repro.retrieval.engine.CiMMatrix", PerTileCiMMatrix):
        yield
