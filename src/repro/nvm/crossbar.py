"""Crossbar array simulation.

A :class:`TileBank` is ``n_tiles`` subarrays of identical geometry
(default 384x128, the paper's) tiling one matrix shape per plane, each
holding data in an occupied corner and erased elsewhere: occupied cells
are programmed to discrete conductance levels with device-dependent
Gaussian variation and read back either cell-wise or through an analog
matrix product with ADC quantization at the occupied columns.  The
conductances live once, in the layout the product reads — the planes
side by side, each row tile a band of rows — so a whole batch of inputs
evaluates with one GEMM per row tile over the stored cells themselves,
plus one vectorized ADC quantization.  Each tile draws its programming
noise from its own independently spawned stream, kept as data — one
packed PCG64 state row per tile in one ``uint64`` array — so a bank
programs to exactly the same conductances as the equivalent standalone
crossbar objects would (``tests/oracles/crossbar.py``), independently of
tile iteration order, and ships its streams in a snapshot as one array.
:class:`TileView` exposes one tile of a bank by index (target levels,
cell reads, re-pulse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .device_models import NVMDevice
from ..utils import (
    checked_states,
    load_state,
    pack_state,
    seeded_states,
    state_generator,
)

__all__ = ["CrossbarStats", "TileBank", "TileView", "tile_extents"]


@dataclass
class CrossbarStats:
    """Operation counters used by the energy/latency model."""

    cells_programmed: int = 0
    write_pulses: int = 0
    mvm_ops: int = 0
    adc_conversions: int = 0
    cell_reads: int = 0

    def add(self, other: "CrossbarStats") -> "CrossbarStats":
        """Accumulate another counter set into this one (returns self)."""
        self.cells_programmed += other.cells_programmed
        self.write_pulses += other.write_pulses
        self.mvm_ops += other.mvm_ops
        self.adc_conversions += other.adc_conversions
        self.cell_reads += other.cell_reads
        return self

    def subtract(self, other: "CrossbarStats") -> "CrossbarStats":
        """Remove another counter set from this one (returns self).

        Used when a spilled session is restored: the engine un-banks the
        counters it banked at eviction so the resident session's own
        (restored) counters are not counted twice.
        """
        self.cells_programmed -= other.cells_programmed
        self.write_pulses -= other.write_pulses
        self.mvm_ops -= other.mvm_ops
        self.adc_conversions -= other.adc_conversions
        self.cell_reads -= other.cell_reads
        return self

    def to_dict(self) -> dict:
        return {
            "cells_programmed": int(self.cells_programmed),
            "write_pulses": int(self.write_pulses),
            "mvm_ops": int(self.mvm_ops),
            "adc_conversions": int(self.adc_conversions),
            "cell_reads": int(self.cell_reads),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrossbarStats":
        return cls(**{key: int(value) for key, value in data.items()})


def tile_extents(shape: tuple[int, int], n_planes: int = 1, *,
                 rows: int = 384, cols: int = 128) -> np.ndarray:
    """The occupied corner ``(used_rows, used_cols)`` of every tile that
    ``n_planes`` ``(d, n)`` matrices cut on a ``rows x cols`` grid
    occupy, tile ``(plane, row_tile, col_tile)`` in C order: whole tiles
    except along the last row tile and the last column tile.

    The one geometry rule: a :class:`TileBank` takes its ``extent`` from
    it, and the cost model (:mod:`repro.cim.energy`) prices a library of
    any size from it without allocating a cell.
    """
    d, n = shape
    grid = (-(-d // rows), -(-n // cols))
    extent = np.empty((n_planes, *grid, 2), dtype=np.intp)
    extent[..., 0] = np.minimum(rows, d - rows * np.arange(grid[0]))[:, None]
    extent[..., 1] = np.minimum(cols, n - cols * np.arange(grid[1]))
    return extent.reshape(-1, 2)


def _runs(size: int, tile: int) -> list[tuple[int, int, int]]:
    """``(first tile, tiles, used)`` for the whole ``tile``-long tiles
    along ``size`` and for the last, partial one (each if there is one)."""
    whole, rest = divmod(size, tile)
    return [run for run in ((0, whole, tile), (whole, 1, rest))
            if run[1] and run[2]]


def _column_runs(block: np.ndarray) -> np.ndarray:
    """``block`` with its last axis — one tile row's occupied columns,
    contiguous in a band of the flat array and of the cells alike — viewed
    as one ``np.void`` element: numpy then copies a band a run at a time,
    not a cell at a time, byte for byte the same."""
    run = np.dtype((np.void, block.shape[-1] * block.itemsize))
    return block.view(run)


class TileBank:
    """``n_tiles`` crossbar subarrays operated as one array.

    The bank holds ``n_planes`` matrices of one ``shape=(d, n)``, each cut
    on a grid of ``rows x cols`` subarrays: tile ``t`` is ``(plane,
    row_tile, col_tile)`` in C order, so ``n_tiles`` is a whole number of
    ``ceil(d / rows) * ceil(n / cols)``-tile planes.  ``shape=None`` is
    ``(n_tiles * rows, cols)``: one plane of whole tiles, each its own
    row tile and so fed by its own input chunk.

    A bank is as big as its data: a tile's occupied corner, ``extent[t] =
    (used_rows, used_cols)``, is the part of its plane that falls on it —
    whole tiles except along the last row tile and the last column tile.
    Cells outside it are *erased*: they are never pulsed, multiplied,
    billed, held or snapshotted, and addressing one is a ``ValueError``.

    Every occupied cell is held once, in the layout the matrix product
    reads.  A tile's input chunk is its row tile; the planes live side
    by side in one ``(d, n_planes * n)`` float32 array, tile ``(plane,
    row_tile, col_tile)`` at rows ``row_tile * rows`` and columns
    ``plane * n + col_tile * cols`` — so each row tile's band of rows
    *is* its GEMM operand, as on the array being simulated; target
    levels live in the same layout at cell width.  Per-tile data crosses
    the API as one ``(used_rows, used_cols)`` block per tile
    (``program`` levels, ``reprogram_cells`` masks, ``read_cells``
    results; for whole tiles a stacked array is such a sequence);
    :meth:`tile` reads one tile's state as views.

    Counters are per-tile ``(n_tiles,)`` vectors.  Every tile owns an
    independent PCG64 stream — the ``rngs`` it was built with (spawned,
    see :func:`repro.utils.spawn_generators`; default ``rng_from_seed(t)``
    for tile ``t``) — held as data: row ``t`` of one ``(n_tiles,
    STATE_WORDS)`` ``uint64`` array (:func:`repro.utils.pack_state`).  A
    pulse loads a tile's row into a generator, draws, and packs the
    advanced state back, so its noise matches a standalone crossbar given
    the same generator (``tests/oracles/crossbar.py``) bit for bit and
    does not depend on what other tiles drew first; the passed generators
    themselves are never advanced.

    Cell width is ``np.min_scalar_type(device.n_levels - 1)`` (``uint8``
    up to 256 levels), in memory and therefore in a snapshot.  numpy
    re-widens a narrow index array on *every* fancy index, so code that
    looks levels up in more than one table widens them once
    (``levels.astype(np.intp)``) and indexes with that.
    """

    # `device` is configuration; `shape`, `_span`, `_row_bands` and
    # `_plane_cols` are geometry, derived at construction, not state.
    # `extent` is derived too but shipped — a snapshot's flat arrays mean
    # nothing without it — and `restore` refuses another bank's.
    _SNAPSHOT_EXCLUDED = ("device", "shape", "_span", "_row_bands",
                          "_plane_cols")

    def __init__(self, device: NVMDevice, n_tiles: int, *, rows: int = 384,
                 cols: int = 128, sigma: float = 0.1, adc_bits: int = 8,
                 rngs: Sequence[np.random.Generator] | None = None,
                 shape: tuple[int, int] | None = None):
        if n_tiles <= 0:
            raise ValueError("n_tiles must be positive")
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        if adc_bits < 2 or adc_bits > 16:
            raise ValueError("adc_bits must be in [2, 16]")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if rngs is not None and len(rngs) != n_tiles:
            raise ValueError(f"need {n_tiles} per-tile generators, "
                             f"got {len(rngs)}")
        shape = np.asarray((n_tiles * rows, cols) if shape is None else shape)
        if shape.shape != (2,) or shape.dtype.kind not in "iu" or \
                (shape < 1).any():
            raise ValueError(f"shape must be (d, n), two positive integers, "
                             f"got {shape.tolist()}")
        d, n = shape.tolist()
        grid = (-(-d // rows), -(-n // cols))
        n_planes, rest = divmod(n_tiles, grid[0] * grid[1])
        if rest:
            raise ValueError(
                f"a {d}x{n} shape takes {grid[0]}x{grid[1]} tiles a plane; "
                f"{n_tiles} tiles are not a whole number of planes")
        plane, row_tile, col_tile = np.unravel_index(np.arange(n_tiles),
                                                     (n_planes, *grid))
        self.device = device
        self.n_tiles = n_tiles
        self.rows = rows
        self.cols = cols
        self.sigma = sigma
        self.adc_bits = adc_bits
        self.shape = (d, n)
        self.extent = tile_extents(self.shape, n_planes, rows=rows, cols=cols)
        self._rng_states = (seeded_states(n_tiles) if rngs is None
                            else np.stack([pack_state(rng) for rng in rngs]))
        # Tile t is columns [col0, col1) of its row tile's rows.
        col0 = plane * n + col_tile * cols
        self._span = list(zip(row_tile.tolist(), col0.tolist(),
                              (col0 + self.extent[:, 1]).tolist()))
        # What every product and read re-uses: each row tile's band of
        # cell rows (its GEMM operand) and each tile's columns within its
        # plane.
        self._row_bands = [slice(r * rows, (r + 1) * rows)
                           for r in range(grid[0])]
        self._plane_cols = (col_tile * cols,
                            col_tile * cols + self.extent[:, 1])
        self._cells = np.zeros((d, n_planes * n), dtype=np.float32)
        self._levels = np.zeros(
            self._cells.shape, dtype=np.min_scalar_type(device.n_levels - 1))
        self._programmed = False
        # Per-tile counters; aggregate_stats() sums them vectorially.
        self.cells_programmed = np.zeros(n_tiles, dtype=np.int64)
        self.write_pulses = np.zeros(n_tiles, dtype=np.int64)
        self.mvm_ops = np.zeros(n_tiles, dtype=np.int64)
        self.adc_conversions = np.zeros(n_tiles, dtype=np.int64)
        self.cell_reads = np.zeros(n_tiles, dtype=np.int64)

    # ------------------------------------------------------------------
    def _tile(self, cells: np.ndarray, index: int) -> np.ndarray:
        """One tile's ``(used_rows, used_cols)`` block of a cell array
        (``_cells`` / ``_levels``): a view."""
        row_tile, col0, col1 = self._span[index]
        row0 = row_tile * self.rows
        return cells[row0:row0 + self.rows, col0:col1]

    def tile(self, index: int) -> "TileView":
        """One tile of the bank: target levels, reads and re-pulse."""
        return TileView(self, index)

    def _blocks(self, blocks, tiles: Sequence[int], dtype,
                what: str) -> list[np.ndarray]:
        """``blocks`` as one ``dtype`` array per tile of ``tiles``, each
        checked against its tile's occupied extent."""
        if len(blocks) != len(tiles):
            raise ValueError(f"need one {what} block per tile: "
                             f"{len(tiles)} tiles, got {len(blocks)}")
        blocks = [np.asarray(block, dtype=dtype) for block in blocks]
        extents = self.extent.tolist()
        for tile, block in zip(tiles, blocks):
            extent = tuple(extents[tile])
            if block.shape != extent:
                raise ValueError(
                    f"{what} block {block.shape} is not tile {tile}'s "
                    f"occupied extent {extent}; cells outside it are "
                    f"erased and cannot be addressed")
        return blocks

    def _pulse(self, tiles: Sequence[int], levels: list[np.ndarray],
               masks: list[np.ndarray] | None = None) -> None:
        """Write fresh noisy conductances for ``tiles`` at ``levels``.

        ``levels`` holds each tile's level block at any integer width.
        Every block is range-checked before any state is advanced; then
        one tile at a time is widened once (``astype(np.intp)``, which
        indexes both tables), given its per-cell sigma and pulsed, so the
        transients are one tile's, not the bank's.  Each tile's
        standard-normal variates come from its own stream — its state row
        loaded into one scratch generator, packed back after the draw —
        and ``ideal + noise`` lands straight in the tile's cells (only
        where its mask is set, when ``masks`` is given), so results are
        identical to programming standalone crossbars.
        """
        for block in levels:
            self.device.check_levels(block)
        ideal = self.device.level_values()
        rng = state_generator()
        for i, tile in enumerate(tiles):
            block = levels[i].astype(np.intp, copy=False)
            used_rows, used_cols = block.shape
            # Whole-tile draw, occupied corner kept — on purpose: a tile
            # is bit for bit the corner of the whole-tile bank every
            # earlier build programmed.  Drawing `size=levels[i].shape`
            # instead ("draw what you occupy") re-rolls every conductance,
            # `answers_sha256` and the scorecard; it waits for ROADMAP
            # item 1's paired per-deployment verdicts, so that a re-roll
            # reads "unresolved at this scale" instead of flipping a pass.
            # (The corner is copied out so the whole-tile draw is freed
            # before the next tile makes its own.)
            state = self._rng_states[tile]
            draws = load_state(rng, state).normal(
                0.0, 1.0, size=(self.rows, self.cols)
            )[:used_rows, :used_cols].astype(np.float32)
            pack_state(rng, out=state)
            np.add(ideal[block],
                   draws * self.device.sigma_for_levels(block, self.sigma),
                   out=self._tile(self._cells, tile),
                   where=True if masks is None else masks[i])

    def program(self, levels: Sequence[np.ndarray]) -> None:
        """Write level indices for every tile, one ``(used_rows,
        used_cols)`` block each (whole tiles: an ``(n_tiles, rows, cols)``
        stack) of any integer width; occupied cells are what is pulsed
        and billed.

        A refused call (wrong shape, level out of range) leaves the bank
        as it was: nothing is stored or drawn before the checks pass.
        """
        tiles = range(self.n_tiles)
        levels = self._blocks(levels, tiles, None, "level")
        self._pulse(tiles, levels)
        for tile, block in zip(tiles, levels):
            self._tile(self._levels, tile)[...] = block
        self._programmed = True
        occupied = self.extent.prod(axis=1)
        self.cells_programmed += occupied
        self.write_pulses += occupied

    def reprogram_cells(self, masks: Sequence[np.ndarray],
                        tiles: Sequence[int] | None = None) -> None:
        """Re-pulse masked cells; ``masks`` holds one ``(used_rows,
        used_cols)`` block per tile of ``tiles``.

        Tiles whose mask is empty draw nothing (matching the per-tile
        oracle, ``tests/oracles/per_tile_cim.py``), so write-verify loops
        reproduce it bit for bit.
        """
        self._require_programmed()
        tiles = (range(self.n_tiles) if tiles is None
                 else [int(tile) for tile in tiles])
        masks = self._blocks(masks, tiles, bool, "mask")
        selected = [(tile, mask) for tile, mask in zip(tiles, masks)
                    if mask.any()]
        if not selected:
            return
        tiles, masks = zip(*selected)
        self._pulse(tiles, [self._tile(self._levels, tile) for tile in tiles],
                    masks)
        self.write_pulses[list(tiles)] += [int(mask.sum()) for mask in masks]

    # ------------------------------------------------------------------
    def read_cells(self, tile: int) -> np.ndarray:
        """Cell-wise readout of tile ``tile``'s occupied ``(used_rows,
        used_cols)`` block in level units, billed to its ``cell_reads``:
        the read of selective write-verify."""
        self._require_programmed()
        if not 0 <= tile < self.n_tiles:
            raise IndexError(f"tile {tile} out of range [0, {self.n_tiles})")
        block = self._tile(self._cells, tile) * (self.device.n_levels - 1)
        self.cell_reads[tile] += block.size
        return block

    def read_plane_columns(self, col0: int, col1: int) -> np.ndarray:
        """Cell-wise readout of columns ``[col0, col1)`` of every plane,
        in level units: ``(d, n_planes, col1 - col0)``, one strided view
        of the cells scaled once.

        ``cell_reads`` bills each tile the occupied cells it holds of
        those columns.
        """
        self._require_programmed()
        d, n = self.shape
        if not 0 <= col0 < col1 <= n:
            raise ValueError(f"column range [{col0}, {col1}) outside "
                             f"[0, {n})")
        first, end = self._plane_cols
        width = np.minimum(end, col1) - np.maximum(first, col0)
        self.cell_reads += self.extent[:, 0] * np.maximum(width, 0)
        gain = self.device.n_levels - 1
        return self._cells.reshape(d, -1, n)[:, :, col0:col1] * gain

    def matmat(self, chunks: np.ndarray) -> np.ndarray:
        """Batched analog MVM for every tile at once.

        ``chunks`` has shape ``(n_row_tiles, batch, rows)`` — each row
        tile's input chunk for each query in the batch (one per tile for
        the default ``shape``).  Returns per-tile column currents
        ``(n_tiles, batch, cols)`` (exactly 0 in unoccupied columns)
        computed with one GEMM per row tile, pushed through one
        vectorized ADC quantization (per-tile, per-query full scale, as
        the SAR ADC columns would).  Counters scale with the batch
        width: each tile bills ``batch`` MVMs and ``batch * used_cols``
        conversions.
        """
        grouped = self.matmat_grouped(chunks)
        out = np.zeros((self.n_tiles, grouped[0].shape[0], self.cols),
                       dtype=grouped[0].dtype)
        for tile, (row_tile, col0, col1) in enumerate(self._span):
            out[tile, :, :col1 - col0] = grouped[row_tile][:, col0:col1]
        return out

    def matmat_grouped(self, chunks: np.ndarray) -> np.ndarray:
        """The GEMM core of :meth:`matmat`, without the per-tile gather.

        Returns every row tile's ``(batch, n_planes * n)`` converted
        currents, one ``(n_row_tiles, batch, n_planes * n)`` array, each
        laid out like its cells (tile ``(plane, row_tile, col_tile)`` at
        columns ``plane * n + col_tile * cols``); only occupied columns
        exist, so only they are converted.  Callers that
        immediately re-aggregate tiles (the bit-sliced shift-add) use
        this to skip materialising the ``(n_tiles, batch, cols)`` layout.
        """
        self._require_programmed()
        chunks = np.asarray(chunks, dtype=np.float32)
        if (chunks.ndim != 3 or chunks.shape[0] != len(self._row_bands)
                or chunks.shape[2] != self.rows):
            raise ValueError(
                f"expected (n_chunks={len(self._row_bands)}, batch, "
                f"rows={self.rows}) inputs, got {chunks.shape}")
        # One ADC step per (row tile, query): the full scale depends only
        # on the shared input chunk, all `rows` of it: (n_row_tiles, B, 1).
        # A step is 2 * full scale / (2 ** adc_bits - 1); doubling is
        # exact, so one division by half the levels rounds the same.
        steps = np.add.reduce(np.abs(chunks), axis=2)[:, :, None]
        steps[steps == 0.0] = 1.0
        steps /= (2 ** self.adc_bits - 1) / 2
        batch = chunks.shape[1]
        currents = np.empty((len(chunks), batch, self._cells.shape[1]),
                            dtype=np.float32)
        for chunk, band, out in zip(chunks, self._row_bands, currents):
            # The stored cells are the operand: (used_rows, n_planes * n).
            cells = self._cells[band]
            np.matmul(chunk[:, :len(cells)], cells, out=out)
        currents /= steps
        np.rint(currents, out=currents)
        currents *= steps
        self.mvm_ops += batch
        self.adc_conversions += batch * self.extent[:, 1]
        return currents

    def aggregate_stats(self) -> CrossbarStats:
        """Counters summed vectorially over the whole bank."""
        return CrossbarStats(
            cells_programmed=int(self.cells_programmed.sum()),
            write_pulses=int(self.write_pulses.sum()),
            mvm_ops=int(self.mvm_ops.sum()),
            adc_conversions=int(self.adc_conversions.sum()),
            cell_reads=int(self.cell_reads.sum()),
        )

    def _require_programmed(self) -> None:
        if not self._programmed:
            raise RuntimeError("tile bank has not been programmed")

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def _bands(self, flat: np.ndarray, cells: np.ndarray):
        """``(flat block, cell block)`` view pairs covering every occupied
        cell, one per band of like tiles — the whole row tiles or the
        last, partial one, by the whole column tiles or the last, partial
        one — each ``(n_planes, row tiles, column tiles, used_rows,
        used_cols)``: every plane and every tile of the band at once.

        In tile order plane ``p`` starts at ``p * d * n``, row tile ``r``
        at ``r * rows * n`` of its plane and column tile ``c`` at ``c *
        cols * used_rows`` of its row tile, so a band is one strided view
        of the flat array, as it is of the cells (rows ``r * rows``,
        columns ``p * n + c * cols``)."""
        d, n = self.shape
        planes = flat.reshape(-1, d * n)
        by_plane = cells.reshape(d, -1, n)
        for r0, n_rows, used_rows in _runs(d, self.rows):
            row0, row1 = r0 * self.rows, r0 * self.rows + n_rows * used_rows
            flat_rows = planes[:, row0 * n:row1 * n].reshape(
                -1, n_rows, used_rows * n)
            cell_rows = by_plane[row0:row1].reshape(n_rows, used_rows, -1, n)
            for c0, n_cols, used_cols in _runs(n, self.cols):
                col0, col1 = c0 * self.cols, c0 * self.cols + n_cols * used_cols
                yield (flat_rows[:, :, col0 * used_rows:col1 * used_rows]
                       .reshape(-1, n_rows, n_cols, used_rows, used_cols),
                       cell_rows[..., col0:col1]
                       .reshape(n_rows, used_rows, -1, n_cols, used_cols)
                       .transpose(2, 0, 3, 1, 4))

    def _flat(self, cells: np.ndarray) -> np.ndarray:
        """The occupied cells of a cell array, flat in tile order (each
        tile row-major): one copy a band, at most four, a run of occupied
        columns at a time."""
        flat = np.empty(cells.size, dtype=cells.dtype)
        for block, band in self._bands(flat, cells):
            _column_runs(block)[...] = _column_runs(band)
        return flat

    def _regrouped(self, array: np.ndarray, key: str, dtype) -> np.ndarray:
        """A snapshot's cell array — flat in tile order, of the bank's own
        ``dtype`` for it — as a new cell array the bank owns: one copy a
        band, at most four, a run of occupied columns at a time."""
        if array.dtype != dtype or array.shape != (self._cells.size,):
            raise ValueError(
                f"snapshot {key} is {array.dtype} {array.shape}, not "
                f"{np.dtype(dtype)} ({self._cells.size},)")
        cells = np.empty(self._cells.shape, dtype=dtype)
        for block, band in self._bands(array, cells):
            _column_runs(band)[...] = _column_runs(block)
        return cells

    def snapshot(self) -> dict:
        """Capture of the bank's durable state.

        The occupied conductances and target levels flat in tile order
        with the ``extent`` that gives them their shape, per-tile
        counters and the tiles' packed generator states (``rng_states``,
        one array): enough to
        :meth:`restore` the bank bit-identically with no reprogramming
        (and no write-pulse billing); tile order, so the row-tile layout
        does not leak into it.
        """
        return {
            "kind": "tile_bank",
            "n_tiles": self.n_tiles,
            "rows": self.rows,
            "cols": self.cols,
            "extent": self.extent.copy(),
            "sigma": self.sigma,
            "adc_bits": self.adc_bits,
            "counters": {
                "cells_programmed": self.cells_programmed.copy(),
                "write_pulses": self.write_pulses.copy(),
                "mvm_ops": self.mvm_ops.copy(),
                "adc_conversions": self.adc_conversions.copy(),
                "cell_reads": self.cell_reads.copy(),
            },
            "programmed": self._programmed,
            "target_levels": self._flat(self._levels),
            "conductance": self._flat(self._cells),
            "rng_states": self._rng_states.copy(),
        }

    def restore(self, snap: dict) -> None:
        """Apply a :meth:`snapshot`; geometry must match exactly.

        Every key :meth:`snapshot` writes is required, and everything is
        checked against the geometry it claims — an extent that is not
        this bank's, a cell array of the wrong shape or not of the
        bank's own dtype, a level outside the device's range, a counter
        vector that is not ``(n_tiles,)``, generator states that are not
        ``n_tiles`` PCG64 states (:func:`repro.utils.checked_states`) is
        a ``ValueError`` — and nothing is adopted before everything
        passed; no generator is built.
        """
        geometry = (snap["n_tiles"], snap["rows"], snap["cols"])
        shape = (self.n_tiles, self.rows, self.cols)
        if geometry != shape:
            raise ValueError(
                f"snapshot geometry {geometry} does not match this "
                f"{shape} bank")
        if not np.array_equal(snap["extent"], self.extent):
            raise ValueError(
                f"snapshot extent {np.asarray(snap['extent']).tolist()} is "
                f"not this bank's {self.extent.tolist()}")
        # Every array is looked at before any is adopted, and each is
        # copied exactly once, into memory the bank owns: a decoded
        # snapshot's arrays are read-only views over its blob.
        counters = {}
        for name in ("cells_programmed", "write_pulses", "mvm_ops",
                     "adc_conversions", "cell_reads"):
            vector = np.array(snap["counters"][name], dtype=np.int64)
            if vector.shape != (self.n_tiles,):
                raise ValueError(
                    f"snapshot counter {name!r} has shape {vector.shape}, "
                    f"not ({self.n_tiles},)")
            counters[name] = vector
        flat = np.asarray(snap["target_levels"])
        levels = self._regrouped(flat, "target_levels", self._levels.dtype)
        # The cell dtype holds levels the device does not have.
        if flat.max(initial=0) >= self.device.n_levels:
            raise ValueError(
                f"snapshot target_levels are not in the device's "
                f"[0, {self.device.n_levels}) level range")
        cells = self._regrouped(np.asarray(snap["conductance"]),
                                "conductance", np.float32)
        states = checked_states(snap["rng_states"], self.n_tiles)
        programmed = bool(snap["programmed"])
        self._rng_states = states
        for name, vector in counters.items():
            setattr(self, name, vector)
        self._levels = levels
        self._cells = cells
        self._programmed = programmed

    @property
    def nbytes(self) -> int:
        """Resident bytes of the bank's cell state: each occupied cell's
        conductance (float32) and target level, held once."""
        return self._cells.nbytes + self._levels.nbytes


class TileView:
    """One tile of a :class:`TileBank` by index: what selective
    write-verify reads and re-pulses.

    ``target_levels`` (the occupied corner, as a view), cell reads and
    re-pulsing — the verify loop of a standalone crossbar as big as the
    tile's data.  Mutations go through the bank so its state and counters
    stay authoritative.
    """

    def __init__(self, bank: TileBank, index: int):
        if not 0 <= index < bank.n_tiles:
            raise IndexError(f"tile {index} out of range [0, {bank.n_tiles})")
        self.bank = bank
        self.index = index

    @property
    def target_levels(self) -> np.ndarray:
        return self.bank._tile(self.bank._levels, self.index)

    def read_cells(self) -> np.ndarray:
        return self.bank.read_cells(self.index)

    def reprogram_cells(self, mask: np.ndarray) -> None:
        self.bank.reprogram_cells([mask], tiles=[self.index])
