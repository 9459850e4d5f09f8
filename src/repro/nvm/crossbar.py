"""Crossbar array simulation.

A :class:`TileBank` is ``n_tiles`` subarrays of identical geometry
(default 384x128, the paper's): cells are programmed to discrete
conductance levels with device-dependent Gaussian variation and read back
either cell-wise or through an analog matrix product with ADC
quantization at the columns.  The conductances live once, in the layout
the product reads — tiles that share an input chunk side by side — so a
whole batch of inputs evaluates with one GEMM per chunk group over the
stored cells themselves, plus one vectorized ADC quantization.  Each tile
draws its programming noise from an independently spawned generator, so a
bank programs to exactly the same conductances as the equivalent
standalone crossbar objects would (``tests/oracles/crossbar.py``), and
independently of tile iteration order.  :class:`TileView` exposes one
tile of a bank by index (state, counters, re-pulse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .device_models import NVMDevice
from ..utils import rng_from_seed

__all__ = ["CrossbarStats", "TileBank", "TileView", "SNAPSHOT_VERSION"]

# Version of the dict TileBank.snapshot() produces; restore() refuses
# anything else.
SNAPSHOT_VERSION = 1


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


def _rng_state(rng: np.random.Generator) -> dict:
    """A generator's bit-generator state as a plain (codec-safe) dict."""
    state = rng.bit_generator.state
    return {"name": state["bit_generator"], "state": state}


def _restore_rng_state(rng: np.random.Generator, snap: dict) -> None:
    state = snap["state"]
    if state["bit_generator"] != type(rng.bit_generator).__name__:
        raise ValueError(
            f"snapshot holds a {state['bit_generator']} generator state "
            f"but the target uses {type(rng.bit_generator).__name__}")
    rng.bit_generator.state = state


class TileBank:
    """``n_tiles`` crossbar subarrays operated as one array.

    Every conductance is held once, in the layout the matrix product
    reads.  ``chunk_index`` says which input chunk feeds each tile; tiles
    fed by the same chunk form a *group*, and the cells live group-major
    in one ``(n_groups, rows, group_size, cols)`` float32 array.  Group
    ``g``'s GEMM operand — its tiles side by side, ``(rows, group_size *
    cols)`` — is ``cells[g].reshape(rows, -1)``: a view, so the stored
    conductances *are* the operand, as on the array being simulated.
    Tile order (``conductance``, ``read_cells``, a snapshot) is a gather
    out of that array; programming, re-pulses and ``restore`` write into
    it.  Groups are equal-sized (a bit-sliced matrix has ``n_slices *
    n_col_tiles`` tiles per row tile; the default, one chunk per tile, is
    groups of one) and anything else is refused at construction.

    Counters are per-tile ``(n_tiles,)`` vectors.  Every tile owns an
    independently spawned ``rng`` (see
    :func:`repro.utils.spawn_generators`): its noise draws match a
    standalone crossbar given the same generator
    (``tests/oracles/crossbar.py``) bit for bit and do not depend on what
    other tiles drew first.

    Target levels are stored in tile order at cell width —
    ``np.min_scalar_type(device.n_levels - 1)``, ``uint8`` for every
    device up to 256 levels — in memory and therefore in a snapshot.
    numpy re-widens a narrow index array on *every* fancy index, so code
    that looks levels up in a table widens them once
    (``levels.astype(np.intp)``) and indexes with that.
    """

    # `device` is configuration and `_group_of` / `_slot_of` are the
    # grouping geometry derived from `chunk_index`: all re-supplied at
    # construction, none of it state.
    _SNAPSHOT_EXCLUDED = ("device", "_group_of", "_slot_of")

    def __init__(self, device: NVMDevice, n_tiles: int, *, rows: int = 384,
                 cols: int = 128, sigma: float = 0.1, adc_bits: int = 8,
                 rngs: Sequence[np.random.Generator] | None = None,
                 chunk_index: np.ndarray | None = None):
        if n_tiles <= 0:
            raise ValueError("n_tiles must be positive")
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        if adc_bits < 2 or adc_bits > 16:
            raise ValueError("adc_bits must be in [2, 16]")
        if rngs is None:
            rngs = [rng_from_seed(i) for i in range(n_tiles)]
        if len(rngs) != n_tiles:
            raise ValueError(f"need {n_tiles} per-tile generators, "
                             f"got {len(rngs)}")
        if chunk_index is None:
            chunk_index = np.arange(n_tiles)
        chunk_index = np.asarray(chunk_index)
        if (chunk_index.shape != (n_tiles,)
                or chunk_index.dtype.kind not in "iu"
                or chunk_index.min() < 0):
            raise ValueError("chunk_index must map every tile to a "
                             "non-negative input chunk")
        chunk_index = chunk_index.astype(np.intp)
        sizes = np.bincount(chunk_index)
        if (sizes != sizes[0]).any():
            raise ValueError(
                f"chunk_index must split the tiles into equal-sized "
                f"groups, got sizes {sizes.tolist()}")
        self.device = device
        self.n_tiles = n_tiles
        self.rows = rows
        self.cols = cols
        self.sigma = sigma
        self.adc_bits = adc_bits
        self._rngs = list(rngs)
        # Tile t is slot `_slot_of[t]` of group `_group_of[t]`; a
        # group's tiles take its slots in ascending tile order.
        self._group_of = chunk_index
        self._slot_of = np.empty(n_tiles, dtype=np.intp)
        self._slot_of[np.argsort(chunk_index, kind="stable")] = (
            np.arange(n_tiles) % sizes[0])
        self._target_levels = np.zeros(
            (n_tiles, rows, cols), dtype=np.min_scalar_type(device.n_levels - 1))
        self._cells = np.zeros((sizes.size, rows, int(sizes[0]), cols),
                               dtype=np.float32)
        self._programmed = False
        # Per-tile counters; aggregate_stats() sums them vectorially.
        self.cells_programmed = np.zeros(n_tiles, dtype=np.int64)
        self.write_pulses = np.zeros(n_tiles, dtype=np.int64)
        self.mvm_ops = np.zeros(n_tiles, dtype=np.int64)
        self.adc_conversions = np.zeros(n_tiles, dtype=np.int64)
        self.cell_reads = np.zeros(n_tiles, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def conductance(self) -> np.ndarray:
        """The noisy conductances in tile order, ``(n_tiles, rows, cols)``.

        A gathered copy: writing to it does not reach the bank (mutate
        through :meth:`program` / :meth:`reprogram_cells`).
        """
        return self._cells[self._group_of, :, self._slot_of]

    @property
    def target_levels(self) -> np.ndarray:
        return self._target_levels

    def tile(self, index: int) -> "TileView":
        """One tile of the bank: state, counters and re-pulse by index."""
        return TileView(self, index)

    def _tile_cells(self, index: int) -> np.ndarray:
        """The ``(rows, cols)`` cells of one tile, a view into the bank."""
        return self._cells[self._group_of[index], :, self._slot_of[index]]

    def _pulse(self, tiles: np.ndarray, levels: np.ndarray,
               masks: np.ndarray | None = None) -> None:
        """Write fresh noisy conductances for ``tiles`` at ``levels``.

        ``levels`` is the ``intp`` level stack of those tiles: widened
        once by the caller, it indexes both tables.  The range check
        (``sigma_for_levels``) runs before any generator is advanced.
        Each tile's standard-normal variates come from its own generator
        and ``ideal + noise`` lands straight in the tile's cells (only
        where its mask is set, when ``masks`` is given), so results are
        identical to programming standalone crossbars and no bank-sized
        conductance array is built on the way.
        """
        stds = self.device.sigma_for_levels(levels, self.sigma)
        ideal = self.device.level_values()[levels]
        for i, tile in enumerate(tiles):
            draws = self._rngs[int(tile)].normal(
                0.0, 1.0, size=(self.rows, self.cols))
            np.add(ideal[i], draws.astype(np.float32) * stds[i],
                   out=self._tile_cells(tile),
                   where=True if masks is None else masks[i])

    def program(self, levels: np.ndarray) -> None:
        """Write level indices for every tile of the bank.

        A refused call (wrong shape, level out of range) leaves the bank
        as it was: nothing is stored or drawn before the checks pass.
        """
        levels = np.asarray(levels, dtype=np.intp)
        if levels.shape != (self.n_tiles, self.rows, self.cols):
            raise ValueError(
                f"level stack {levels.shape} does not fit "
                f"{self.n_tiles}x{self.rows}x{self.cols}")
        self._pulse(np.arange(self.n_tiles), levels)
        self._target_levels = levels.astype(self._target_levels.dtype)
        self._programmed = True
        per_tile = self.rows * self.cols
        self.cells_programmed += per_tile
        self.write_pulses += per_tile

    def reprogram_cells(self, masks: np.ndarray,
                        tiles: np.ndarray | None = None) -> None:
        """Re-pulse masked cells; ``masks`` aligns with ``tiles``.

        Tiles whose mask is empty draw nothing (matching the per-tile
        oracle, ``tests/oracles/per_tile_cim.py``), so write-verify loops
        reproduce it bit for bit.
        """
        self._require_programmed()
        tiles = (np.arange(self.n_tiles) if tiles is None
                 else np.asarray(tiles, dtype=np.int64))
        masks = np.asarray(masks, dtype=bool)
        if masks.shape != (len(tiles), self.rows, self.cols):
            raise ValueError("mask stack shape mismatch")
        need = masks.any(axis=(1, 2))
        selected = tiles[need]
        if selected.size == 0:
            return
        self._pulse(selected, self._target_levels[selected].astype(np.intp),
                    masks[need])
        self.write_pulses[selected] += masks[need].sum(axis=(1, 2))

    # ------------------------------------------------------------------
    def read_cells(self, tiles: np.ndarray | None = None,
                   col0: int | None = None,
                   col1: int | None = None) -> np.ndarray:
        """Cell-wise readout in level units, optionally column-ranged.

        ``cell_reads`` bills only the cells actually read: ``rows x
        (col1 - col0)`` per selected tile.
        """
        self._require_programmed()
        tiles = (np.arange(self.n_tiles) if tiles is None
                 else np.asarray(tiles, dtype=np.int64))
        col0 = 0 if col0 is None else col0
        col1 = self.cols if col1 is None else col1
        if not 0 <= col0 < col1 <= self.cols:
            raise ValueError(
                f"column range [{col0}, {col1}) outside [0, {self.cols})")
        block = self._cells[self._group_of[tiles], :, self._slot_of[tiles],
                            col0:col1]
        self.cell_reads[tiles] += self.rows * (col1 - col0)
        return block * (self.device.n_levels - 1)

    def matmat(self, chunks: np.ndarray, *,
               quantize_output: bool = True) -> np.ndarray:
        """Batched analog MVM for every tile at once.

        ``chunks`` has shape ``(n_groups, batch, rows)`` — the distinct
        input chunks for each query in the batch, one per tile unless the
        bank was built with a ``chunk_index``.  Returns per-tile column
        currents ``(n_tiles, batch, cols)`` computed with one GEMM per
        chunk group, optionally pushed through one vectorized ADC
        quantization (per-tile, per-query full scale, as the SAR ADC
        columns would).  Counters scale with the batch width: each tile
        bills ``batch`` MVMs and ``batch * cols`` conversions.
        """
        grouped = np.stack(self.matmat_grouped(
            chunks, quantize_output=quantize_output))
        n_groups, batch = grouped.shape[:2]
        return grouped.reshape(n_groups, batch, -1, self.cols)[
            self._group_of, :, self._slot_of]

    def matmat_grouped(self, chunks: np.ndarray, *,
                       quantize_output: bool = True) -> list[np.ndarray]:
        """The GEMM core of :meth:`matmat`, without the per-tile gather.

        Returns one ``(batch, group_size * cols)`` current matrix per
        chunk group; columns are blocked per tile in ascending flat-index
        order.  Callers that immediately re-aggregate tiles (the
        bit-sliced shift-add) use this to skip materialising the
        ``(n_tiles, batch, cols)`` layout.
        """
        self._require_programmed()
        chunks = np.asarray(chunks, dtype=np.float32)
        if (chunks.ndim != 3 or chunks.shape[0] != len(self._cells)
                or chunks.shape[2] != self.rows):
            raise ValueError(
                f"expected (n_chunks={len(self._cells)}, batch, "
                f"rows={self.rows}) inputs, got {chunks.shape}")
        if quantize_output:
            # One ADC step per (tile group, query): the full scale
            # depends only on the shared input chunk.
            full_scale = np.abs(chunks).sum(axis=2)  # (n_groups, batch)
            full_scale = np.where(full_scale == 0.0, 1.0, full_scale)
            steps = 2.0 * full_scale / (2 ** self.adc_bits - 1)
        out = []
        for g, (chunk, cells) in enumerate(zip(chunks, self._cells)):
            # The stored cells are the operand: (rows, group * cols).
            currents = chunk @ cells.reshape(self.rows, -1)
            if quantize_output:
                step = steps[g][:, None]
                currents = np.rint(currents / step) * step
            out.append(currents)
        batch = chunks.shape[1]
        self.mvm_ops += batch
        if quantize_output:
            self.adc_conversions += batch * self.cols
        return out

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
    def snapshot(self) -> dict:
        """Versioned capture of the bank's durable state.

        Conductances and target levels in tile order, per-tile counters
        and every tile generator's state: enough to :meth:`restore` the
        bank bit-identically with no reprogramming (and no write-pulse
        billing), whatever its grouping.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "kind": "tile_bank",
            "n_tiles": self.n_tiles,
            "rows": self.rows,
            "cols": self.cols,
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
            "target_levels": self._target_levels.copy(),
            "conductance": self.conductance,
            "rngs": [_rng_state(rng) for rng in self._rngs],
        }

    def restore(self, snap: dict) -> None:
        """Apply a :meth:`snapshot`; geometry must match exactly.

        Every key :meth:`snapshot` writes is required, and every array is
        checked against the geometry it claims: a conductance or level
        stack that is not ``(n_tiles, rows, cols)``, a level that is not
        an integer in the device's range, a counter vector that is not
        ``(n_tiles,)`` or a generator list of another length is a
        ``ValueError``.  Levels may arrive at any integer width (older
        builds wrote ``int64``) and are stored at cell width.
        """
        version = snap.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported tile bank snapshot version {version!r} "
                f"(this build reads version {SNAPSHOT_VERSION})")
        geometry = (snap["n_tiles"], snap["rows"], snap["cols"])
        shape = (self.n_tiles, self.rows, self.cols)
        if geometry != shape:
            raise ValueError(
                f"snapshot geometry {geometry} does not match this "
                f"{shape} bank")
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
        levels = np.asarray(snap["target_levels"])
        if levels.dtype.kind not in "iu" or levels.shape != shape:
            raise ValueError(
                f"snapshot target_levels ({levels.dtype}, {levels.shape}) "
                f"are not an integer {shape} stack")
        # Checked at the width they arrived in: narrowing first would
        # wrap an out-of-range level into a valid one.
        if levels.min(initial=0) < 0 or \
                levels.max(initial=0) >= self.device.n_levels:
            raise ValueError(
                f"snapshot target_levels leave the device's "
                f"[0, {self.device.n_levels}) level range")
        conductance = np.asarray(snap["conductance"])
        if conductance.shape != shape:
            raise ValueError(
                f"snapshot conductance has shape {conductance.shape}, "
                f"not {shape}")
        # The one copy of the conductances: tile order in, group-major
        # out, converted to float32 on the way.
        cells = np.empty_like(self._cells)
        cells[self._group_of, :, self._slot_of] = conductance
        rngs, programmed = snap["rngs"], bool(snap["programmed"])
        if len(rngs) != self.n_tiles:
            raise ValueError(f"snapshot holds {len(rngs)} generator "
                             f"states for {self.n_tiles} tiles")
        for rng, state in zip(self._rngs, rngs):
            _restore_rng_state(rng, state)
        for name, vector in counters.items():
            setattr(self, name, vector)
        self._target_levels = levels.astype(self._target_levels.dtype)
        self._cells = cells
        self._programmed = programmed

    @property
    def nbytes(self) -> int:
        """Resident bytes of the bank's cell state: each cell's
        conductance (float32) and target level, held once."""
        return self._cells.nbytes + self._target_levels.nbytes


class TileView:
    """One tile of a :class:`TileBank`: its state and counters by index.

    What ``CiMMatrix.iter_tiles_with_slice()`` yields: ``conductance``,
    ``target_levels``, ``stats`` and re-pulsing — the inspection surface of
    a standalone crossbar, so a bank can be compared tile by tile with the
    grid-of-crossbars oracle (``tests/oracles/per_tile_cim.py``).
    Mutations go through the bank so its state and counters stay
    authoritative.
    """

    def __init__(self, bank: TileBank, index: int):
        if not 0 <= index < bank.n_tiles:
            raise IndexError(f"tile {index} out of range [0, {bank.n_tiles})")
        self.bank = bank
        self.index = index

    @property
    def conductance(self) -> np.ndarray:
        return self.bank._tile_cells(self.index)

    @property
    def target_levels(self) -> np.ndarray:
        return self.bank.target_levels[self.index]

    @property
    def stats(self) -> CrossbarStats:
        """A snapshot of this tile's counters."""
        bank, i = self.bank, self.index
        return CrossbarStats(
            cells_programmed=int(bank.cells_programmed[i]),
            write_pulses=int(bank.write_pulses[i]),
            mvm_ops=int(bank.mvm_ops[i]),
            adc_conversions=int(bank.adc_conversions[i]),
            cell_reads=int(bank.cell_reads[i]),
        )

    def reprogram_cells(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        self.bank.reprogram_cells(mask[None], tiles=np.array([self.index]))
