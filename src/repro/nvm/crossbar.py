"""Crossbar array simulation.

A :class:`CrossbarArray` models one physical subarray (default 384x128, the
paper's geometry): cells are programmed to discrete conductance levels with
device-dependent Gaussian variation, read back either cell-wise or through
an analog matrix-vector multiply with ADC quantization at the columns.

A :class:`TileBank` is the vectorized counterpart of a *list* of
crossbars: ``n_tiles`` subarrays of identical geometry whose conductances
live in one stacked ``(n_tiles, rows, cols)`` array, programmed with one
vectorized noise draw and evaluated for a whole batch of inputs with a
single batched matmul plus one vectorized ADC quantization.  Each tile
draws its programming noise from an independently spawned generator, so a
bank programs to exactly the same conductances as the equivalent per-tile
:class:`CrossbarArray` objects would (and independently of tile iteration
order).  :class:`TileView` exposes one tile of a bank by index (state,
counters, re-pulse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .device_models import NVMDevice
from ..utils import rng_from_seed

__all__ = ["CrossbarArray", "CrossbarStats", "TileBank", "TileView",
           "SNAPSHOT_VERSION"]

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


class CrossbarArray:
    """One NVM subarray with noisy programming and analog readout."""

    def __init__(self, device: NVMDevice, *, rows: int = 384, cols: int = 128,
                 sigma: float = 0.1, adc_bits: int = 8,
                 rng: np.random.Generator | None = None):
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
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
        noise = self.device.program_noise(levels, self.sigma, self._rng)
        return (ideal + noise).astype(np.float32)

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


class TileBank:
    """``n_tiles`` stacked crossbar subarrays operated as one array.

    The bank keeps one ``(n_tiles, rows, cols)`` conductance stack and
    per-tile operation counters (``(n_tiles,)`` vectors), so programming,
    write-verify re-pulses and batched matrix products are single
    vectorized numpy operations instead of Python loops over tile objects.
    Every tile owns an independently spawned ``rng`` (see
    :func:`repro.utils.spawn_generators`): its noise draws match the
    equivalent standalone :class:`CrossbarArray` bit for bit and do not
    depend on what other tiles drew first.

    Target levels are stored at cell width —
    ``np.min_scalar_type(device.n_levels - 1)``, ``uint8`` for every
    device up to 256 levels — in memory and therefore in a snapshot.
    numpy re-widens a narrow index array on *every* fancy index, so code
    that looks levels up in a table widens them once
    (``levels.astype(np.intp)``) and indexes with that.
    """

    # `device` is configuration re-supplied at rebuild; the `_merged*`
    # trio is a lazily invalidated matmul-operand cache keyed off
    # `version`, rebuilt on first use after restore.
    _SNAPSHOT_EXCLUDED = ("device", "_merged", "_merged_groups",
                          "_merged_key")

    def __init__(self, device: NVMDevice, n_tiles: int, *, rows: int = 384,
                 cols: int = 128, sigma: float = 0.1, adc_bits: int = 8,
                 rngs: Sequence[np.random.Generator] | None = None):
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
        self.device = device
        self.n_tiles = n_tiles
        self.rows = rows
        self.cols = cols
        self.sigma = sigma
        self.adc_bits = adc_bits
        self._rngs = list(rngs)
        self._target_levels = np.zeros(
            (n_tiles, rows, cols), dtype=np.min_scalar_type(device.n_levels - 1))
        self._conductance = np.zeros((n_tiles, rows, cols), dtype=np.float32)
        self._programmed = False
        # Per-tile counters; aggregate_stats() sums them vectorially.
        self.cells_programmed = np.zeros(n_tiles, dtype=np.int64)
        self.write_pulses = np.zeros(n_tiles, dtype=np.int64)
        self.mvm_ops = np.zeros(n_tiles, dtype=np.int64)
        self.adc_conversions = np.zeros(n_tiles, dtype=np.int64)
        self.cell_reads = np.zeros(n_tiles, dtype=np.int64)
        # Bumped on every conductance mutation so the cached matmul
        # operand can be invalidated lazily.
        self.version = 0
        self._merged: list[np.ndarray] | None = None
        self._merged_groups: list[np.ndarray] | None = None
        self._merged_key: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def conductance(self) -> np.ndarray:
        """The stacked noisy conductances, shape (n_tiles, rows, cols)."""
        return self._conductance

    @property
    def target_levels(self) -> np.ndarray:
        return self._target_levels

    def tile(self, index: int) -> "TileView":
        """A ``CrossbarArray``-like view of one tile of the bank."""
        return TileView(self, index)

    def _fresh_conductance(self, tiles: np.ndarray,
                           levels: np.ndarray) -> np.ndarray:
        """Draw fresh noisy conductances for ``tiles`` at ``levels``.

        ``levels`` is the ``intp`` level stack of those tiles: widened
        once by the caller, it indexes both tables.  The range check
        (``sigma_for_levels``) runs before any generator is advanced.
        Noise assembly is fully vectorized; the standard-normal variates
        themselves come from each tile's own generator so results are
        identical to per-tile :class:`CrossbarArray` programming.
        """
        stds = self.device.sigma_for_levels(levels, self.sigma)
        ideal = self.device.level_values()[levels]
        draws = np.stack([self._rngs[int(t)].normal(
            0.0, 1.0, size=(self.rows, self.cols)) for t in tiles])
        noise = draws.astype(np.float32) * stds
        return (ideal + noise).astype(np.float32)

    def program(self, levels: np.ndarray) -> None:
        """Write level indices for every tile in one vectorized pulse.

        A refused call (wrong shape, level out of range) leaves the bank
        as it was: nothing is stored or drawn before the checks pass.
        """
        levels = np.asarray(levels, dtype=np.intp)
        if levels.shape != (self.n_tiles, self.rows, self.cols):
            raise ValueError(
                f"level stack {levels.shape} does not fit "
                f"{self.n_tiles}x{self.rows}x{self.cols}")
        self._conductance = self._fresh_conductance(
            np.arange(self.n_tiles), levels)
        self._target_levels = levels.astype(self._target_levels.dtype)
        self._programmed = True
        per_tile = self.rows * self.cols
        self.cells_programmed += per_tile
        self.write_pulses += per_tile
        self.version += 1

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
        fresh = self._fresh_conductance(
            selected, self._target_levels[selected].astype(np.intp))
        current = self._conductance[selected]
        self._conductance[selected] = np.where(masks[need], fresh, current)
        self.write_pulses[selected] += masks[need].sum(axis=(1, 2))
        self.version += 1

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
        block = self._conductance[tiles, :, col0:col1]
        self.cell_reads[tiles] += self.rows * (col1 - col0)
        return block * (self.device.n_levels - 1)

    def _merged_operand(self, chunk_index: np.ndarray
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-group matmul operands, cached against the bank version.

        Tiles sharing an input chunk (same ``chunk_index``) are merged
        column-wise into one ``(rows, group_size * cols)`` matrix, so a
        whole group evaluates with a single GEMM instead of one small
        matvec per tile.  The cache deliberately holds a second full
        copy of the bank's conductances (float32, rebuilt lazily after
        re-pulses): compute speed is bought with ~2x simulation memory,
        the same trade the decode path makes for its KV caches.
        """
        key = (self.version, chunk_index.tobytes())
        if self._merged_key != key:
            groups = [np.flatnonzero(chunk_index == g)
                      for g in range(int(chunk_index.max()) + 1)]
            self._merged = [
                np.ascontiguousarray(
                    self._conductance[tiles].transpose(1, 0, 2).reshape(
                        self.rows, tiles.size * self.cols))
                for tiles in groups
            ]
            self._merged_groups = groups
            self._merged_key = key
        return self._merged, self._merged_groups

    def matmat(self, chunks: np.ndarray,
               chunk_index: np.ndarray | None = None, *,
               quantize_output: bool = True) -> np.ndarray:
        """Batched analog MVM for every tile at once.

        ``chunks`` has shape ``(n_groups, batch, rows)`` — the distinct
        input chunks for each query in the batch — and ``chunk_index``
        maps each tile to its chunk (identity when omitted, i.e. one
        chunk per tile).  Returns per-tile column currents ``(n_tiles,
        batch, cols)`` computed with one GEMM per chunk group, optionally
        pushed through one vectorized ADC quantization (per-tile,
        per-query full scale, as the SAR ADC columns would).  Counters
        scale with the batch width: each tile bills ``batch`` MVMs and
        ``batch * cols`` conversions.
        """
        if chunk_index is None:
            chunk_index = np.arange(self.n_tiles)
        chunks = np.asarray(chunks, dtype=np.float32)
        batch = chunks.shape[1] if chunks.ndim == 3 else 0
        grouped = self.matmat_grouped(chunks, chunk_index,
                                      quantize_output=quantize_output)
        out = np.empty((self.n_tiles, batch, self.cols), dtype=np.float32)
        for currents, tiles in zip(grouped, self._merged_groups):
            out[tiles] = currents.reshape(
                batch, tiles.size, self.cols).transpose(1, 0, 2)
        return out

    def matmat_grouped(self, chunks: np.ndarray, chunk_index: np.ndarray, *,
                       quantize_output: bool = True) -> list[np.ndarray]:
        """The GEMM core of :meth:`matmat`, without the per-tile scatter.

        Returns one ``(batch, group_size * cols)`` current matrix per
        chunk group; columns are blocked per tile in ascending flat-index
        order.  Callers that immediately re-aggregate tiles (the
        bit-sliced shift-add) use this to skip materialising the
        ``(n_tiles, batch, cols)`` layout.
        """
        self._require_programmed()
        chunks = np.asarray(chunks, dtype=np.float32)
        chunk_index = np.asarray(chunk_index, dtype=np.int64)
        if chunk_index.shape != (self.n_tiles,):
            raise ValueError("chunk_index must map every tile to a chunk")
        if (chunks.ndim != 3 or chunks.shape[0] != int(chunk_index.max()) + 1
                or chunks.shape[2] != self.rows):
            raise ValueError(
                f"expected (n_chunks, batch, rows={self.rows}) inputs, "
                f"got {chunks.shape}")
        operands, _ = self._merged_operand(chunk_index)
        if quantize_output:
            # One ADC step per (tile group, query): the full scale
            # depends only on the shared input chunk.
            full_scale = np.abs(chunks).sum(axis=2)  # (n_groups, batch)
            full_scale = np.where(full_scale == 0.0, 1.0, full_scale)
            steps = 2.0 * full_scale / (2 ** self.adc_bits - 1)
        out = []
        for g, (chunk, operand) in enumerate(zip(chunks, operands)):
            currents = chunk @ operand          # (batch, group * cols)
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

        Stacked conductances, target levels, per-tile counters and every
        tile generator's state: enough to :meth:`restore` the bank
        bit-identically with no reprogramming (and no write-pulse
        billing).
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
            "conductance": self._conductance.copy(),
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
        builds wrote ``int64``) and are stored at cell width.  Restoring
        bumps :attr:`version` so any cached merged matmul operand is
        rebuilt from the restored conductances.
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
        conductance = np.array(snap["conductance"], dtype=np.float32)
        if conductance.shape != shape:
            raise ValueError(
                f"snapshot conductance has shape {conductance.shape}, "
                f"not {shape}")
        rngs, programmed = snap["rngs"], bool(snap["programmed"])
        if len(rngs) != self.n_tiles:
            raise ValueError(f"snapshot holds {len(rngs)} generator "
                             f"states for {self.n_tiles} tiles")
        for rng, state in zip(self._rngs, rngs):
            _restore_rng_state(rng, state)
        for name, vector in counters.items():
            setattr(self, name, vector)
        self._target_levels = levels.astype(self._target_levels.dtype)
        self._conductance = conductance
        self._programmed = programmed
        self.version += 1

    @property
    def nbytes(self) -> int:
        """Resident bytes of the bank's cell state: conductances, target
        levels and — once a product has built it — the merged matmul
        operand (a second copy of the conductances)."""
        merged = sum(operand.nbytes for operand in self._merged or ())
        return (self._conductance.nbytes + self._target_levels.nbytes
                + merged)


class TileView:
    """One tile of a :class:`TileBank`: its state and counters by index.

    What ``CiMMatrix.iter_tiles_with_slice()`` yields: ``conductance``,
    ``target_levels``, ``stats`` and re-pulsing — the inspection surface of
    a standalone :class:`CrossbarArray`, so a bank can be compared tile by
    tile with the grid-of-crossbars oracle
    (``tests/oracles/per_tile_cim.py``).  Mutations go through the bank
    so its stacked state and counters stay authoritative.
    """

    def __init__(self, bank: TileBank, index: int):
        if not 0 <= index < bank.n_tiles:
            raise IndexError(f"tile {index} out of range [0, {bank.n_tiles})")
        self.bank = bank
        self.index = index

    @property
    def conductance(self) -> np.ndarray:
        return self.bank.conductance[self.index]

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
