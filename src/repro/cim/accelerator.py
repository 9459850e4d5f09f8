"""NVCiM accelerator: bit-sliced matrix storage and in-memory GMM.

A :class:`CiMMatrix` is a float matrix held on NVM: values are quantized to
int16, bit-sliced into base-2^bits digits (one digit per cell, paper
Fig. 4), and tiled over 384x128 crossbars.  Matrix-vector products run
slice-by-slice in the arrays and are shift-added digitally, which is
exactly how the paper's scaled-search GMM executes.

All tiles live in one :class:`~repro.nvm.crossbar.TileBank` built with
``shape=self.shape``: one plane of tiles per bit slice, ordered
``(slice, row_tile, col_tile)``, each row tile's conductances side by
side as the GEMM operand — the grid is the bank's to work out.  The bank
is as big as the matrix: a tile's occupied extent is the block of the
digit plane that falls on it, nothing is zero-padded to subarray size,
and programming, the product, the ADC, read-back, billing and snapshots
all cost what ``n_slices x d x n`` cells cost.
:meth:`CiMMatrix.matmat` evaluates a whole batch of queries with one GEMM
per row tile over the stored cells plus one vectorized ADC quantization,
then one shift-add product — the serving engine's batched-retrieval hot
path; :meth:`CiMMatrix.read_columns` reads every bit plane's columns as
one view (:meth:`TileBank.read_plane_columns`) and adds the planes in
slice order — the restore path.  What depends only on the store (the
slice weights, whether a query needs padding to the last row tile) is
derived when the matrix is built or rebuilt from a snapshot, not per
call; ``tests/oracles/cim_path.py`` is the long-hand path both are held
to bit for bit.  Every tile draws
programming noise from its own spawned stream (a packed state row in the
bank), so the grid of standalone crossbars the equivalence tests build
(``tests/oracles/per_tile_cim.py``) programs to *bit-identical*
conductances.

Noise-mitigation baselines subclass :class:`MitigationHooks`, whose no-op
hooks are the no-mitigation case, and override ``post_program`` (e.g.
selective write-verify re-pulses cells), ``correct_output`` (CxDNN /
CorrectNet compensation applied to single or batched MVM outputs) and
``correct_read_columns`` for the mitigated read-back.
"""

from __future__ import annotations

import numpy as np

from ..nvm.crossbar import CrossbarStats, TileBank
from ..nvm.device_models import NVMDevice
from ..nvm.quantize import Int16Codec, slice_to_digits, slice_weights
from ..utils import rng_from_seed, spawn_generators

__all__ = ["CiMMatrix", "MitigationHooks"]

_OFFSET = 32768  # excess code used by the int16 bit-slicing


class MitigationHooks:
    """The hooks a noise-mitigation baseline overrides.

    Every hook defaults to doing nothing, so this class itself is no
    mitigation — store and read raw, the paper's \"No-Miti\" — and is
    named ``"none"``.  A baseline subclasses it and overrides only the
    hooks it implements.
    """

    name = "none"

    def post_program(self, matrix: "CiMMatrix") -> None:
        """Run after programming (may verify/re-program cells)."""

    def prepare_values(self, values: np.ndarray) -> np.ndarray:
        """Transform values before quantization (e.g. outlier clipping)."""
        return values

    def correct_output(self, matrix: "CiMMatrix",
                       outputs: np.ndarray) -> np.ndarray:
        """Correct MVM outputs — one vector (n,) or a batch (B, n)."""
        return outputs

    def correct_read_columns(self, matrix: "CiMMatrix", values: np.ndarray,
                             col0: int, col1: int) -> np.ndarray:
        """Correct a column-range read-back (columns ``[col0, col1)``)."""
        return values


class CiMMatrix:
    """A (d, n) float matrix stored bit-sliced on NVM crossbars, occupying
    ``n_slices * d * n`` cells of its ``n_subarrays`` subarrays."""

    # Derived from the shape, the subarrays and the device whenever the
    # matrix is built or rebuilt from a snapshot (`_derive`), not state:
    # the shift-add and read-back slice weights, and the width a query is
    # zero-padded to when `d` is not a whole number of subarray rows.
    _SNAPSHOT_EXCLUDED = ("_shift_add", "_read_weights", "_padded_width")

    def __init__(
        self,
        values: np.ndarray,
        device: NVMDevice,
        *,
        sigma: float = 0.1,
        rows: int = 384,
        cols: int = 128,
        adc_bits: int = 8,
        mitigation: MitigationHooks | None = None,
        rng: np.random.Generator | None = None,
    ):
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 2:
            raise ValueError("CiMMatrix stores 2-D matrices")
        self.device = device
        self.sigma = sigma
        self.subarray_rows = rows
        self.subarray_cols = cols
        self.mitigation = mitigation or MitigationHooks()

        prepared = self.mitigation.prepare_values(values)
        self.shape = prepared.shape
        self.codec = Int16Codec.fit(prepared)
        self._ints = self.codec.encode(prepared)
        digits = slice_to_digits(self._ints, device.bits_per_cell)
        self.n_slices = digits.shape[0]
        self._adc_bits = adc_bits
        self._derive()
        # Calibration data some mitigations fill in during post_program.
        self.calibration: dict[str, np.ndarray] = {}
        # One spawned generator per tile, derived hierarchically (matrix ->
        # bit-slice -> tile, in slice-major order): programming noise is
        # independent of tile iteration order, and a slice's streams do not
        # depend on how the other slices are tiled.
        per_slice = self.n_row_tiles * self.n_col_tiles
        self.bank = self._new_bank([
            tile_rng
            for slice_rng in spawn_generators(rng or rng_from_seed(0),
                                              self.n_slices)
            for tile_rng in spawn_generators(slice_rng, per_slice)])
        # Each tile gets its (unpadded) block of its digit plane, in the
        # same (slice, row_tile, col_tile) order.
        self.bank.program([
            plane[r * rows:(r + 1) * rows, c * cols:(c + 1) * cols]
            for plane in digits
            for r in range(self.n_row_tiles)
            for c in range(self.n_col_tiles)])
        self.mitigation.post_program(self)

    # ------------------------------------------------------------------
    # Programming and geometry
    # ------------------------------------------------------------------
    def _derive(self) -> None:
        """The tile grid and what every product and read re-uses, from
        the shape, the subarrays and the device."""
        d, n = self.shape
        rows = self.subarray_rows
        self.n_row_tiles = -(-d // rows)
        self.n_col_tiles = -(-n // self.subarray_cols)
        weights = slice_weights(self.device.bits_per_cell, self.n_slices)
        self._read_weights = weights.reshape(-1, 1)
        self._shift_add = (weights * (self.device.n_levels - 1)).reshape(-1, 1)
        self._padded_width = self.n_row_tiles * rows if d % rows else 0

    def _new_bank(self, rngs: list[np.random.Generator] | None = None,
                  ) -> TileBank:
        """A bank as big as the matrix: one plane per bit slice."""
        return TileBank(self.device, self.n_subarrays,
                        rows=self.subarray_rows, cols=self.subarray_cols,
                        sigma=self.sigma, adc_bits=self._adc_bits, rngs=rngs,
                        shape=self.shape)

    @property
    def n_subarrays(self) -> int:
        return self.n_slices * self.n_row_tiles * self.n_col_tiles

    def slice_tile_indices(self, slice_index: int) -> np.ndarray:
        """Flat bank indices of every tile holding ``slice_index`` digits."""
        per_slice = self.n_row_tiles * self.n_col_tiles
        if not 0 <= slice_index < self.n_slices:
            raise IndexError(f"slice {slice_index} out of range "
                             f"[0, {self.n_slices})")
        start = slice_index * per_slice
        return np.arange(start, start + per_slice)

    def aggregate_stats(self) -> CrossbarStats:
        """Operation counters summed over every tile.

        Sums the bank's counter vectors directly (this runs inside
        ``PromptServeEngine.stats()``, so it must not walk Python tile
        objects per call).
        """
        return self.bank.aggregate_stats()

    @property
    def nbytes(self) -> int:
        """Resident bytes of the stored cells (:attr:`TileBank.nbytes`)."""
        return self.bank.nbytes

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def matmat(self, queries: np.ndarray) -> np.ndarray:
        """Batched in-memory product ``X @ W`` for ``X`` of shape (B, d).

        The whole batch is evaluated against every tile with one GEMM per
        row tile and one vectorized ADC pass, then shift-added digitally
        with one product.  Per-query physics is unchanged: each query
        still bills one MVM per tile and one conversion per occupied
        column of it, so energy counters scale with the batch width
        exactly as B sequential queries would.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2:
            raise ValueError("matmat expects a (batch, rows) query matrix")
        d, n = self.shape
        if queries.shape[1] != d:
            raise ValueError(
                f"inputs of {queries.shape[1]} do not match matrix rows {d}")
        if queries.shape[0] == 0:
            raise ValueError("matmat needs at least one query")
        batch = queries.shape[0]
        chunks = queries
        if self._padded_width:
            # The ADC's full scale is summed over a row tile's whole
            # input, so the short last row tile's is zero-padded.
            chunks = np.zeros((batch, self._padded_width), dtype=np.float32)
            chunks[:, :d] = queries
        # Row chunks (n_rt, B, rows), a view: row tile g's GEMM reads
        # every query's columns [g * rows, (g + 1) * rows).
        grouped = self.bank.matmat_grouped(chunks.reshape(
            batch, self.n_row_tiles, self.subarray_rows).transpose(1, 0, 2))
        # Shift-add: sum the row tiles, then weight the slices — a
        # (batch * n, n_slices) x (n_slices, 1) product.
        planes = grouped[0].astype(np.float64)
        for part in grouped[1:]:
            planes += part
        planes = planes.reshape(batch, self.n_slices, n).transpose(0, 2, 1)
        total = np.dot(planes.reshape(-1, self.n_slices),
                       self._shift_add).reshape(batch, n)
        total -= _OFFSET * np.add.reduce(queries, axis=1,
                                         dtype=np.float64)[:, None]
        outputs = (total * self.codec.scale).astype(np.float32)
        return self.mitigation.correct_output(self, outputs)

    def read_matrix(self) -> np.ndarray:
        """Read the stored matrix back raw (noisy, uncorrected), shape
        (d, n) float32: the read mitigations calibrate against.
        :meth:`read_columns` is the mitigated read.
        """
        return self._read(0, self.shape[1])

    def read_columns(self, col0: int, col1: int) -> np.ndarray:
        """Read back only columns ``[col0, col1)``, shape (d, col1-col0).

        Touches (and bills ``cell_reads`` for) only the cells covering the
        requested columns in the tiles that hold them — the restore path's
        read.  Before the mitigation's correction, values equal the same
        columns of :meth:`read_matrix` exactly.
        """
        if not 0 <= col0 < col1 <= self.shape[1]:
            raise ValueError(f"column range [{col0}, {col1}) outside "
                             f"[0, {self.shape[1]})")
        return self.mitigation.correct_read_columns(
            self, self._read(col0, col1), col0, col1)

    def _read(self, col0: int, col1: int) -> np.ndarray:
        # Every bit plane's columns at once, (d, n_slices, width), added
        # in slice order.
        planes = self.bank.read_plane_columns(col0, col1) * self._read_weights
        value = planes[:, 0].copy()
        for s in range(1, self.n_slices):
            value += planes[:, s]
        value -= _OFFSET
        return self.codec.decode(value)

    def ideal_matrix(self) -> np.ndarray:
        """The noise-free stored values (after int16 quantization)."""
        return self.codec.decode(self._ints)

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture of the stored matrix's durable state.

        Everything :meth:`from_snapshot` needs to rebuild this matrix
        bit-identically *without* reprogramming: the int16 codewords, the
        tile conductances, counters and generator states (the bank
        snapshot), and the mitigation's calibration.
        """
        return {
            "shape": [int(d) for d in self.shape],
            "subarray_rows": self.subarray_rows,
            "subarray_cols": self.subarray_cols,
            "sigma": self.sigma,
            "adc_bits": self._adc_bits,
            "n_slices": self.n_slices,
            "mitigation": self.mitigation.name,
            "bank": self.bank.snapshot(),
            "codec_scale": float(self.codec.scale),
            "ints": self._ints.copy(),
            "calibration": {key: value.copy()
                            for key, value in self.calibration.items()},
        }

    def restore(self, snap: dict) -> None:
        """Apply a :meth:`snapshot` onto this matrix; shapes must match.

        Codewords, conductances, counters, generator states and
        calibration all come from the snapshot; every key
        :meth:`snapshot` writes is required.
        """
        if tuple(snap["shape"]) != tuple(self.shape):
            raise ValueError(
                f"snapshot shape {tuple(snap['shape'])} does not match "
                f"stored matrix {self.shape}")
        ints = np.array(snap["ints"], dtype=np.int16)
        if ints.shape != tuple(self.shape):
            raise ValueError(
                f"snapshot codewords have shape {ints.shape}, stored "
                f"matrix is {tuple(self.shape)}")
        self.bank.restore(snap["bank"])
        self.codec = Int16Codec(scale=float(snap["codec_scale"]))
        self._ints = ints
        self.calibration = {key: np.array(value)
                            for key, value in snap["calibration"].items()}

    @classmethod
    def from_snapshot(cls, snap: dict, device: NVMDevice, *,
                      mitigation: MitigationHooks | None = None,
                      ) -> "CiMMatrix":
        """Rebuild a matrix from a :meth:`snapshot`, bit-identically.

        No programming happens: conductances, counters and generator
        states come straight from the snapshot, so the restore neither
        redraws noise nor bills a single write pulse.  ``device`` and
        ``mitigation`` are reconstructed by the caller (they are config,
        not state — the snapshot records only the mitigation's name).
        """
        self = object.__new__(cls)
        self.device = device
        self.sigma = float(snap["sigma"])
        self.subarray_rows = int(snap["subarray_rows"])
        self.subarray_cols = int(snap["subarray_cols"])
        if self.subarray_rows <= 0 or self.subarray_cols <= 0:
            raise ValueError(
                f"snapshot subarrays are {self.subarray_rows}x"
                f"{self.subarray_cols}; rows and cols must be positive")
        self.mitigation = mitigation or MitigationHooks()
        if self.mitigation.name != snap["mitigation"]:
            raise ValueError(
                f"snapshot was captured with mitigation "
                f"{snap['mitigation']!r}, got {self.mitigation.name!r}")
        self.shape = tuple(int(d) for d in snap["shape"])
        self.n_slices = int(snap["n_slices"])
        self._adc_bits = int(snap["adc_bits"])
        self._derive()
        self.bank = self._new_bank()
        self.restore(snap)
        return self
