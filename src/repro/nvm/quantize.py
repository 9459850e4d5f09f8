"""Value <-> cell-level conversion for NVM storage.

The paper stores autoencoder outputs as int16 and maps them onto 2-bit
cells: every 16-bit word is bit-sliced into 16/bits base-2^bits digits,
one digit per cell (the ``A = 2^12 Vin G3 + 2^8 Vin G2 + ...`` scheme of
paper Fig. 4).  Signed values use an excess offset so all digits are
non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Int16Codec", "slice_to_digits", "slice_weights"]

_INT16_MIN, _INT16_MAX = -32768, 32767
_OFFSET = 32768  # excess-32768 representation keeps digits unsigned


def slice_to_digits(ints: np.ndarray, bits_per_cell: int) -> np.ndarray:
    """Decompose unsigned 16-bit words into base-2^bits digits.

    Returns an array of shape (n_slices, *ints.shape), least-significant
    digit first, at digit width (``uint8`` up to 8 bits a cell): one
    level index per cell, the width a ``TileBank`` stores levels at.
    """
    if 16 % bits_per_cell != 0:
        raise ValueError(f"bits_per_cell must divide 16, got {bits_per_cell}")
    unsigned = (np.asarray(ints, dtype=np.int64) + _OFFSET)
    if unsigned.min(initial=0) < 0 or unsigned.max(initial=0) > 0xFFFF:
        raise ValueError("values out of int16 range")
    n_slices = 16 // bits_per_cell
    base = 2 ** bits_per_cell
    digits = np.empty((n_slices,) + unsigned.shape,
                      dtype=np.min_scalar_type(base - 1))
    remaining = unsigned.copy()
    for s in range(n_slices):
        digits[s] = remaining % base
        remaining //= base
    return digits


def slice_weights(bits_per_cell: int, n_slices: int) -> np.ndarray:
    """Positional weight of each bit-slice, LSB first (float64).

    ``weights[s] = (2 ** bits_per_cell) ** s`` — the shift-add factors the
    digital periphery applies when recombining per-slice column currents.
    """
    if bits_per_cell <= 0:
        raise ValueError("bits_per_cell must be positive")
    if n_slices <= 0:
        raise ValueError("n_slices must be positive")
    base = float(2 ** bits_per_cell)
    return base ** np.arange(n_slices, dtype=np.float64)


@dataclass(frozen=True)
class Int16Codec:
    """Symmetric float <-> int16 quantization with a fixed scale."""

    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @classmethod
    def fit(cls, values: np.ndarray, margin: float = 1.0) -> "Int16Codec":
        """Choose a scale covering ``values`` (optionally with headroom)."""
        peak = float(np.abs(values).max()) if np.asarray(values).size else 1.0
        peak = max(peak, 1e-8) * margin
        return cls(scale=peak / _INT16_MAX)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Quantize floats to int16 (clipping at the range ends)."""
        scaled = np.round(np.asarray(values, dtype=np.float64) / self.scale)
        return np.clip(scaled, _INT16_MIN, _INT16_MAX).astype(np.int16)

    def decode(self, ints: np.ndarray) -> np.ndarray:
        """Dequantize (accepts float arrays so read noise passes through)."""
        return (np.asarray(ints, dtype=np.float64) * self.scale).astype(np.float32)
