"""Multi-scale average pooling over token matrices (paper Eq. 5).

A token matrix (rows = tokens, columns = encoded dims) is pooled along the
token axis with non-overlapping windows of size 1, 2 and 4 — token level,
adjacent-pair level and broader contextual level.  Matrices are first
padded/truncated to a fixed row count so that pooled representations of a
query and a stored OVT align position-by-position.
"""

from __future__ import annotations

import numpy as np

__all__ = ["multi_scale_batch"]


def multi_scale_batch(matrices, scales: tuple[int, ...],
                      length: int) -> dict[int, np.ndarray]:
    """Flattened pooled representations of many token matrices at once:
    one ``(batch, length // scale * dims)`` array per scale, row ``i``
    the mean of each ``scale``-row window of ``matrices[i]`` zero-padded
    or truncated to ``length`` rows (scale 1 is the padded matrix)."""
    if length <= 0:
        raise ValueError("length must be positive")
    matrices = [np.asarray(matrix, dtype=np.float32) for matrix in matrices]
    if any(matrix.ndim != 2 for matrix in matrices):
        raise ValueError("expected 2-D token matrices")
    batch, dims = len(matrices), matrices[0].shape[1]
    padded = np.zeros((batch, length, dims), dtype=np.float32)
    for row, matrix in zip(padded, matrices):
        row[:len(matrix)] = matrix[:length]
    pooled = {}
    for scale in scales:
        if scale <= 0:
            raise ValueError("scale must be positive")
        if length % scale != 0:
            raise ValueError(f"{length} rows not divisible by scale {scale}")
        if scale == 1:
            pooled[scale] = padded.reshape(batch, -1)
            continue
        # The mean of each window, as ndarray.mean takes it: a float32
        # sum, then one division.
        window = np.add.reduce(
            padded.reshape(batch, length // scale, scale, dims), axis=2)
        window /= scale
        pooled[scale] = window.reshape(batch, -1)
    return pooled
