"""The per-query CiM path as plain functions over a store's state.

Search (``query_batch_reference``), the product (``matmat_reference``,
with the bank's grouped GEMM and ADC as ``grouped_reference`` and its
per-tile gather as ``bank_matmat_reference``) and the read-back
(``read_columns_reference``) written out the long way: every call pads
the query to the tile grid, sums the ADC full scale over the padded row,
re-derives the slice weights, shift-adds with ``np.tensordot``, pools and
normalises one query at a time and reads a column range tile by tile
(``tests/oracles/per_tile_cim.py``'s ``read_cell_range``).

:func:`analog_matmat` is the product with the ADC left out, which no
production call computes: what a noise-free store is held to.

Each other function bills the bank's per-tile counters exactly as the
production call does, so driving one of two equal stores through these
and the other through production must leave equal outputs *and* equal
counters, bit for bit (``tests/cim/test_cim_path.py``).
"""

import numpy as np

from repro.nvm import slice_weights
from tests.oracles.per_tile_cim import read_cell_range
from tests.oracles.retrieval import _unit, multi_scale_vectors

_OFFSET = 32768  # excess code of the int16 bit-slicing


def grouped_reference(bank, chunks):
    """``TileBank.matmat_grouped``: one ``(batch, n_planes * n)`` current
    matrix per row tile, through the ADC, billing MVMs and conversions."""
    chunks = np.asarray(chunks, dtype=np.float32)
    # One ADC step per (row tile, query): the full scale depends only on
    # the shared input chunk.
    full_scale = np.abs(chunks).sum(axis=2)  # (n_row_tiles, batch)
    full_scale = np.where(full_scale == 0.0, 1.0, full_scale)
    steps = 2.0 * full_scale / (2 ** bank.adc_bits - 1)
    out = []
    for g, chunk in enumerate(chunks):
        cells = bank._cells[g * bank.rows:(g + 1) * bank.rows]
        currents = chunk[:, :len(cells)] @ cells
        step = steps[g][:, None]
        out.append(np.rint(currents / step) * step)
    batch = chunks.shape[1]
    bank.mvm_ops += batch
    bank.adc_conversions += batch * bank.extent[:, 1]
    return out


def bank_matmat_reference(bank, chunks):
    """``TileBank.matmat``: per-tile currents ``(n_tiles, batch, cols)``,
    zero in unoccupied columns."""
    grouped = grouped_reference(bank, chunks)
    d, n = bank.shape
    n_row_tiles = -(-d // bank.rows)
    n_col_tiles = -(-n // bank.cols)
    out = np.zeros((bank.n_tiles, grouped[0].shape[0], bank.cols),
                   dtype=grouped[0].dtype)
    for tile in range(bank.n_tiles):
        plane, row_tile, col_tile = np.unravel_index(
            tile, (bank.n_tiles // (n_row_tiles * n_col_tiles),
                   n_row_tiles, n_col_tiles))
        col0 = plane * n + col_tile * bank.cols
        used_cols = bank.extent[tile, 1]
        out[tile, :, :used_cols] = grouped[row_tile][:, col0:col0 + used_cols]
    return out


def matmat_reference(matrix, queries):
    """``CiMMatrix.matmat``: ``X @ W`` of a ``(batch, d)`` batch through
    the bit-sliced tiles, the ADC and the shift-add, then the
    mitigation's output correction."""
    queries = np.asarray(queries, dtype=np.float32)
    d, n = matrix.shape
    batch = queries.shape[0]
    n_rt, rows = matrix.n_row_tiles, matrix.subarray_rows
    n_slices = matrix.n_slices
    # Row chunks, zero-padded to the tile grid: (n_rt, B, rows).
    chunks = np.zeros((batch, n_rt * rows), dtype=np.float32)
    chunks[:, :d] = queries
    chunks = np.ascontiguousarray(
        chunks.reshape(batch, n_rt, rows).transpose(1, 0, 2))
    grouped = grouped_reference(matrix.bank, chunks)
    # Shift-add: sum row-tile planes, weight the slices.
    planes = grouped[0].reshape(batch, n_slices, n).astype(np.float64)
    for part in grouped[1:]:
        planes += part.reshape(batch, n_slices, n)
    weights = slice_weights(matrix.device.bits_per_cell, n_slices)
    weights = weights * (matrix.device.n_levels - 1)
    total = np.tensordot(planes, weights, axes=(1, 0))
    total -= _OFFSET * queries.sum(axis=1, dtype=np.float64)[:, None]
    outputs = (total * matrix.codec.scale).astype(np.float32)
    return matrix.mitigation.correct_output(matrix, outputs)


def analog_matmat(matrix, queries):
    """``X @ W`` through a matrix's stored cells with no ADC: one product
    of the queries and every plane's cells, shift-added, then the
    mitigation's output correction."""
    queries = np.asarray(queries, dtype=np.float32)
    batch, n = len(queries), matrix.shape[1]
    currents = queries @ matrix.bank._cells
    planes = currents.reshape(batch, matrix.n_slices, n).astype(np.float64)
    weights = slice_weights(matrix.device.bits_per_cell, matrix.n_slices)
    total = np.tensordot(planes, weights * (matrix.device.n_levels - 1),
                         axes=(1, 0))
    total -= _OFFSET * queries.sum(axis=1, dtype=np.float64)[:, None]
    outputs = (total * matrix.codec.scale).astype(np.float32)
    return matrix.mitigation.correct_output(matrix, outputs)


def read_reference(matrix, col0, col1):
    """``CiMMatrix.read_matrix``'s raw read of columns ``[col0, col1)``:
    one ``read_cell_range`` per column tile, added tile by tile."""
    rows, cols = matrix.subarray_rows, matrix.subarray_cols
    value = np.zeros((matrix.shape[0], col1 - col0), dtype=np.float64)
    weights = slice_weights(matrix.device.bits_per_cell, matrix.n_slices)
    for ct in range(col0 // cols, (col1 - 1) // cols + 1):
        lo, hi = max(col0 - ct * cols, 0), min(col1 - ct * cols, cols)
        out0 = ct * cols + lo - col0
        # Flat bank index is (slice * n_rt + row_tile) * n_ct + ct.
        tiles = (np.arange(matrix.n_slices * matrix.n_row_tiles)
                 * matrix.n_col_tiles + ct)
        blocks = read_cell_range(matrix.bank, tiles, lo, hi)
        for index, digits in enumerate(blocks):
            s, rt = divmod(index, matrix.n_row_tiles)
            value[rt * rows:rt * rows + len(digits),
                  out0:out0 + hi - lo] += digits * weights[s]
    value -= _OFFSET
    return matrix.codec.decode(value)


def read_columns_reference(matrix, col0, col1):
    """``CiMMatrix.read_columns``: the raw read, then the mitigation's
    read correction."""
    return matrix.mitigation.correct_read_columns(
        matrix, read_reference(matrix, col0, col1), col0, col1)


def query_batch_reference(engine, encoded_queries):
    """``CiMSearchEngine.query_batch``: each query pooled and normalised
    on its own, stacked per scale, one ``matmat_reference`` per scale
    store, the weighted mean of the per-scale cosines."""
    config = engine.config
    pooled = [multi_scale_vectors(q, config.scales, config.pad_length)
              for q in encoded_queries]
    total = np.zeros((len(pooled), engine.n_stored), dtype=np.float64)
    for scale, weight in zip(config.scales, config.weights):
        rows = [_unit(vectors[scale]) for vectors in pooled]
        similarity = matmat_reference(engine._stores[scale], np.stack(rows))
        total += weight * similarity.astype(np.float64)
    return (total / sum(config.weights)).astype(np.float32)
