"""``TileBank(shape=...)``: a bank is as big as its data.

A tile's occupied extent is the corner of the subarray that its plane's
``shape`` covers; the rest is erased.  Given the same generators, a bank
of a ragged shape is bit for bit the occupied corner of the whole-tile
bank on the same grid programmed with the same levels (zero outside the
extent) — the bank every earlier build held — and it pulses, converts,
reads, holds and snapshots only that corner.
"""

import numpy as np
import pytest

from repro.nvm import TileBank, available_devices, get_device
from repro.serve.codec import decode_value, encode_value
from tests.nvm.test_tilebank_grouping import grids
from tests.oracles.crossbar import whole_tiles
from tests.oracles.per_tile_cim import tile_conductance, tile_currents

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def make_bank(device, n_tiles, rows, cols, seed, shape, **kwargs):
    return TileBank(
        device, n_tiles, rows=rows, cols=cols, shape=shape,
        rngs=[np.random.default_rng([seed, t]) for t in range(n_tiles)],
        **kwargs)


def covered(n_tiles, rows, cols, shape):
    """Which cells of each tile its plane's ``shape`` covers, worked out
    by cutting a ``shape``-sized block of ones on the grid."""
    n_row_tiles, n_col_tiles = -(-shape[0] // rows), -(-shape[1] // cols)
    plane = np.zeros((n_row_tiles * rows, n_col_tiles * cols), dtype=bool)
    plane[:shape[0], :shape[1]] = True
    tiles = plane.reshape(n_row_tiles, rows, n_col_tiles, cols).swapaxes(1, 2)
    per_plane = n_row_tiles * n_col_tiles
    return np.tile(tiles.reshape(per_plane, rows, cols),
                   (n_tiles // per_plane, 1, 1))


class TestExtentIsTheOccupiedCorner:
    @settings(max_examples=60, deadline=None)
    @given(grid=grids(ragged=True),
           device_name=st.sampled_from(available_devices()),
           sigma=st.sampled_from([0.0, 0.1, 0.3]),
           adc_bits=st.integers(4, 10), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_extent_bank_equals_corner_of_whole_tile_bank(
            self, grid, device_name, sigma, adc_bits, seed, data):
        device = get_device(device_name)
        rows, cols, n_tiles, shape = grid
        n_groups, n_col_tiles = -(-shape[0] // rows), -(-shape[1] // cols)
        small, whole = (
            make_bank(device, n_tiles, rows, cols, seed, s, sigma=sigma,
                      adc_bits=adc_bits)
            for s in (shape, (n_groups * rows, n_col_tiles * cols)))
        inside = covered(n_tiles, rows, cols, shape)
        extent = np.stack([inside.any(axis=2).sum(axis=1),
                           inside.any(axis=1).sum(axis=1)], axis=1)
        assert np.array_equal(small.extent, extent)
        assert (whole.extent == (rows, cols)).all()
        occupied = extent.prod(axis=1)

        rng = np.random.default_rng(seed)
        levels = [rng.integers(0, device.n_levels, corner)
                  for corner in extent]
        small.program(levels)
        whole.program(whole_tiles(whole, levels))

        def same_corner():
            conductance = whole_tiles(small)
            assert np.array_equal(conductance[inside],
                                  whole_tiles(whole)[inside])
            assert not conductance[~inside].any()
            assert np.array_equal(whole_tiles(small, "target_levels"),
                                  whole_tiles(whole, "target_levels"))
            for index, corner in enumerate(extent):
                assert tile_conductance(small, index).shape == tuple(corner)

        same_corner()
        assert small.nbytes == occupied.sum() * 5
        assert np.array_equal(small.write_pulses, occupied)
        assert np.array_equal(small.cells_programmed, occupied)

        # A masked re-pulse (an empty mask draws nothing, on either bank).
        masks = [rng.random(corner) < 0.5 for corner in extent]
        masks[0][...] = data.draw(st.booleans())
        small.reprogram_cells(masks)
        whole.reprogram_cells(whole_tiles(whole, masks))
        same_corner()
        assert np.array_equal(small.write_pulses, whole.write_pulses
                              - (rows * cols - occupied))

        # The product.  Inputs are zero beyond a row tile's used rows, as
        # a matrix's zero-padded row chunks are: the whole-tile bank's
        # padding rows hold level-0 noise the extent bank does not have.
        group_rows = extent[:n_groups * n_col_tiles:n_col_tiles, 0]
        chunks = rng.normal(size=(n_groups, 2, rows)).astype(np.float32)
        chunks *= np.arange(rows) < group_rows[:, None, None]
        analog = tile_currents(small, chunks)
        columns = np.arange(cols) < extent[:, 1, None, None]
        columns = np.broadcast_to(columns, analog.shape)
        np.testing.assert_allclose(
            analog[columns], tile_currents(whole, chunks)[columns],
            rtol=1e-5, atol=1e-5)
        quantized = small.matmat(chunks)
        assert quantized.shape == (n_tiles, 2, cols)
        step = 2.0 * np.abs(chunks).sum(axis=2).max() / (2 ** adc_bits - 1)
        # Within half a step of them, give or take the analog
        # comparison's own tolerance.
        assert (np.abs(quantized - analog)
                <= step / 2 + 1e-5 * np.abs(analog) + 1e-5).all()
        # Sub-ulp GEMM differences may round across one ADC step.
        assert np.abs(quantized - whole.matmat(chunks)
                      )[columns].max() <= step * (1 + 1e-5)
        assert not quantized[~columns].any()
        assert (small.mvm_ops == 2).all()  # one product of two queries
        assert np.array_equal(small.adc_conversions, 2 * extent[:, 1])

        # A read bills the occupied cells it touches.
        blocks = [small.read_cells(tile) for tile in range(n_tiles)]
        assert [block.shape for block in blocks] == [tuple(s) for s in extent]
        assert np.array_equal(small.cell_reads, occupied)
        gain = device.n_levels - 1
        assert np.array_equal(whole_tiles(small, blocks),
                              whole_tiles(small) * gain)
        # So does a column range of every plane at once: each tile the
        # occupied rows it holds of the columns.
        col0 = data.draw(st.integers(0, shape[1] - 1))
        col1 = data.draw(st.integers(col0 + 1, shape[1]))
        planes = small.read_plane_columns(col0, col1)
        in_plane = np.arange(n_tiles) % n_col_tiles * cols
        width = (np.minimum(in_plane + extent[:, 1], col1)
                 - np.maximum(in_plane, col0)).clip(0)
        assert np.array_equal(small.cell_reads - occupied,
                              extent[:, 0] * width)
        n_planes = n_tiles // (n_groups * n_col_tiles)
        assert planes.shape == (shape[0], n_planes, col1 - col0)
        for index, corner in enumerate(extent):
            row_tile = index // n_col_tiles % n_groups
            col_tile = index % n_col_tiles
            lo = max(col0 - col_tile * cols, 0)
            hi = min(col1 - col_tile * cols, corner[1])
            if lo < hi:
                block = planes[row_tile * rows:row_tile * rows + corner[0],
                               index // (n_groups * n_col_tiles),
                               col_tile * cols + lo - col0:
                               col_tile * cols + hi - col0]
                assert np.array_equal(
                    block, tile_conductance(small, index)[:, lo:hi] * gain)

        # The snapshot is the corner, flat, and restores to itself.
        snap = small.snapshot()
        assert snap["conductance"].shape == (occupied.sum(),)
        assert snap["target_levels"].shape == (occupied.sum(),)
        twin = make_bank(device, n_tiles, rows, cols, seed + 1, shape,
                         sigma=sigma, adc_bits=adc_bits)
        twin.restore(decode_value(encode_value(snap)))
        assert encode_value(twin.snapshot()) == encode_value(snap)
        assert np.array_equal(twin.matmat(chunks), small.matmat(chunks))


# Two row tiles of 6 and 3 rows, two column tiles of 4 and 1 columns, on
# 6x4 subarrays: tile extents (6, 4), (6, 1), (3, 4), (3, 1).
SHAPE = (9, 5)


class TestRaggedSnapshots:
    """A snapshot's cells travel flat in tile order beside the ``extent``
    that shapes them; the whole-tile ``(n_tiles, rows, cols)`` stacks
    without an ``extent`` that builds before the occupied extent wrote
    are refused."""

    def make(self, seed=3):
        device = get_device("NVM-3")
        bank = make_bank(device, 4, 6, 4, seed, SHAPE)
        rng = np.random.default_rng(seed)
        bank.program([rng.integers(0, device.n_levels, shape)
                      for shape in bank.extent])
        return bank

    @staticmethod
    def as_whole_tiles(bank, snap, *, junk_level, junk_cell):
        old = dict(snap)
        extent = old.pop("extent")
        for key, junk in (("target_levels", junk_level),
                          ("conductance", junk_cell)):
            stack = np.full((bank.n_tiles, bank.rows, bank.cols), junk,
                            dtype=snap[key].dtype)
            offset = 0
            for tile, (used_rows, used_cols) in zip(stack, extent):
                size = used_rows * used_cols
                tile[:used_rows, :used_cols] = snap[key][
                    offset:offset + size].reshape(used_rows, used_cols)
                offset += size
            old[key] = stack
        return old

    def test_snapshot_restores_to_the_identical_bank(self):
        bank = self.make()
        assert bank.extent.tolist() == [[6, 4], [6, 1], [3, 4], [3, 1]]
        chunks = np.ones((2, 1, 6), dtype=np.float32)
        bank.matmat(chunks)
        twin = self.make(seed=9)
        twin.restore(decode_value(encode_value(bank.snapshot())))
        assert encode_value(twin.snapshot()) == encode_value(bank.snapshot())
        assert np.array_equal(twin.matmat(chunks), bank.matmat(chunks))
        # Later re-pulses included: the generators came along.
        masks = [np.ones(shape, bool) for shape in bank.extent]
        bank.reprogram_cells(masks)
        twin.reprogram_cells(masks)
        assert encode_value(twin.snapshot()) == encode_value(bank.snapshot())

    @pytest.mark.parametrize("whole_tiles", [True, False])
    def test_a_snapshot_without_an_extent_is_refused(self, whole_tiles):
        """Whole-tile stacks (what builds before the occupied extent
        wrote) or flat arrays: without an ``extent`` neither restores."""
        bank = self.make()
        snap = bank.snapshot()
        old = (self.as_whole_tiles(bank, snap, junk_level=3, junk_cell=7.0)
               if whole_tiles else {k: v for k, v in snap.items()
                                    if k != "extent"})
        twin = self.make(seed=9)
        before = encode_value(twin.snapshot())
        with pytest.raises(KeyError, match="extent"):
            twin.restore(decode_value(encode_value(old)))
        assert encode_value(twin.snapshot()) == before

    MALFORMED = {
        "extent-of-another-bank": lambda bank, snap: snap.update(
            extent=snap["extent"][::-1].copy()),
        "whole-tile-arrays-with-an-extent": lambda bank, snap: snap.update(
            TestRaggedSnapshots.as_whole_tiles(
                bank, snap, junk_level=0, junk_cell=0.0),
            extent=snap["extent"]),
        "corner-level-out-of-range": lambda bank, snap: snap.update(
            target_levels=np.where(np.arange(snap["target_levels"].size) == 0,
                                   np.uint8(9), snap["target_levels"])),
    }

    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_refused_means_untouched(self, field):
        bank = self.make()
        snap = bank.snapshot()
        self.MALFORMED[field](bank, snap)
        twin = self.make(seed=9)
        before = encode_value(twin.snapshot())
        with pytest.raises(ValueError):
            twin.restore(decode_value(encode_value(snap)))
        assert encode_value(twin.snapshot()) == before


class TestErasedCells:
    def make(self):
        return TestRaggedSnapshots().make()

    def test_addressing_an_erased_cell_is_refused_and_changes_nothing(self):
        bank = self.make()
        before = encode_value(bank.snapshot())
        whole = np.zeros((4, 6, 4), dtype=bool)
        whole[1, 5, 3] = True                  # tile 1 is (6, 1)
        with pytest.raises(ValueError, match="erased"):
            bank.reprogram_cells(whole)
        with pytest.raises(ValueError, match="erased"):
            bank.tile(1).reprogram_cells(whole[1])
        with pytest.raises(ValueError, match="erased"):
            bank.program(np.zeros((4, 6, 4), dtype=np.int64))
        with pytest.raises(IndexError):
            bank.read_cells(4)                 # there are four tiles
        with pytest.raises(ValueError, match="outside"):
            bank.read_plane_columns(2, 6)      # the planes are 5 wide
        assert encode_value(bank.snapshot()) == before
        # A tile reads its occupied corner; a column range of the planes
        # bills each tile the occupied cells it holds of those columns.
        assert [bank.read_cells(t).shape for t in (1, 2)] == [(6, 1), (3, 4)]
        assert bank.cell_reads.tolist() == [0, 6, 12, 0]
        assert bank.read_plane_columns(3, 5).shape == (9, 1, 2)
        assert bank.cell_reads.tolist() == [6, 12, 15, 3]
