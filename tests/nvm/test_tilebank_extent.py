"""``TileBank(extent=...)``: a bank is as big as its data.

A tile's occupied extent is the corner of the subarray that holds data;
the rest is erased.  Given the same generators, an extent bank is bit for
bit the occupied corner of the whole-tile bank programmed with the same
levels (zero outside the extent) — the bank every earlier build held —
and it pulses, converts, reads, holds and snapshots only that corner.
"""

import numpy as np
import pytest

from repro.nvm import TileBank, available_devices, get_device
from repro.serve.codec import decode_value, encode_value
from tests.nvm.test_tilebank_grouping import groupings

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings



def make_bank(device, chunk_index, rows, cols, seed, extent=None, **kwargs):
    n_tiles = len(chunk_index)
    return TileBank(
        device, n_tiles, rows=rows, cols=cols, chunk_index=chunk_index,
        rngs=[np.random.default_rng([seed, t]) for t in range(n_tiles)],
        extent=extent, **kwargs)


def corners(bank, blocks):
    """Per-tile blocks as a whole-tile stack, zero outside each extent."""
    stack = np.zeros((bank.n_tiles, bank.rows, bank.cols),
                     dtype=np.asarray(blocks[0]).dtype)
    for tile, block in zip(stack, blocks):
        tile[:block.shape[0], :block.shape[1]] = block
    return stack


class TestExtentIsTheOccupiedCorner:
    @settings(max_examples=60, deadline=None)
    @given(chunk_index=groupings(),
           device_name=st.sampled_from(available_devices()),
           rows=st.integers(1, 6), cols=st.integers(1, 5),
           sigma=st.sampled_from([0.0, 0.1, 0.3]),
           adc_bits=st.integers(4, 10), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_extent_bank_equals_corner_of_whole_tile_bank(
            self, chunk_index, device_name, rows, cols, sigma, adc_bits,
            seed, data):
        device = get_device(device_name)
        n_tiles, n_groups = len(chunk_index), int(chunk_index.max()) + 1
        group_rows = np.array(data.draw(st.lists(
            st.integers(1, rows), min_size=n_groups, max_size=n_groups)))
        extent = np.stack([group_rows[chunk_index], data.draw(st.lists(
            st.integers(1, cols), min_size=n_tiles, max_size=n_tiles))],
            axis=1)
        occupied = extent.prod(axis=1)
        small, whole = (
            make_bank(device, chunk_index, rows, cols, seed, extent=e,
                      sigma=sigma, adc_bits=adc_bits) for e in (extent, None))
        assert np.array_equal(small.extent, extent)
        assert (whole.extent == (rows, cols)).all()

        rng = np.random.default_rng(seed)
        levels = [rng.integers(0, device.n_levels, shape) for shape in extent]
        small.program(levels)
        whole.program(corners(whole, levels))
        inside = corners(small, [np.ones(shape, bool) for shape in extent])

        def same_corner():
            assert np.array_equal(small.conductance[inside],
                                  whole.conductance[inside])
            assert not small.conductance[~inside].any()
            assert np.array_equal(small.target_levels,
                                  whole.target_levels)
            for index, shape in enumerate(extent):
                view = small.tile(index)
                assert view.conductance.shape == tuple(shape)
                assert np.array_equal(
                    view.conductance,
                    whole.conductance[index, :shape[0], :shape[1]])

        same_corner()
        assert small.nbytes == occupied.sum() * 5
        assert np.array_equal(small.write_pulses, occupied)
        assert np.array_equal(small.cells_programmed, occupied)

        # A masked re-pulse (an empty mask draws nothing, on either bank).
        masks = [rng.random(shape) < 0.5 for shape in extent]
        masks[0][...] = data.draw(st.booleans())
        small.reprogram_cells(masks)
        whole.reprogram_cells(corners(whole, masks))
        same_corner()
        assert np.array_equal(small.write_pulses, whole.write_pulses
                              - (rows * cols - occupied))

        # The product.  Inputs are zero beyond a group's used rows, as a
        # matrix's zero-padded row chunks are: the whole-tile bank's
        # padding rows hold level-0 noise the extent bank does not have.
        chunks = rng.normal(size=(n_groups, 2, rows)).astype(np.float32)
        chunks *= np.arange(rows) < group_rows[:, None, None]
        analog = small.matmat(chunks, quantize_output=False)
        assert analog.shape == (n_tiles, 2, cols)
        columns = np.arange(cols) < extent[:, 1, None, None]
        columns = np.broadcast_to(columns, analog.shape)
        np.testing.assert_allclose(
            analog[columns],
            whole.matmat(chunks, quantize_output=False)[columns],
            rtol=1e-5, atol=1e-5)
        assert not analog[~columns].any()
        quantized = small.matmat(chunks)
        step = 2.0 * np.abs(chunks).sum(axis=2).max() / (2 ** adc_bits - 1)
        # Sub-ulp GEMM differences may round across one ADC step.
        assert np.abs(quantized - whole.matmat(chunks)
                      )[columns].max() <= step * (1 + 1e-5)
        assert not quantized[~columns].any()
        assert (small.mvm_ops == 2 * 2).all()
        assert np.array_equal(small.adc_conversions, 2 * extent[:, 1])

        # A read bills the occupied cells it touches.
        blocks = small.read_cells()
        assert [block.shape for block in blocks] == [tuple(s) for s in extent]
        assert np.array_equal(small.cell_reads, occupied)
        gain = device.n_levels - 1
        assert np.array_equal(corners(small, blocks),
                              small.conductance * gain)

        # The snapshot is the corner, flat, and restores to itself.
        snap = small.snapshot()
        assert snap["conductance"].shape == (occupied.sum(),)
        assert snap["target_levels"].shape == (occupied.sum(),)
        twin = make_bank(device, chunk_index, rows, cols, seed + 1,
                         extent=extent, sigma=sigma, adc_bits=adc_bits)
        twin.restore(decode_value(encode_value(snap)))
        assert encode_value(twin.snapshot()) == encode_value(snap)
        assert np.array_equal(twin.matmat(chunks), small.matmat(chunks))


class TestWholeTileSnapshots:
    """What every build before the occupied extent wrote: whole-tile
    ``(n_tiles, rows, cols)`` stacks and no ``extent``."""

    def make(self, seed=3, extent=((5, 2), (5, 4), (3, 1), (3, 3))):
        device = get_device("NVM-3")
        bank = make_bank(device, np.array([0, 0, 1, 1]), 6, 4, seed,
                         extent=np.array(extent))
        rng = np.random.default_rng(seed)
        bank.program([rng.integers(0, device.n_levels, shape)
                      for shape in extent])
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

    def test_old_snapshot_restores_to_the_identical_bank(self):
        """The occupied corner is kept; what sat in the padding (zeros in
        every blob a build wrote, junk here) is dropped."""
        bank = self.make()
        chunks = np.ones((2, 1, 6), dtype=np.float32)
        bank.matmat(chunks)
        old = self.as_whole_tiles(bank, bank.snapshot(), junk_level=3,
                                  junk_cell=7.0)
        twin = self.make(seed=9)
        twin.restore(decode_value(encode_value(old)))
        assert encode_value(twin.snapshot()) == encode_value(bank.snapshot())
        assert np.array_equal(twin.matmat(chunks), bank.matmat(chunks))
        # Later re-pulses included: the generators came along.
        masks = [np.ones(shape, bool) for shape in bank.extent]
        bank.reprogram_cells(masks)
        twin.reprogram_cells(masks)
        assert encode_value(twin.snapshot()) == encode_value(bank.snapshot())

    MALFORMED = {
        "extent-of-another-bank": lambda bank, snap: snap.update(
            extent=snap["extent"][::-1].copy()),
        "flat-arrays-without-an-extent": lambda bank, snap:
            snap.pop("extent"),
        "whole-tile-arrays-with-an-extent": lambda bank, snap: snap.update(
            TestWholeTileSnapshots.as_whole_tiles(
                bank, snap, junk_level=0, junk_cell=0.0),
            extent=snap["extent"]),
        "corner-level-out-of-range": lambda bank, snap: snap.update(
            target_levels=np.where(np.arange(snap["target_levels"].size) == 0,
                                   9, snap["target_levels"])),
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
        return TestWholeTileSnapshots().make()

    @pytest.mark.parametrize("extent", [
        [(0, 2), (5, 4), (3, 1), (3, 3)],      # no rows
        [(5, 2), (5, 5), (3, 1), (3, 3)],      # more columns than the tile
        [(7, 2), (7, 4), (3, 1), (3, 3)],      # more rows than the tile
        [(5, 2), (4, 4), (3, 1), (3, 3)],      # unequal rows in group 0
        [(5, 2), (5, 4), (3, 1)],              # one tile short
        [(5.0, 2.0)] * 4,                      # not integers
    ])
    def test_unusable_extent_refused_at_construction(self, extent):
        with pytest.raises(ValueError, match="extent"):
            TileBank(get_device("NVM-3"), 4, rows=6, cols=4,
                     chunk_index=np.array([0, 0, 1, 1]),
                     extent=np.array(extent))

    def test_addressing_an_erased_cell_is_refused_and_changes_nothing(self):
        bank = self.make()
        before = encode_value(bank.snapshot())
        whole = np.zeros((4, 6, 4), dtype=bool)
        whole[0, 5, 3] = True                  # tile 0 is (5, 2)
        with pytest.raises(ValueError, match="erased"):
            bank.reprogram_cells(whole)
        with pytest.raises(ValueError, match="erased"):
            bank.tile(0).reprogram_cells(whole[0])
        with pytest.raises(ValueError, match="erased"):
            bank.program(np.zeros((4, 6, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="occupied"):
            bank.read_cells(col0=0, col1=2)    # tile 2 has one column
        with pytest.raises(ValueError, match="occupied"):
            bank.read_cells(tiles=[0], col0=2, col1=3)
        assert encode_value(bank.snapshot()) == before
        assert [b.shape for b in bank.read_cells(tiles=[1, 3], col0=1,
                                                 col1=3)] == [(5, 2), (3, 2)]
        assert bank.cell_reads.tolist() == [0, 10, 0, 6]
