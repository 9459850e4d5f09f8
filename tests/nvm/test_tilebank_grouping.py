"""``TileBank(shape=...)`` is pure data movement.

A bank cut on a grid holds each row tile's tiles side by side, the GEMM
operand of the chunk they share.  Given the same generators and levels,
everything read in tile order — a tile's cells, ``read_cells``, a
column range of some tiles, a re-pulse, the snapshot — is *exactly* what the default bank (one row of
whole tiles, one chunk per tile, the layout every earlier build had)
produces, and only the GEMM's operand shape differs.
"""

import numpy as np
import pytest

from repro.nvm import TileBank, available_devices, get_device
from repro.serve.codec import encode_value
from tests.oracles.crossbar import whole_tiles
from tests.oracles.per_tile_cim import (read_cell_range, tile_conductance,
                                       tile_currents)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


@st.composite
def grids(draw, ragged=False):
    """``(rows, cols, n_tiles, shape)``: ``rows x cols`` tiles, one to
    three planes of a grid of at most 3 x 2 tiles, and the ``shape`` each
    plane holds — whole tiles, or (``ragged``) any shape that needs that
    grid, so its last row and column tiles are partly erased."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    n_planes = draw(st.integers(1, 3))
    n_row_tiles, n_col_tiles = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    d, n = n_row_tiles * rows, n_col_tiles * cols
    if ragged:
        d = draw(st.integers(d - rows + 1, d))
        n = draw(st.integers(n - cols + 1, n))
    return rows, cols, n_planes * n_row_tiles * n_col_tiles, (d, n)


def row_tiles(bank):
    """The row tile — the input chunk — of every tile, in tile order."""
    n_row_tiles = -(-bank.shape[0] // bank.rows)
    n_col_tiles = -(-bank.shape[1] // bank.cols)
    return np.arange(bank.n_tiles) // n_col_tiles % n_row_tiles


def make_bank(device, n_tiles, rows, cols, sigma, adc_bits, seed, shape):
    return TileBank(
        device, n_tiles, rows=rows, cols=cols, sigma=sigma,
        adc_bits=adc_bits,
        rngs=[np.random.default_rng([seed, t]) for t in range(n_tiles)],
        shape=shape)


def assert_same_state(grouped, identity):
    for name in ("conductance", "target_levels"):
        assert whole_tiles(grouped, name).tobytes() == \
            whole_tiles(identity, name).tobytes()
    assert encode_value(grouped.snapshot()) == \
        encode_value(identity.snapshot())


class TestGroupingIsDataMovement:
    @settings(max_examples=60, deadline=None)
    @given(grid=grids(),
           device_name=st.sampled_from(available_devices()),
           sigma=st.sampled_from([0.0, 0.1, 0.3]),
           adc_bits=st.integers(4, 10), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_grouped_bank_equals_identity_bank(
            self, grid, device_name, sigma, adc_bits, seed, data):
        device = get_device(device_name)
        rows, cols, n_tiles, shape = grid
        grouped, identity = (
            make_bank(device, n_tiles, rows, cols, sigma, adc_bits, seed,
                      shape=s) for s in (shape, None))
        assert identity.shape == (n_tiles * rows, cols)
        chunk_index = row_tiles(grouped)
        n_groups = int(chunk_index.max()) + 1
        # The cell array's rows, cut into row tiles: one per input chunk.
        assert -(-len(grouped._cells) // rows) == n_groups
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, device.n_levels, (n_tiles, rows, cols))
        for bank in (grouped, identity):
            bank.program(levels)
        assert_same_state(grouped, identity)

        # Some tiles' reads, and a column range of them, in caller order.
        tiles = np.array(data.draw(st.lists(
            st.integers(0, n_tiles - 1), min_size=1, max_size=n_tiles,
            unique=True)))
        col0 = data.draw(st.integers(0, cols - 1))
        col1 = data.draw(st.integers(col0 + 1, cols))
        assert encode_value([grouped.read_cells(t) for t in tiles]) == \
            encode_value([identity.read_cells(t) for t in tiles])
        assert encode_value(read_cell_range(grouped, tiles, col0, col1)) == \
            encode_value(read_cell_range(identity, tiles, col0, col1))
        assert tile_conductance(grouped, int(tiles[0])).tobytes() == \
            tile_conductance(identity, int(tiles[0])).tobytes()

        # A masked re-pulse of those tiles (an empty mask draws nothing).
        masks = rng.random((len(tiles), rows, cols)) < 0.5
        masks[0] = data.draw(st.booleans())
        for bank in (grouped, identity):
            bank.reprogram_cells(masks, tiles=tiles)
        assert_same_state(grouped, identity)

        # The product: one GEMM per row tile vs one per tile.  Before the
        # ADC both banks' cells carry the same currents.
        chunks = rng.normal(size=(n_groups, 2, rows)).astype(np.float32)
        analog = tile_currents(grouped, chunks)
        np.testing.assert_allclose(
            analog, tile_currents(identity, chunks[chunk_index]),
            rtol=1e-5, atol=1e-5)
        step = (2.0 * np.abs(chunks).sum(axis=2).max()
                / (2 ** adc_bits - 1))
        quantized = grouped.matmat(chunks)
        assert quantized.shape == (n_tiles, 2, cols)
        # Within half a step of them, give or take the analog
        # comparison's own tolerance.
        assert (np.abs(quantized - analog)
                <= step / 2 + 1e-5 * np.abs(analog) + 1e-5).all()
        # Sub-ulp GEMM differences may round across one ADC step.
        assert np.abs(quantized - identity.matmat(chunks[chunk_index])
                      ).max() <= step * (1 + 1e-5)
        for name in ("cells_programmed", "write_pulses", "mvm_ops",
                     "adc_conversions", "cell_reads"):
            assert np.array_equal(getattr(grouped, name),
                                  getattr(identity, name)), name
        assert_same_state(grouped, identity)

        # A snapshot does not remember the layout it was taken under.
        twin = make_bank(device, n_tiles, rows, cols, sigma, adc_bits,
                         seed + 1, shape=shape)
        twin.restore(identity.snapshot())
        assert_same_state(twin, identity)
        assert np.array_equal(twin.matmat(chunks), grouped.matmat(chunks))

    @pytest.mark.parametrize("shape", [
        (0, 3),                    # no rows
        (4, -1),                   # negative columns
        (4, 3, 1),                 # not a pair ...
        [[4, 3]],                  # ... nor a vector
        (4.0, 3.0),                # not integers
        (True, True),              # nor booleans
        (12, 3),                   # 3 row tiles a plane: 4 tiles are not
        (8, 9),                    # ... whole planes, nor are 2 x 3
        (17, 3),                   # a plane needs 5 tiles, the bank has 4
    ])
    def test_unusable_shape_refused_at_construction(self, shape):
        with pytest.raises(ValueError, match="shape"):
            TileBank(get_device("NVM-3"), 4, rows=4, cols=3, shape=shape)

    def test_chunks_must_match_the_grouping(self):
        bank = TileBank(get_device("NVM-3"), 4, rows=4, cols=3, shape=(8, 3))
        bank.program(np.zeros((4, 4, 3), dtype=np.int64))
        assert bank.matmat(np.ones((2, 1, 4), np.float32)).shape == (4, 1, 3)
        with pytest.raises(ValueError, match="n_chunks=2"):
            bank.matmat(np.ones((4, 1, 4), np.float32))
