"""The layout of a bank's snapshot, across geometries.

A snapshot's ``conductance`` and ``target_levels`` are, by definition,
every tile's occupied block raveled row-major and concatenated in tile
order (``(plane, row_tile, col_tile)``, C order).  The bank copies
between that and its row-tile groups a band of like tiles at a time, all
planes at once, and within a band a run of occupied columns at a time;
whatever the geometry — several planes, several row and column tiles,
partial last tiles, one tile, whole tiles, runs one cell wide — the
arrays must be that concatenation, and ``restore`` must bring every cell
back bit for bit.
"""

import numpy as np
import pytest

from repro.nvm import TileBank, get_device
from repro.serve.codec import decode_value, encode_value
from tests.nvm.test_tilebank_grouping import grids
from tests.oracles.per_tile_cim import tile_conductance

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

DEVICE = get_device("NVM-3")


def programmed_bank(n_tiles, rows, cols, shape, seed):
    bank = TileBank(DEVICE, n_tiles, rows=rows, cols=cols, shape=shape,
                    rngs=[np.random.default_rng([seed, t])
                          for t in range(n_tiles)])
    rng = np.random.default_rng(seed)
    bank.program([rng.integers(0, DEVICE.n_levels, tuple(corner))
                  for corner in bank.extent])
    return bank


def tile_order(bank, attribute):
    """The layout's definition: each tile's block raveled, in tile order."""
    return np.concatenate([tile_block(bank, t, attribute).ravel()
                           for t in range(bank.n_tiles)])


def tile_block(bank, t, attribute):
    """Tile ``t``'s occupied ``conductance`` or ``target_levels``."""
    if attribute == "conductance":
        return tile_conductance(bank, t)
    return bank.tile(t).target_levels


def check_layout(bank, seed):
    snap = bank.snapshot()
    for key in ("conductance", "target_levels"):
        expected = tile_order(bank, key)
        assert snap[key].dtype == expected.dtype
        assert snap[key].tobytes() == expected.tobytes()
    twin = programmed_bank(bank.n_tiles, bank.rows, bank.cols, bank.shape,
                           seed + 1)
    twin.restore(decode_value(encode_value(snap)))
    for t in range(bank.n_tiles):
        for key in ("conductance", "target_levels"):
            restored = tile_block(twin, t, key)
            assert restored.tobytes() == tile_block(bank, t, key).tobytes()
            assert restored.flags.writeable
    assert encode_value(twin.snapshot()) == encode_value(snap)
    chunks = np.random.default_rng(seed).normal(
        size=(-(-bank.shape[0] // bank.rows), 3, bank.rows)
    ).astype(np.float32)
    assert np.array_equal(twin.matmat(chunks), bank.matmat(chunks))


@settings(max_examples=60, deadline=None)
@given(grid=grids(ragged=True), seed=st.integers(0, 2 ** 32 - 1))
def test_snapshot_is_the_tile_order_concatenation(grid, seed):
    rows, cols, n_tiles, shape = grid
    check_layout(programmed_bank(n_tiles, rows, cols, shape, seed), seed)


@pytest.mark.parametrize("n_tiles, rows, cols, shape", [
    (18, 4, 3, (10, 5)),     # 3 planes of 3 x 2 tiles, both last ones partial
    (12, 4, 3, (12, 6)),     # 2 planes of 3 x 2 whole tiles
    (8, 5, 4, (7, 8)),       # 2 planes of 2 x 2, partial last row tile
    (6, 5, 4, (5, 9)),       # 2 planes of 1 x 3, partial last column tile
    (1, 6, 5, (4, 3)),       # a single, partial tile
    (1, 6, 5, (6, 5)),       # a single whole tile
    (4, 6, 5, None),         # whole tiles, one row tile each
    (6, 4, 3, (10, 1)),      # one column (a one-OVT library): 1-cell runs
    (16, 384, 128, (768, 2)),  # a session's store: 8 planes of 2 x 1
    (18, 4, 3, (10, 7)),     # 2 planes of 3 x 3, the last column tile 1 wide
], ids=["planes-ragged", "planes-whole", "ragged-rows", "ragged-cols",
        "one-partial-tile", "one-whole-tile", "default-shape", "one-column",
        "session-store", "one-column-last-tile"])
def test_layout_of_named_geometries(n_tiles, rows, cols, shape):
    check_layout(programmed_bank(n_tiles, rows, cols, shape, 7), 7)
