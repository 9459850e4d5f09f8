"""``TileBank(chunk_index=...)`` is pure data movement.

However the tiles are grouped, the bank holds the same cells: given the
same generators and levels, everything read in tile order —
``conductance``, ``read_cells``, a re-pulse, the snapshot — is *exactly*
what an identity-grouped bank (one chunk per tile, the layout every
earlier build had) produces, and only the GEMM's operand shape differs.
"""

import numpy as np
import pytest

from repro.nvm import TileBank, available_devices, get_device
from repro.serve.codec import encode_value

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


@st.composite
def groupings(draw):
    """Every way to split ``n_groups * group_size`` tiles into equal
    groups: a shuffled ``repeat(arange(n_groups), group_size)``."""
    n_groups = draw(st.integers(1, 4))
    group_size = draw(st.integers(1, 4))
    index = np.repeat(np.arange(n_groups), group_size)
    return draw(st.permutations(index.tolist()).map(np.array))


def make_bank(device, chunk_index, rows, cols, sigma, adc_bits, seed,
              grouped):
    n_tiles = len(chunk_index)
    return TileBank(
        device, n_tiles, rows=rows, cols=cols, sigma=sigma,
        adc_bits=adc_bits,
        rngs=[np.random.default_rng([seed, t]) for t in range(n_tiles)],
        chunk_index=chunk_index if grouped else None)


def assert_same_state(grouped, identity):
    assert grouped.conductance.tobytes() == identity.conductance.tobytes()
    assert np.array_equal(grouped.target_levels, identity.target_levels)
    assert encode_value(grouped.snapshot()) == \
        encode_value(identity.snapshot())


class TestGroupingIsDataMovement:
    @settings(max_examples=60, deadline=None)
    @given(chunk_index=groupings(),
           device_name=st.sampled_from(available_devices()),
           rows=st.integers(1, 6), cols=st.integers(1, 5),
           sigma=st.sampled_from([0.0, 0.1, 0.3]),
           adc_bits=st.integers(4, 10), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_grouped_bank_equals_identity_bank(
            self, chunk_index, device_name, rows, cols, sigma, adc_bits,
            seed, data):
        device = get_device(device_name)
        n_tiles, n_groups = len(chunk_index), int(chunk_index.max()) + 1
        grouped, identity = (
            make_bank(device, chunk_index, rows, cols, sigma, adc_bits, seed,
                      grouped=flag) for flag in (True, False))
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, device.n_levels, (n_tiles, rows, cols))
        for bank in (grouped, identity):
            bank.program(levels)
        assert_same_state(grouped, identity)

        # A column-ranged read of some tiles, in caller order.
        tiles = np.array(data.draw(st.lists(
            st.integers(0, n_tiles - 1), min_size=1, max_size=n_tiles,
            unique=True)))
        col0 = data.draw(st.integers(0, cols - 1))
        col1 = data.draw(st.integers(col0 + 1, cols))
        assert encode_value(grouped.read_cells(tiles, col0, col1)) == \
            encode_value(identity.read_cells(tiles, col0, col1))
        assert grouped.tile(int(tiles[0])).conductance.tobytes() == \
            identity.conductance[tiles[0]].tobytes()

        # A masked re-pulse of those tiles (an empty mask draws nothing).
        masks = rng.random((len(tiles), rows, cols)) < 0.5
        masks[0] = data.draw(st.booleans())
        for bank in (grouped, identity):
            bank.reprogram_cells(masks, tiles=tiles)
        assert_same_state(grouped, identity)

        # The product: one GEMM per group vs one per tile.
        chunks = rng.normal(size=(n_groups, 2, rows)).astype(np.float32)
        np.testing.assert_allclose(
            grouped.matmat(chunks, quantize_output=False),
            identity.matmat(chunks[chunk_index], quantize_output=False),
            rtol=1e-5, atol=1e-5)
        step = (2.0 * np.abs(chunks).sum(axis=2).max()
                / (2 ** adc_bits - 1))
        quantized = grouped.matmat(chunks)
        assert quantized.shape == (n_tiles, 2, cols)
        # Sub-ulp GEMM differences may round across one ADC step.
        assert np.abs(quantized - identity.matmat(chunks[chunk_index])
                      ).max() <= step * (1 + 1e-5)
        for name in ("cells_programmed", "write_pulses", "mvm_ops",
                     "adc_conversions", "cell_reads"):
            assert np.array_equal(getattr(grouped, name),
                                  getattr(identity, name)), name
        assert_same_state(grouped, identity)

        # A snapshot does not remember the grouping it was taken under.
        twin = make_bank(device, chunk_index, rows, cols, sigma, adc_bits,
                         seed + 1, grouped=True)
        twin.restore(identity.snapshot())
        assert_same_state(twin, identity)
        assert np.array_equal(twin.matmat(chunks), grouped.matmat(chunks))

    @pytest.mark.parametrize("chunk_index", [
        [0, 0, 0, 1],              # unequal groups
        [0, 0, 2, 2],              # chunk 1 feeds no tile
        [-1, 0, 0, -1],            # negative entry
        [0, 1, 0],                 # wrong length: 3 for 4 tiles ...
        [0, 1, 0, 1, 0],           # ... and 5
        [[0, 1], [0, 1]],          # not a vector
        [0.0, 1.0, 0.0, 1.0],      # not integers
    ])
    def test_unusable_chunk_index_refused_at_construction(self, chunk_index):
        with pytest.raises(ValueError, match="chunk_index"):
            TileBank(get_device("NVM-3"), 4, rows=4, cols=3,
                     chunk_index=np.array(chunk_index))

    def test_chunks_must_match_the_grouping(self):
        bank = TileBank(get_device("NVM-3"), 4, rows=4, cols=3,
                        chunk_index=np.array([0, 1, 0, 1]))
        bank.program(np.zeros((4, 4, 3), dtype=np.int64))
        assert bank.matmat(np.ones((2, 1, 4), np.float32)).shape == (4, 1, 3)
        with pytest.raises(ValueError, match="n_chunks=2"):
            bank.matmat(np.ones((4, 1, 4), np.float32))
