"""Equivalence matrix: ``CiMMatrix`` (TileBank) vs the per-tile oracle.

``CiMMatrix`` must program bit-identical conductances (per tile,
independent of iteration order), read back identically, evaluate
matmat within float tolerance, and keep every operation counter in
lockstep with ``tests/oracles/per_tile_cim.py`` across devices, variation
levels, ADC resolutions and non-divisible tile geometries.  Both sides are
as big as their data: a tile that the matrix only partly covers holds,
pulses, multiplies and bills its occupied corner.
"""

import numpy as np
import pytest

from repro.cim import CiMMatrix
from repro.mitigation import SelectiveWriteVerify, make_mitigation
from repro.nvm import TileBank, get_device
from tests.oracles.cim_path import analog_matmat
from tests.oracles.per_tile_cim import (PerTileCiMMatrix, tile_conductance,
                                       tile_stats, tiles_with_slice)

RNG = np.random.default_rng(57)

DEVICES = ["NVM-1", "NVM-3"]
SIGMAS = [0.0, 0.15]
ADC_BITS = [4, 8]
# On 32x16 subarrays: single tile / ragged in both directions, two column
# tiles / exactly tiled / one row over / one column over / 3x3 tiles with
# ragged last row and column tiles.
SHAPES = [(20, 7), (50, 23), (64, 16), (33, 16), (32, 17), (70, 40)]
# What a spine user deploys: two OVTs as the columns of one store per
# scale, on the paper's 384x128 subarrays.
SPINE_SHAPES = [(768, 2), (384, 2), (192, 2)]


def make_pair(values, *, device="NVM-3", sigma=0.1, adc_bits=8, seed=7,
              mitigation_name=None, rows=32, cols=16):
    """The same matrix on the oracle and on ``CiMMatrix``, same seed."""
    pair = []
    for layout in (PerTileCiMMatrix, CiMMatrix):
        mitigation = (make_mitigation(mitigation_name)
                      if mitigation_name else None)
        pair.append(layout(values, get_device(device), sigma=sigma,
                           rows=rows, cols=cols, adc_bits=adc_bits,
                           mitigation=mitigation,
                           rng=np.random.default_rng(seed)))
    return pair


def run_workload(matrix, x, batch, columns=(1, 3)):
    """A fixed mixed workload whose counters must match across layouts."""
    matrix.matmat(x[None])
    matrix.matmat(x[::-1][None])
    matrix.matmat(batch)
    matrix.read_matrix()
    matrix.read_columns(*columns)


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("adc_bits", ADC_BITS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_layouts_agree(self, device, sigma, adc_bits, shape):
        w = RNG.normal(size=shape).astype(np.float32)
        ref, vec = make_pair(w, device=device, sigma=sigma,
                             adc_bits=adc_bits)
        # Programmed conductances are bit-identical, tile for tile.
        for (s_ref, t_ref), (s_vec, t_vec) in zip(
                ref.iter_tiles_with_slice(), tiles_with_slice(vec)):
            assert s_ref == s_vec
            np.testing.assert_array_equal(t_ref.conductance,
                                          tile_conductance(vec.bank, t_vec))
            np.testing.assert_array_equal(t_ref.target_levels,
                                          vec.bank.tile(t_vec).target_levels)
        # Noisy read-backs agree exactly; compute agrees to float tolerance.
        np.testing.assert_array_equal(ref.read_matrix(), vec.read_matrix())
        x = RNG.normal(size=shape[0]).astype(np.float32)
        np.testing.assert_allclose(ref.matmat(x[None]), vec.matmat(x[None]),
                                   rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(
            ref.matmat(x[None], quantize_output=False),
            analog_matmat(vec, x[None]), rtol=1e-3, atol=1e-3)
        batch = RNG.normal(size=(3, shape[0])).astype(np.float32)
        np.testing.assert_allclose(ref.matmat(batch), vec.matmat(batch),
                                   rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_stats_parity(self, shape):
        w = RNG.normal(size=shape).astype(np.float32)
        ref, vec = make_pair(w, sigma=0.1)
        x = RNG.normal(size=shape[0]).astype(np.float32)
        batch = RNG.normal(size=(4, shape[0])).astype(np.float32)
        run_workload(ref, x, batch)
        run_workload(vec, x, batch)
        assert ref.aggregate_stats() == vec.aggregate_stats()

    @pytest.mark.parametrize("shape", SPINE_SHAPES)
    @pytest.mark.parametrize("mitigation_name", [None, "swv"])
    def test_spine_shapes_agree(self, shape, mitigation_name):
        w = RNG.normal(size=shape).astype(np.float32)
        ref, vec = make_pair(w, sigma=0.1, rows=384, cols=128,
                             mitigation_name=mitigation_name)
        for (_, t_ref), (_, t_vec) in zip(ref.iter_tiles_with_slice(),
                                          tiles_with_slice(vec)):
            cells = tile_conductance(vec.bank, t_vec)
            assert cells.shape == (min(shape[0], 384), 2)
            np.testing.assert_array_equal(t_ref.conductance, cells)
        x = RNG.normal(size=shape[0]).astype(np.float32)
        batch = RNG.normal(size=(4, shape[0])).astype(np.float32)
        run_workload(ref, x, batch, columns=(1, 2))
        run_workload(vec, x, batch, columns=(1, 2))
        np.testing.assert_allclose(ref.matmat(batch), vec.matmat(batch),
                                   rtol=1e-3, atol=1e-3)
        stats = vec.aggregate_stats()
        assert ref.aggregate_stats() == stats
        # Occupied cells only: 2 of every 128 columns, shape[0] rows.
        assert stats.cells_programmed == vec.n_slices * shape[0] * 2
        assert vec.bank.nbytes == stats.cells_programmed * 5

    def test_batched_counters_scale_with_batch_width(self):
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        _, vec = make_pair(w, sigma=0.1)
        base = vec.aggregate_stats()
        batch = RNG.normal(size=(5, 50)).astype(np.float32)
        vec.matmat(batch)
        stats = vec.aggregate_stats()
        assert stats.mvm_ops - base.mvm_ops == 5 * vec.n_subarrays
        # One conversion per occupied column: every slice and row tile
        # converts the matrix's 23 columns once (16 + 7 over two column
        # tiles), not 2 x 16.
        assert (stats.adc_conversions - base.adc_conversions
                == 5 * vec.n_slices * vec.n_row_tiles * 23)

    def test_matmat_rows_equal_single_matvecs(self):
        """Batched evaluation is bit-identical to one query at a time."""
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        _, vec = make_pair(w, sigma=0.1)
        batch = RNG.normal(size=(6, 50)).astype(np.float32)
        out = vec.matmat(batch)
        for i in range(6):
            np.testing.assert_array_equal(out[i:i + 1],
                                          vec.matmat(batch[i:i + 1]))


class TestMitigationEquivalence:
    @pytest.mark.parametrize("name", ["swv", "cxdnn", "correctnet"])
    def test_read_and_stats_agree(self, name):
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        ref, vec = make_pair(w, sigma=0.15, mitigation_name=name)
        np.testing.assert_array_equal(ref.read_matrix(), vec.read_matrix())
        np.testing.assert_array_equal(ref.read_columns(2, 5),
                                      vec.read_columns(2, 5))
        x = RNG.normal(size=50).astype(np.float32)
        np.testing.assert_allclose(ref.matmat(x[None]), vec.matmat(x[None]),
                                   rtol=1e-3, atol=1e-3)
        assert ref.aggregate_stats() == vec.aggregate_stats()

    def test_swv_multi_iteration_parity(self):
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        pair = []
        for layout in (PerTileCiMMatrix, CiMMatrix):
            pair.append(layout(
                w, get_device("NVM-3"), sigma=0.3, rows=32, cols=16,
                mitigation=SelectiveWriteVerify(max_iterations=3),
                rng=np.random.default_rng(11)))
        ref, vec = pair
        np.testing.assert_array_equal(ref.read_matrix(), vec.read_matrix())
        assert ref.aggregate_stats() == vec.aggregate_stats()

    def test_batched_output_correction_matches_per_query(self):
        """CxDNN/CorrectNet corrections broadcast over batched outputs."""
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        for name in ("cxdnn", "correctnet"):
            _, vec = make_pair(w, sigma=0.15, mitigation_name=name)
            batch = RNG.normal(size=(3, 50)).astype(np.float32)
            out = vec.matmat(batch)
            for i in range(3):
                np.testing.assert_array_equal(out[i:i + 1],
                                              vec.matmat(batch[i:i + 1]))


class TestColumnRangeRead:
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_equals_full_read_columns(self, vectorized):
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        layout = CiMMatrix if vectorized else PerTileCiMMatrix
        matrix = layout(w, get_device("NVM-3"), sigma=0.1, rows=32,
                        cols=16, rng=np.random.default_rng(3))
        full = matrix.read_matrix()
        for col0, col1 in [(0, 1), (5, 6), (14, 19), (0, 23)]:
            np.testing.assert_array_equal(matrix.read_columns(col0, col1),
                                          full[:, col0:col1])

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_bills_only_cells_read(self, vectorized):
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        layout = CiMMatrix if vectorized else PerTileCiMMatrix
        matrix = layout(w, get_device("NVM-3"), sigma=0.0, rows=32,
                        cols=16, rng=np.random.default_rng(3))
        before = matrix.aggregate_stats().cell_reads
        matrix.read_columns(2, 4)
        delta = matrix.aggregate_stats().cell_reads - before
        # One column tile covers columns [0, 16): every slice reads the
        # occupied rows of that tile column (32 + 18 of the matrix's 50),
        # 2 columns each.
        assert delta == matrix.n_slices * 50 * 2
        # Far below a full-matrix read, which bills what the store holds.
        matrix.read_matrix()
        full_read = matrix.aggregate_stats().cell_reads - before - delta
        assert full_read == matrix.n_slices * 50 * 23
        assert delta < full_read / 10

    def test_range_validation(self):
        w = RNG.normal(size=(20, 7)).astype(np.float32)
        matrix = CiMMatrix(w, get_device("NVM-3"), rows=32, cols=16)
        with pytest.raises(ValueError):
            matrix.read_columns(3, 3)
        with pytest.raises(ValueError):
            matrix.read_columns(0, 8)


class TestSpawnedTileStreams:
    def test_reprogram_order_independent(self):
        """Per-tile streams: re-pulsing tiles in any order draws the same
        noise for each tile (the pre-spawn layout consumed one shared
        stream, so order mattered)."""
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        mats = [PerTileCiMMatrix(w, get_device("NVM-3"), sigma=0.2, rows=32,
                                 cols=16, rng=np.random.default_rng(5))
                for _ in range(2)]
        tiles_a = list(mats[0].iter_tiles())
        tiles_b = list(mats[1].iter_tiles())
        # A tile is as big as its data: 3 is the ragged (18, 7) corner
        # tile, 5 the (32, 7) one above it in the next slice.
        masks = {t: np.ones(tiles_a[t].conductance.shape, dtype=bool)
                 for t in (3, 5)}
        assert [m.shape for m in masks.values()] == [(18, 7), (32, 7)]
        tiles_a[3].reprogram_cells(masks[3])
        tiles_a[5].reprogram_cells(masks[5])
        tiles_b[5].reprogram_cells(masks[5])
        tiles_b[3].reprogram_cells(masks[3])
        np.testing.assert_array_equal(mats[0].read_matrix(),
                                      mats[1].read_matrix())

    def test_same_seed_same_programming(self):
        w = RNG.normal(size=(50, 23)).astype(np.float32)
        a, _ = make_pair(w, sigma=0.2, seed=9)
        b, _ = make_pair(w, sigma=0.2, seed=9)
        np.testing.assert_array_equal(a.read_matrix(), b.read_matrix())


class TestTileBank:
    def _bank(self, n_tiles=4, rows=8, cols=4):
        rngs = [np.random.default_rng(i) for i in range(n_tiles)]
        return TileBank(get_device("NVM-3"), n_tiles, rows=rows, cols=cols,
                        sigma=0.1, rngs=rngs)

    def test_requires_programming(self):
        bank = self._bank()
        with pytest.raises(RuntimeError):
            bank.read_cells(0)
        with pytest.raises(RuntimeError):
            bank.matmat(np.zeros((4, 1, 8), dtype=np.float32))

    def test_validation(self):
        with pytest.raises(ValueError):
            TileBank(get_device("NVM-3"), 0)
        with pytest.raises(ValueError):
            TileBank(get_device("NVM-3"), 2, adc_bits=1)
        with pytest.raises(ValueError):
            TileBank(get_device("NVM-3"), 2,
                     rngs=[np.random.default_rng(0)])
        bank = self._bank()
        with pytest.raises(ValueError):
            bank.program(np.zeros((2, 8, 4), dtype=np.int64))

    def test_tile_view_surface(self):
        bank = self._bank()
        levels = RNG.integers(0, 4, size=(4, 8, 4))
        bank.program(levels)
        view = bank.tile(2)
        np.testing.assert_array_equal(view.target_levels, levels[2])
        assert tile_stats(bank, 2).cells_programmed == 8 * 4
        before = tile_conductance(bank, 2).copy()
        mask = np.zeros((8, 4), dtype=bool)
        mask[0] = True
        view.reprogram_cells(mask)
        after = tile_conductance(bank, 2)
        assert not np.allclose(after[0], before[0])
        np.testing.assert_allclose(after[1:], before[1:])
        assert tile_stats(bank, 2).write_pulses == 8 * 4 + 4

    def test_matmat_counts_and_shapes(self):
        bank = self._bank()
        bank.program(np.zeros((4, 8, 4), dtype=np.int64))
        out = bank.matmat(np.ones((4, 3, 8), dtype=np.float32))
        assert out.shape == (4, 3, 4)
        stats = bank.aggregate_stats()
        assert stats.mvm_ops == 4 * 3
        assert stats.adc_conversions == 4 * 3 * 4

    def test_zero_input_full_scale_guard(self):
        bank = self._bank()
        bank.program(RNG.integers(0, 4, size=(4, 8, 4)))
        out = bank.matmat(np.zeros((4, 1, 8), dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros_like(out))
