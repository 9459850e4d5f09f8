"""The cost model prices what the crossbar counts.

One MVM over a bank is billed tile by tile from the bank's ``extent``:
one array read per tile, one conversion per occupied column, one cell
read per occupied cell.  These tests hold the price to the counters a
real ``matmat`` moves, so the number on an answer is the simulator's own.
"""

import numpy as np
import pytest

from repro.cim import (CIM_TECH, CPU_JETSON_ORIN, cim_cost, cpu_cost,
                       retrieval_cost)
from repro.nvm import TileBank, get_device, tile_extents
from tests.nvm.test_tilebank_grouping import grids

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


class TestTileExtents:
    def test_a_dividing_shape_is_whole_tiles(self):
        extent = tile_extents((768, 256))
        assert extent.dtype == np.int64
        assert extent.tolist() == [[384, 128]] * 4

    def test_only_the_last_row_and_column_tiles_are_partial(self):
        # Tiles run (row_tile, col_tile) in C order.
        assert tile_extents((400, 130)).tolist() == [
            [384, 128], [384, 2], [16, 128], [16, 2]]
        assert tile_extents((5, 3), rows=4, cols=2).tolist() == [
            [4, 2], [4, 1], [1, 2], [1, 1]]

    def test_planes_repeat_one_grid(self):
        plane = tile_extents((400, 130))
        assert np.array_equal(tile_extents((400, 130), 3),
                              np.tile(plane, (3, 1)))

    def test_a_paper_scale_library_costs_no_cells(self):
        # 1e5 OVTs at scale 1: 2 row tiles x 782 column tiles per slice,
        # the last column tile 32 wide; every stored value falls on
        # exactly one occupied cell.
        extent = tile_extents((768, 100_000), 8)
        assert extent.shape == (8 * 2 * 782, 2)
        assert extent[781].tolist() == [384, 32]
        assert int(extent.prod(axis=1).sum()) == 8 * 768 * 100_000


class TestPriceBillsWhatMatmatCounts:
    @settings(max_examples=60, deadline=None)
    @given(grid=grids(ragged=True),
           device_name=st.sampled_from(["NVM-1", "NVM-3", "NVM-5"]),
           adc_bits=st.integers(2, 12), batch=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_matmat_moves_the_billed_counts(self, grid, device_name,
                                                adc_bits, batch, seed):
        device = get_device(device_name)
        rows, cols, n_tiles, shape = grid
        bank = TileBank(device, n_tiles, rows=rows, cols=cols,
                        adc_bits=adc_bits, shape=shape,
                        rngs=[np.random.default_rng([seed, t])
                              for t in range(n_tiles)])
        n_planes = n_tiles // len(tile_extents(shape, rows=rows, cols=cols))
        assert np.array_equal(
            bank.extent, tile_extents(shape, n_planes, rows=rows, cols=cols))
        rng = np.random.default_rng(seed)
        bank.program([rng.integers(0, device.n_levels, corner)
                      for corner in bank.extent])
        n_chunks = -(-shape[0] // rows)
        before = bank.aggregate_stats()
        bank.matmat(rng.normal(size=(n_chunks, batch, rows)))
        after = bank.aggregate_stats()
        used_cols = int(bank.extent[:, 1].sum())
        assert after.mvm_ops - before.mvm_ops == batch * n_tiles
        assert (after.adc_conversions - before.adc_conversions
                == batch * used_cols)

        # The price of one query bills exactly one of those B shares.
        tech = CIM_TECH[device.kind]
        latency, energy = tech.mvm_cost(bank.extent)
        cells = int(bank.extent.prod(axis=1).sum())
        assert energy == pytest.approx(
            cells * tech.cell_read_energy_fj * 1e-3
            + (after.adc_conversions - before.adc_conversions) / batch
            * tech.adc_energy_pj
            + (after.mvm_ops - before.mvm_ops) / batch
            * tech.periphery_energy_pj)
        assert latency > 0


class TestMvmCost:
    TECH = CIM_TECH["RRAM"]

    def test_a_whole_tile(self):
        latency, energy = self.TECH.mvm_cost([[384, 128]])
        assert latency == 12.0 + 128 / 8 * 4.0
        assert energy == pytest.approx(384 * 128 * 0.30e-3 + 128 * 2.5
                                       + 1200.0)

    def test_a_wave_lasts_as_long_as_its_slowest_tile(self):
        # 32 whole tiles fill one wave; a 33rd tile of 9 columns runs
        # alone in a second, converting two ADC rounds.
        extent = [[384, 128]] * 32 + [[384, 9]]
        latency, _ = self.TECH.mvm_cost(extent)
        assert latency == (12.0 + 16 * 4.0) + (12.0 + 2 * 4.0)
        # Reordered, the narrow tile shares the first wave.
        latency, _ = self.TECH.mvm_cost(extent[::-1])
        assert latency == 2 * (12.0 + 16 * 4.0)

    def test_erased_cells_cost_nothing(self):
        _, narrow = self.TECH.mvm_cost([[384, 9]])
        _, whole = self.TECH.mvm_cost([[384, 128]])
        assert whole - narrow == pytest.approx(
            384 * 119 * 0.30e-3 + 119 * 2.5)

    @pytest.mark.parametrize("extent", [np.zeros((0, 2)), [[1, 2, 3]],
                                        [4, 5]])
    def test_not_an_extent_is_refused(self, extent):
        with pytest.raises(ValueError):
            self.TECH.mvm_cost(extent)

    def test_stores_add_up(self):
        extents = [tile_extents((768 // s, 1000), 8) for s in (1, 2, 4)]
        total = cim_cost("FeFET", 1000, extents)
        parts = [CIM_TECH["FeFET"].mvm_cost(extent) for extent in extents]
        assert total.latency_ns == pytest.approx(sum(p[0] for p in parts))
        assert total.energy_pj == pytest.approx(sum(p[1] for p in parts))
        assert total == retrieval_cost("FeFET", 1000)


class TestRetrievalCostPricesThePaperLibrary:
    def test_cpu_streams_every_stored_value_once(self):
        n = 1000
        shapes = [(768, n), (384, n), (192, n)]
        macs = float(sum(d * k for d, k in shapes))
        report = cpu_cost(n, shapes)
        assert report.backend == "CPU" and report.n_ovts == n
        assert report.latency_ns == CPU_JETSON_ORIN.latency_ns(macs, 2 * macs)
        assert report.energy_pj == CPU_JETSON_ORIN.energy_pj(macs, 2 * macs)
        assert report == retrieval_cost("CPU", n)

    def test_fig5_gains_at_paper_scale(self):
        # RRAM against the CPU at 1e5 OVTs, as Fig. 5 reads them.
        cpu = retrieval_cost("CPU", 100_000)
        rram = retrieval_cost("RRAM", 100_000)
        assert cpu.latency_ns / rram.latency_ns == pytest.approx(135.5,
                                                                 abs=0.05)
        assert cpu.energy_pj / rram.energy_pj == pytest.approx(84.1,
                                                               abs=0.05)
