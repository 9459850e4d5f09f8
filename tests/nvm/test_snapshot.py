"""Snapshot/restore at the NVM layer: crossbars, tile banks, CiM matrices."""

import numpy as np
import pytest

from repro.cim import CiMMatrix
from repro.nvm import get_device
from repro.nvm.crossbar import CrossbarArray, CrossbarStats, TileBank
from repro.serve.codec import decode_value, encode_value


def roundtrip(snap):
    """Push a snapshot through the binary codec, as spill/restore does."""
    return decode_value(encode_value(snap))


def make_crossbar(seed=3, rows=8, cols=6):
    device = get_device("NVM-1")
    array = CrossbarArray(device, rows=rows, cols=cols, sigma=0.1,
                          rng=np.random.default_rng(seed))
    levels = np.random.default_rng(0).integers(0, device.n_levels,
                                               (rows, cols))
    array.program(levels)
    return array


class TestCrossbarStats:
    def test_subtract_inverts_add(self):
        a = CrossbarStats(1, 2, 3, 4, 5)
        b = CrossbarStats(10, 20, 30, 40, 50)
        assert CrossbarStats().add(b).add(a).subtract(a) == b

    def test_dict_roundtrip(self):
        stats = CrossbarStats(1, 2, 3, 4, 5)
        assert CrossbarStats.from_dict(stats.to_dict()) == stats


class TestCrossbarArraySnapshot:
    def test_restore_is_bit_identical(self):
        array = make_crossbar()
        array.matvec(np.ones(8, dtype=np.float32))
        other = CrossbarArray(get_device("NVM-1"), rows=8, cols=6, sigma=0.1)
        other.restore(roundtrip(array.snapshot()))
        assert np.array_equal(other.conductance, array.conductance)
        assert np.array_equal(other.target_levels, array.target_levels)
        assert other.stats == array.stats

    def test_restored_rng_continues_identically(self):
        array = make_crossbar()
        other = CrossbarArray(get_device("NVM-1"), rows=8, cols=6, sigma=0.1)
        other.restore(array.snapshot())
        mask = np.ones((8, 6), dtype=bool)
        array.reprogram_cells(mask)
        other.reprogram_cells(mask)
        assert np.array_equal(other.conductance, array.conductance)

    def test_counters_only_snapshot_skips_state(self):
        array = make_crossbar()
        snap = array.snapshot(include_state=False)
        assert "conductance" not in snap
        other = make_crossbar(seed=99)
        before = other.conductance.copy()
        other.restore(roundtrip(snap))
        assert np.array_equal(other.conductance, before)  # state untouched
        assert other.stats == array.stats

    def test_rejects_unknown_version(self):
        array = make_crossbar()
        snap = array.snapshot()
        snap["version"] = 999
        with pytest.raises(ValueError, match="version"):
            array.restore(snap)

    def test_rejects_geometry_mismatch(self):
        array = make_crossbar()
        other = CrossbarArray(get_device("NVM-1"), rows=4, cols=6, sigma=0.1)
        with pytest.raises(ValueError, match="geometry"):
            other.restore(array.snapshot())


class TestTileBankSnapshot:
    def make_bank(self, seed=5, n_tiles=3, rows=8, cols=6):
        device = get_device("NVM-2")
        rngs = [np.random.default_rng(seed + i) for i in range(n_tiles)]
        bank = TileBank(device, n_tiles, rows=rows, cols=cols, sigma=0.1,
                        rngs=rngs)
        levels = np.random.default_rng(1).integers(
            0, device.n_levels, (n_tiles, rows, cols))
        bank.program(levels)
        return bank

    def test_restore_is_bit_identical(self):
        bank = self.make_bank()
        chunks = np.random.default_rng(2).normal(
            size=(bank.n_tiles, 2, bank.rows)).astype(np.float32)
        bank.matmat(chunks)
        other = self.make_bank(seed=77)
        other.restore(roundtrip(bank.snapshot()))
        assert np.array_equal(other.conductance, bank.conductance)
        assert other.aggregate_stats() == bank.aggregate_stats()
        # The restored bank computes identically, merged-operand cache
        # included (restore bumps the version so the cache rebuilds).
        assert np.array_equal(other.matmat(chunks), bank.matmat(chunks))

    def test_restored_rngs_continue_identically(self):
        bank = self.make_bank()
        other = self.make_bank(seed=77)
        other.restore(bank.snapshot())
        masks = np.ones((bank.n_tiles, bank.rows, bank.cols), dtype=bool)
        bank.reprogram_cells(masks)
        other.reprogram_cells(masks)
        assert np.array_equal(other.conductance, bank.conductance)

    def test_counters_only_restores_counter_vectors(self):
        bank = self.make_bank()
        bank.read_cells()
        snap = roundtrip(bank.snapshot(include_state=False))
        assert "conductance" not in snap
        other = self.make_bank(seed=77)
        other.restore(snap)
        assert np.array_equal(other.cell_reads, bank.cell_reads)
        assert np.array_equal(other.write_pulses, bank.write_pulses)

    def test_rejects_geometry_mismatch(self):
        bank = self.make_bank()
        other = self.make_bank(n_tiles=4)
        with pytest.raises(ValueError, match="geometry"):
            other.restore(bank.snapshot())


class TestCiMMatrixSnapshot:
    def make_matrix(self, seed=5, mitigation=None):
        values = np.random.default_rng(1).normal(size=(20, 10))
        return CiMMatrix(values.astype(np.float32), get_device("NVM-3"),
                         sigma=0.1, rows=8, cols=6, mitigation=mitigation,
                         rng=np.random.default_rng(seed))

    # The in-memory dict and its codec-decoded twin (the spill/restore
    # path) must both rebuild the matrix.
    @pytest.mark.parametrize("through_codec", [True, False])
    def test_from_snapshot_is_bit_identical(self, through_codec):
        matrix = self.make_matrix()
        query = np.random.default_rng(2).normal(size=20).astype(np.float32)
        matrix.matvec(query)
        snap = matrix.snapshot()
        rebuilt = CiMMatrix.from_snapshot(
            roundtrip(snap) if through_codec else snap, get_device("NVM-3"))
        assert rebuilt.aggregate_stats() == matrix.aggregate_stats()
        assert np.array_equal(rebuilt.matvec(query), matrix.matvec(query))
        assert np.array_equal(rebuilt.read_matrix(), matrix.read_matrix())

    @pytest.mark.parametrize("through_codec", [True, False])
    def test_from_snapshot_bills_no_programming(self, through_codec):
        matrix = self.make_matrix()
        before = matrix.aggregate_stats()
        snap = matrix.snapshot()
        rebuilt = CiMMatrix.from_snapshot(
            roundtrip(snap) if through_codec else snap, get_device("NVM-3"))
        after = rebuilt.aggregate_stats()
        assert after.write_pulses == before.write_pulses
        assert after.cells_programmed == before.cells_programmed

    def test_mitigation_calibration_travels(self):
        from repro.mitigation import make_mitigation
        matrix = self.make_matrix(mitigation=make_mitigation("cxdnn"))
        assert matrix.calibration  # cxdnn calibrates at program time
        rebuilt = CiMMatrix.from_snapshot(
            roundtrip(matrix.snapshot()), get_device("NVM-3"),
            mitigation=make_mitigation("cxdnn"))
        query = np.random.default_rng(2).normal(size=20).astype(np.float32)
        assert np.array_equal(rebuilt.matvec(query), matrix.matvec(query))

    def test_from_snapshot_requires_matching_mitigation(self):
        matrix = self.make_matrix()
        from repro.mitigation import make_mitigation
        with pytest.raises(ValueError, match="mitigation"):
            CiMMatrix.from_snapshot(matrix.snapshot(), get_device("NVM-3"),
                                    mitigation=make_mitigation("cxdnn"))

    def test_from_snapshot_requires_full_state(self):
        matrix = self.make_matrix()
        with pytest.raises(ValueError, match="counters-only"):
            CiMMatrix.from_snapshot(matrix.snapshot(include_state=False),
                                    get_device("NVM-3"))

    def test_per_tile_snapshot_refused(self):
        """v1 writers could record ``vectorized: False``; that layout is
        gone, and its snapshots are refused by name, not by KeyError."""
        matrix = self.make_matrix()
        snap = dict(matrix.snapshot(), vectorized=False)
        with pytest.raises(ValueError, match="per-tile"):
            CiMMatrix.from_snapshot(snap, get_device("NVM-3"))
        with pytest.raises(ValueError, match="per-tile"):
            matrix.restore(snap)
        matrix.restore(dict(matrix.snapshot(), vectorized=True))  # v1 form
        assert "vectorized" not in matrix.snapshot()

    def test_counters_only_restore_onto_identical_rebuild(self):
        matrix = self.make_matrix()
        query = np.random.default_rng(2).normal(size=20).astype(np.float32)
        matrix.matvec(query)
        rebuilt = self.make_matrix()   # same seeds -> same conductances
        rebuilt.restore(roundtrip(matrix.snapshot(include_state=False)))
        assert rebuilt.aggregate_stats() == matrix.aggregate_stats()
        assert np.array_equal(rebuilt.matvec(query), matrix.matvec(query))
