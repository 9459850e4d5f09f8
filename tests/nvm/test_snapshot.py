"""Snapshot/restore at the NVM layer: tile banks and CiM matrices."""

import tracemalloc

import numpy as np
import pytest

from repro.cim import CiMMatrix
from repro.nvm import NVMDevice, get_device
from repro.nvm.crossbar import CrossbarStats, TileBank
from repro.serve.codec import decode_value, encode_value
from repro.utils import STATE_WORDS
from tests.oracles.crossbar import whole_tiles
from tests.oracles.legacy_rngs import dict_form


def roundtrip(snap):
    """Push a snapshot through the binary codec, as spill/restore does."""
    return decode_value(encode_value(snap))


def _set_word(column, value, tile=-1):
    """Edit one word of one tile's packed state row (a snapshot edit)."""
    def edit(snap):
        states = snap["rng_states"].copy()
        states[tile, column] = value
        snap["rng_states"] = states
    return edit


class TestCrossbarStats:
    def test_subtract_inverts_add(self):
        a = CrossbarStats(1, 2, 3, 4, 5)
        b = CrossbarStats(10, 20, 30, 40, 50)
        assert CrossbarStats().add(b).add(a).subtract(a) == b

    def test_dict_roundtrip(self):
        stats = CrossbarStats(1, 2, 3, 4, 5)
        assert CrossbarStats.from_dict(stats.to_dict()) == stats


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
        assert np.array_equal(whole_tiles(other), whole_tiles(bank))
        assert other.aggregate_stats() == bank.aggregate_stats()
        # The restored bank computes identically.
        assert np.array_equal(other.matmat(chunks), bank.matmat(chunks))

    def test_restored_rngs_continue_identically(self):
        bank = self.make_bank()
        other = self.make_bank(seed=77)
        other.restore(bank.snapshot())
        masks = np.ones((bank.n_tiles, bank.rows, bank.cols), dtype=bool)
        bank.reprogram_cells(masks)
        other.reprogram_cells(masks)
        assert np.array_equal(whole_tiles(other), whole_tiles(bank))

    def test_generator_states_travel_as_one_packed_array(self):
        snap = self.make_bank().snapshot()
        assert "rngs" not in snap
        states = snap["rng_states"]
        assert states.dtype == np.uint64
        assert states.shape == (3, STATE_WORDS)

    def test_spilled_bank_draws_like_one_that_never_left(self):
        """Through the codec and back, then several re-pulses of some
        cells of some tiles: every draw equals the resident bank's."""
        bank = self.make_bank()
        other = self.make_bank(seed=77)
        other.restore(decode_value(encode_value(bank.snapshot())))
        rng = np.random.default_rng(4)
        for tiles in ([0, 1, 2], [2], [1, 2], [0]):
            masks = [rng.random((bank.rows, bank.cols)) < 0.4
                     for _ in tiles]
            bank.reprogram_cells(masks, tiles=tiles)
            other.reprogram_cells(masks, tiles=tiles)
            assert np.array_equal(whole_tiles(other), whole_tiles(bank))
        assert encode_value(other.snapshot()) == encode_value(bank.snapshot())

    def test_old_form_rngs_are_refused(self):
        """What an earlier build wrote — one PCG64 state dict per tile
        under ``rngs`` — is not read: the bank refuses it for want of
        ``rng_states`` and adopts nothing."""
        bank = self.make_bank()
        old = dict_form(bank.snapshot())
        assert "rng_states" not in old and len(old["rngs"]) == 3
        other = self.make_bank(seed=77)
        before = encode_value(other.snapshot())
        with pytest.raises(KeyError, match="rng_states"):
            other.restore(roundtrip(old))
        assert encode_value(other.snapshot()) == before

    def test_passed_generators_are_packed_not_advanced(self):
        """The bank keeps its streams as data: the generators it was
        built with are read once and never drawn from."""
        rngs = [np.random.default_rng(i) for i in range(3)]
        states = [rng.bit_generator.state for rng in rngs]
        bank = TileBank(get_device("NVM-2"), 3, rows=8, cols=6, rngs=rngs)
        bank.program(np.zeros((3, 8, 6), dtype=np.uint8))
        assert [rng.bit_generator.state for rng in rngs] == states

    @pytest.mark.parametrize("key", ["conductance", "target_levels",
                                     "rng_states", "programmed", "counters",
                                     "extent"])
    def test_restore_requires_every_state_key(self, key):
        """One reader form: there is no counters-only (or any other
        partial) snapshot a bank accepts."""
        bank = self.make_bank()
        snap = bank.snapshot()
        del snap[key]
        with pytest.raises(KeyError, match=key):
            self.make_bank(seed=77).restore(snap)

    def test_rejects_geometry_mismatch(self):
        bank = self.make_bank()
        other = self.make_bank(n_tiles=4)
        with pytest.raises(ValueError, match="geometry"):
            other.restore(bank.snapshot())

    # A snapshot whose integers describe this bank but whose arrays do
    # not: each used to be adopted and to fail (or silently mis-count)
    # on a later call.  `edit` damages one field of a good snapshot.
    MALFORMED = {
        # The occupied cells travel flat in tile order: 3 * 8 * 6 of them.
        "conductance-shape": lambda snap: snap.update(
            conductance=snap["conductance"][:-4]),
        "conductance-float64": lambda snap: snap.update(
            conductance=snap["conductance"].astype(np.float64)),
        "levels-shape": lambda snap: snap.update(
            target_levels=snap["target_levels"][:-4]),
        "levels-float": lambda snap: snap.update(
            target_levels=snap["target_levels"].astype(np.float32)),
        # At cell width, a level the device does not have.
        "levels-above-range": lambda snap: snap.update(
            target_levels=np.full(3 * 8 * 6, 9, dtype=np.uint8)),
        "levels-negative": lambda snap: snap.update(
            target_levels=np.full(3 * 8 * 6, -1)),
        # Not narrowed: 257 would wrap to a valid 1 in uint8.
        "levels-would-wrap": lambda snap: snap.update(
            target_levels=np.full(3 * 8 * 6, 257)),
        # Flat arrays mean nothing under another bank's extent.
        "extent-of-another-bank": lambda snap: snap.update(
            extent=snap["extent"] - 1),
        # Packed generator states: one uint64 row of six words a tile.
        "rng_states-dtype": lambda snap: snap.update(
            rng_states=snap["rng_states"].astype(np.int64)),
        "rng_states-shape": lambda snap: snap.update(
            rng_states=snap["rng_states"][:, :-1]),
        "rng_states-rows": lambda snap: snap.update(
            rng_states=snap["rng_states"][:1]),
        "rng_states-flat": lambda snap: snap.update(
            rng_states=snap["rng_states"].reshape(-1)),
        # Words no PCG64 state holds, at the last tile only.
        "rng_states-flag": _set_word(4, 2),
        "rng_states-buffered-value": _set_word(5, 1 << 32),
        "rng_states-even-increment": _set_word(3, 2),
        "counter-shape": lambda snap: snap["counters"].update(
            mvm_ops=snap["counters"]["mvm_ops"][:1]),
    }

    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_restore_refuses_malformed_arrays(self, field):
        snap = self.make_bank().snapshot()
        self.MALFORMED[field](snap)
        other = self.make_bank(seed=77)
        before = other.snapshot()
        with pytest.raises(ValueError):
            other.restore(roundtrip(snap))
        # Refused means untouched: nothing of the snapshot was adopted.
        assert encode_value(other.snapshot()) == encode_value(before)

    def test_levels_live_and_travel_at_cell_width(self):
        bank = self.make_bank()
        assert whole_tiles(bank, "target_levels").dtype == np.uint8
        assert bank.snapshot()["target_levels"].dtype == np.uint8
        # Every cell once — float32 conductance + level — at every point
        # of a bank's life: the product reads the stored cells, so a
        # query (or a restore) leaves no second copy behind.
        cells = bank.n_tiles * bank.rows * bank.cols
        assert bank.nbytes == cells * (4 + 1)
        bank.matmat(np.zeros((bank.n_tiles, 1, bank.rows), np.float32))
        assert bank.nbytes == cells * (4 + 1)
        other = self.make_bank(seed=77)
        other.restore(roundtrip(bank.snapshot()))
        other.matmat(np.zeros((bank.n_tiles, 1, bank.rows), np.float32))
        assert other.nbytes == cells * (4 + 1)

    def test_no_second_copy_of_the_conductances(self):
        """``program`` writes each tile's ``ideal + noise`` straight into
        the bank (temporaries: the per-cell sigma and ideal tables, the
        narrowed levels, one tile of draws), ``restore`` fills one fresh
        cell array, ``matmat`` allocates its outputs — and none of them
        leaves a bank-sized array behind."""
        device = get_device("NVM-3")
        n_tiles, rows, cols = 16, 128, 64
        levels = np.random.default_rng(1).integers(
            0, device.n_levels, (n_tiles, rows, cols)).astype(np.intp)
        chunks = np.ones((2, 1, rows), dtype=np.float32)
        float_bank = 4 * levels.size        # one float32 per cell

        def traced(call):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            now, peak = tracemalloc.get_traced_memory()
            return (peak - before) / float_bank, (now - before) / float_bank

        tracemalloc.start()
        try:
            bank = TileBank(device, n_tiles, rows=rows, cols=cols,
                            shape=(2 * rows, 8 * cols))
            bank.program(levels)
            program = traced(lambda: bank.program(levels))
            matmat = traced(lambda: bank.matmat(chunks))
            snap = bank.snapshot()
            restore = traced(lambda: bank.restore(snap))
        finally:
            tracemalloc.stop()
        # (peak, left behind), in float32 banks.
        assert program[0] < 2.5 and abs(program[1]) < 0.05
        assert matmat[0] < 0.05 and abs(matmat[1]) < 0.05
        assert restore[0] < 1.5 and abs(restore[1]) < 0.05

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int8])
    def test_levels_at_another_width_are_refused(self, dtype):
        """The bytes older builds wrote had ``int64`` levels.  Levels
        restore only at the bank's own cell width: in range or not, any
        other integer width is refused and nothing is adopted."""
        bank = self.make_bank()
        snap = bank.snapshot()
        snap["target_levels"] = snap["target_levels"].astype(dtype)
        other = self.make_bank(seed=77)
        before = encode_value(other.snapshot())
        with pytest.raises(ValueError, match="target_levels"):
            other.restore(roundtrip(snap))
        assert encode_value(other.snapshot()) == before

    def test_restored_arrays_are_owned(self):
        """Decoded arrays are read-only views over the blob; the bank
        copies each once and never aliases (or pins) it."""
        bank = self.make_bank()
        blob = encode_value(bank.snapshot())
        other = self.make_bank(seed=77)
        other.restore(decode_value(blob))
        raw = np.frombuffer(blob, dtype=np.uint8)
        for array in (other._cells, other._levels,
                      other.mvm_ops, other.write_pulses):
            assert not np.shares_memory(array, raw)
            assert array.flags.writeable and array.flags.aligned
        masks = np.ones((bank.n_tiles, bank.rows, bank.cols), dtype=bool)
        bank.reprogram_cells(masks)
        other.reprogram_cells(masks)
        assert np.array_equal(whole_tiles(other), whole_tiles(bank))

    def test_refused_program_leaves_bank_unchanged(self):
        bank = self.make_bank()
        before = encode_value(bank.snapshot())
        with pytest.raises(ValueError, match="out of range"):
            bank.program(np.full((3, 8, 6), 4))
        assert encode_value(bank.snapshot()) == before

    def test_512_level_device_uses_uint16(self):
        device = NVMDevice("NVM-512", "Test512", "RRAM", (0.01,) * 512)
        rngs = [np.random.default_rng(i) for i in range(2)]
        bank = TileBank(device, 2, rows=8, cols=6, sigma=0.1, rngs=rngs)
        levels = np.random.default_rng(1).integers(0, 512, (2, 8, 6))
        levels[0, 0, :2] = (511, 256)
        bank.program(levels)
        assert whole_tiles(bank, "target_levels").dtype == np.uint16
        assert np.array_equal(whole_tiles(bank, "target_levels"), levels)
        snap = roundtrip(bank.snapshot())
        assert snap["target_levels"].dtype == np.uint16
        other = TileBank(device, 2, rows=8, cols=6, sigma=0.1)
        other.restore(snap)
        assert whole_tiles(other, "target_levels").dtype == np.uint16
        assert np.array_equal(whole_tiles(other, "target_levels"), levels)
        assert np.array_equal(whole_tiles(other), whole_tiles(bank))


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
        matrix.matmat(query[None])
        snap = matrix.snapshot()
        rebuilt = CiMMatrix.from_snapshot(
            roundtrip(snap) if through_codec else snap, get_device("NVM-3"))
        assert rebuilt.aggregate_stats() == matrix.aggregate_stats()
        assert np.array_equal(rebuilt.matmat(query[None]),
                              matrix.matmat(query[None]))
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

    def test_from_snapshot_builds_no_generator(self, monkeypatch):
        """Restore adopts the packed states as data: once one bank of a
        size has been built, restoring builds or seeds no generator."""
        matrix = self.make_matrix()
        snap = roundtrip(matrix.snapshot())
        CiMMatrix.from_snapshot(snap, get_device("NVM-3"))

        def boom(*args, **kwargs):
            raise AssertionError("restore built a generator")
        with monkeypatch.context() as patch:
            for name in ("default_rng", "Generator", "PCG64"):
                patch.setattr(np.random, name, boom)
            rebuilt = CiMMatrix.from_snapshot(snap, get_device("NVM-3"))
        assert encode_value(rebuilt.snapshot()) == \
            encode_value(matrix.snapshot())

    def test_mitigation_calibration_travels(self):
        from repro.mitigation import make_mitigation
        matrix = self.make_matrix(mitigation=make_mitigation("cxdnn"))
        assert matrix.calibration  # cxdnn calibrates at program time
        rebuilt = CiMMatrix.from_snapshot(
            roundtrip(matrix.snapshot()), get_device("NVM-3"),
            mitigation=make_mitigation("cxdnn"))
        query = np.random.default_rng(2).normal(size=20).astype(np.float32)
        assert np.array_equal(rebuilt.matmat(query[None]),
                              matrix.matmat(query[None]))

    def test_from_snapshot_requires_matching_mitigation(self):
        matrix = self.make_matrix()
        from repro.mitigation import make_mitigation
        with pytest.raises(ValueError, match="mitigation"):
            CiMMatrix.from_snapshot(matrix.snapshot(), get_device("NVM-3"),
                                    mitigation=make_mitigation("cxdnn"))

    def test_from_snapshot_requires_full_state(self):
        matrix = self.make_matrix()
        for key in ("ints", "codec_scale", "calibration", "bank"):
            snap = matrix.snapshot()
            del snap[key]
            with pytest.raises(KeyError, match=key):
                CiMMatrix.from_snapshot(snap, get_device("NVM-3"))

    def test_restore_refuses_misshapen_codewords(self):
        matrix = self.make_matrix()
        snap = matrix.snapshot()
        snap["ints"] = snap["ints"][:, :4]
        with pytest.raises(ValueError, match="codewords"):
            CiMMatrix.from_snapshot(roundtrip(snap), get_device("NVM-3"))

    @pytest.mark.parametrize("key", ["subarray_rows", "subarray_cols"])
    def test_empty_subarrays_refused(self, key):
        """Found by fuzzing a blob: zero-wide subarrays divided by zero
        (an error the session restore did not turn into SnapshotError)."""
        snap = dict(self.make_matrix().snapshot(), **{key: 0})
        with pytest.raises(ValueError, match="must be positive"):
            CiMMatrix.from_snapshot(snap, get_device("NVM-3"))

    def test_snapshot_carries_no_version_or_layout_flag(self):
        """The session blob's header holds the one schema version; no
        section of a stored matrix carries its own, nor the ``vectorized``
        layout flag schema-1 writers recorded."""
        snap = self.make_matrix().snapshot()
        for section in (snap, snap["bank"]):
            assert not {"version", "vectorized"} & set(section)
