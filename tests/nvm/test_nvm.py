"""Tests for device models, int16 bit-slicing and the crossbar array."""

import numpy as np
import pytest

from repro.nvm import (
    Int16Codec,
    REFERENCE_SIGMA,
    TileBank,
    available_devices,
    get_device,
    slice_to_digits,
    slice_weights,
)

from tests.oracles.crossbar import CrossbarArray
from tests.oracles.per_tile_cim import tile_conductance

RNG = np.random.default_rng(17)


def recompose(digits, bits):
    """Signed values from LSB-first digits: production's shift-add
    weights, less the excess-32768 offset."""
    weights = slice_weights(bits, digits.shape[0])
    return np.tensordot(weights, digits.astype(np.float64),
                        axes=(0, 0)) - 32768


class TestDeviceModels:
    def test_table_ii_devices_present(self):
        assert available_devices() == ["NVM-1", "NVM-2", "NVM-3",
                                       "NVM-4", "NVM-5"]

    def test_table_ii_values(self):
        nvm3 = get_device("NVM-3")
        assert nvm3.device == "FeFET3"
        assert nvm3.level_sigmas == (0.0049, 0.0146, 0.0146, 0.0049)

    def test_lookup_by_physical_name(self):
        assert get_device("RRAM4").name == "NVM-4"

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("NVM-9")

    def test_nvm1_is_binary(self):
        nvm1 = get_device("NVM-1")
        assert nvm1.n_levels == 2
        assert nvm1.bits_per_cell == 1

    def test_multilevel_devices_are_2bit(self):
        for name in ("NVM-2", "NVM-3", "NVM-4", "NVM-5"):
            assert get_device(name).bits_per_cell == 2

    def test_level_values_normalised(self):
        values = get_device("NVM-3").level_values()
        np.testing.assert_allclose(values, [0.0, 1/3, 2/3, 1.0])

    def test_sigma_scales_linearly(self):
        device = get_device("NVM-3")
        levels = np.array([1, 2])
        low = device.sigma_for_levels(levels, sigma=REFERENCE_SIGMA)
        high = device.sigma_for_levels(levels, sigma=10 * REFERENCE_SIGMA)
        np.testing.assert_allclose(high, 10 * low)

    def test_sigma_matches_table_at_reference(self):
        device = get_device("NVM-5")
        stds = device.sigma_for_levels(np.array([0, 1, 2, 3]),
                                       sigma=REFERENCE_SIGMA)
        np.testing.assert_allclose(stds, device.level_sigmas)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            get_device("NVM-3").sigma_for_levels(np.array([4]))

    def test_middle_levels_noisier(self):
        """Table II pattern: mid conductance states have larger variation."""
        for name in ("NVM-2", "NVM-3", "NVM-4", "NVM-5"):
            s = get_device(name).level_sigmas
            assert s[1] > s[0] and s[2] > s[3]

    def test_program_noise_statistics(self):
        """The programming draw production makes: a bank written at one
        level holds that level plus Table II's sigma scaled by ``sigma``."""
        device = get_device("NVM-3")
        bank = TileBank(device, 1, rows=200, cols=100, sigma=0.1,
                        rngs=[np.random.default_rng(0)])
        bank.program([np.full((200, 100), 1)])
        noise = tile_conductance(bank, 0) - device.level_values()[1]
        expected = 0.0146 * (0.1 / REFERENCE_SIGMA)
        assert abs(noise.std() - expected) < 0.01 * expected * 5
        assert abs(noise.mean()) < expected / 50


class TestBitSlicing:
    def test_roundtrip_exact(self):
        ints = RNG.integers(-32768, 32768, size=(10, 7)).astype(np.int64)
        for bits in (1, 2, 4, 8):
            digits = slice_to_digits(ints, bits)
            back = recompose(digits, bits)
            np.testing.assert_array_equal(back, ints)

    def test_digit_range(self):
        ints = RNG.integers(-32768, 32768, size=100)
        digits = slice_to_digits(ints, 2)
        assert digits.shape == (8, 100)
        assert digits.min() >= 0 and digits.max() <= 3

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            slice_to_digits(np.array([0]), 3)

    def test_noise_weighting_in_recompose(self):
        """MSB digit noise moves the value 4^7 times more than LSB noise."""
        ints = np.zeros(1, dtype=np.int64)
        digits = slice_to_digits(ints, 2).astype(np.float64)
        lsb = digits.copy()
        lsb[0] += 0.5
        msb = digits.copy()
        msb[7] += 0.5
        lsb_shift = recompose(lsb, 2)[0]
        msb_shift = recompose(msb, 2)[0]
        assert msb_shift == pytest.approx(lsb_shift * 4 ** 7)


class TestInt16Codec:
    def test_roundtrip_within_quantum(self):
        values = RNG.normal(size=(50,)).astype(np.float32)
        codec = Int16Codec.fit(values)
        decoded = codec.decode(codec.encode(values))
        assert np.abs(decoded - values).max() <= codec.scale

    def test_clipping_at_extremes(self):
        codec = Int16Codec(scale=0.001)
        assert codec.encode(np.array([100.0]))[0] == 32767
        assert codec.encode(np.array([-100.0]))[0] == -32768

    def test_fit_empty_and_zero(self):
        codec = Int16Codec.fit(np.zeros(5))
        assert codec.scale > 0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Int16Codec(scale=0.0)


class TestCrossbarArray:
    def _array(self, sigma=0.1, seed=0, device="NVM-3"):
        return CrossbarArray(get_device(device), rows=32, cols=16,
                             sigma=sigma, rng=np.random.default_rng(seed))

    def test_program_and_read(self):
        xbar = self._array(sigma=0.0)
        levels = RNG.integers(0, 4, size=(32, 16))
        xbar.program(levels)
        np.testing.assert_allclose(xbar.read_cells(), levels, atol=1e-5)

    def test_requires_programming_first(self):
        with pytest.raises(RuntimeError):
            self._array().read_cells()
        with pytest.raises(RuntimeError):
            self._array().matvec(np.ones(32))

    def test_shape_validation(self):
        xbar = self._array()
        with pytest.raises(ValueError):
            xbar.program(np.zeros((4, 4), dtype=np.int64))
        xbar.program(np.zeros((32, 16), dtype=np.int64))
        with pytest.raises(ValueError):
            xbar.matvec(np.ones(31))

    def test_matvec_matches_ideal_without_noise(self):
        xbar = self._array(sigma=0.0)
        levels = RNG.integers(0, 4, size=(32, 16))
        xbar.program(levels)
        x = RNG.normal(size=32).astype(np.float32)
        ideal = x @ (levels / 3.0)
        out = xbar.matvec(x, quantize_output=False)
        np.testing.assert_allclose(out, ideal, atol=1e-4)

    def test_noise_perturbs_conductance(self):
        a = self._array(sigma=0.1, seed=1)
        levels = np.full((32, 16), 2)
        a.program(levels)
        deviation = a.conductance - 2 / 3.0
        assert 0.05 < deviation.std() < 0.3

    def test_adc_quantizes_output(self):
        xbar = CrossbarArray(get_device("NVM-3"), rows=32, cols=16,
                             sigma=0.0, adc_bits=3)
        xbar.program(RNG.integers(0, 4, size=(32, 16)))
        x = np.ones(32, dtype=np.float32)
        out = xbar.matvec(x)
        step = 2.0 * 32 / (2 ** 3 - 1)
        np.testing.assert_allclose(out / step, np.round(out / step), atol=1e-5)

    def test_reprogram_cells_redraws_masked_only(self):
        xbar = self._array(sigma=0.2, seed=3)
        xbar.program(np.full((32, 16), 1))
        before = xbar.conductance.copy()
        mask = np.zeros((32, 16), dtype=bool)
        mask[:4] = True
        xbar.reprogram_cells(mask)
        after = xbar.conductance
        assert not np.allclose(after[:4], before[:4])
        np.testing.assert_allclose(after[4:], before[4:])

    def test_stats_counters(self):
        xbar = self._array()
        xbar.program(np.zeros((32, 16), dtype=np.int64))
        xbar.matvec(np.ones(32))
        xbar.read_cells()
        stats = xbar.stats
        assert stats.cells_programmed == 32 * 16
        assert stats.mvm_ops == 1
        assert stats.adc_conversions == 16
        assert stats.cell_reads == 32 * 16

    def test_unquantized_readout_skips_adc(self):
        """No ADC conversions are counted for an ideal analog readout —
        counting them would inflate the energy model."""
        xbar = self._array()
        xbar.program(np.zeros((32, 16), dtype=np.int64))
        xbar.matvec(np.ones(32), quantize_output=False)
        assert xbar.stats.mvm_ops == 1
        assert xbar.stats.adc_conversions == 0
        xbar.matvec(np.ones(32), quantize_output=True)
        assert xbar.stats.adc_conversions == 16

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CrossbarArray(get_device("NVM-3"), rows=0, cols=8)
        with pytest.raises(ValueError):
            CrossbarArray(get_device("NVM-3"), adc_bits=1)
