"""Tests for the noise-mitigation baselines (SWV, CxDNN, CorrectNet)."""

import numpy as np
import pytest

from repro.cim import CiMMatrix, MitigationHooks
from repro.mitigation import (
    MITIGATION_REGISTRY,
    CorrectNetMitigation,
    CxDNNCompensation,
    SelectiveWriteVerify,
    make_mitigation,
)
from repro.nvm import get_device
from tests.oracles.per_tile_cim import tile_stats, tiles_with_slice

RNG = np.random.default_rng(41)


def stored(values, mitigation, sigma=0.15, seed=0):
    return CiMMatrix(values, get_device("NVM-3"), sigma=sigma,
                     mitigation=mitigation, rng=np.random.default_rng(seed))


def read_back(matrix):
    """The mitigated read of the whole stored matrix."""
    return matrix.read_columns(0, matrix.shape[1])


def read_error(matrix, reference):
    return float(np.abs(read_back(matrix) - reference).mean())


class TestFactory:
    def test_available(self):
        assert sorted(MITIGATION_REGISTRY) == ["correctnet", "cxdnn", "none",
                                               "swv"]

    def test_make_each(self):
        for name in MITIGATION_REGISTRY:
            assert make_mitigation(name).name == name

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_mitigation("magic")


class TestSelectiveWriteVerify:
    def test_reduces_read_error(self):
        w = RNG.normal(size=(32, 8)).astype(np.float32)
        raw_err = np.mean([read_error(stored(w, None, seed=s), w)
                           for s in range(4)])
        swv_err = np.mean([read_error(stored(w, SelectiveWriteVerify(),
                                             seed=s), w)
                           for s in range(4)])
        assert swv_err < raw_err

    def test_extra_write_pulses_counted(self):
        w = RNG.normal(size=(32, 8)).astype(np.float32)
        plain = stored(w, None)
        verified = stored(w, SelectiveWriteVerify())
        assert (verified.aggregate_stats().write_pulses
                > plain.aggregate_stats().write_pulses)

    def test_only_msb_slices_touched(self):
        w = RNG.normal(size=(16, 4)).astype(np.float32)
        matrix = stored(w, SelectiveWriteVerify(verify_slices=2))
        for slice_index, tile in tiles_with_slice(matrix):
            if slice_index < 6:  # LSB slices: initial program pulses only
                assert tile_stats(matrix.bank, tile).write_pulses == 16 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectiveWriteVerify(verify_slices=0)
        with pytest.raises(ValueError):
            SelectiveWriteVerify(tolerance_levels=0)
        with pytest.raises(ValueError):
            SelectiveWriteVerify(max_iterations=0)


class TestCxDNN:
    def test_gain_near_unity_for_unbiased_noise(self):
        """With purely stochastic noise there is no systematic gain error,
        so the estimated gains scatter around 1 (no Wiener-style shrink)."""
        w = RNG.normal(size=(64, 6)).astype(np.float32)
        gains = np.concatenate([
            stored(w, CxDNNCompensation(), seed=s).calibration["column_gain"]
            for s in range(4)])
        assert abs(float(gains.mean()) - 1.0) < 0.15
        assert np.all(gains > 0.4) and np.all(gains < 2.5)

    def test_does_not_destroy_signal(self):
        """Regression test: LS-fit-on-noisy-read shrinkage must not occur."""
        w = RNG.normal(size=(64, 6)).astype(np.float32)
        matrix = stored(w, CxDNNCompensation())
        restored = read_back(matrix)
        # Column norms preserved within noise, not shrunk by 2-3x.
        ratio = np.linalg.norm(restored, axis=0) / np.linalg.norm(w, axis=0)
        assert np.all(ratio > 0.7)

    def test_requires_calibration(self):
        mitigation = CxDNNCompensation()
        with pytest.raises(RuntimeError):
            mitigation.correct_output(
                type("M", (), {"calibration": {}})(), np.ones(3))


class TestCorrectNet:
    def test_clipping_bounds_dynamic_range(self):
        mitigation = CorrectNetMitigation(clip_sigmas=2.0)
        values = RNG.normal(size=(100, 4)).astype(np.float32)
        values[0, 0] = 50.0  # outlier
        clipped = mitigation.prepare_values(values)
        assert clipped.max() < 50.0

    def test_improves_read_error_with_outliers(self):
        w = RNG.normal(size=(48, 6)).astype(np.float32)
        w[0, 0] = 25.0  # outlier inflates the quantization scale
        raw = np.mean([read_error(stored(w, None, seed=s),
                                  np.clip(w, -30, 30)) for s in range(3)])
        corrected = np.mean([read_error(stored(w, CorrectNetMitigation(),
                                               seed=s),
                                        np.clip(w, -30, 30))
                             for s in range(3)])
        assert corrected < raw

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrectNetMitigation(clip_sigmas=0)

    def test_requires_calibration(self):
        with pytest.raises(RuntimeError):
            CorrectNetMitigation().correct_output(
                type("M", (), {"calibration": {}})(), np.ones(3))


class TestMitigationHooks:
    def test_identity_everywhere(self):
        null = MitigationHooks()
        values = RNG.normal(size=(4, 4))
        np.testing.assert_array_equal(null.prepare_values(values), values)
        np.testing.assert_array_equal(null.correct_output(None, values), values)
        np.testing.assert_array_equal(
            null.correct_read_columns(None, values, 0, 4), values)
        assert null.post_program(None) is None

    def test_are_the_default_and_the_none_entry(self):
        """A matrix stored without a mitigation gets the no-op hooks, the
        class that ``"none"`` names."""
        matrix = stored(RNG.normal(size=(8, 4)).astype(np.float32), None)
        assert type(matrix.mitigation) is MitigationHooks
        assert MITIGATION_REGISTRY["none"] is MitigationHooks
        assert make_mitigation("none").name == matrix.mitigation.name
