"""Tests for the CiM accelerator, cost model and memory model."""

import numpy as np
import pytest

from repro.cim import (
    CIM_TECH,
    CPU_JETSON_ORIN,
    CiMMatrix,
    OVTStorageModel,
    PAPER_SCALE_STORAGE,
    retrieval_cost,
)
from repro.nvm import get_device
from tests.oracles.cim_path import analog_matmat

RNG = np.random.default_rng(23)


def make_matrix(values, sigma=0.0, device="NVM-3", seed=0, **kwargs):
    return CiMMatrix(values, get_device(device), sigma=sigma,
                     rng=np.random.default_rng(seed), **kwargs)


class TestCiMMatrix:
    def test_noise_free_matvec_matches_numpy(self):
        w = RNG.normal(size=(20, 7)).astype(np.float32)
        matrix = make_matrix(w, sigma=0.0)
        x = RNG.normal(size=20).astype(np.float32)
        out = analog_matmat(matrix, x[None])[0]
        np.testing.assert_allclose(out, x @ w, rtol=1e-3, atol=1e-3)

    def test_noise_free_read_matches_input(self):
        w = RNG.normal(size=(16, 5)).astype(np.float32)
        matrix = make_matrix(w, sigma=0.0)
        np.testing.assert_allclose(matrix.read_matrix(), w, atol=1e-3)

    def test_ideal_matrix_is_quantized_input(self):
        w = RNG.normal(size=(8, 3)).astype(np.float32)
        matrix = make_matrix(w, sigma=0.5)
        np.testing.assert_allclose(matrix.ideal_matrix(), w, atol=1e-3)

    def test_noise_grows_with_sigma(self):
        w = RNG.normal(size=(48, 6)).astype(np.float32)
        errors = []
        for sigma in (0.025, 0.1, 0.2):
            matrix = make_matrix(w, sigma=sigma, seed=4)
            errors.append(np.abs(matrix.read_matrix() - w).mean())
        assert errors[0] < errors[1] < errors[2]

    def test_tiling_large_matrix(self):
        w = RNG.normal(size=(500, 150)).astype(np.float32)  # > 384x128
        matrix = make_matrix(w, sigma=0.0, rows=384, cols=128)
        # 2 row tiles x 2 col tiles x 8 slices
        assert matrix.n_subarrays == 2 * 2 * 8
        x = RNG.normal(size=500).astype(np.float32)
        out = analog_matmat(matrix, x[None])[0]
        np.testing.assert_allclose(out, x @ w, rtol=1e-3, atol=5e-3)

    def test_binary_device_uses_16_slices(self):
        w = RNG.normal(size=(8, 3)).astype(np.float32)
        matrix = make_matrix(w, device="NVM-1")
        assert matrix.n_slices == 16

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            make_matrix(np.zeros(5))

    def test_input_length_checked(self):
        matrix = make_matrix(np.zeros((8, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            matrix.matmat(np.ones((1, 9)))

    def test_deterministic_for_seed(self):
        w = RNG.normal(size=(16, 4)).astype(np.float32)
        a = make_matrix(w, sigma=0.1, seed=9).read_matrix()
        b = make_matrix(w, sigma=0.1, seed=9).read_matrix()
        np.testing.assert_allclose(a, b)

    def test_aggregate_stats(self):
        matrix = make_matrix(RNG.normal(size=(16, 4)).astype(np.float32))
        matrix.matmat(np.ones((1, 16)))
        stats = matrix.aggregate_stats()
        # One tile per slice, each as big as the matrix: occupied cells
        # are programmed and converted, the rest of the 384x128 is erased.
        assert stats.cells_programmed == stats.write_pulses == 16 * 4 * 8
        assert stats.mvm_ops == 8  # one per slice
        assert stats.adc_conversions == 4 * 8


class TestRetrievalCost:
    def test_cim_beats_cpu_at_scale(self):
        """Fig. 5's headline: orders-of-magnitude latency/energy advantage."""
        n = 100_000
        cpu = retrieval_cost("CPU", n)
        rram = retrieval_cost("RRAM", n)
        fefet = retrieval_cost("FeFET", n)
        assert 30 < cpu.latency_ns / rram.latency_ns < 1000
        assert 10 < cpu.energy_pj / rram.energy_pj < 500
        assert fefet.energy_pj < rram.energy_pj

    def test_costs_grow_with_n(self):
        for backend in ("RRAM", "FeFET", "CPU"):
            small = retrieval_cost(backend, 1000)
            large = retrieval_cost(backend, 100_000)
            assert large.latency_ns > small.latency_ns
            assert large.energy_pj > small.energy_pj

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            retrieval_cost("TPU", 10)

    def test_nonpositive_n(self):
        with pytest.raises(ValueError):
            retrieval_cost("CPU", 0)

    def test_tech_table_has_both_nvms(self):
        assert set(CIM_TECH) == {"RRAM", "FeFET"}
        assert CPU_JETSON_ORIN.name == "JetsonOrinCPU"


class TestStorageModel:
    def test_memory_linear_in_count(self):
        model = OVTStorageModel()
        assert model.memory_mb(200) == pytest.approx(2 * model.memory_mb(100))

    def test_paper_scale_magnitudes(self):
        """Fig. 2a: thousands of OVTs reach hundreds of MB."""
        mb = PAPER_SCALE_STORAGE.memory_mb(9000)
        assert 500 < mb < 2000

    def test_transfer_time_fig2b_magnitude(self):
        """Fig. 2b: 1e5 OVTs take tens of seconds over an edge SSD."""
        seconds = PAPER_SCALE_STORAGE.transfer_time_s(100_000)
        assert 10 < seconds < 120

    def test_dram_fraction_exceeds_one_at_scale(self):
        assert PAPER_SCALE_STORAGE.dram_fraction(1_000_000) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OVTStorageModel(n_virtual_tokens=0)
        with pytest.raises(ValueError):
            OVTStorageModel().memory_bytes(-1)
