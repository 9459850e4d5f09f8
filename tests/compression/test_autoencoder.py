"""Tests for the OVT autoencoder."""

import numpy as np
import pytest

from repro.ag import Tensor
from repro.compression import AutoencoderConfig, OVTAutoencoder

RNG = np.random.default_rng(47)


def make_ae(input_dim=16, code_dim=8, steps=150, gram=0.5):
    return OVTAutoencoder(AutoencoderConfig(
        input_dim=input_dim, code_dim=code_dim, hidden_dim=32,
        pretrain_steps=steps, gram_weight=gram, seed=0))


def low_rank_rows(n=200, dim=16, rank=6):
    basis = RNG.normal(size=(rank, dim)).astype(np.float32)
    coeff = RNG.normal(size=(n, rank)).astype(np.float32)
    return (coeff @ basis) / 5.0


class TestShapes:
    def test_encode_decode_shapes(self):
        ae = make_ae()
        rows = RNG.normal(size=(10, 16)).astype(np.float32)
        codes = ae.encode(rows)
        assert codes.shape == (10, 8)
        assert ae.decode(codes).shape == (10, 16)

    def test_graph_free_paths_equal_the_training_graph_bitwise(self):
        ae = make_ae()
        ae.fit(low_rank_rows(), steps=5)       # biases off zero
        rows = RNG.normal(size=(10, 16)).astype(np.float32)
        codes = ae.encode(rows)
        assert np.array_equal(codes, ae.encode_tensor(Tensor(rows)).data)
        assert np.array_equal(ae.decode(codes),
                              ae.decode_tensor(Tensor(codes)).data)

    def test_dimension_validation(self):
        ae = make_ae()
        with pytest.raises(ValueError):
            ae.encode(np.zeros((3, 7)))
        with pytest.raises(ValueError):
            ae.decode(np.zeros((3, 7)))
        with pytest.raises(ValueError):
            ae.encode(np.zeros((0, 16)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoencoderConfig(input_dim=0)


class TestTraining:
    def test_loss_decreases(self):
        ae = make_ae()
        history = ae.fit(low_rank_rows())
        assert history[-1] < history[0]
        assert ae.is_trained

    def test_reconstruction_good_on_low_rank_data(self):
        ae = make_ae(steps=400)
        rows = low_rank_rows()
        ae.fit(rows)
        signal = float(np.sqrt((rows ** 2).mean()))
        assert ae.reconstruction_error(rows) < 0.5 * signal

    def test_update_improves_on_new_distribution(self):
        ae = make_ae(steps=200)
        ae.fit(low_rank_rows())
        shifted = low_rank_rows() + 0.3
        before = ae.reconstruction_error(shifted)
        ae.update(shifted)
        assert ae.reconstruction_error(shifted) < before

    def test_gram_loss_preserves_inner_products(self):
        rows = low_rank_rows(100)
        with_gram = make_ae(steps=400, gram=1.0)
        with_gram.fit(rows)
        codes = with_gram.encode(rows[:20])
        gram_in = rows[:20] @ rows[:20].T
        gram_code = codes @ codes.T
        corr = np.corrcoef(gram_in.reshape(-1), gram_code.reshape(-1))[0, 1]
        assert corr > 0.9


class TestMatrixAPI:
    def test_scale_roundtrip(self):
        ae = make_ae(steps=300)
        rows = low_rank_rows()
        ae.fit(rows)
        matrix = rows[:8] * 37.0  # far outside training magnitude
        codes, scale = ae.encode_matrix(matrix)
        assert scale == pytest.approx(np.abs(matrix).max())
        restored = ae.decode_matrix(codes, scale)
        signal = float(np.sqrt((matrix ** 2).mean()))
        assert np.sqrt(((restored - matrix) ** 2).mean()) < 0.6 * signal

    def test_zero_matrix_scale_is_one(self):
        assert OVTAutoencoder.matrix_scale(np.zeros((3, 3))) == 1.0

    def test_decode_matrix_scale_validation(self):
        ae = make_ae()
        with pytest.raises(ValueError):
            ae.decode_matrix(np.zeros((2, 8)), 0.0)
