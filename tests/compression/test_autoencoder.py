"""Tests for the OVT autoencoder."""

import numpy as np
import pytest

from repro.ag import Tensor
from repro.compression import AutoencoderConfig, OVTAutoencoder
from tests.oracles.autoencoder import (decode_tensor, encode_tensor,
                                       fit_graph, update_graph)

RNG = np.random.default_rng(47)


def make_ae(input_dim=16, code_dim=8, steps=150, gram=0.5):
    return OVTAutoencoder(AutoencoderConfig(
        input_dim=input_dim, code_dim=code_dim, hidden_dim=32,
        pretrain_steps=steps, gram_weight=gram, seed=0))


def low_rank_rows(n=200, dim=16, rank=6):
    basis = RNG.normal(size=(rank, dim)).astype(np.float32)
    coeff = RNG.normal(size=(n, rank)).astype(np.float32)
    return (coeff @ basis) / 5.0


def rms_error(ae, rows):
    """RMS reconstruction error of ``rows`` through the autoencoder."""
    return float(np.sqrt(np.mean((ae.decode(ae.encode(rows)) - rows) ** 2)))


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
        assert np.array_equal(codes, encode_tensor(ae, Tensor(rows)).data)
        assert np.array_equal(ae.decode(codes),
                              decode_tensor(ae, Tensor(codes)).data)

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

    @pytest.mark.parametrize("field, value", [
        ("pretrain_steps", 0), ("pretrain_steps", -5),
        ("update_steps", 0), ("batch_size", 0), ("batch_size", -1),
        ("quant_noise", -1e-4), ("gram_weight", -0.5),
    ])
    def test_config_rejects_non_positive_counts_and_negative_weights(
            self, field, value):
        with pytest.raises(ValueError):
            AutoencoderConfig(input_dim=16, **{field: value})

    def test_zero_quant_noise_and_gram_weight_are_valid(self):
        AutoencoderConfig(input_dim=16, quant_noise=0.0, gram_weight=0.0)


class TestStepCounts:
    def test_fit_with_zero_steps_trains_nothing(self):
        ae = make_ae()
        before = ae.state_dict()
        assert ae.fit(low_rank_rows(), steps=0) == []
        assert not ae.is_trained
        for name, value in ae.state_dict().items():
            assert np.array_equal(value, before[name])

    def test_fit_runs_exactly_the_steps_asked_for(self):
        assert len(make_ae(steps=150).fit(low_rank_rows(), steps=3)) == 3
        assert len(make_ae(steps=7).fit(low_rank_rows())) == 7

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            make_ae().fit(low_rank_rows(), steps=-1)

    def test_update_runs_update_steps(self):
        ae = OVTAutoencoder(AutoencoderConfig(
            input_dim=16, code_dim=8, hidden_dim=32, pretrain_steps=9,
            update_steps=4, seed=0))
        assert len(ae.fit(low_rank_rows())) == 9
        assert len(ae.update(low_rank_rows())) == 4


class TestGraphOracle:
    """``fit`` is the autograd graph's arithmetic on raw arrays: loss
    history and every parameter equal ``tests/oracles/autoencoder.py``
    bit for bit, after ``fit`` and after a following ``update``."""

    @staticmethod
    def _pair(seed, **overrides):
        config = AutoencoderConfig(input_dim=16, code_dim=8, hidden_dim=32,
                                   pretrain_steps=25, update_steps=10,
                                   seed=seed, **overrides)
        return OVTAutoencoder(config), OVTAutoencoder(config)

    @staticmethod
    def _assert_same(fast, graph, fast_history, graph_history):
        assert fast_history == graph_history
        for (name, a), (_, b) in zip(fast.named_parameters(),
                                     graph.named_parameters()):
            assert np.array_equal(a.data, b.data), name

    @pytest.mark.parametrize("seed", [0, 1, 3, 47])
    @pytest.mark.parametrize("n_rows", [5, 32, 77],
                             ids=["below-batch", "at-batch", "above-batch"])
    def test_fit_then_update_bitwise(self, seed, n_rows):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n_rows, 16)).astype(np.float32)
        fresh = rng.normal(size=(n_rows, 16)).astype(np.float32) + 0.3
        fast, graph = self._pair(seed)
        self._assert_same(fast, graph, fast.fit(rows), fit_graph(graph, rows))
        self._assert_same(fast, graph, fast.update(fresh),
                          update_graph(graph, fresh))

    @pytest.mark.parametrize("overrides", [
        {"quant_noise": 0.0}, {"gram_weight": 0.0},
        {"quant_noise": 0.0, "gram_weight": 0.0}])
    def test_without_noise_or_gram_term_bitwise(self, overrides):
        rows = low_rank_rows(40)
        fast, graph = self._pair(0, **overrides)
        self._assert_same(fast, graph, fast.fit(rows), fit_graph(graph, rows))

    def test_framework_sized_autoencoder_bitwise(self):
        """The dimensions every deployment uses (d_model 56 → code 48)."""
        config = AutoencoderConfig(input_dim=56, seed=0, pretrain_steps=12)
        fast, graph = OVTAutoencoder(config), OVTAutoencoder(config)
        rows = np.random.default_rng(5).normal(size=(90, 56)).astype(
            np.float32)
        self._assert_same(fast, graph, fast.fit(rows), fit_graph(graph, rows))
        self._assert_same(fast, graph, fast.update(rows[:20]),
                          update_graph(graph, rows[:20]))


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
        assert rms_error(ae, rows) < 0.5 * signal

    def test_update_improves_on_new_distribution(self):
        ae = make_ae(steps=200)
        ae.fit(low_rank_rows())
        shifted = low_rank_rows() + 0.3
        before = rms_error(ae, shifted)
        ae.update(shifted)
        assert rms_error(ae, shifted) < before

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
