"""Tests for Module containers and the standard layers."""

import numpy as np
import pytest

from repro.ag import (
    Embedding, LayerNorm, Linear, Module, Parameter, Tensor,
)
from tests.ag.gradcheck import check_gradient
from tests.oracles.graph import embedding, layer_norm

RNG = np.random.default_rng(13)


class _Net(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))
        self.blocks = [LayerNorm(8), LayerNorm(8)]

    def forward(self, x):
        return self.fc2(layer_norm(self.blocks[0], self.fc1(x)))


class TestModule:
    def test_named_parameters_discovers_nested_and_lists(self):
        names = {name for name, _ in _Net().named_parameters()}
        assert "fc1.weight" in names
        assert "fc2.bias" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names

    def test_num_parameters(self):
        net = _Net()
        expected = 4 * 8 + 8 + 8 * 2 + 2 + 4 * 8
        assert net.num_parameters() == expected

    def test_state_dict_roundtrip(self):
        net, other = _Net(), _Net()
        other.fc1.weight.data += 1.0
        other.load_state_dict(net.state_dict())
        np.testing.assert_allclose(other.fc1.weight.data, net.fc1.weight.data)

    def test_load_state_dict_rejects_missing_keys(self):
        net = _Net()
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self):
        net = _Net()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_zero_grad(self):
        net = _Net()
        out = net(Tensor(RNG.normal(size=(3, 4))))
        out.sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert net.fc1.weight.grad is None

    def test_parameter_trainable_by_default(self):
        assert Parameter(np.zeros(3)).requires_grad


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 3)
        assert layer(Tensor(RNG.normal(size=(2, 5)))).shape == (2, 3)

    def test_matches_manual_affine(self):
        layer = Linear(4, 2, rng=np.random.default_rng(3))
        x = RNG.normal(size=(3, 4)).astype(np.float32)
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-5)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((1, 4)))).data.sum() == 0.0

    def test_input_gradient(self):
        layer = Linear(4, 3, rng=np.random.default_rng(5))
        check_gradient(layer, RNG.normal(size=(2, 4)))


class TestEmbedding:
    def test_lookup_values(self):
        emb = Embedding(10, 4, rng=np.random.default_rng(2))
        idx = np.array([[1, 3], [3, 9]])
        out = embedding(emb, idx)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 1], emb.weight.data[3])

    def test_gradient_scatter_adds_duplicates(self):
        emb = Embedding(5, 2)
        out = embedding(emb, np.array([1, 1, 4]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[4], [1.0, 1.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])

    def test_out_of_range_raises(self):
        emb = Embedding(5, 2)
        with pytest.raises(IndexError):
            embedding(emb, np.array([5]))
        with pytest.raises(IndexError):
            embedding(emb, np.array([-1]))


class TestLayerNorm:
    def test_output_statistics(self):
        ln = LayerNorm(16)
        out = layer_norm(ln, Tensor(RNG.normal(2.0, 3.0, size=(4, 16)))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-2)

    def test_gradient(self):
        ln = LayerNorm(6)
        check_gradient(lambda t: layer_norm(ln, t), RNG.normal(size=(3, 6)))

    def test_affine_params_used(self):
        ln = LayerNorm(4)
        ln.weight.data[:] = 2.0
        ln.bias.data[:] = 1.0
        out = layer_norm(ln, Tensor(RNG.normal(size=(2, 4)))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.ones(2), atol=1e-4)

