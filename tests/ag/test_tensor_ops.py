"""Gradient and semantics tests for the core Tensor operations."""

import numpy as np
import pytest

from repro.ag import Tensor, no_grad
from tests.ag.gradcheck import check_gradient
from tests.oracles.autoencoder import tanh
from tests.oracles.graph import (broadcast_to, cat, getitem, masked_fill,
                                 swapaxes)

RNG = np.random.default_rng(7)


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_gradient(self):
        check_gradient(lambda t: t + t * 2.0, RNG.normal(size=(3, 4)))

    def test_add_broadcast_gradient(self):
        bias = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_mul_gradient(self):
        check_gradient(lambda t: t * t, RNG.normal(size=(2, 3)))

    def test_sub_and_div(self):
        a = Tensor([6.0]), Tensor([2.0])
        np.testing.assert_allclose((a[0] - a[1]).data, [4.0])
        np.testing.assert_allclose((a[0] / a[1]).data, [3.0])

    def test_div_gradient(self):
        check_gradient(lambda t: t / 2.0 + 1.0 / (t + 5.0),
                       RNG.uniform(1.0, 2.0, size=(3,)))

    def test_pow_gradient(self):
        check_gradient(lambda t: t ** 3.0, RNG.uniform(0.5, 1.5, size=(4,)))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_reflected_ops(self):
        t = Tensor([2.0])
        np.testing.assert_allclose((3.0 + t).data, [5.0])
        np.testing.assert_allclose((3.0 - t).data, [1.0])
        np.testing.assert_allclose((3.0 * t).data, [6.0])
        np.testing.assert_allclose((3.0 / t).data, [1.5])


class TestMatmul:
    def test_matmul_values(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.arange(12, dtype=np.float32).reshape(3, 4)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_matmul_gradient(self):
        w = RNG.normal(size=(4, 2))
        check_gradient(lambda t: t @ Tensor(w), RNG.normal(size=(3, 4)))

    def test_matmul_gradient_rhs(self):
        x = RNG.normal(size=(3, 4))
        check_gradient(lambda t: Tensor(x) @ t, RNG.normal(size=(4, 2)))

    def test_batched_matmul_gradient(self):
        w = RNG.normal(size=(2, 4, 5))
        check_gradient(lambda t: t @ Tensor(w), RNG.normal(size=(2, 3, 4)))

    def test_broadcast_batched_matmul(self):
        # (B, H, T, D) @ (D, D') with implicit broadcast over batch dims.
        w = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
        x = Tensor(RNG.normal(size=(2, 3, 5, 4)), requires_grad=True)
        (x @ w).sum().backward()
        assert w.grad.shape == (4, 4)
        assert x.grad.shape == (2, 3, 5, 4)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]) @ Tensor([[1.0], [2.0]])


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum() * 1.0, RNG.normal(size=(3, 2)))

    def test_sum_axis_keepdims(self):
        out = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_sum_axis_gradient(self):
        check_gradient(lambda t: t.sum(axis=0), RNG.normal(size=(3, 4)))

    def test_mean_gradient(self):
        check_gradient(lambda t: t.mean(axis=1), RNG.normal(size=(2, 5)))

    def test_mean_value(self):
        np.testing.assert_allclose(Tensor([1.0, 3.0]).mean().data, 2.0)

class TestElementwise:
    def test_tanh_gradient(self):
        """The autoencoder oracle's tanh (``tests/oracles/autoencoder.py``)."""
        check_gradient(tanh, RNG.normal(size=(4,)))

class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        check_gradient(lambda t: t.reshape(6) * 2.0, RNG.normal(size=(2, 3)))

    def test_transpose_gradient(self):
        weights = Tensor(RNG.normal(size=(2, 2)))
        check_gradient(lambda t: t.transpose(1, 0) @ weights,
                       RNG.normal(size=(2, 3)))

    def test_swapaxes_roundtrip(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        swapaxes(x, 0, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_broadcast_to_values(self):
        x = Tensor(RNG.normal(size=(1, 3)))
        out = broadcast_to(x, (4, 3))
        np.testing.assert_allclose(out.data, np.broadcast_to(x.data, (4, 3)))

    def test_broadcast_to_gradient_sums_over_batch(self):
        x = Tensor(RNG.normal(size=(1, 3)), requires_grad=True)
        (broadcast_to(x, (5, 3)) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 3), 10.0))

    def test_broadcast_to_gradcheck(self):
        weights = Tensor(RNG.normal(size=(4, 2)))
        check_gradient(lambda t: broadcast_to(t, (4, 2)) * weights,
                       RNG.normal(size=(1, 2)))

    def test_getitem_slice_gradient(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        getitem(x, slice(1, 3)).sum().backward()
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_fancy_index_accumulates(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        idx = np.array([0, 0, 2])
        getitem(x, idx).sum().backward()
        np.testing.assert_allclose(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_masked_fill(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        mask = np.array([False, True, False])
        out = masked_fill(x, mask, -99.0)
        np.testing.assert_allclose(out.data, [1.0, -99.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 1.0])

    def test_cat_gradient(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        out = cat([a, b], axis=0)
        assert out.shape == (6, 3)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((4, 3), 2.0))

    def test_cat_empty_raises(self):
        with pytest.raises(ValueError):
            cat([], axis=0)

class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor([3.0], requires_grad=True)
        y = x.detach() * 2.0 + x
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_diamond_graph_topological_order(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        b = a * 3.0
        c = a * 4.0
        (b + c).backward()
        np.testing.assert_allclose(x.grad, [14.0])

    def test_float32_enforced(self):
        assert Tensor(np.arange(3)).data.dtype == np.float32
        assert Tensor([1, 2]).data.dtype == np.float32
