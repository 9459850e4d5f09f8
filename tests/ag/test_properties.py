"""Property-based tests for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.ag import Tensor
from tests.oracles.graph import cross_entropy, softmax

FLOATS = st.floats(-3.0, 3.0, allow_nan=False, width=32)


def small_arrays(max_dims=3, max_side=4):
    return arrays(np.float32, array_shapes(min_dims=1, max_dims=max_dims,
                                           min_side=1, max_side=max_side),
                  elements=FLOATS)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_add_broadcast_grad_shapes_match_inputs(x):
    """Gradients always come back in the operand's own shape."""
    a = Tensor(x, requires_grad=True)
    b = Tensor(np.float32(2.5), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == a.shape
    assert b.grad.shape == b.shape
    np.testing.assert_allclose(b.grad, np.float32(x.size), rtol=1e-4)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_sum_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@settings(max_examples=40, deadline=None)
@given(small_arrays(max_dims=2))
def test_linearity_of_backward(x):
    """grad of (2a + 3a) equals grad of 5a."""
    a = Tensor(x, requires_grad=True)
    (a * 2.0 + a * 3.0).sum().backward()
    combined = a.grad.copy()
    b = Tensor(x, requires_grad=True)
    (b * 5.0).sum().backward()
    np.testing.assert_allclose(combined, b.grad, rtol=1e-5)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float32, st.tuples(st.integers(1, 5), st.integers(2, 6)),
              elements=FLOATS))
def test_softmax_is_distribution(x):
    out = softmax(Tensor(x)).data
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(x.shape[0]),
                               rtol=1e-4, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float32, st.tuples(st.integers(1, 5), st.integers(2, 6)),
              elements=FLOATS),
       st.integers(0, 10**6))
def test_cross_entropy_nonnegative_and_grad_sums_to_zero(x, seed):
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, x.shape[1], size=x.shape[0])
    logits = Tensor(x, requires_grad=True)
    loss = cross_entropy(logits, targets)
    assert loss.data >= 0.0
    loss.backward()
    # Each row's gradient (softmax - onehot) sums to zero.
    np.testing.assert_allclose(logits.grad.sum(axis=1),
                               np.zeros(x.shape[0]), atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10**6))
def test_matmul_grad_matches_manual_formula(n, k, m, seed):
    rng = np.random.default_rng(seed)
    a_data = rng.normal(size=(n, k)).astype(np.float32)
    b_data = rng.normal(size=(k, m)).astype(np.float32)
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a @ b).sum().backward()
    ones = np.ones((n, m), dtype=np.float32)
    np.testing.assert_allclose(a.grad, ones @ b_data.T, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(b.grad, a_data.T @ ones, rtol=1e-4, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(small_arrays(max_dims=2))
def test_exp_log_roundtrip_gradient(x):
    """A chain of ops and their inverses has unit gradient."""
    t = Tensor(x, requires_grad=True)
    (-(((-t) * 3.0 + 1.0 - 1.0) / 3.0)).sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x), rtol=1e-3, atol=1e-4)
