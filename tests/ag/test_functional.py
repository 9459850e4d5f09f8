"""Tests for activations and losses.

The graph ``softmax`` and the cross-entropy wrappers live in
``tests/oracles/graph.py`` (the autograd transformer's helpers); their
array cores — what the hand-written backward reads — are in
``repro.ag.functional``, so these tests cover both.
"""

import numpy as np
import pytest

from repro.ag import Tensor, gelu, mse_loss
from tests.ag.gradcheck import check_gradient
from tests.oracles.graph import cross_entropy, sequence_cross_entropy, softmax

RNG = np.random.default_rng(11)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(Tensor(RNG.normal(size=(5, 7))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), rtol=1e-5)

    def test_shift_invariance(self):
        x = RNG.normal(size=(3, 4))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-4)

    def test_large_values_stable(self):
        out = softmax(Tensor(np.array([[1000.0, 1000.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_gradient(self):
        weights = Tensor(RNG.normal(size=(2, 5)))
        check_gradient(lambda t: softmax(t) * weights, RNG.normal(size=(2, 5)))

class TestGelu:
    def test_known_values(self):
        out = gelu(Tensor([0.0, 1.0, -1.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.8412, -0.1588], atol=1e-3)

    def test_gradient(self):
        check_gradient(gelu, RNG.normal(size=(6,)))

    def test_monotone_for_positive(self):
        x = np.linspace(0.1, 3.0, 20, dtype=np.float32)
        out = gelu(Tensor(x)).data
        assert np.all(np.diff(out) > 0)


class TestCrossEntropy:
    def test_matches_manual_nll(self):
        logits = RNG.normal(size=(4, 5)).astype(np.float32)
        targets = np.array([0, 2, 4, 1])
        loss = cross_entropy(Tensor(logits), targets)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(4), targets]))
        np.testing.assert_allclose(loss.data, expected, rtol=1e-5)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        targets = np.array([1, 3, 0])
        cross_entropy(logits, targets).backward()
        probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(3), targets] -= 1.0
        np.testing.assert_allclose(logits.grad, probs / 3.0, rtol=1e-5, atol=1e-6)

    def test_ignore_index_masks_positions(self):
        logits = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        targets = np.array([1, -100, 2, -100])
        loss = cross_entropy(logits, targets, ignore_index=-100)
        loss.backward()
        np.testing.assert_allclose(logits.grad[1], np.zeros(5))
        np.testing.assert_allclose(logits.grad[3], np.zeros(5))
        kept = cross_entropy(Tensor(logits.data[[0, 2]]), targets[[0, 2]])
        np.testing.assert_allclose(loss.data, kept.data, rtol=1e-6)

    def test_all_ignored_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, -1]),
                          ignore_index=-1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))

    def test_perfect_prediction_near_zero_loss(self):
        logits = np.full((2, 3), -20.0, dtype=np.float32)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.data < 1e-4


class TestSequenceCrossEntropy:
    def test_matches_mean_of_per_sample_losses(self):
        """The batched loss must equal the mean of per-sequence
        cross_entropy over the same (ragged) batch."""
        logits = RNG.normal(size=(3, 6, 5)).astype(np.float32)
        targets = np.full((3, 6), -100, dtype=np.int64)
        targets[0, :4] = [1, 0, 3, 2]
        targets[1, :2] = [4, 4]
        targets[2, :6] = [0, 1, 2, 3, 4, 0]
        loss = sequence_cross_entropy(Tensor(logits), targets,
                                      ignore_index=-100)
        per_sample = [
            float(cross_entropy(Tensor(logits[i]), targets[i],
                                ignore_index=-100).data)
            for i in range(3)
        ]
        np.testing.assert_allclose(float(loss.data), np.mean(per_sample),
                                   rtol=1e-6)

    def test_gradient_matches_per_sample_backward(self):
        logits = Tensor(RNG.normal(size=(2, 4, 5)), requires_grad=True)
        targets = np.array([[1, 2, -100, -100], [0, 4, 3, 1]])
        sequence_cross_entropy(logits, targets, ignore_index=-100).backward()
        reference = np.zeros_like(logits.data)
        for i in range(2):
            row = Tensor(logits.data[i], requires_grad=True)
            cross_entropy(row, targets[i], ignore_index=-100).backward()
            reference[i] = row.grad / 2.0     # mean over the batch
        np.testing.assert_allclose(logits.grad, reference, rtol=1e-5,
                                   atol=1e-7)

    def test_ignored_positions_get_zero_gradient(self):
        logits = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        targets = np.array([[0, -100, 2], [-100, 1, 3]])
        sequence_cross_entropy(logits, targets, ignore_index=-100).backward()
        np.testing.assert_allclose(logits.grad[0, 1], np.zeros(4))
        np.testing.assert_allclose(logits.grad[1, 0], np.zeros(4))

    def test_sequence_with_no_valid_targets_raises(self):
        with pytest.raises(ValueError):
            sequence_cross_entropy(Tensor(np.zeros((2, 3, 4))),
                                   np.array([[0, 1, 2], [-1, -1, -1]]),
                                   ignore_index=-1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sequence_cross_entropy(Tensor(np.zeros((2, 3))),
                                   np.array([0, 1]))
        with pytest.raises(ValueError):
            sequence_cross_entropy(Tensor(np.zeros((2, 3, 4))),
                                   np.array([[0, 1], [2, 3]]))


class TestMseLoss:
    def test_zero_for_identical(self):
        x = Tensor(RNG.normal(size=(3, 3)))
        assert mse_loss(x, x).data == 0.0

    def test_gradient(self):
        target = Tensor(RNG.normal(size=(2, 3)))
        check_gradient(lambda t: mse_loss(t, target), RNG.normal(size=(2, 3)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
