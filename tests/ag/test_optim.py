"""Tests for optimizers, schedulers and gradient clipping."""

import numpy as np
import pytest

from repro.ag import Adam, LinearWarmupDecay, Parameter, Tensor, clip_grad_norm


def _quadratic_loss(param: Parameter) -> Tensor:
    target = Tensor(np.array([3.0, -2.0, 0.5]))
    diff = param - target
    return (diff * diff).sum()


class TestAdam:
    def test_requires_trainable_params(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0])], lr=0.1)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(3))
        opt = Adam([param], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            _quadratic_loss(param).backward()
            opt.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0, 0.5], atol=1e-2)

    def test_skips_params_without_grad(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        opt = Adam([a, b], lr=0.1)
        (a.sum() * 2.0).backward()
        opt.step()
        np.testing.assert_allclose(b.data, np.ones(2))
        assert not np.allclose(a.data, np.ones(2))

    def test_weight_decay_shrinks_params(self):
        param = Parameter(np.full(3, 10.0))
        opt = Adam([param], lr=0.0001, weight_decay=1.0)
        param.grad = np.zeros(3)
        before = param.data.copy()
        opt.step()
        assert np.all(np.abs(param.data) < np.abs(before))


class TestScheduler:
    def test_warmup_then_decay(self):
        param = Parameter(np.zeros(1))
        opt = Adam([param], lr=1.0)
        sched = LinearWarmupDecay(opt, warmup_steps=10, total_steps=100)
        lrs = []
        for _ in range(100):
            lrs.append(opt.lr)      # lr this optimizer step runs at
            sched.step()
        assert abs(lrs[0] - 0.1) < 1e-9           # warmup from the first step
        assert lrs[4] < lrs[9]                    # warming up
        assert abs(lrs[9] - 1.0) < 1e-9           # peak at end of warmup
        assert lrs[50] > lrs[98]                  # decaying
        assert abs(lrs[99]) < 1e-9                # decayed to 0 at the end

    def test_first_step_not_skipped(self):
        """The factor applies at construction: the usual optimizer.step()
        -> scheduler.step() loop must not run step 1 at full base lr."""
        opt = Adam([Parameter(np.zeros(1))], lr=1.0)
        LinearWarmupDecay(opt, warmup_steps=4, total_steps=10)
        assert abs(opt.lr - 0.25) < 1e-9

    def test_full_trajectory_warmup2_total6(self):
        """Exact lr for every optimizer step of a warmup=2, total=6 run."""
        base_lr = 0.8
        opt = Adam([Parameter(np.zeros(1))], lr=base_lr)
        sched = LinearWarmupDecay(opt, warmup_steps=2, total_steps=6)
        seen = []
        for _ in range(6):
            seen.append(opt.lr)
            sched.step()
        expected = [base_lr * f for f in (0.5, 1.0, 0.75, 0.5, 0.25, 0.0)]
        np.testing.assert_allclose(seen, expected, rtol=1e-12)

    def test_no_warmup(self):
        opt = Adam([Parameter(np.zeros(1))], lr=2.0)
        sched = LinearWarmupDecay(opt, warmup_steps=0, total_steps=4)
        assert opt.lr == 2.0      # no warmup: first step at full base lr
        sched.step()
        assert opt.lr < 2.0

    def test_invalid_configuration(self):
        opt = Adam([Parameter(np.zeros(1))], lr=1.0)
        with pytest.raises(ValueError):
            LinearWarmupDecay(opt, warmup_steps=5, total_steps=4)
        with pytest.raises(ValueError):
            LinearWarmupDecay(opt, warmup_steps=0, total_steps=0)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-5)

    def test_leaves_small_gradients(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 0.01)
        clip_grad_norm([param], max_norm=1.0)
        np.testing.assert_allclose(param.grad, np.full(4, 0.01))

    def test_handles_missing_grads(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], 1.0) == 0.0
