"""Tests for Eq. 4 noise injection and noise-aware training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NoiseAwareTrainer, NoiseInjectionConfig, NoiseInjector
from repro.data import build_tokenizer, make_dataset, make_user
from repro.llm import build_model
from repro.tuning import (TuningConfig, VanillaPromptTuner,
                          initial_prompt_matrix, prompt_loss_and_grad)
from repro.tuning import vanilla

RNG = np.random.default_rng(59)


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    samples = make_dataset("LaMP-2").generate(make_user(0, seed=0), 3, seed=1)
    return model, tok, samples


class TestNoiseInjectionConfig:
    def test_tier_boundaries_match_paper(self):
        config = NoiseInjectionConfig(f1=1.0, f2=2.0, f3=3.0, f4=4.0)
        mags = np.array([0.9, 0.76, 0.75, 0.6, 0.5, 0.4, 0.25, 0.2, 0.0])
        factors = config.factors_for(mags)
        # |S^| > 0.75 -> f1;  0.5 <= |S^| <= 0.75 -> f2;
        # 0.25 <= |S^| < 0.5 -> f3;  |S^| < 0.25 -> f4.
        np.testing.assert_allclose(
            factors, [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])

    def test_negative_magnitudes_use_absolute_value(self):
        config = NoiseInjectionConfig(f1=1.0, f2=2.0, f3=3.0, f4=4.0)
        np.testing.assert_allclose(config.factors_for(np.array([-0.9])), [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseInjectionConfig(sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseInjectionConfig(f2=-1.0)

    def test_default_tiers_mirror_device_physics(self):
        """Middle-magnitude tiers are noisier, like Table II middle levels."""
        config = NoiseInjectionConfig()
        assert config.f2 > config.f1
        assert config.f3 > config.f4


class TestNoiseInjector:
    def test_noise_magnitude_scales_with_sigma(self):
        values = RNG.normal(size=(500, 8)).astype(np.float32)
        small = NoiseInjector(NoiseInjectionConfig(sigma=0.01, seed=0))
        large = NoiseInjector(NoiseInjectionConfig(sigma=0.2, seed=0))
        assert large(values).std() > small(values).std()

    def test_zero_sigma_is_identity(self):
        """σ = 0 adds nothing and draws nothing."""
        injector = NoiseInjector(NoiseInjectionConfig(sigma=0.0))
        state = injector._rng.bit_generator.state
        assert injector(RNG.normal(size=(4, 8)).astype(np.float32)) is None
        assert injector._rng.bit_generator.state == state

    def test_zero_prompt_is_identity(self):
        injector = NoiseInjector(NoiseInjectionConfig(sigma=0.1))
        state = injector._rng.bit_generator.state
        assert injector(np.zeros((4, 8), dtype=np.float32)) is None
        assert injector._rng.bit_generator.state == state

    def test_gradient_passes_straight_through(self, setup, monkeypatch):
        """The noise is a constant of the forward pass: a noise-aware step's
        gradient is the plain gradient evaluated at the noisy prompt."""
        model, tok, samples = setup
        prompt = initial_prompt_matrix(model, tok, samples, 8,
                                       np.random.default_rng(0))
        noisy = prompt + NoiseInjector(
            NoiseInjectionConfig(sigma=0.1, seed=1))(prompt)
        seen = {}

        def first_step(params, step_fn, samples, config):
            seen["loss"] = step_fn(samples)
            seen["grad"] = params[0].grad.copy()
            return [seen["loss"]]

        monkeypatch.setattr(vanilla, "train_prompt_parameters", first_step)
        step_noise = NoiseInjector(NoiseInjectionConfig(sigma=0.1, seed=1))
        VanillaPromptTuner(model, tok, TuningConfig(anchor_weight=0.0)).fit(
            samples, transform=step_noise)
        loss, grad = prompt_loss_and_grad(model, noisy, samples, tok)
        assert seen["loss"] == float(loss)
        assert np.array_equal(seen["grad"], grad)

    def test_fresh_noise_each_call(self):
        injector = NoiseInjector(NoiseInjectionConfig(sigma=0.1, seed=2))
        values = RNG.normal(size=(4, 8)).astype(np.float32)
        assert not np.allclose(injector(values), injector(values))

    def test_noise_proportional_to_peak(self):
        config = NoiseInjectionConfig(sigma=0.1, seed=3)
        values = RNG.normal(size=(100, 8)).astype(np.float32)
        scaled = values * 10.0
        noise_small = NoiseInjector(config)(values)
        noise_large = NoiseInjector(config)(scaled)
        assert noise_large.std() == pytest.approx(10 * noise_small.std(),
                                                  rel=0.2)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.01, 0.3), st.integers(0, 100))
    def test_tiered_std_bounds(self, sigma, seed):
        """Injected noise std stays within [f_min, f_max] * sigma * peak."""
        config = NoiseInjectionConfig(sigma=sigma, seed=seed)
        values = np.random.default_rng(seed).normal(
            size=(200, 16)).astype(np.float32)
        noise = NoiseInjector(config)(values)
        peak = np.abs(values).max()
        f_min = min(config.f1, config.f2, config.f3, config.f4)
        f_max = max(config.f1, config.f2, config.f3, config.f4)
        assert noise.std() >= 0.5 * f_min * sigma * peak
        assert noise.std() <= 1.5 * f_max * sigma * peak


class TestNoiseAwareTrainer:
    def test_zero_sigma_equals_vanilla_bitwise(self, setup):
        """At σ = 0 the hook adds nothing and draws nothing, so noise-aware
        training is vanilla prompt tuning, bit for bit."""
        model, tok, samples = setup
        config = TuningConfig(steps=4, seed=3)
        for batch in (samples[:1], samples):
            noise_aware = NoiseAwareTrainer(
                model, tok, config, NoiseInjectionConfig(sigma=0.0)).fit(batch)
            plain = VanillaPromptTuner(model, tok, config).fit(batch)
            assert np.array_equal(noise_aware.soft_prompt.matrix,
                                  plain.soft_prompt.matrix)
            assert noise_aware.method == "noise-aware-pt"

    def test_nonzero_sigma_moves_the_prompt(self, setup):
        model, tok, samples = setup
        config = TuningConfig(steps=4, seed=3)
        noisy = NoiseAwareTrainer(model, tok, config,
                                  NoiseInjectionConfig(sigma=0.1)).fit(
            samples[:1])
        plain = VanillaPromptTuner(model, tok, config).fit(samples[:1])
        assert not np.array_equal(noisy.soft_prompt.matrix,
                                  plain.soft_prompt.matrix)
