"""Noise-aware Training (NT) — paper Eq. 4.

During prompt tuning, Gaussian noise is injected into the virtual tokens
with a standard deviation tiered on each element's normalised magnitude:

    S' = S + N * max|S|,   N_ij ~ Normal(0, (sigma * f_t)^2)

where tier t depends on |S_ij| / max|S|.  The tier factors mirror the
device physics of Table II: mid-range values land on the noisier middle
conductance levels, extreme values on the quieter end levels.  The noise is
a constant within each forward pass, so gradients flow straight through to
``S`` — the prompt learns to keep working under perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.lamp import Sample
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from ..tuning import PromptArtifact, TuningConfig, VanillaPromptTuner
from ..utils import rng_from_seed

__all__ = ["NoiseInjectionConfig", "NoiseInjector", "NoiseAwareTrainer"]


@dataclass(frozen=True)
class NoiseInjectionConfig:
    """Eq. 4 parameters: global sigma and the four tier factors.

    Tier boundaries follow the paper exactly: |S^|>0.75 -> f1,
    0.5..0.75 -> f2, 0.25..0.5 -> f3, <0.25 -> f4.  The default factors
    are calibrated so the injected perturbation matches the measured
    value-domain error of an int16 bit-sliced store on a Table II device
    (restored-value rmse is about 2*sigma of the peak magnitude, MSB-cell
    dominated; mid-magnitude values sit on the noisier middle levels).
    """

    sigma: float = 0.1
    f1: float = 1.0    # |S^| > 0.75 (end levels, quieter)
    f2: float = 1.6    # 0.5 <= |S^| <= 0.75 (middle levels, noisier)
    f3: float = 1.6    # 0.25 <= |S^| < 0.5
    f4: float = 1.0    # |S^| < 0.25
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        for factor in (self.f1, self.f2, self.f3, self.f4):
            if factor < 0:
                raise ValueError("noise factors must be non-negative")

    def factors_for(self, normalised: np.ndarray) -> np.ndarray:
        """Map |S^| magnitudes to their tier factor."""
        mags = np.abs(normalised)
        out = np.full(mags.shape, self.f4, dtype=np.float32)
        out[mags >= 0.25] = self.f3
        out[mags >= 0.5] = self.f2
        out[mags > 0.75] = self.f1
        return out


class NoiseInjector:
    """The Eq. 4 noise hook: called with the prompt before each forward
    pass, it returns the noise added for that pass."""

    def __init__(self, config: NoiseInjectionConfig):
        self.config = config
        self._rng = rng_from_seed(config.seed)

    def __call__(self, values: np.ndarray) -> np.ndarray | None:
        """``N * max|S|`` for the prompt ``values``, a fresh draw per call;
        None — and no draw — when sigma or the peak is zero."""
        peak = float(np.abs(values).max())
        if peak == 0.0 or self.config.sigma == 0.0:
            return None
        normalised = values / peak
        stds = self.config.sigma * self.config.factors_for(normalised)
        noise = self._rng.normal(0.0, 1.0, values.shape).astype(np.float32)
        noise *= stds * peak
        return noise


class NoiseAwareTrainer:
    """Vanilla prompt tuning with Eq. 4 noise injection (the paper's NT)."""

    method_name = "noise-aware-pt"

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 tuning: TuningConfig = TuningConfig(),
                 noise: NoiseInjectionConfig = NoiseInjectionConfig()):
        self.model = model
        self.tokenizer = tokenizer
        self.tuning = tuning
        self.noise = noise

    def fit(self, samples: list[Sample]) -> PromptArtifact:
        injector = NoiseInjector(self.noise)
        tuner = VanillaPromptTuner(self.model, self.tokenizer, self.tuning)
        artifact = tuner.fit(samples, transform=injector)
        artifact.method = self.method_name
        return artifact
