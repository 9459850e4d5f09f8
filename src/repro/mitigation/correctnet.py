"""CorrectNet-style error suppression and compensation (DATE 2023).

CorrectNet combines (i) *error suppression* — bounding the dynamic range of
the values written to the crossbar so that outlier weights do not inflate
the quantization scale and amplify relative noise — with (ii) *error
compensation* — an affine output correction learned from calibration data.
Here suppression clips values at ``clip_sigmas`` standard deviations and
compensation fits a per-column affine map from the noisy read-back to the
ideal stored values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cim.accelerator import MitigationHooks

__all__ = ["CorrectNetMitigation"]

_EPS = 1e-12


@dataclass
class CorrectNetMitigation(MitigationHooks):
    """Value clipping + per-column affine read/output correction."""

    clip_sigmas: float = 3.0

    name = "correctnet"

    def __post_init__(self):
        if self.clip_sigmas <= 0:
            raise ValueError("clip_sigmas must be positive")

    def prepare_values(self, values: np.ndarray) -> np.ndarray:
        mean = float(values.mean())
        std = float(values.std())
        if std == 0.0:
            return values
        bound = self.clip_sigmas * std
        return np.clip(values, mean - bound, mean + bound)

    def post_program(self, matrix) -> None:
        actual = matrix.read_matrix()
        ideal = matrix.ideal_matrix()
        # Per-column affine model of the *systematic* error:
        # actual ~ a * ideal + b, inverted at read time as (v - b) / a.
        # Regressing on the ideal keeps unbiased stochastic noise from
        # shrinking the correction (see CxDNN note).
        mean_a = actual.mean(axis=0)
        mean_i = ideal.mean(axis=0)
        centered_a = actual - mean_a
        centered_i = ideal - mean_i
        slope = (np.sum(centered_a * centered_i, axis=0)
                 / (np.sum(centered_i * centered_i, axis=0) + _EPS))
        slope = np.where(np.abs(slope) < 0.05, 1.0, slope)
        intercept = mean_a - slope * mean_i
        matrix.calibration["affine_slope"] = slope.astype(np.float32)
        matrix.calibration["affine_intercept"] = intercept.astype(np.float32)
        # Output compensation works on column sums: the intercept term would
        # need the input sum, so MVM outputs only invert the slope.

    def _coeffs(self, matrix) -> tuple[np.ndarray, np.ndarray]:
        slope = matrix.calibration.get("affine_slope")
        intercept = matrix.calibration.get("affine_intercept")
        if slope is None or intercept is None:
            raise RuntimeError("CorrectNet calibration missing; program first")
        return slope, intercept

    def correct_output(self, matrix, outputs: np.ndarray) -> np.ndarray:
        """Invert the per-column slope; ``outputs`` may be (n,) or (B, n).

        The slope broadcasts over a trailing column axis, so batched MVMs
        from the stacked tile layout are corrected per query exactly as B
        sequential outputs would be.
        """
        slope, _ = self._coeffs(matrix)
        return outputs / slope

    def correct_read_columns(self, matrix, values: np.ndarray,
                             col0: int, col1: int) -> np.ndarray:
        slope, intercept = self._coeffs(matrix)
        return ((values - intercept[None, col0:col1])
                / slope[None, col0:col1])
