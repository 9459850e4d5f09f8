"""CxDNN-style compensation (Jain & Raghunathan, TECS 2019).

CxDNN compensates resistive-crossbar non-idealities in software with
per-column scaling factors calibrated once after programming.  Here the
gains are least-squares fits of the actual (noisy) stored columns against
their ideal values, applied to every MVM output and matrix read-back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cim.accelerator import MitigationHooks

__all__ = ["CxDNNCompensation"]

_EPS = 1e-12


@dataclass
class CxDNNCompensation(MitigationHooks):
    """Per-column multiplicative output compensation."""

    name = "cxdnn"

    def post_program(self, matrix) -> None:
        actual = matrix.read_matrix()
        ideal = matrix.ideal_matrix()
        # Gain of the *systematic* column error: project the actual read
        # onto the ideal column and invert that factor.  (Fitting against
        # the noisy read instead would act as Wiener shrinkage and crush
        # the stored values — compensation must not attenuate the signal.)
        projection = np.sum(actual * ideal, axis=0) / (
            np.sum(ideal * ideal, axis=0) + _EPS)
        safe = np.where(np.abs(projection) < 0.05, 1.0, projection)
        matrix.calibration["column_gain"] = (1.0 / safe).astype(np.float32)

    def _gain(self, matrix) -> np.ndarray:
        gain = matrix.calibration.get("column_gain")
        if gain is None:
            raise RuntimeError("CxDNN calibration missing; program first")
        return gain

    def correct_output(self, matrix, outputs: np.ndarray) -> np.ndarray:
        """Apply the per-column gains; ``outputs`` may be (n,) or (B, n).

        The gain vector broadcasts over a trailing column axis, so batched
        MVMs from the stacked tile layout are corrected per query exactly
        as B sequential outputs would be.
        """
        return outputs * self._gain(matrix)

    def correct_read_columns(self, matrix, values: np.ndarray,
                             col0: int, col1: int) -> np.ndarray:
        return values * self._gain(matrix)[None, col0:col1]
