"""OVT autoencoder (paper Section III-D-1).

Reshapes virtual tokens into an NVM-compatible encoding space: each
d_model-dimensional row maps to a 48-dimensional code that is then stored
as int16 on 2-bit cells (48 dims x 8 bit-slices = the 384 rows of one
subarray).  Pre-trained on user-generated embeddings and updated with the
non-representative remainder whenever the buffer is drained, following the
paper's Deep-Compression-inspired design (train, quantize-aware refine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ag import Adam, Linear, Module, Tensor, mse_loss
from ..utils import rng_from_seed

__all__ = ["AutoencoderConfig", "OVTAutoencoder"]


@dataclass(frozen=True)
class AutoencoderConfig:
    """Architecture and training settings for the OVT autoencoder."""

    input_dim: int
    code_dim: int = 48
    hidden_dim: int = 128
    lr: float = 3e-3
    pretrain_steps: int = 300
    update_steps: int = 60
    batch_size: int = 32
    quant_noise: float = 1e-4   # int16 LSB-scale noise for quantize-aware AE
    gram_weight: float = 0.5    # inner-product (retrieval geometry) loss
    seed: int = 0

    def __post_init__(self):
        if self.input_dim <= 0 or self.code_dim <= 0 or self.hidden_dim <= 0:
            raise ValueError("dimensions must be positive")


def _affine(layer: Linear, x: np.ndarray) -> np.ndarray:
    """``layer(x)`` on raw arrays: the same numpy ops, no autograd graph."""
    return np.matmul(x, layer.weight.data) + layer.bias.data


class OVTAutoencoder(Module):
    """Two-layer tanh encoder/decoder between model space and NVM space.

    ``encode_tensor``/``decode_tensor`` are the training graph; ``encode``/
    ``decode`` (every query's path) compute the same values graph-free.
    """

    def __init__(self, config: AutoencoderConfig):
        super().__init__()
        rng = rng_from_seed(config.seed)
        self.config = config
        self.enc1 = Linear(config.input_dim, config.hidden_dim, rng=rng)
        self.enc2 = Linear(config.hidden_dim, config.code_dim, rng=rng)
        self.dec1 = Linear(config.code_dim, config.hidden_dim, rng=rng)
        self.dec2 = Linear(config.hidden_dim, config.input_dim, rng=rng)
        self._trained = False

    # ------------------------------------------------------------------
    def encode_tensor(self, x: Tensor) -> Tensor:
        return self.enc2(self.enc1(x).tanh())

    def decode_tensor(self, code: Tensor) -> Tensor:
        return self.dec2(self.dec1(code).tanh())

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Encode (n, input_dim) rows to (n, code_dim) codes."""
        rows = self._check_rows(rows)
        return _affine(self.enc2, np.tanh(_affine(self.enc1, rows)))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Decode (n, code_dim) codes back to model space."""
        codes = np.asarray(codes, dtype=np.float32)
        if codes.ndim != 2 or codes.shape[1] != self.config.code_dim:
            raise ValueError(
                f"expected (n, {self.config.code_dim}) codes, got {codes.shape}"
            )
        return _affine(self.dec2, np.tanh(_affine(self.dec1, codes)))

    def reconstruction_error(self, rows: np.ndarray) -> float:
        """RMS reconstruction error on ``rows``."""
        decoded = self.decode(self.encode(rows))
        return float(np.sqrt(np.mean((decoded - rows) ** 2)))

    # ------------------------------------------------------------------
    # Matrix-level API with digital scale metadata.  Virtual tokens drift
    # to magnitudes far above the embedding rows the autoencoder trains
    # on, so matrices are normalised to unit peak before encoding and the
    # scale travels digitally (exactly like a quantization codec scale).
    # ------------------------------------------------------------------
    @staticmethod
    def matrix_scale(matrix: np.ndarray) -> float:
        """Peak magnitude used to normalise a token matrix."""
        peak = float(np.abs(matrix).max())
        return peak if peak > 0 else 1.0

    def encode_matrix(self, matrix: np.ndarray) -> tuple[np.ndarray, float]:
        """Encode a (tokens, input_dim) matrix; returns (codes, scale)."""
        scale = self.matrix_scale(matrix)
        return self.encode(np.asarray(matrix, dtype=np.float32) / scale), scale

    def decode_matrix(self, codes: np.ndarray, scale: float) -> np.ndarray:
        """Invert :meth:`encode_matrix`."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return self.decode(codes) * scale

    # ------------------------------------------------------------------
    def fit(self, rows: np.ndarray, *, steps: int | None = None) -> list[float]:
        """(Pre)train on embedding rows; returns the loss history."""
        rows = self._check_rows(rows)
        steps = steps or self.config.pretrain_steps
        rng = rng_from_seed(self.config.seed + 1)
        optimizer = Adam(self.parameters(), lr=self.config.lr)
        history = []
        for _ in range(steps):
            count = min(self.config.batch_size, rows.shape[0])
            picks = rng.choice(rows.shape[0], size=count, replace=False)
            batch = Tensor(rows[picks])
            optimizer.zero_grad()
            code = self.encode_tensor(batch)
            if self.config.quant_noise > 0:
                noise = rng.normal(0.0, self.config.quant_noise,
                                   code.shape).astype(np.float32)
                code = code + Tensor(noise)
            out = self.decode_tensor(code)
            loss = mse_loss(out, batch)
            if self.config.gram_weight > 0:
                # Retrieval runs dot products in code space, so the encoder
                # must preserve inner products: match the Gram matrices.
                gram_in = batch @ batch.transpose(1, 0)
                gram_code = code @ code.transpose(1, 0)
                loss = loss + mse_loss(gram_code, gram_in) * self.config.gram_weight
            loss.backward()
            optimizer.step()
            history.append(float(loss.data))
        self._trained = True
        return history

    def update(self, rows: np.ndarray) -> list[float]:
        """Incremental update with new user data (buffer remainder)."""
        return self.fit(rows, steps=self.config.update_steps)

    @property
    def is_trained(self) -> bool:
        return self._trained

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[1] != self.config.input_dim:
            raise ValueError(
                f"expected (n, {self.config.input_dim}) rows, got {rows.shape}"
            )
        if rows.shape[0] == 0:
            raise ValueError("need at least one row")
        return rows
