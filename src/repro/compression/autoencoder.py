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

from ..ag import Adam, Linear, Module
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
        if self.pretrain_steps <= 0 or self.update_steps <= 0:
            raise ValueError("pretrain_steps and update_steps must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.quant_noise < 0 or self.gram_weight < 0:
            raise ValueError("quant_noise and gram_weight must be non-negative")


def _affine(layer: Linear, x: np.ndarray) -> np.ndarray:
    """``layer(x)`` on raw arrays: the same numpy ops, no autograd graph."""
    return np.matmul(x, layer.weight.data) + layer.bias.data


def _affine_grad(layer: Linear, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Backward of ``_affine(layer, x)``: sets the layer's parameter
    gradients and returns the input gradient."""
    layer.bias.grad = grad.sum(axis=0)
    layer.weight.grad = np.matmul(x.swapaxes(-1, -2), grad)
    return np.matmul(grad, layer.weight.data.swapaxes(-1, -2))


def _mse(prediction: np.ndarray, target: np.ndarray):
    """``ag.mse_loss`` on arrays: the loss and its backward, which maps the
    loss's upstream gradient to the prediction's."""
    diff = prediction - target
    scale = np.float32(1.0 / diff.size)

    def backward(grad) -> np.ndarray:
        term = grad * scale * diff
        return term + term      # diff * diff: one term per operand

    return (diff * diff).sum() * scale, backward


class OVTAutoencoder(Module):
    """Two-layer tanh encoder/decoder between model space and NVM space.

    ``encode``/``decode`` serve every query; ``fit`` trains on the same
    arrays with a hand-written backward (no autograd graph).
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

    @classmethod
    def from_state_dict(cls, config: AutoencoderConfig,
                        state: dict[str, np.ndarray], *,
                        trained: bool) -> OVTAutoencoder:
        """An autoencoder of ``config``'s architecture holding ``state``
        (what :meth:`state_dict` returns), built without drawing initial
        weights.

        ``state`` is checked as :meth:`load_state_dict` checks it — a
        missing or unexpected key is a ``KeyError``, a wrong shape a
        ``ValueError`` — and each parameter is one owned float32 copy.
        """
        self = cls.__new__(cls)
        self.config = config
        self.enc1 = Linear.empty(config.input_dim, config.hidden_dim)
        self.enc2 = Linear.empty(config.hidden_dim, config.code_dim)
        self.dec1 = Linear.empty(config.code_dim, config.hidden_dim)
        self.dec2 = Linear.empty(config.hidden_dim, config.input_dim)
        self.load_state_dict(state)
        self._trained = trained
        return self

    # ------------------------------------------------------------------
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
        """(Pre)train on embedding rows; returns the loss history.

        ``steps=None`` runs ``config.pretrain_steps``; ``steps=0`` runs
        none and leaves the autoencoder as it was.
        """
        rows = self._check_rows(rows)
        steps = self.config.pretrain_steps if steps is None else steps
        if steps < 0:
            raise ValueError("steps must be non-negative")
        rng = rng_from_seed(self.config.seed + 1)
        optimizer = Adam(self.parameters(), lr=self.config.lr)
        history = []
        for _ in range(steps):
            count = min(self.config.batch_size, rows.shape[0])
            picks = rng.choice(rows.shape[0], size=count, replace=False)
            history.append(self._train_step(rows[picks], rng))
            optimizer.step()
        self._trained = self._trained or steps > 0
        return history

    def _train_step(self, batch: np.ndarray, rng: np.random.Generator) -> float:
        """One step's loss, each parameter's gradient left in ``.grad``.

        The loss is ``mse(decode(encode(x) + noise), x) + gram_weight *
        mse(code code^T, x x^T)``: retrieval runs dot products in code
        space, so the encoder must preserve inner products.  Forward and
        backward run the numpy operations of its autograd graph
        (``tests/oracles/autoencoder.py``) in the same order, so losses and
        gradients are bit-identical to it; ``code``'s three gradient terms
        add up in the graph's reverse-DFS order — the decoder's, then the
        Gram product's left operand's, then its right operand's.
        """
        config = self.config
        hidden = np.tanh(_affine(self.enc1, batch))
        code = _affine(self.enc2, hidden)
        if config.quant_noise > 0:
            code = code + rng.normal(0.0, config.quant_noise,
                                     code.shape).astype(np.float32)
        dec_hidden = np.tanh(_affine(self.dec1, code))
        loss, mse_grad = _mse(_affine(self.dec2, dec_hidden), batch)
        weight = np.float32(config.gram_weight)
        if config.gram_weight > 0:
            gram_loss, gram_grad = _mse(np.matmul(code, code.transpose(1, 0)),
                                        np.matmul(batch, batch.transpose(1, 0)))
            loss = loss + gram_loss * weight

        grad = _affine_grad(self.dec2, dec_hidden, mse_grad(1.0))
        grad = grad * (1.0 - dec_hidden * dec_hidden)
        code_grad = _affine_grad(self.dec1, code, grad)
        if config.gram_weight > 0:
            grad = gram_grad(weight)
            code_grad += np.matmul(grad, code)
            code_grad += np.matmul(code.swapaxes(-1, -2), grad).transpose(1, 0)
        grad = _affine_grad(self.enc2, hidden, code_grad)
        grad = grad * (1.0 - hidden * hidden)
        self.enc1.bias.grad = grad.sum(axis=0)
        self.enc1.weight.grad = np.matmul(batch.swapaxes(-1, -2), grad)
        return float(loss)

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
