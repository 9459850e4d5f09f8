"""Neural network layers built on the autograd engine."""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter
from .tensor import Tensor, _unbroadcast
from ..utils import rng_from_seed

__all__ = ["Linear", "Embedding", "LayerNorm", "QuantizedLinear",
           "quantize_groups"]


class Linear(Module):
    """Affine map ``y = x @ W + b`` with W of shape (in_features, out_features)."""

    def __init__(self, in_features: int, out_features: int, *, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or rng_from_seed(0)
        scale = 1.0 / np.sqrt(in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(rng.uniform(-scale, scale, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    @classmethod
    def empty(cls, in_features: int, out_features: int, *,
              bias: bool = True) -> "Linear":
        """A layer of this shape whose parameters hold uninitialised
        float32 memory (``np.empty``), not drawn weights: for a caller
        that loads a state dict into it next."""
        layer = cls.__new__(cls)
        layer.in_features = in_features
        layer.out_features = out_features
        layer.weight = Parameter(np.empty((in_features, out_features),
                                          dtype=np.float32))
        layer.bias = (Parameter(np.empty(out_features, dtype=np.float32))
                      if bias else None)
        return layer

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


def quantize_groups(weights: np.ndarray, bits: int = 4,
                    group_size: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-group round-to-nearest quantization of a 2-D matrix.

    Groups run along the input dimension (rows), each with one float32
    scale — GPTQ's per-group format.  ``bits`` is 4 or 8, the widths
    :class:`QuantizedLinear` packs; any other fails before any work.
    Returns ``(codes, scales)`` where
    ``codes`` is int8 of ``weights``'s shape holding the grid indices in
    ``[-(2**(bits-1) - 1), 2**(bits-1) - 1]`` and ``scales`` is float32
    of shape ``(n_groups,)``.  ``codes * scale`` reproduces, bit for bit,
    what the historical per-group Python loop computed; an all-zero group
    gets scale 0.0 and zero codes.
    """
    if bits not in (4, 8):
        raise ValueError(f"quantize_groups supports bits 4 or 8, got {bits}")
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    weights = np.asarray(weights, dtype=np.float32)
    if weights.ndim != 2:
        raise ValueError("quantize_groups expects a 2-D matrix")
    q_max = 2 ** (bits - 1) - 1
    rows, cols = weights.shape
    n_groups = -(-rows // group_size)
    pad = n_groups * group_size - rows
    padded = weights
    if pad:
        # The tail group is shorter than group_size: pad it with zeros,
        # which cannot raise an abs-max and quantize to code 0 themselves,
        # so the tail rows round exactly as the unpadded loop rounded them.
        padded = np.concatenate(
            [weights, np.zeros((pad, cols), dtype=np.float32)], axis=0)
    grouped = padded.reshape(n_groups, group_size, cols)
    scales = np.abs(grouped).max(axis=(1, 2)) / q_max
    # An all-zero group has scale 0; divide by 1 there (the zeros still
    # round to code 0) instead of poisoning the whole batch with inf/nan.
    safe = np.where(scales == 0.0, np.float32(1.0), scales)
    codes = np.clip(np.round(grouped / safe[:, None, None]),
                    -q_max - 1, q_max)
    codes = codes.reshape(n_groups * group_size, cols)[:rows]
    return codes.astype(np.int8), scales.astype(np.float32)


def _pack_int4(codes_t: np.ndarray) -> np.ndarray:
    """Pack int4 codes, two per byte, along the last (input) axis.

    ``codes_t`` is int8 shaped (out_features, in_features) with values in
    [-7, 7].  Each value is stored offset-binary (``code + 8``); byte ``j``
    holds input channels ``2j`` (low nibble) and ``2j + 1`` (high nibble).
    An odd input dimension is padded with code 0 (stored nibble 8).
    """
    out_features, in_features = codes_t.shape
    if in_features % 2:
        codes_t = np.concatenate(
            [codes_t, np.zeros((out_features, 1), dtype=np.int8)], axis=1)
    biased = (codes_t + np.int8(8)).astype(np.uint8)
    return biased[:, 0::2] | (biased[:, 1::2] << np.uint8(4))


class QuantizedLinear(Module):
    """Weight-quantized drop-in for :class:`Linear` (int8 or packed int4).

    Stores the frozen weight as quantized codes plus per-input-group
    float32 scales (see :func:`quantize_groups`) and evaluates the affine
    map with a fused dequantize-matmul kernel that never materializes the
    full float32 weight matrix: per-group scales are folded into the
    activations once (symmetric quantization makes in-group dequantization
    a pure int-to-float cast), then column blocks of the stored transposed
    codes are cast into a small scratch buffer and multiplied while
    cache-hot.

    Two properties the serving stack depends on:

    - **Batch-layout determinism.**  The kernel calls ``np.matmul`` on the
      activations at their original dimensionality, so a ``(B, 1, d)``
      decode batch is evaluated slice-by-slice exactly like the float
      path — every row's result is bitwise independent of which other
      sequences share the batch (a whole-batch 2-D GEMM would not be:
      BLAS picks different kernels for different batch heights).
    - **Equivalence contract.**  ``x @ layer.dequantized_weight()``
      (plus bias) materializes the dequantized weights (test/debug only)
      and runs the plain float GEMM; the fused kernel agrees with it to
      float32 rounding, because column blocking partitions outputs, never
      the reduction axis.

    The weight is frozen by construction — it is not a
    :class:`Parameter`, so optimizers never see it — but gradients still
    flow to the *input* (and bias), which is what soft-prompt tuning
    against a frozen quantized base model needs.
    """

    #: scratch budget per column block, in float32 elements (~256 KiB):
    #: big enough to amortize dispatch, small enough to stay L2-resident.
    _BLOCK_ELEMS = 65536

    def __init__(self, in_features: int, out_features: int, *,
                 bits: int, group_size: int,
                 qweight: np.ndarray, scales: np.ndarray,
                 bias: Parameter | None = None):
        super().__init__()
        if bits not in (4, 8):
            raise ValueError(f"QuantizedLinear supports bits 4 or 8, "
                             f"got {bits}")
        self.in_features = in_features
        self.out_features = out_features
        self.bits = bits
        self.group_size = group_size
        # Transposed storage, (out_features, in_features[/2]): a column
        # block of W is then a contiguous row block of the stored array.
        self.qweight = qweight
        self.scales = scales
        self.bias = bias
        self._row_scales = np.repeat(
            scales, group_size)[:in_features].astype(np.float32)
        self._col_block = max(
            8, min(out_features,
                   self._BLOCK_ELEMS // max(in_features, 1)))
        self._scratch_cols = in_features + (in_features % 2
                                            if bits == 4 else 0)

    # ------------------------------------------------------------------
    @classmethod
    def from_linear(cls, linear: Linear, *, bits: int = 8,
                    group_size: int = 32) -> "QuantizedLinear":
        """Quantize a dense :class:`Linear`'s weight into a new layer.

        The bias (trained, tiny) is carried over as the same
        :class:`Parameter` object; the float weight is dropped.
        """
        codes, scales = quantize_groups(linear.weight.data, bits, group_size)
        codes_t = np.ascontiguousarray(codes.T)
        qweight = _pack_int4(codes_t) if bits == 4 else codes_t
        return cls(linear.in_features, linear.out_features, bits=bits,
                   group_size=group_size, qweight=qweight, scales=scales,
                   bias=linear.bias)

    # ------------------------------------------------------------------
    # The fused kernel
    # ------------------------------------------------------------------
    def _cast_block(self, scratch: np.ndarray, c0: int, c1: int) -> np.ndarray:
        """Dequantize output channels [c0, c1) into ``scratch`` (sans scale).

        Pure dtype widening for int8; nibble unpack for int4.  Returns the
        (c1 - c0, in_features) view ready for the matmul.
        """
        block = scratch[:c1 - c0]
        packed = self.qweight[c0:c1]
        if self.bits == 8:
            np.copyto(block, packed)
        else:
            block[:, 0::2] = packed & np.uint8(0x0F)
            block[:, 1::2] = packed >> np.uint8(4)
            block -= np.float32(8.0)
        return block[:, :self.in_features]

    def _affine(self, x: np.ndarray) -> np.ndarray:
        """``x @ W + b`` on raw float32 arrays, without materializing W.

        Scratch buffers are allocated per call (not cached on the layer)
        so concurrent forwards over the shared model never race.
        """
        xs = x * self._row_scales
        out = np.empty(x.shape[:-1] + (self.out_features,), dtype=np.float32)
        scratch = np.empty((self._col_block, self._scratch_cols),
                           dtype=np.float32)
        for c0 in range(0, self.out_features, self._col_block):
            c1 = min(c0 + self._col_block, self.out_features)
            block = self._cast_block(scratch, c0, c1)
            np.matmul(xs, block.T, out=out[..., c0:c1])
        if self.bias is not None:
            out += self.bias.data
        return out

    def _affine_grad(self, grad: np.ndarray) -> np.ndarray:
        """``(grad @ W.T) * row_scales`` — input gradient, same blocking."""
        acc: np.ndarray | None = None
        scratch = np.empty((self._col_block, self._scratch_cols),
                           dtype=np.float32)
        for c0 in range(0, self.out_features, self._col_block):
            c1 = min(c0 + self._col_block, self.out_features)
            block = self._cast_block(scratch, c0, c1)
            part = np.matmul(grad[..., c0:c1], block)
            acc = part if acc is None else acc + part
        assert acc is not None
        return acc * self._row_scales

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        out = self._affine(x.data)
        bias = self.bias

        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(self._affine_grad(grad))
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(grad, bias.shape))

        parents = (x,) if bias is None else (x, bias)
        return Tensor._make(out, parents, backward)

    def affine_numpy(self, x: np.ndarray) -> np.ndarray:
        """The fused kernel on a raw ndarray (no autograd) — for numpy
        fast paths like the speculative draft loop."""
        return self._affine(np.asarray(x, dtype=np.float32))

    # ------------------------------------------------------------------
    # Dequantized view (the equivalence contract; materializes W)
    # ------------------------------------------------------------------
    def dequantized_weight(self) -> np.ndarray:
        """The full float32 (in_features, out_features) weight matrix.

        Each group's codes times its scale, the grid values
        :func:`~repro.llm.quantize_model_weights` writes into a dense
        model.  Outside that fake-quant conversion, test/debug only: this
        materializes exactly what the fused kernel exists to avoid.
        """
        if self.bits == 8:
            codes = self.qweight.T.astype(np.float32)
        else:
            unpacked = np.empty((self.out_features, self._scratch_cols),
                                dtype=np.float32)
            unpacked[:, 0::2] = self.qweight & np.uint8(0x0F)
            unpacked[:, 1::2] = self.qweight >> np.uint8(4)
            unpacked -= np.float32(8.0)
            codes = unpacked[:, :self.in_features].T
        return np.ascontiguousarray(codes * self._row_scales[:, None])

    # ------------------------------------------------------------------
    @property
    def weight_nbytes(self) -> int:
        """Resident bytes of the quantized weight (codes + scales)."""
        return int(self.qweight.nbytes + self.scales.nbytes)

    @property
    def dense_nbytes(self) -> int:
        """Bytes the dense float32 weight would occupy."""
        return int(self.in_features * self.out_features * 4)


class Embedding(Module):
    """A token-id to vector table (the lookup is ``repro.llm.infer.embed``;
    its gradient, a scatter-add by id, ``repro.llm.vjp.scatter_rows``)."""

    def __init__(self, num_embeddings: int, embedding_dim: int, *,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or rng_from_seed(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.02, (num_embeddings, embedding_dim)))

    def checked(self, indices: np.ndarray) -> np.ndarray:
        """``indices`` as an array, rejecting ids outside the table (bare
        fancy indexing would silently wrap negative ones)."""
        indices = np.asarray(indices)
        if indices.min(initial=0) < 0 or indices.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})"
            )
        return indices


class LayerNorm(Module):
    """Layer normalisation's parameters over the last dimension (the
    arithmetic is ``repro.llm.infer.layer_norm``)."""

    def __init__(self, dim: int, *, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

