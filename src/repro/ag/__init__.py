"""Minimal reverse-mode autograd engine over numpy.

This subpackage replaces PyTorch for the purposes of this reproduction:
tensors with recorded backward closures, module containers, common layers,
activations/losses, and the Adam optimizer.
"""

from .functional import gelu, mse_loss
from .layers import Embedding, LayerNorm, Linear, QuantizedLinear, quantize_groups
from .module import Module, Parameter, iter_modules
from .optim import Adam, LinearWarmupDecay, clip_grad_norm
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "iter_modules",
    "Linear", "Embedding", "LayerNorm",
    "QuantizedLinear", "quantize_groups",
    "gelu", "mse_loss",
    "Adam", "LinearWarmupDecay", "clip_grad_norm",
]
