"""Minimal reverse-mode autograd engine over numpy.

This subpackage replaces PyTorch for the purposes of this reproduction:
tensors with recorded backward closures, module containers, common layers,
activations/losses, and optimizers.
"""

from .functional import (cross_entropy, gelu, mse_loss,
                         sequence_cross_entropy, softmax)
from .layers import (Dropout, Embedding, LayerNorm, Linear, QuantizedLinear,
                     Sequential, quantize_groups)
from .module import Module, Parameter, iter_modules
from .optim import Adam, LinearWarmupDecay, SGD, clip_grad_norm
from .tensor import Tensor, cat, is_grad_enabled, no_grad

__all__ = [
    "Tensor", "cat", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "iter_modules",
    "Linear", "Embedding", "LayerNorm", "Dropout", "Sequential",
    "QuantizedLinear", "quantize_groups",
    "softmax", "gelu", "cross_entropy",
    "sequence_cross_entropy", "mse_loss",
    "SGD", "Adam", "LinearWarmupDecay", "clip_grad_norm",
]
