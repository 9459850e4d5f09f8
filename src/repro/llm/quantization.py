"""Post-training weight quantization for the frozen base model.

The paper's third model is Mistral-7B-GPTQ — a 4-bit group-quantized
checkpoint.  We reproduce the *property that matters* for the experiments:
the base model's weights are frozen at reduced precision while prompt tuning
adapts only the continuous virtual tokens.  Quantization here is symmetric
per-group round-to-nearest, the same numeric format GPTQ emits (GPTQ's
Hessian-based rounding order only changes *which* values round up, not the
format).

Two execution modes share one quantizer,
:class:`~repro.ag.QuantizedLinear` (int8 or packed int4):

- :func:`quantize_model_weights` is fake-quant: each weight is replaced by
  its layer's dequantized grid values but stays float32, so the model
  runs the unmodified dense GEMMs.  The model zoo uses this to make
  ``mistral-7b-gptq-sim`` behave like a GPTQ checkpoint numerically; at
  its shapes the dense GEMM is several times faster than the packed int4
  kernel.
- :func:`quantize_model` is the real weight-quantized inference path: it
  replaces every dense sublayer :class:`~repro.ag.Linear` with a
  :class:`~repro.ag.QuantizedLinear` storing packed int8/int4 codes plus
  per-group scales, evaluated by a fused dequant-matmul kernel that never
  materializes the float32 weight matrix.  Embeddings and LayerNorm stay
  float in both modes (GPTQ convention).
"""

from __future__ import annotations

from ..ag import Linear, Module, QuantizedLinear, iter_modules

__all__ = [
    "QUANTIZATION_BITS",
    "quantize_model_weights",
    "quantize_model",
    "quantization_stats",
]

#: :func:`quantize_model` modes and the bit width each means.
QUANTIZATION_BITS = {"int8": 8, "int4": 4}


def quantize_model_weights(model: Module, bits: int = 4,
                           group_size: int = 32) -> int:
    """Snap every Linear weight of ``model`` to the quantized grid, in place.

    Fake-quant: each weight becomes
    ``QuantizedLinear.from_linear(layer, ...).dequantized_weight()``, so it
    stays float32 and the dense GEMMs keep running.  ``bits`` is one of
    the packed widths, 4 or 8 (anything else is a ``ValueError``).
    Embeddings and LayerNorm affine parameters stay full precision, the
    convention GPTQ checkpoints follow.  Shared (tied) submodules are
    visited once, so their weights are not double-quantized.  Returns the
    number of Linear layers quantized.
    """
    count = 0
    for module in iter_modules(model):
        if isinstance(module, Linear):
            module.weight.data = QuantizedLinear.from_linear(
                module, bits=bits, group_size=group_size,
            ).dequantized_weight()
            count += 1
    return count


def quantize_model(model: Module, mode: str, group_size: int = 32) -> int:
    """Convert every dense :class:`Linear` of ``model`` to the packed path.

    ``mode`` is ``"int8"`` or ``"int4"``; the model's owner converts it
    before an engine holds it.  Each Linear reachable from ``model`` —
    through attributes, containers, and dicts, deduplicated by identity so
    tied layers convert once — is replaced in place by a
    :class:`~repro.ag.QuantizedLinear`; embeddings and LayerNorm stay
    float.  Idempotent: layers already quantized with the same bits and
    group size are left alone, while a bits/group_size mismatch raises
    ``ValueError`` (re-quantizing already-rounded weights would silently
    compound error).  Returns the number of layers converted this call.
    """
    if mode not in QUANTIZATION_BITS:
        raise ValueError(
            f"unknown quantization mode {mode!r}; "
            f"expected one of {sorted(QUANTIZATION_BITS)}")
    bits = QUANTIZATION_BITS[mode]
    replacements: dict[int, QuantizedLinear] = {}

    def convert(value):
        if isinstance(value, QuantizedLinear):
            if value.bits != bits or value.group_size != group_size:
                raise ValueError(
                    f"model already quantized with bits={value.bits} "
                    f"group_size={value.group_size}; cannot re-quantize to "
                    f"bits={bits} group_size={group_size}")
            return value
        if isinstance(value, Linear):
            replaced = replacements.get(id(value))
            if replaced is None:
                replaced = QuantizedLinear.from_linear(
                    value, bits=bits, group_size=group_size)
                replacements[id(value)] = replaced
            return replaced
        return None

    for module in list(iter_modules(model)):
        if isinstance(module, (Linear, QuantizedLinear)):
            continue
        for name, value in vars(module).items():
            replaced = convert(value)
            if replaced is not None:
                setattr(module, name, replaced)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    replaced = convert(item)
                    if replaced is not None:
                        value[i] = replaced
            elif isinstance(value, tuple):
                items = [convert(item) or item for item in value]
                if any(isinstance(item, QuantizedLinear) for item in items):
                    setattr(module, name, tuple(items))
            elif isinstance(value, dict):
                for key, item in value.items():
                    replaced = convert(item)
                    if replaced is not None:
                        value[key] = replaced
    return len(replacements)


def quantization_stats(model: Module) -> dict[str, int]:
    """Resident-weight accounting for a (possibly) quantized model.

    Returns ``quantized_layers`` (count of :class:`QuantizedLinear`
    modules), ``weight_bytes`` (bytes the quantized weights + scales
    actually occupy), and ``weight_bytes_saved`` (dense float32 bytes
    minus that) — the keys the serving engine surfaces in ``stats()``.
    A float model reports zeros.
    """
    layers = 0
    resident = 0
    dense = 0
    for module in iter_modules(model):
        if isinstance(module, QuantizedLinear):
            layers += 1
            resident += module.weight_nbytes
            dense += module.dense_nbytes
    return {
        "quantized_layers": layers,
        "weight_bytes": resident,
        "weight_bytes_saved": dense - resident,
    }
