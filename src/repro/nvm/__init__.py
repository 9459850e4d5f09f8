"""NVM device models, quantization and crossbar-array simulation."""

from .crossbar import CrossbarStats, TileBank, TileView, tile_extents
from .device_models import (
    NVM_DEVICES,
    REFERENCE_SIGMA,
    NVMDevice,
    available_devices,
    get_device,
)
from .quantize import (
    Int16Codec,
    slice_to_digits,
    slice_weights,
)

__all__ = [
    "NVMDevice", "NVM_DEVICES", "get_device", "available_devices",
    "REFERENCE_SIGMA",
    "Int16Codec", "slice_to_digits", "slice_weights",
    "CrossbarStats", "TileBank", "TileView", "tile_extents",
]
