"""NVM device non-ideality models (paper Table II).

Each device exposes its conductance levels and a per-level Gaussian
variation sigma: programming a cell to level ``l`` yields a normalised
conductance ``l/(L-1) + N(0, (sigma/REFERENCE_SIGMA) * sigma_l)``.

Calibration note: Table II's per-level sigmas average ~0.01 across every
device, while the experiments run "the device variation settings of
Table II with sigma = 0.1" and sweep sigma from 0.025 to 0.150 (Table IV).
We therefore treat the printed values as the per-level *shape* measured at
a reference variation of 0.01 and scale them linearly with the experiment's
global sigma — at sigma=0.1 the effective mid-level cell variation on,
e.g., FeFET3 is 0.146.  This reproduces the paper's observable sensitivity
(unmitigated storage degrades markedly at sigma=0.1).

Note on NVM-1: Table II lists RRAM1 with "1 level"; by the paper's own
definition (an x-level device represents x distinct values) a one-value
memory cannot store data, so we read it as the customary 1-bit (two-state)
RRAM cell with the uniform 0.01 sigma the table gives.  The four FeFET/RRAM
multi-level entries are used exactly as printed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NVMDevice", "NVM_DEVICES", "get_device", "available_devices",
           "REFERENCE_SIGMA"]

# Table II values are interpreted as measured at this reference variation.
REFERENCE_SIGMA = 0.01


@dataclass(frozen=True)
class NVMDevice:
    """One non-volatile memory technology entry."""

    name: str            # experiment alias, e.g. "NVM-3"
    device: str          # physical device, e.g. "FeFET3"
    kind: str            # "RRAM" or "FeFET"
    level_sigmas: tuple[float, ...]  # per-level variation at REFERENCE_SIGMA

    def __post_init__(self):
        if len(self.level_sigmas) < 2:
            raise ValueError("a device needs at least two levels")
        if any(s < 0 for s in self.level_sigmas):
            raise ValueError("level sigmas must be non-negative")
        if self.kind not in ("RRAM", "FeFET"):
            raise ValueError(f"unknown device kind {self.kind!r}")

    @property
    def n_levels(self) -> int:
        return len(self.level_sigmas)

    @property
    def bits_per_cell(self) -> int:
        bits = int(np.log2(self.n_levels))
        if 2 ** bits != self.n_levels:
            raise ValueError(f"{self.n_levels} levels is not a power of two")
        return bits

    def level_values(self) -> np.ndarray:
        """Normalised conductances of each level, evenly spaced in [0, 1]."""
        return np.linspace(0.0, 1.0, self.n_levels, dtype=np.float32)

    def sigma_for_levels(self, levels: np.ndarray,
                         sigma: float = REFERENCE_SIGMA) -> np.ndarray:
        """Per-cell standard deviation for cells programmed to ``levels``.

        ``sigma`` is the global device-variation setting; Table II numbers
        are scaled linearly from their reference point at
        ``REFERENCE_SIGMA`` (0.01).
        """
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        levels = self.check_levels(levels)
        table = np.asarray(self.level_sigmas, dtype=np.float32)
        return table[levels] * (sigma / REFERENCE_SIGMA)

    def check_levels(self, levels: np.ndarray) -> np.ndarray:
        """``levels`` as an array, refused unless every index is one of
        this device's levels."""
        levels = np.asarray(levels)
        if levels.min(initial=0) < 0 or levels.max(initial=0) >= self.n_levels:
            raise ValueError(
                f"level index out of range [0, {self.n_levels}) for {self.name}"
            )
        return levels


# The five devices of Table II, by experiment alias.
NVM_DEVICES: dict[str, NVMDevice] = {device.name: device for device in (
    NVMDevice("NVM-1", "RRAM1", "RRAM",
              (0.0100, 0.0100)),
    NVMDevice("NVM-2", "FeFET2", "FeFET",
              (0.0067, 0.0135, 0.0135, 0.0067)),
    NVMDevice("NVM-3", "FeFET3", "FeFET",
              (0.0049, 0.0146, 0.0146, 0.0049)),
    NVMDevice("NVM-4", "RRAM4", "RRAM",
              (0.0038, 0.0151, 0.0151, 0.0038)),
    NVMDevice("NVM-5", "FeFET6", "FeFET",
              (0.0026, 0.0155, 0.0155, 0.0026)),
)}


def available_devices() -> list[str]:
    """Experiment aliases accepted by :func:`get_device`."""
    return sorted(NVM_DEVICES)


def get_device(name: str) -> NVMDevice:
    """Look up a device by alias ("NVM-3") or physical name ("FeFET3")."""
    if name in NVM_DEVICES:
        return NVM_DEVICES[name]
    for device in NVM_DEVICES.values():
        if device.device == name:
            return device
    raise KeyError(f"unknown NVM device {name!r}; "
                   f"available: {available_devices()}")
