"""Noise-mitigation baselines: SWV, CxDNN, CorrectNet (paper Table I).

Each scheme subclasses :class:`~repro.cim.MitigationHooks` and overrides
only the hooks it implements; the base class itself is ``"none"``.
``FrameworkConfig(mitigation=...)`` selects one by its name in
:data:`MITIGATION_REGISTRY`.
"""

from ..cim.accelerator import MitigationHooks
from .correctnet import CorrectNetMitigation
from .cxdnn import CxDNNCompensation
from .swv import SelectiveWriteVerify

__all__ = ["SelectiveWriteVerify", "CxDNNCompensation",
           "CorrectNetMitigation", "make_mitigation", "MITIGATION_REGISTRY"]

# Each scheme under its own ``name``.
MITIGATION_REGISTRY = {cls.name: cls for cls in (
    MitigationHooks, SelectiveWriteVerify, CxDNNCompensation,
    CorrectNetMitigation)}


def make_mitigation(name: str):
    """Instantiate a mitigation strategy by name."""
    if name not in MITIGATION_REGISTRY:
        raise KeyError(f"unknown mitigation {name!r}; "
                       f"available: {sorted(MITIGATION_REGISTRY)}")
    return MITIGATION_REGISTRY[name]()
