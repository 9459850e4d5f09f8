"""Noise-mitigation baselines: SWV, CxDNN, CorrectNet (paper Table I).

Each scheme subclasses :class:`~repro.cim.MitigationHooks` and overrides
only the hooks it implements; the base class itself is ``"none"``.  The
schemes live in a :class:`~repro.utils.Registry`, so new mitigations plug
in without touching the framework:

    from repro.cim import MitigationHooks
    from repro.mitigation import register_mitigation

    @register_mitigation("mymiti")
    class MyMitigation(MitigationHooks): ...

and then ``FrameworkConfig(mitigation="mymiti")`` selects it.
"""

from ..cim.accelerator import NullMitigation
from ..utils import Registry
from .correctnet import CorrectNetMitigation
from .cxdnn import CxDNNCompensation
from .swv import SelectiveWriteVerify

__all__ = ["SelectiveWriteVerify", "CxDNNCompensation",
           "CorrectNetMitigation", "NullMitigation", "make_mitigation",
           "available_mitigations", "MITIGATION_REGISTRY",
           "register_mitigation"]

# name -> zero-argument factory (typically the class itself).
MITIGATION_REGISTRY: Registry = Registry("mitigation")
MITIGATION_REGISTRY.register("none", NullMitigation)
MITIGATION_REGISTRY.register("swv", SelectiveWriteVerify)
MITIGATION_REGISTRY.register("cxdnn", CxDNNCompensation)
MITIGATION_REGISTRY.register("correctnet", CorrectNetMitigation)


def register_mitigation(name: str, factory=None, *, overwrite: bool = False):
    """Register a mitigation factory (usable as a class decorator)."""
    return MITIGATION_REGISTRY.register(name, factory, overwrite=overwrite)


def available_mitigations() -> list[str]:
    """Names accepted by :func:`make_mitigation`."""
    return MITIGATION_REGISTRY.names()


def make_mitigation(name: str):
    """Instantiate a mitigation strategy by name."""
    return MITIGATION_REGISTRY[name]()
