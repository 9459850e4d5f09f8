"""Module/Parameter containers mirroring the familiar torch.nn layout."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "iter_modules"]


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters stay trainable even when constructed under no_grad().
        self.requires_grad = True


class Module:
    """Base class for components with trainable parameters.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; ``parameters()`` and ``state_dict()`` discover them by
    attribute walking, the same contract as ``torch.nn.Module``.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in params.items():
            value = np.array(state[name], dtype=np.float32)   # one owned copy
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.shape}"
                )
            param.data = value

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError


def iter_modules(module: Module) -> Iterator[Module]:
    """Every :class:`Module` reachable from ``module``, each exactly once.

    Walks attribute values the way parameter discovery does, but also
    descends into ``dict`` values (a registry of heads, for example) and
    deduplicates by object identity, so a submodule shared between two
    attributes — tied weights — is yielded a single time.  Containers are
    walked recursively, so nested lists/dicts of modules are found too.
    """
    seen: set[int] = set()

    def walk(value) -> Iterator[Module]:
        if isinstance(value, Module):
            if id(value) in seen:
                return
            seen.add(id(value))
            yield value
            for child in vars(value).values():
                yield from walk(child)
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                yield from walk(item)

    yield from walk(module)
