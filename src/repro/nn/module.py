"""Module/Parameter abstractions mirroring the ``torch.nn`` API surface.

A :class:`Module` owns :class:`Parameter` tensors and child modules, exposes
``parameters()`` / ``named_parameters()`` for optimizers, supports
train/eval mode switching, and serializes to flat state dicts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Subclasses define parameters and submodules as attributes in
    ``__init__`` and implement :meth:`forward`.
    """

    def __init__(self):
        self._parameters: OrderedDict[str, Parameter] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._registry("_parameters", name, value)[name] = value
        elif isinstance(value, Module):
            self._registry("_modules", name, value)[name] = value
        object.__setattr__(self, name, value)

    def _registry(self, kind: str, name: str, value) -> OrderedDict:
        registry = self.__dict__.get(kind)
        if registry is None:
            # Silently creating the dict here would register the value on an
            # object whose Module.__init__ never ran — parameters()/state_dict
            # would then miss everything assigned later.  Fail loudly instead.
            raise RuntimeError(
                f"cannot assign {type(value).__name__} {name!r} to "
                f"{type(self).__name__} before Module.__init__() runs; "
                "call super().__init__() before assigning parameters/submodules"
            )
        return registry

    def forward(self, *args, **kwargs):
        """Run the module's forward computation."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted name, parameter) pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module tree."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield (dotted name, module) pairs recursively."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total count of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Switch this module tree to training mode."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch this module tree to evaluation mode."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy all parameters into a flat name->array mapping."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters from a flat name->array mapping."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        loadable = {name: array for name, array in state.items() if name in own}
        # Every shape is checked before any parameter changes, so a bad
        # state leaves the module exactly as it was.
        for name, array in loadable.items():
            if own[name].data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name}: model {own[name].data.shape} vs state {array.shape}"
                )
        for name, array in loadable.items():
            own[name].data = array.astype(own[name].data.dtype).copy()

    def save(self, path: str) -> None:
        """Save parameters to an ``.npz`` archive."""
        np.savez(path, **{k.replace(".", "__"): v for k, v in self.state_dict().items()})

    def load(self, path: str) -> None:
        """Load parameters from an ``.npz`` archive produced by :meth:`save`."""
        with np.load(path) as archive:
            state = {k.replace("__", "."): archive[k] for k in archive.files}
        self.load_state_dict(state)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x):
        """Run the module's forward computation."""
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)


class ModuleList(Module):
    """List container that registers its elements as submodules."""

    def __init__(self, modules=()):
        super().__init__()
        self._list: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        """Append a module, registering it as a child."""
        index = len(self._list)
        self._list.append(module)
        setattr(self, f"item{index}", module)

    def __getitem__(self, index: int) -> Module:
        return self._list[index]

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)
