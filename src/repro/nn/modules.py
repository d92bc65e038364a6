"""Layer/module abstraction for the NumPy NN substrate.

Modules own :class:`Parameter` tensors, track training mode, and can be
composed hierarchically.  The interface intentionally mirrors a small subset
of ``torch.nn`` so the model code in :mod:`repro.models` reads naturally.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, requires_grad: bool = True, name: Optional[str] = None):
        super().__init__(data, requires_grad=requires_grad, name=name)


#: Source of :attr:`Module.structure_epoch` values.  ``next`` is atomic, so
#: two threads bumping at once never publish the same value.
_epochs = itertools.count(1)


def _bump() -> None:
    Module.structure_epoch = next(_epochs)


class Module:
    """Base class for all neural network modules."""

    #: Process-wide structure epoch.  Every method that changes what a
    #: compiled plan reads from a module tree, other than rebinding a
    #: parameter's ``data``, gives it a new value after the change: setting
    #: a :class:`Parameter` or :class:`Module` attribute, registering or
    #: updating a buffer, and adding or removing a forward hook.  A cache of
    #: a walk over the tree (:class:`~repro.runtime.BatchedPredictor`'s
    #: engines) stays valid while the epoch it read before walking is
    #: current.  Setting another kind of value on a name that held a
    #: parameter or a module unregisters it and also moves the epoch.
    #: Structure must change through these methods: a direct write to
    #: ``_parameters``, ``_buffers``, ``_modules`` or ``_forward_hooks``
    #: leaves the epoch, and such caches, behind.
    structure_epoch = 0

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._forward_hooks: List = []
        self.training = True

    # -- attribute plumbing -------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            registry = "_parameters"
        elif isinstance(value, Module):
            registry = "_modules"
        else:
            registry = None
        # A name leaves the registry whose kind its new value is not, so
        # ``lin.bias = None`` drops the bias from ``parameters()`` and
        # ``state_dict()``.
        dropped = False
        for other in ("_parameters", "_modules"):
            entries = self.__dict__.get(other)
            if other != registry and entries is not None and name in entries:
                del entries[name]
                dropped = True
        if registry is not None:
            self.__dict__.setdefault(registry, OrderedDict())[name] = value
        object.__setattr__(self, name, value)
        if registry is not None or dropped:
            _bump()

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is part of the module state."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)
        _bump()

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a previously registered buffer in place of the registry."""
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} was never registered")
        self._buffers[name] = value
        object.__setattr__(self, name, value)
        _bump()

    # -- traversal ----------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buf
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_buffers(child_prefix)

    def num_parameters(self, trainable_only: bool = False) -> int:
        return sum(p.size for p in self.parameters()
                   if not trainable_only or p.requires_grad)

    # -- mode / gradient management ------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def freeze(self) -> "Module":
        """Disable gradient computation for every parameter of the module."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.requires_grad = True
        return self

    # -- state management -----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"{name}"] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = []
        for name, param in own_params.items():
            if name in state:
                # A copy, as for buffers: editing ``state`` later must not
                # reach the module's weights.
                param.data = np.array(state[name], dtype=param.data.dtype).reshape(param.shape)
            elif strict:
                missing.append(name)
        for prefix, module in self.named_modules():
            for buf_name in list(module._buffers):
                full = f"{prefix}.{buf_name}" if prefix else buf_name
                if full in state:
                    module.update_buffer(buf_name, np.array(state[full], copy=True))
                elif strict and full in own_buffers:
                    missing.append(full)
        if strict and missing:
            raise KeyError(f"missing keys in state_dict: {missing}")

    # -- call protocol --------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def register_forward_hook(self, hook) -> None:
        """Register ``hook(module, output) -> output or None`` on this module.

        Hooks run after :meth:`forward`; returning a value replaces the
        output.  Used e.g. by the activation quantization pass.
        """
        self._forward_hooks.append(hook)
        _bump()

    def remove_forward_hook(self, hook) -> None:
        """Remove ``hook`` (by identity) from this module's hooks, in place.

        The other hooks keep their order; a hook not registered here is
        ignored.
        """
        hooks = self._forward_hooks
        hooks[:] = [registered for registered in hooks
                    if registered is not hook]
        _bump()

    def clear_forward_hooks(self) -> None:
        self._forward_hooks.clear()
        _bump()

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        for hook in self._forward_hooks:
            result = hook(self, output)
            if result is not None:
                output = result
        return output


class Identity(Module):
    """Pass-through module."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            setattr(self, name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self):
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x


class ModuleList(Module):
    """Holds submodules in a list, registering them for traversal."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._order: List[str] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self):
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container and cannot be called")


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with weight shape (out, in)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.uniform_bias(in_features, (out_features,), rng)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features}"


class Conv2d(Module):
    """2-D convolution with optional grouping (NCHW layout)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 bias: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise ValueError("channels must be divisible by groups")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        weight_shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng))
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.bias = Parameter(init.uniform_bias(fan_in, (out_channels,), rng)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class BatchNorm2d(Module):
    """Batch normalization over the channel dimension of NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 affine: bool = True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=np.float32))
            self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.zeros((), dtype=np.int64))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            # Update running statistics outside the autograd graph.
            batch_mean = x.data.mean(axis=(0, 2, 3))
            batch_var = x.data.var(axis=(0, 2, 3))
            n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            unbiased_var = batch_var * n / max(n - 1, 1)
            self.update_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * batch_mean)
            self.update_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased_var)
            self.update_buffer("num_batches_tracked", self.num_batches_tracked + 1)
            weight = self.weight if self.affine else Tensor(np.ones(self.num_features, dtype=np.float32))
            bias = self.bias if self.affine else Tensor(np.zeros(self.num_features, dtype=np.float32))
            from .ops import BatchNormTrain
            return BatchNormTrain.apply(x, weight, bias, self.eps,
                                        batch_mean, batch_var)
        mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
        var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        if self.affine:
            weight = self.weight.reshape((1, self.num_features, 1, 1))
            bias = self.bias.reshape((1, self.num_features, 1, 1))
            return x_hat * weight + bias
        return x_hat


class BatchNorm1d(Module):
    """Batch normalization over the feature dimension of (N, C) tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 affine: bool = True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=np.float32))
            self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            batch_mean = x.data.mean(axis=0)
            batch_var = x.data.var(axis=0)
            n = x.data.shape[0]
            unbiased_var = batch_var * n / max(n - 1, 1)
            self.update_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * batch_mean)
            self.update_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased_var)
            weight = self.weight if self.affine else Tensor(np.ones(self.num_features, dtype=np.float32))
            bias = self.bias if self.affine else Tensor(np.zeros(self.num_features, dtype=np.float32))
            from .ops import BatchNormTrain
            return BatchNormTrain.apply(x, weight, bias, self.eps,
                                        batch_mean, batch_var)
        mean = Tensor(self.running_mean.reshape(1, -1))
        var = Tensor(self.running_var.reshape(1, -1))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        if self.affine:
            return x_hat * self.weight.reshape((1, -1)) + self.bias.reshape((1, -1))
        return x_hat


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class ReLU6(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu6(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Dropout(Module):
    def __init__(self, p: float = 0.5, seed: Optional[int] = None):
        super().__init__()
        self.p = p
        self.seed = seed

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, p=self.p, training=self.training, seed=self.seed)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)
