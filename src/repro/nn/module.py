"""Module base class and parameter container.

A deliberately small layer framework: modules cache what they need during
``forward`` and implement an explicit ``backward``; parameters are
float64 "master copies" (the mixed-precision training convention — the
MAC emulation quantizes GEMM *inputs*, while weight updates happen at
full precision, as in the paper's loss-scaled training setup).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np


class StateDict(dict):
    """Named parameter state with positional fallback.

    Keys are module-path-qualified parameter names (``"head.weight"``);
    integer indices keep working for callers written against the old
    positional form — index ``i`` resolves to the ``i``-th entry in
    parameter-discovery order (the order :meth:`Module.parameters`
    returns).

    Example::

        state = model.state_dict()
        state["head.weight"]              # named access
        state[0]                          # positional access, same order
    """

    def __getitem__(self, key):
        if isinstance(key, int) and not super().__contains__(key):
            values = list(self.values())
            if not -len(values) <= key < len(values):
                raise KeyError(key)
            return values[key]
        return super().__getitem__(key)


class Parameter:
    """A trainable tensor with its gradient accumulator.

    Example::

        weight = Parameter(np.zeros((4, 3)), name="my.weight")
        weight.grad += delta              # layers accumulate into .grad
        weight.zero_grad()
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.name or 'unnamed'}, shape={self.data.shape})"


class Module:
    """Base class: explicit forward/backward with parameter discovery.

    Example::

        class Scale(Module):
            def __init__(self):
                super().__init__()
                self.alpha = Parameter(np.ones(1), name="scale.alpha")

            def forward(self, x):
                self._x = x
                return self.alpha.data * x

            def backward(self, grad_out):
                self.alpha.grad += np.sum(grad_out * self._x)
                return self.alpha.data * grad_out
    """

    #: Attribute names of non-trainable state arrays (e.g. batch-norm
    #: running statistics) that checkpoints must carry.  Subclasses
    #: override; :meth:`named_buffers` walks them with qualified names.
    buffer_names: Tuple[str, ...] = ()

    def __init__(self):
        self.training = True

    # -- overridables ---------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- common machinery -------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") \
            -> List[Tuple[str, Parameter]]:
        """``(qualified name, parameter)`` pairs in discovery order.

        Names are module paths built from attribute names (list/tuple
        entries contribute their index), e.g.
        ``"features.layers.0.weight"``.  The order is identical to
        :meth:`parameters`, so positional indices stay meaningful; a
        parameter reachable through several paths appears once, under
        the first path found.

        Example::

            names = [n for n, _ in model.named_parameters()]
        """
        found: List[Tuple[str, Parameter]] = []
        self._collect(found, set(), prefix)
        return found

    def _collect(self, out: List[Tuple[str, Parameter]], seen: set,
                 prefix: str = "") -> None:
        for attr, value in self.__dict__.items():
            if isinstance(value, Parameter) and id(value) not in seen:
                seen.add(id(value))
                out.append((f"{prefix}{attr}", value))
            elif isinstance(value, Module):
                value._collect(out, seen, f"{prefix}{attr}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._collect(out, seen, f"{prefix}{attr}.{i}.")

    def named_buffers(self, prefix: str = "") \
            -> List[Tuple[str, np.ndarray]]:
        """``(qualified name, array)`` pairs of non-trainable state.

        Mirrors :meth:`named_parameters`: the walk order and the name
        scheme are identical, over the attributes each module lists in
        :attr:`buffer_names` (batch-norm running statistics being the
        canonical case).
        """
        found: List[Tuple[str, np.ndarray]] = []
        for name in self.buffer_names:
            found.append((f"{prefix}{name}", getattr(self, name)))
        for attr, value in self.__dict__.items():
            if isinstance(value, Module):
                found.extend(value.named_buffers(f"{prefix}{attr}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        found.extend(
                            item.named_buffers(f"{prefix}{attr}.{i}."))
        return found

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def parameter_count(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.parameters())

    def state_dict(self) -> "StateDict":
        """Snapshot of every parameter and buffer, keyed by qualified name.

        Parameters come first (in :meth:`parameters` order), then
        buffers, so integer indices into the returned :class:`StateDict`
        still resolve the legacy positional parameter layout:
        ``state[0]`` and ``state["weight"]`` read the same array on a
        bare layer.
        """
        state = StateDict((name, p.data.copy())
                          for name, p in self.named_parameters())
        for name, value in self.named_buffers():
            state[name] = np.asarray(value).copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Load a named or positional state dict (see :meth:`state_dict`).

        Parameters accept qualified-name keys, integer positions, or
        stringified integer positions (how ``.npz`` archives round-trip
        positional dicts).  Buffers load by name when present; a legacy
        positional dict without them leaves buffers untouched.
        """
        for i, (name, p) in enumerate(self.named_parameters()):
            if name in state:
                value = state[name]
            elif i in state:
                value = state[i]
            elif str(i) in state:
                value = state[str(i)]
            else:
                raise KeyError(
                    f"state dict has no entry for parameter {name!r} "
                    f"(position {i})")
            p.data[...] = value
        for name, buffer in self.named_buffers():
            if name in state:
                buffer[...] = state[name]


class Sequential(Module):
    """Chain of modules executed in order.

    Example::

        net = Sequential(Flatten(), Linear(64, 32), ReLU(),
                         Linear(32, 10))
        logits = net(x)
        net.backward(grad_logits)         # reversed-order backward
    """

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)


#: GEMM callable signature used by the compute layers.  Implementations
#: accept 2D ``(M, K) @ (K, N)`` or batched 3D ``(B, M, K) @ (B, K, N)``
#: operands (cf. :class:`repro.emu.QuantizedGemm`).
GemmFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def default_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full-precision GEMM (the FP32 baseline path); 2D or batched 3D.

    Non-finite operands are legitimate here — a loss-scaler probe step
    overflows activations on purpose and relies on NaN/inf propagating
    to the overflow check — so the expected ``inf - inf`` inside the
    product must not surface numpy's invalid-value RuntimeWarning.

    Example::

        layer = Linear(8, 4)              # gemm=None -> default_gemm
        assert layer.gemm is default_gemm
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        with np.errstate(invalid="ignore"):
            return a @ b
    return a @ b
