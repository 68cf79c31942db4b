"""Neural-network modules: parameter containers and the basic layers.

The :class:`Module` base class provides recursive parameter discovery,
train/eval mode switching, and state-dict (de)serialization — the minimal
surface the DeepBAT surrogate needs from a framework.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import init as _init
from repro.nn.functional import dropout_mask
from repro.nn.tensor import DTYPE, Tensor
from repro.utils.rng import as_rng


class Parameter(Tensor):
    """A tensor that is always trainable, in the model dtype :data:`DTYPE`."""

    def __init__(self, data) -> None:
        super().__init__(np.asarray(data, dtype=DTYPE), requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and sub-:class:`Module` instances as
    attributes; :meth:`parameters` and :meth:`state_dict` discover them
    recursively by attribute walk (insertion order, so deterministic).
    """

    #: Replaced whenever a module attribute is set to or from a module, list
    #: or tuple; a cached walk of :meth:`modules` is valid while it lasts.
    _tree_token = object()

    def __init__(self) -> None:
        self.training: bool = True

    def __setattr__(self, name: str, value) -> None:
        tree = (Module, list, tuple)
        if isinstance(value, tree) or isinstance(vars(self).get(name), tree):
            Module._tree_token = object()
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------- dispatch
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # ----------------------------------------------------------- traversal
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

    def modules(self) -> Iterator["Module"]:
        """This module and its submodules, depth first in attribute order.

        The walk is cached until some module attribute is set to or from a
        module, list or tuple, so the per-decision :meth:`eval` is a flat
        loop. A list of submodules mutated in place goes unseen: assign a
        new list instead.
        """
        cached = vars(self).get("_tree")
        if cached is None or cached[0] is not Module._tree_token:
            cached = (Module._tree_token, tuple(self._walk()))
            object.__setattr__(self, "_tree", cached)
        return iter(cached[1])

    def _walk(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value._walk()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._walk()

    # ---------------------------------------------------------------- modes
    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            if m.training:  # a repeated eval() sets nothing
                m.training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ----------------------------------------------------------- state dict
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, p in params.items():
            value = np.asarray(state[name])
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {p.data.shape}, got {value.shape}"
                )
            p.data = value.astype(p.data.dtype, copy=True)


class Linear(Module):
    """Affine map ``y = x W + b`` over the last axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    """Layer normalization over the last axis with learnable scale/shift."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, seed: int | None | np.random.Generator = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = as_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        return x * dropout_mask(x.shape, self.p, self._rng)


class FeedForward(Module):
    """Two-layer position-wise MLP (``Linear -> ReLU -> Linear``).

    This is both the sequence embedding (Eq. 1), the feature embedding
    (Eq. 5), and the inner block of the Transformer encoder.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int | None = None,
        dropout: float = 0.0,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        out_features = out_features if out_features is not None else in_features
        self.fc1 = Linear(in_features, hidden_features, seed=rng)
        self.fc2 = Linear(hidden_features, out_features, seed=rng)
        self.drop = Dropout(dropout, seed=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.drop(self.fc1(x).relu()))
