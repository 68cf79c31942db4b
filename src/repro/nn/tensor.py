"""Reverse-mode automatic differentiation over NumPy arrays.

This is the foundation of the pure-NumPy deep-learning stack used by the
DeepBAT surrogate model (the paper uses PyTorch; see DESIGN.md §1 for the
substitution rationale). The design is a vectorized tape: every operation
records its parents and a closure that accumulates gradients into them, and
:meth:`Tensor.backward` walks the tape in reverse topological order.

All array math stays inside NumPy ufuncs/BLAS calls so the tape overhead is
one Python closure per *operation*, not per element — the idiom recommended
by the HPC guides (vectorize the hot loop, keep Python at the orchestration
level).

Dtypes follow NumPy and PyTorch: an operation keeps its operands' dtype, and
a Python scalar or array mixed into an operation takes the tensor's dtype,
so a float32 tensor stays float32 and a float64 one stays float64. Models
are float32 (:data:`DTYPE`): their parameters are created in it and their
inputs are cast to it once, on entry.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np

ArrayLike = "np.ndarray | float | int | list"

#: The dtype of every model: parameters, activations, gradients and
#: optimizer state.
DTYPE = np.dtype(np.float32)

#: False inside :func:`no_grad`: operations then record no tape.
_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Run forward-only code without recording the gradient tape.

    Inside the block every operation returns a plain result tensor
    (``requires_grad=False``, no parents, no backward closure), even when
    its inputs are parameters, so nothing is kept alive for a backward
    pass that will never run. Values are the same as with the tape on.
    The previous state is restored on exit, including exit by exception,
    so blocks nest.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting in the forward pass replicates values; the adjoint of
    replication is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with a gradient tape.

    Parameters
    ----------
    data:
        Array contents. A floating array is kept as it is, dtype included;
        anything else is converted to ``float64``, NumPy's default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    #: NumPy defers to this class's reflected operators, so ``array * tensor``
    #: is a tensor op like ``tensor * array``.
    __array_ufunc__ = None

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            raise TypeError("cannot wrap a Tensor in a Tensor; use .detach()")
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------ meta
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        """This tensor in ``dtype``; the gradient is cast back on the way
        down. Returns ``self`` when the dtype already matches."""
        if self.data.dtype == dtype:
            return self

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.astype(self.data.dtype))

        return Tensor._from_op(self.data.astype(dtype), (self,), backward)

    # ------------------------------------------------------------ tape hooks
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor wired into the tape.

        ``backward`` receives the upstream gradient and must call
        :meth:`_accumulate` on each parent that requires a gradient.
        Under :func:`no_grad` the result is returned off the tape.
        """
        out = Tensor(data)
        if not _grad_enabled:
            return out
        parents = tuple(parents)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        Leaf tensors (parameters) copy on first write — their gradients
        outlive the backward pass and may be mutated by the optimizer or
        gradient clipping. Intermediate nodes alias the incoming buffer:
        their gradients are read exactly once by their own backward closure
        and never mutated, so the copy would be pure overhead. A second
        contribution allocates a fresh sum rather than mutating in place
        (the buffer may be shared with a sibling branch of the graph).
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if self.grad is None:
            is_leaf = self._backward is None
            self.grad = grad.copy() if is_leaf else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (scalar outputs are the common case:
        losses). Gradients accumulate into every reachable tensor with
        ``requires_grad=True``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        # Reverse topological order via iterative DFS (recursion-free so deep
        # transformer graphs cannot hit the interpreter recursion limit).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------ arithmetic
    def _coerce(self, other: "Tensor | ArrayLike") -> "Tensor":
        """``other`` as a tensor. A scalar or array takes this tensor's
        dtype, so under NumPy's promotion rules (NEP 50) a constant mixed
        into an operation never widens it."""
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = self._coerce(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(g)

        return Tensor._from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = self._coerce(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(-g)

        return Tensor._from_op(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: "Tensor | ArrayLike") -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = self._coerce(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)

        return Tensor._from_op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = self._coerce(other)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / other.data)
            other._accumulate(-g * self.data / (other.data**2))

        return Tensor._from_op(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: "Tensor | ArrayLike") -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(self.data**exponent, (self,), backward)

    def __matmul__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = self._coerce(other)
        # Promote 1-D operands to 2-D (row / column vector) so one gradient
        # rule covers every case; squeeze the promoted axes at the end.
        a = self.reshape(1, -1) if self.ndim == 1 else self
        b = other.reshape(-1, 1) if other.ndim == 1 else other
        out = a._matmul2(b)
        if self.ndim == 1:
            out = out.reshape(*out.shape[:-2], out.shape[-1])
        if other.ndim == 1:
            out = out.reshape(*out.shape[:-1])
        if self.ndim == 1 and other.ndim == 1:
            out = out.reshape(())
        return out

    def _matmul2(self, other: "Tensor") -> "Tensor":
        """Matmul for operands that are both at least 2-D."""
        a, b = self.data, other.data

        def backward(g: np.ndarray) -> None:
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            self._accumulate(_unbroadcast(ga, a.shape))
            other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._from_op(a @ b, (self, other), backward)

    # --------------------------------------------------------- shape algebra
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(orig))

        return Tensor._from_op(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return Tensor._from_op(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(np.swapaxes(g, a, b))

        return Tensor._from_op(np.swapaxes(self.data, a, b), (self,), backward)

    def __getitem__(self, idx) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accumulate(full)

        return Tensor._from_op(self.data[idx], (self,), backward)

    # ------------------------------------------------------------ reductions
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape))
                return
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, axes)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._from_op(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            expanded = out_data if keepdims or axis is None else np.expand_dims(out_data, axis)
            mask = self.data == expanded
            # Split gradient evenly among ties (matches subgradient convention).
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            g_e = g if keepdims or axis is None else np.expand_dims(g, axis)
            self._accumulate(mask * g_e / counts.astype(g.dtype))

        return Tensor._from_op(out_data, (self,), backward)

    # ---------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return Tensor._from_op(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * 0.5 / out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(g * np.sign(self.data))

        return Tensor._from_op(np.abs(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data**2))

        return Tensor._from_op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return Tensor._from_op(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500)))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward)

    def clip(self, lo: float | None, hi: float | None) -> "Tensor":
        mask = np.ones_like(self.data, dtype=bool)
        if lo is not None:
            mask &= self.data >= lo
        if hi is not None:
            mask &= self.data <= hi

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return Tensor._from_op(np.clip(self.data, lo, hi), (self,), backward)
