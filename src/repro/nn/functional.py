"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

Operations here either need custom (fused) gradients for numerical stability
— e.g. :func:`softmax` — or combine several tensors — e.g. :func:`concat`.
Purely elementwise helpers live as :class:`Tensor` methods.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Tensor


def _softmax_forward(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax of ``x`` along ``axis``, written into ``out``.

    With ``out=None`` one fresh array holds every step; ``out=x`` reuses
    the caller's buffer (the fused attention op's score matrix).
    """
    s = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _softmax_backward(
    s: np.ndarray,
    g: np.ndarray,
    axis: int,
    out: np.ndarray | None = None,
    prod: np.ndarray | None = None,
) -> np.ndarray:
    """Softmax vector-Jacobian product ``s * (g - (g * s).sum(axis))``,
    written into ``out``.

    With ``out=None`` the result is a fresh array; ``out=g`` overwrites the
    caller's buffer (the fused attention op's scratch). ``prod``, when
    given, holds ``g * s`` in place of a fresh temporary.
    """
    dot = np.multiply(g, s, out=prod).sum(axis=axis, keepdims=True)
    r = np.subtract(g, dot, out=out)
    r *= s
    return r


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` with a fused backward.

    The Jacobian-vector product is ``s * (g - (g * s).sum(axis))`` which
    avoids materializing the full Jacobian.
    """
    s = _softmax_forward(x.data, axis)

    def backward(g: np.ndarray) -> None:
        x._accumulate(_softmax_backward(s, g, axis))

    return Tensor._from_op(s, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``; gradient splits back per input."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray) -> None:
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return Tensor._from_op(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            t._accumulate(np.take(g, i, axis=axis))

    return Tensor._from_op(data, tuple(tensors), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set ``x[mask] = value``; gradient is blocked on masked positions.

    Used for attention masking (Eq. 4 in the paper): masked logits are set to
    a large negative number before softmax.
    """
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, value, x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.where(mask, 0.0, g))

    return Tensor._from_op(data, (x,), backward)


def mean_pool(x: Tensor, axis: int = 1) -> Tensor:
    """Mean pooling along ``axis`` (used to collapse the sequence dimension
    of the encoder output before the fusion attention, Fig. 3)."""
    return x.mean(axis=axis)


def huber(x: Tensor, delta: float = 1.0) -> Tensor:
    """Elementwise Huber penalty of residuals ``x`` (Eq. 7).

    Quadratic within ``|x| <= delta``, linear beyond — less outlier-sensitive
    than squared error, which is why the paper adopts it.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    absx = np.abs(x.data)
    small = absx <= delta
    data = np.where(small, 0.5 * x.data**2, delta * (absx - 0.5 * delta))

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * np.where(small, x.data, delta * np.sign(x.data)))

    return Tensor._from_op(data, (x,), backward)


def dropout_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: keep with prob ``1-p``, scale kept units."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= p
    return keep / (1.0 - p)
