"""Transient analysis of the MAP counting process on a level-expanded chain.

The batch-formation dynamics under a (B, T) policy are a first-passage
problem on the chain whose state is ``(level, phase)``: *level* counts the
arrivals accumulated after the batch opener (0 … B−2 transient; reaching
level B−1 means the batch filled), *phase* is the MAP's background phase.
The block generator is upper bidiagonal — ``D0`` within a level, ``D1``
one level up.

This module builds that expanded generator and computes its transient
kernel on a uniform time grid via one matrix exponential of the step
(``expm(Q·h)``) followed by cumulative matrix products — numerically
equivalent to uniformization at grid resolution and far cheaper than one
``expm`` per grid point. This is the "numerical solution of several matrix
exponentials" at the heart of BATCH (§VI of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from repro.arrival.map_process import MAP


def expanded_generator(map_: MAP, levels: int) -> np.ndarray:
    """Generator of the transient part of the level-expanded chain.

    ``levels`` transient levels (0 … levels−1); transitions out of the top
    level via ``D1`` are absorption (batch full) and therefore do not
    appear: the matrix is sub-stochastic.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    m = map_.order
    n = levels * m
    q = np.zeros((n, n))
    for l in range(levels):
        q[l * m : (l + 1) * m, l * m : (l + 1) * m] = map_.d0
        if l + 1 < levels:
            q[l * m : (l + 1) * m, (l + 1) * m : (l + 2) * m] = map_.d1
    return q


@dataclass(frozen=True)
class TransientKernel:
    """Transient kernels of the expanded chain on a uniform time grid.

    Attributes
    ----------
    map_:
        The underlying arrival process.
    levels:
        Number of transient levels (= B − 1 for a batch limit of B).
    h:
        Grid step (seconds).
    kernels:
        ``(K+1, n, n)`` with ``kernels[k] = expm(Q·k·h)`` restricted to
        transient states; ``n = levels · order``.
    """

    map_: MAP
    levels: int
    h: float
    kernels: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.kernels.shape[0] - 1

    @property
    def order(self) -> int:
        return self.map_.order

    def survival(self) -> np.ndarray:
        """``(K+1, n)`` matrix of P(not yet absorbed by k·h | start state)."""
        return self.kernels.sum(axis=2)

    def level_distribution(self, k: int, initial: np.ndarray) -> np.ndarray:
        """Distribution over transient levels at step ``k`` starting from
        the expanded-state distribution ``initial`` (defective: the missing
        mass has been absorbed)."""
        probs = initial @ self.kernels[k]
        return probs.reshape(self.levels, self.order).sum(axis=1)


def transient_kernels(map_: MAP, levels: int, horizon: float, n_steps: int) -> TransientKernel:
    """Compute :class:`TransientKernel` for ``levels`` transient levels over
    ``[0, horizon]`` with ``n_steps`` uniform steps."""
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    q = expanded_generator(map_, levels)
    h = horizon / n_steps
    step = expm(q * h)
    n = q.shape[0]
    kernels = np.empty((n_steps + 1, n, n))
    kernels[0] = np.eye(n)
    for k in range(1, n_steps + 1):
        kernels[k] = kernels[k - 1] @ step
    return TransientKernel(map_=map_, levels=levels, h=h, kernels=kernels)

