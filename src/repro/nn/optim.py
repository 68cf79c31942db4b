"""Gradient-based optimizers and learning-rate schedulers.

The paper trains the surrogate with Adam (lr=1e-3); SGD with momentum is
provided for the ablation benches and tests.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class Optimizer:
    """Base optimizer over a list of :class:`Parameter`."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear accumulated gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for monitoring training stability).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class LRScheduler:
    """Base class; call :meth:`step` once per epoch."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        self.optimizer.lr = self._lr_at(self.epoch)

    def _lr_at(self, epoch: int) -> float:
        raise NotImplementedError


class StepLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        super().__init__(optimizer)
        if step_size < 1:
            raise ValueError(f"step_size must be >= 1, got {step_size}")
        self.step_size = step_size
        self.gamma = gamma

    def _lr_at(self, epoch: int) -> float:
        return self.base_lr * self.gamma ** (epoch // self.step_size)


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base LR to ``min_lr`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, min_lr: float = 0.0) -> None:
        super().__init__(optimizer)
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        self.t_max = t_max
        self.min_lr = min_lr

    def _lr_at(self, epoch: int) -> float:
        frac = min(epoch, self.t_max) / self.t_max
        cos = float(np.cos(np.pi * frac))  # a Python float keeps float32 steps float32
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1.0 + cos)
