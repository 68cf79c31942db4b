"""Training losses: Huber (Eq. 7), MAPE (Eq. 8), and the weighted
combination (Eq. 9), plus the SLO-violation-weighted variant the paper
describes ("the loss function is intentionally defined to penalize more for
those configurations that violate the SLO").
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def _constant(target: Tensor | np.ndarray, pred: Tensor) -> Tensor:
    """``target`` as a constant tensor of ``pred``'s dtype: a float64 target
    beside a float32 prediction would widen the loss and every gradient."""
    if isinstance(target, Tensor):
        target = target.data
    return Tensor(np.asarray(target, dtype=pred.dtype))


def huber_loss(pred: Tensor, target: Tensor, delta: float = 1.0,
               weights: np.ndarray | None = None) -> Tensor:
    """Mean Huber loss HL_δ(y, ŷ) over all elements (Eq. 7)."""
    target = _constant(target, pred)
    per_elem = F.huber(pred - target, delta=delta)
    if weights is not None:
        per_elem = per_elem * np.asarray(weights)
    return per_elem.mean()


def mape_loss(pred: Tensor, target: Tensor, eps: float = 1e-8,
              weights: np.ndarray | None = None) -> Tensor:
    """Mean absolute percentage error in percent (Eq. 8).

    ``eps`` regularizes the denominator for near-zero targets.
    """
    target = _constant(target, pred)
    denom = np.maximum(np.abs(target.data), eps)
    per_elem = (pred - target).abs() * (100.0 / denom)
    if weights is not None:
        per_elem = per_elem * np.asarray(weights)
    return per_elem.mean()


def combined_loss(
    pred: Tensor,
    target: Tensor,
    alpha: float = 0.05,
    delta: float = 1.0,
    weights: np.ndarray | None = None,
) -> Tensor:
    """L = α·MAPE + (1−α)·Huber (Eq. 9; paper uses α=0.05, δ=1)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * mape_loss(pred, target, weights=weights) + (1.0 - alpha) * huber_loss(
        pred, target, delta=delta, weights=weights
    )


def slo_violation_weights(
    latency_targets: np.ndarray,
    slo: float,
    penalty: float = 4.0,
) -> np.ndarray:
    """Per-sample weights that up-weight SLO-violating configurations.

    Samples whose true SLO-percentile latency exceeds ``slo`` get weight
    ``penalty`` (> 1), others weight 1. Shape ``(batch,) -> (batch, 1)`` so it
    broadcasts over the output vector.
    """
    if penalty < 1.0:
        raise ValueError(f"penalty must be >= 1, got {penalty}")
    latency_targets = np.asarray(latency_targets, dtype=float)
    w = np.where(latency_targets > slo, penalty, 1.0)
    return w[:, None]

