"""Input-validation helpers shared across subsystems.

These raise early with actionable messages rather than letting NaNs and
negative rates propagate into simulations or training.
"""

from __future__ import annotations

import numpy as np


def check_finite(x: np.ndarray, name: str = "array") -> np.ndarray:
    """Raise ``ValueError`` if ``x`` contains NaN or infinity."""
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def check_positive(x: float, name: str = "value", strict: bool = True) -> float:
    """Raise ``ValueError`` unless ``x`` is positive (or non-negative)."""
    if strict and not x > 0:
        raise ValueError(f"{name} must be > 0, got {x}")
    if not strict and not x >= 0:
        raise ValueError(f"{name} must be >= 0, got {x}")
    return x


def check_sorted(x: np.ndarray, name: str = "array", strict: bool = False) -> np.ndarray:
    """Validate that ``x`` is sorted in non-decreasing (or increasing) order."""
    x = np.asarray(x)
    d = np.diff(x)
    if strict and np.any(d <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if not strict and np.any(d < 0):
        raise ValueError(f"{name} must be sorted in non-decreasing order")
    return x
