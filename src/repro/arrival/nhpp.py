"""Non-homogeneous Poisson processes (NHPPs) and process composition.

Real serverless workloads modulate a base process with slow rate profiles
(diurnal cycles, deploy events). The NHPP sampler uses thinning (Lewis &
Shedler) against an arbitrary rate function; :func:`thin` keeps a random
share of one stream.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.rng import as_rng


def sample_nhpp(
    rate_fn: Callable[[np.ndarray], np.ndarray],
    duration: float,
    rate_bound: float,
    seed: int | None | np.random.Generator = None,
) -> np.ndarray:
    """Sample an NHPP on ``[0, duration)`` by thinning.

    ``rate_fn`` maps an array of times to instantaneous rates; it must be
    bounded above by ``rate_bound`` (violations raise, because silently
    clipping would bias the process).
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if rate_bound <= 0:
        raise ValueError(f"rate_bound must be > 0, got {rate_bound}")
    rng = as_rng(seed)
    # Candidate homogeneous stream at the bound, generated in blocks.
    t = 0.0
    out: list[float] = []
    block = max(64, int(rate_bound * duration * 1.2))
    while t < duration:
        gaps = rng.exponential(1.0 / rate_bound, size=block)
        times = t + np.cumsum(gaps)
        times = times[times < duration]
        if times.size == 0:
            break
        rates = np.asarray(rate_fn(times), dtype=float)
        if np.any(rates > rate_bound * (1 + 1e-9)):
            raise ValueError("rate_fn exceeds rate_bound; thinning would be biased")
        if np.any(rates < 0):
            raise ValueError("rate_fn must be non-negative")
        keep = rng.random(times.size) < rates / rate_bound
        out.extend(times[keep])
        t = times[-1] if times.size else duration
        if times.size < block:
            break
    return np.asarray(out)


def diurnal_rate(
    base_rate: float,
    amplitude: float = 0.5,
    period: float = 86_400.0,
    phase: float = 0.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """A sinusoidal day/night rate profile: base·(1 + amplitude·sin(...))."""
    if base_rate <= 0:
        raise ValueError(f"base_rate must be > 0, got {base_rate}")
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")

    def rate(t: np.ndarray) -> np.ndarray:
        return base_rate * (1.0 + amplitude * np.sin(2 * np.pi * (np.asarray(t) / period) + phase))

    return rate


def thin(
    timestamps: np.ndarray,
    keep_probability: float,
    seed: int | None | np.random.Generator = None,
) -> np.ndarray:
    """Independently keep each arrival with ``keep_probability`` —
    Bernoulli sampling of a stream (e.g. the paper's 0.05 % training
    sampling of the Azure arrival process)."""
    if not 0.0 < keep_probability <= 1.0:
        raise ValueError(f"keep_probability must be in (0, 1], got {keep_probability}")
    ts = np.asarray(timestamps, dtype=float)
    rng = as_rng(seed)
    return ts[rng.random(ts.size) < keep_probability]
