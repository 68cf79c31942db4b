"""Markov-Modulated Poisson Processes (MMPPs) — the bursty-workload
building block used by the synthetic traces (§IV-A) and the BATCH fitter.

An MMPP(2) is a MAP whose arrivals are Poisson with a rate that switches
between two levels according to a background 2-state CTMC. A low level
near zero produces the sharp burst/silence pattern of the Alibaba-like and
MAP-generated traces.
"""

from __future__ import annotations

import numpy as np

from repro.arrival.map_process import MAP


def mmpp2(rate1: float, rate2: float, switch12: float, switch21: float) -> MAP:
    """Two-state MMPP: Poisson rates ``rate1``/``rate2`` in states 1/2,
    with switching rates ``switch12`` (1→2) and ``switch21`` (2→1)."""
    for name, v in [("rate1", rate1), ("rate2", rate2)]:
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
    if rate1 <= 0 and rate2 <= 0:
        raise ValueError("at least one state must have a positive arrival rate")
    for name, v in [("switch12", switch12), ("switch21", switch21)]:
        if v <= 0:
            raise ValueError(f"{name} must be > 0, got {v}")
    d0 = np.array(
        [
            [-(rate1 + switch12), switch12],
            [switch21, -(rate2 + switch21)],
        ]
    )
    d1 = np.diag([rate1, rate2])
    return MAP(d0, d1)


def mmpp2_with_burstiness(
    mean_rate: float,
    burstiness: float,
    cycle_time: float,
    duty: float = 0.5,
) -> MAP:
    """Construct an MMPP(2) with a target mean rate and burstiness knob.

    ``burstiness`` >= 1 scales the high state's rate relative to the mean
    (1 → plain Poisson behaviour in the limit; larger → burstier); ``duty``
    is the long-run fraction of time in the high state; ``cycle_time`` the
    mean on+off cycle duration, which controls how slowly the correlation
    decays (longer cycles ⇒ larger IDC).
    """
    if mean_rate <= 0:
        raise ValueError(f"mean_rate must be > 0, got {mean_rate}")
    if burstiness < 1.0:
        raise ValueError(f"burstiness must be >= 1, got {burstiness}")
    if not 0 < duty < 1:
        raise ValueError(f"duty must be in (0, 1), got {duty}")
    if cycle_time <= 0:
        raise ValueError(f"cycle_time must be > 0, got {cycle_time}")
    high = mean_rate * burstiness
    # Solve duty*high + (1-duty)*low = mean_rate for the low rate.
    low = (mean_rate - duty * high) / (1.0 - duty)
    if low < 0:
        # Burstiness too extreme for this duty cycle: clamp low to ~0 and
        # recompute the high rate to preserve the mean.
        low = mean_rate * 1e-3
        high = (mean_rate - (1.0 - duty) * low) / duty
    mean_on = duty * cycle_time
    mean_off = (1.0 - duty) * cycle_time
    return mmpp2(rate1=high, rate2=low, switch12=1.0 / mean_on, switch21=1.0 / mean_off)
