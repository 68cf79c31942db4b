"""The unified Controller/Decision API.

Every chooser — DeepBAT, BATCH, the ground-truth oracle, and any test
double — returns a :class:`Decision` (or a subclass adding
controller-specific detail). The evaluation harness and the
telemetry layer program against exactly this surface, so there is one
contract instead of per-controller duck typing:

* ``config`` — the chosen ``(M, B, T)`` batching configuration;
* ``decision_time`` — wall-clock seconds the controller spent deciding
  (the §IV-F comparison metric);
* ``predictions`` — optional model outputs that justified the choice;
* ``diagnostics`` — optional free-form extras for logging/debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.batching.config import BatchConfig


@dataclass(frozen=True)
class Decision:
    """What every chooser returns: a configuration plus how it was reached."""

    config: BatchConfig
    decision_time: float = 0.0
    predictions: np.ndarray | None = None
    diagnostics: Mapping[str, Any] | None = None

    @property
    def degraded(self) -> bool:
        """True when this decision is a degraded-mode fallback (the
        controller re-issued its last known-good choice)."""
        return bool(self.diagnostics and self.diagnostics.get("degraded"))


def history_fault(interarrival_history: np.ndarray) -> str | None:
    """Why an inter-arrival history is unusable, or ``None`` if it is fine.

    A corrupted window — NaN/inf from a broken telemetry feed, or negative
    inter-arrivals from out-of-order timestamps — must not reach a fitting
    or inference stage where it would poison the decision silently; the
    controllers route it into degraded-mode serving instead.
    """
    x = np.asarray(interarrival_history, dtype=float)
    if x.size and not np.all(np.isfinite(x)):
        return "inter-arrival history contains NaN/inf"
    if x.size and np.any(x < 0):
        return "inter-arrival history contains negative inter-arrivals"
    return None
