"""Shared utilities: seeded RNG management, validation helpers, timers."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timing import Timer
from repro.utils.validation import check_finite, check_positive, check_sorted

__all__ = [
    "Timer",
    "as_rng",
    "check_finite",
    "check_positive",
    "check_sorted",
    "spawn_rngs",
]
