"""Batching: configurations, the online buffer, and the ground-truth
simulator of batched serverless inference."""

from repro.batching.buffer import Batch, BatchingBuffer
from repro.batching.config import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_MEMORIES,
    DEFAULT_TIMEOUTS,
    BatchConfig,
    config_grid,
    grid_features,
)
from repro.batching.continuous import ContinuousSession, GenRequest
from repro.batching.multiclass import (
    MultiClassConfig,
    MultiClassResult,
    RequestClass,
    optimize_multiclass,
    simulate_multiclass,
)
from repro.batching.simulator import (
    DEFAULT_PERCENTILES,
    SimulationResult,
    form_batches,
    ground_truth_optimum,
    simulate,
    simulate_grid,
)

__all__ = [
    "Batch",
    "BatchConfig",
    "BatchingBuffer",
    "ContinuousSession",
    "DEFAULT_BATCH_SIZES",
    "DEFAULT_MEMORIES",
    "DEFAULT_PERCENTILES",
    "DEFAULT_TIMEOUTS",
    "GenRequest",
    "MultiClassConfig",
    "MultiClassResult",
    "RequestClass",
    "SimulationResult",
    "config_grid",
    "form_batches",
    "grid_features",
    "ground_truth_optimum",
    "optimize_multiclass",
    "simulate",
    "simulate_grid",
    "simulate_multiclass",
]
