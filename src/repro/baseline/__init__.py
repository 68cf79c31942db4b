"""The BATCH baseline: matrix-analytic latency/cost model over a fitted MAP
plus the hourly re-fitting controller."""

from repro.baseline.analytic import (
    AnalyticPrediction,
    BatchAnalyticModel,
    weighted_percentiles,
)
from repro.baseline.controller import BATCHController, BatchDecision
from repro.baseline.uniformization import (
    TransientKernel,
    expanded_generator,
    transient_kernels,
)

__all__ = [
    "AnalyticPrediction",
    "BATCHController",
    "BatchAnalyticModel",
    "BatchDecision",
    "TransientKernel",
    "expanded_generator",
    "transient_kernels",
    "weighted_percentiles",
]
