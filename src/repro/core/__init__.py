"""DeepBAT core: the Transformer surrogate, training/fine-tuning, the
SLO-aware optimizer, and the end-to-end controller."""

from repro.core.alternatives import (
    MLPSurrogate,
    RecurrentSurrogate,
    summary_statistics,
)
from repro.core.controller import DeepBATController, DeepBATDecision
from repro.core.drift import (
    WorkloadDriftDetector,
    prediction_drift,
    window_statistics,
)
from repro.core.dataset import (
    SurrogateDataset,
    generate_dataset,
    label_window,
    label_windows,
)
from repro.core.features import (
    FeaturePipeline,
    SequenceScaler,
    StandardScaler,
    TargetSpec,
)
from repro.core.optimizer import OptimizationResult, SloAwareOptimizer
from repro.core.surrogate import DeepBATSurrogate
from repro.core.types import Decision
from repro.core.training import (
    TrainConfig,
    TrainedSurrogate,
    TrainingHistory,
    compute_gamma,
    estimate_gamma,
    fine_tune,
    load_trained,
    save_trained,
    train_surrogate,
)

__all__ = [
    "Decision",
    "DeepBATController",
    "DeepBATDecision",
    "DeepBATSurrogate",
    "FeaturePipeline",
    "MLPSurrogate",
    "OptimizationResult",
    "RecurrentSurrogate",
    "SequenceScaler",
    "SloAwareOptimizer",
    "StandardScaler",
    "SurrogateDataset",
    "TargetSpec",
    "TrainConfig",
    "TrainedSurrogate",
    "TrainingHistory",
    "WorkloadDriftDetector",
    "compute_gamma",
    "estimate_gamma",
    "fine_tune",
    "generate_dataset",
    "label_window",
    "label_windows",
    "load_trained",
    "prediction_drift",
    "save_trained",
    "summary_statistics",
    "train_surrogate",
    "window_statistics",
]
