"""The standard experiment setup shared by benchmarks and examples.

Reproducing the paper's evaluation needs one moderately expensive artifact:
the surrogate trained on the first half of the Azure-like trace (§IV-B
"training is done only once"). The :class:`Workbench` builds that artifact
— plus the fine-tuned OOD variants for the Alibaba-like and MAP-synthetic
traces (§IV-C/D) — and caches everything under ``.cache/deepbat`` so the
benchmark suite trains once and reuses across invocations.

Scale notes (see DESIGN.md): the workbench defaults use sequence length 64
and a 24-segment × 60 s compressed day. The sensitivity bench
(``test_fig15``) sweeps sequence lengths explicitly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.arrival.stats import interarrivals
from repro.arrival.traces import (
    Trace,
    alibaba_like,
    azure_like,
    map_synthetic,
    twitter_like,
)
from repro.batching.config import BatchConfig, config_grid
from repro.core.dataset import generate_dataset
from repro.core.features import TargetSpec
from repro.core.surrogate import DeepBATSurrogate
from repro.core.training import (
    CHECKPOINT_FORMAT,
    TrainConfig,
    TrainedSurrogate,
    TrainingHistory,
    fine_tune,
    load_trained,
    save_trained,
    train_surrogate,
)
from repro.serverless.platform import ServerlessPlatform


@dataclass(frozen=True)
class WorkbenchSettings:
    """Everything that identifies one experimental setup (and its cache key)."""

    seq_len: int = 64
    d_model: int = 16
    num_heads: int = 4
    ff_hidden: int = 32
    num_layers: int = 2
    n_train_samples: int = 6000
    epochs: int = 60
    batch_size: int = 24
    patience: int = 12
    n_finetune_samples: int = 900
    finetune_epochs: int = 15
    seed: int = 0
    n_segments: int = 24
    segment_duration: float = 60.0
    train_segments: int = 12  # paper: first 12 hours of Azure for training
    slo: float = 0.1
    memories: tuple[float, ...] = (256.0, 512.0, 1024.0, 1792.0, 3008.0)
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 24, 32)
    timeouts: tuple[float, ...] = (0.0, 0.01, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2)

    def fingerprint(self) -> str:
        # The checkpoint layout is part of the key: a cache written under
        # another layout is not found, so it is never loaded as this one.
        payload = json.dumps({**asdict(self), "checkpoint_format": CHECKPOINT_FORMAT},
                             sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Workbench:
    """Lazy, cached builder of traces, grid, platform, and trained models."""

    def __init__(
        self,
        settings: WorkbenchSettings | None = None,
        cache_dir: str | Path | None = None,
        workers: int | None = None,
    ) -> None:
        self.settings = settings if settings is not None else WorkbenchSettings()
        # Labeling parallelism only; results are worker-count-invariant, so
        # this deliberately stays out of the settings fingerprint.
        self.workers = workers
        root = Path(cache_dir) if cache_dir is not None else Path(".cache/deepbat")
        self.cache_dir = root / self.settings.fingerprint()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.platform = ServerlessPlatform()
        self.grid: list[BatchConfig] = config_grid(
            self.settings.memories, self.settings.batch_sizes, self.settings.timeouts
        )
        self.spec = TargetSpec()
        self._traces: dict[str, Trace] = {}
        self._models: dict[str, TrainedSurrogate] = {}

    # --------------------------------------------------------------- traces
    def trace(self, name: str) -> Trace:
        if name not in self._traces:
            gen = {
                "azure": azure_like,
                "twitter": twitter_like,
                "alibaba": alibaba_like,
                "synthetic": map_synthetic,
            }[name]
            self._traces[name] = gen(
                seed={"azure": 0, "twitter": 1, "alibaba": 2, "synthetic": 3}[name],
                n_segments=self.settings.n_segments,
                segment_duration=self.settings.segment_duration,
            )
        return self._traces[name]

    def azure_training_history(self) -> np.ndarray:
        """Inter-arrivals of the Azure trace's first ``train_segments``."""
        trace = self.trace("azure")
        head, _ = trace.split(self.settings.train_segments)
        return interarrivals(head.timestamps)

    # --------------------------------------------------------------- models
    def base_model(self) -> TrainedSurrogate:
        """The Azure-trained surrogate (trained once, cached on disk)."""
        return self._model("base", self._train_base)

    def finetuned_model(self, trace_name: str) -> TrainedSurrogate:
        """Fine-tuned variant for an OOD trace (first segment, §IV-C)."""
        if trace_name not in ("alibaba", "synthetic"):
            raise ValueError(
                f"fine-tuning is defined for the OOD traces, got {trace_name!r}"
            )
        return self._model(f"ft-{trace_name}", lambda: self._finetune(trace_name))

    def _model(self, key: str, builder) -> TrainedSurrogate:
        if key in self._models:
            return self._models[key]
        path = self.cache_dir / f"{key}.npz"
        if path.exists():
            self._models[key] = load_trained(path)
        else:
            trained = builder()
            save_trained(trained, path)
            self._models[key] = trained
        return self._models[key]

    def _train_base(self) -> TrainedSurrogate:
        s = self.settings
        hist = self.azure_training_history()
        dataset = generate_dataset(
            hist,
            n_samples=s.n_train_samples,
            seq_len=s.seq_len,
            configs=self.grid,
            platform=self.platform,
            spec=self.spec,
            seed=s.seed,
            workers=self.workers,
        )
        model = self._fresh_model()
        return train_surrogate(
            dataset,
            model=model,
            config=TrainConfig(
                epochs=s.epochs,
                batch_size=s.batch_size,
                patience=s.patience,
                slo=s.slo,
                seed=s.seed,
            ),
        )

    def _finetune(self, trace_name: str) -> TrainedSurrogate:
        s = self.settings
        base = self.base_model()
        # Clone so the cached base model is not mutated by fine-tuning.
        clone_model = self._fresh_model()
        clone_model.load_state_dict(base.model.state_dict())
        clone = TrainedSurrogate(
            model=clone_model, pipeline=base.pipeline, history=TrainingHistory()
        )
        first_segment = self.trace(trace_name).segment(0)
        hist = interarrivals(first_segment)
        ood = generate_dataset(
            hist,
            n_samples=s.n_finetune_samples,
            seq_len=s.seq_len,
            configs=self.grid,
            platform=self.platform,
            spec=self.spec,
            seed=s.seed + 17,
            workers=self.workers,
        )
        # Replay: mix in an equal share of original-distribution samples so
        # fine-tuning adapts to the OOD workload without forgetting the
        # broad training distribution (one observed segment is far narrower
        # than the whole trace it must generalize to).
        replay = generate_dataset(
            self.azure_training_history(),
            n_samples=s.n_finetune_samples,
            seq_len=s.seq_len,
            configs=self.grid,
            platform=self.platform,
            spec=self.spec,
            seed=s.seed + 29,
            workers=self.workers,
        )
        return fine_tune(clone, ood.concat(replay), epochs=s.finetune_epochs, lr=3e-4)

    def _fresh_model(self) -> DeepBATSurrogate:
        s = self.settings
        return DeepBATSurrogate(
            seq_len=s.seq_len,
            d_model=s.d_model,
            num_heads=s.num_heads,
            ff_hidden=s.ff_hidden,
            num_layers=s.num_layers,
            n_outputs=self.spec.n_outputs,
            seed=s.seed,
        )


_DEFAULT: Workbench | None = None


def get_workbench(
    cache_dir: str | Path | None = None, workers: int | None = None
) -> Workbench:
    """Process-wide default workbench (lazy)."""
    global _DEFAULT
    if _DEFAULT is None or cache_dir is not None:
        _DEFAULT = Workbench(cache_dir=cache_dir, workers=workers)
    return _DEFAULT
