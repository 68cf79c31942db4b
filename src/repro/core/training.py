"""Offline training and OOD fine-tuning of the surrogate (§III-D).

Loss: ``L = α·MAPE + (1−α)·Huber_δ`` (Eq. 9; α=0.05, δ=1), with the
SLO-violation up-weighting the paper describes ("intentionally defined to
penalize more for those configurations that violate the SLO"). Optimizer:
Adam, lr=1e-3, batch size 8, 100 epochs (all paper defaults; the test and
benchmark suites use smaller budgets).
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.dataset import SurrogateDataset
from repro.core.features import FeaturePipeline
from repro.core.surrogate import DeepBATSurrogate
from repro.nn.data import ArrayDataset, DataLoader, train_val_split
from repro.nn.losses import combined_loss, slo_violation_weights
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, no_grad
from repro.telemetry.metrics import get_registry
from repro.utils.io import atomic_write
from repro.utils.rng import as_rng

#: The layout :func:`save_trained` writes. Caches of trained models (the
#: :class:`~repro.evaluation.workbench.Workbench` directory name) include it.
CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters (defaults = paper §III-D)."""

    epochs: int = 100
    batch_size: int = 8
    lr: float = 1e-3
    alpha: float = 0.05
    huber_delta: float = 1.0
    grad_clip: float = 5.0
    val_fraction: float = 0.2
    patience: int | None = 15
    slo: float | None = None
    slo_penalty: float = 4.0
    slo_percentile: float = 95.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_mape: list[float] = field(default_factory=list)

    @property
    def best_epoch(self) -> int:
        if not self.val_loss:
            raise RuntimeError("no epochs recorded")
        return int(np.argmin(self.val_loss))


@dataclass
class TrainedSurrogate:
    """A surrogate plus the pipeline its inputs must go through."""

    model: DeepBATSurrogate
    pipeline: FeaturePipeline
    history: TrainingHistory

    def predict(self, sequence: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Predict targets [cost per 1M, percentiles] for raw inputs."""
        seq_s, feats_s = self.pipeline.transform(np.atleast_2d(sequence),
                                                 np.atleast_2d(features))
        return self.model.predict(seq_s, feats_s)

    def scale_features(self, features: np.ndarray) -> np.ndarray:
        """Standardize raw (M, B, T) features once, for reuse across calls."""
        return self.pipeline.config.transform(
            np.atleast_2d(np.asarray(features, dtype=float))
        )

    def predict_scaled(
        self, sequence: np.ndarray, features_scaled: np.ndarray
    ) -> np.ndarray:
        """Predict with *pre-standardized* config features.

        The candidate grid is constant across decisions, so callers that
        sweep it every round (:class:`~repro.core.controller.DeepBATController`)
        standardize it once via :meth:`scale_features` and skip the
        per-call transform; sequence scaling still runs per window.
        """
        seq_s = self.pipeline.sequence.transform(np.atleast_2d(sequence))
        return self.model.predict(seq_s, np.atleast_2d(features_scaled))


def _epoch_weights(targets: np.ndarray, cfg: TrainConfig, spec) -> np.ndarray | None:
    if cfg.slo is None:
        return None
    col = 1 + spec.percentile_index(cfg.slo_percentile)
    return slo_violation_weights(targets[:, col], cfg.slo, cfg.slo_penalty)


def train_surrogate(
    dataset: SurrogateDataset,
    model: DeepBATSurrogate | None = None,
    config: TrainConfig | None = None,
    pipeline: FeaturePipeline | None = None,
) -> TrainedSurrogate:
    """Fit a surrogate on a simulated dataset (fresh scalers unless given).

    With ``pipeline`` provided (already fitted) this is a *fine-tuning* run:
    the existing scalers are reused so old and new data share a
    representation, as §III-D's OOD procedure requires.
    """
    cfg = config if config is not None else TrainConfig()
    rng = as_rng(cfg.seed)

    if model is None:
        model = DeepBATSurrogate(
            seq_len=dataset.sequences.shape[1],
            n_outputs=dataset.spec.n_outputs,
            seed=rng,
        )
    if model.seq_len != dataset.sequences.shape[1]:
        raise ValueError(
            f"model seq_len {model.seq_len} != dataset window {dataset.sequences.shape[1]}"
        )
    if pipeline is None:
        pipeline = FeaturePipeline(spec=dataset.spec)
        pipeline.fit(dataset.sequences, dataset.features)

    seq_s, feats_s = pipeline.transform(dataset.sequences, dataset.features)
    data = ArrayDataset(seq_s, feats_s, dataset.targets)
    train_set, val_set = train_val_split(data, cfg.val_fraction, seed=rng)
    loader = DataLoader(train_set, batch_size=cfg.batch_size, shuffle=True, seed=rng)

    optimizer = Adam(model.parameters(), lr=cfg.lr)
    history = TrainingHistory()
    registry = get_registry()
    best_state = None
    best_val = np.inf
    stale = 0

    for _ in range(cfg.epochs):
        model.train()
        losses = []
        with registry.span("train.epoch"):
            for seq_b, feat_b, tgt_b in loader:
                pred = model(Tensor(seq_b), Tensor(feat_b))
                weights = _epoch_weights(tgt_b, cfg, dataset.spec)
                loss = combined_loss(
                    pred, Tensor(tgt_b), alpha=cfg.alpha, delta=cfg.huber_delta,
                    weights=weights,
                )
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(optimizer.params, cfg.grad_clip)
                optimizer.step()
                losses.append(loss.item())
            history.train_loss.append(float(np.mean(losses)))

            val_loss, val_mape = _validate(model, val_set, cfg)
            history.val_loss.append(val_loss)
            history.val_mape.append(val_mape)
        if registry.enabled:
            registry.counter("train.epochs").inc()
            registry.gauge("train.loss").set(history.train_loss[-1])
            registry.gauge("train.val_loss").set(val_loss)
            registry.gauge("train.val_mape").set(val_mape)
            registry.gauge("train.lr").set(optimizer.lr)

        if val_loss < best_val - 1e-9:
            best_val = val_loss
            best_state = model.state_dict()
            stale = 0
        else:
            stale += 1
            if cfg.patience is not None and stale >= cfg.patience:
                break

    if best_state is not None:
        model.load_state_dict(best_state)
    return TrainedSurrogate(model=model, pipeline=pipeline, history=history)


def _validate(model: DeepBATSurrogate, val_set: ArrayDataset, cfg: TrainConfig) -> tuple[float, float]:
    model.eval()
    seq, feats, tgt = val_set[np.arange(len(val_set))]
    with no_grad():
        pred = model(Tensor(seq), Tensor(feats))
        loss = combined_loss(pred, Tensor(tgt), alpha=cfg.alpha, delta=cfg.huber_delta)
    mape = float(
        np.mean(np.abs(pred.data - tgt) / np.maximum(np.abs(tgt), 1e-8)) * 100.0
    )
    return loss.item(), mape


def fine_tune(
    trained: TrainedSurrogate,
    new_dataset: SurrogateDataset,
    epochs: int = 20,
    lr: float = 3e-4,
    config: TrainConfig | None = None,
) -> TrainedSurrogate:
    """Fine-tune a pre-trained surrogate on a small OOD sample (§III-D).

    Reuses the fitted pipeline (representation continuity) and a reduced
    epoch/learning-rate budget, exactly as the paper's fast-reaction
    procedure prescribes.
    """
    base = config if config is not None else TrainConfig()
    ft_cfg = replace(base, epochs=epochs, lr=lr, patience=None)
    return train_surrogate(
        new_dataset, model=trained.model, config=ft_cfg, pipeline=trained.pipeline
    )


def save_trained(trained: TrainedSurrogate, path) -> None:
    """Persist a trained surrogate (weights + scalers + architecture) as
    one ``.npz`` checkpoint loadable with :func:`load_trained`.

    The archive is written to exactly ``path`` (no ``.npz`` is appended)
    through :func:`repro.utils.io.atomic_write`, so a save killed partway
    leaves the previous checkpoint, or none, never a torn zip.
    """
    state = {f"model.{k}": v for k, v in trained.model.state_dict().items()}
    state.update({f"pipeline.{k}": v for k, v in trained.pipeline.state_dict().items()})
    hp = getattr(trained.model, "hyperparameters", None)
    if hp is None:
        raise ValueError(
            "model does not record hyperparameters; only DeepBATSurrogate "
            "checkpoints are supported"
        )
    state["hyperparameters"] = np.array([json.dumps(hp)])
    with atomic_write(path) as handle:
        np.savez_compressed(handle, **state)


def load_trained(path) -> TrainedSurrogate:
    """Load a checkpoint written by :func:`save_trained`; a missing or
    unreadable file raises ``ValueError`` naming the path."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            state = {k: archive[k] for k in archive.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(
            f"cannot read checkpoint {os.fspath(path)!r}: {exc}"
        ) from exc
    hp = json.loads(str(state.pop("hyperparameters")[0]))
    model = DeepBATSurrogate(**hp, seed=0)
    model.load_state_dict(
        {k[len("model."):]: v for k, v in state.items() if k.startswith("model.")}
    )
    pipeline = FeaturePipeline()
    pipeline.load_state_dict(
        {k[len("pipeline."):]: v for k, v in state.items() if k.startswith("pipeline.")}
    )
    return TrainedSurrogate(model=model, pipeline=pipeline, history=TrainingHistory())


def compute_gamma(predicted: np.ndarray, ground_truth: np.ndarray) -> float:
    """Penalty factor γ = MAPE(P̂, P) between predicted and simulated
    latency percentiles (§III-D, Model Fine-Tuning) — used to tighten the
    SLO constraint during optimization on unfamiliar workloads."""
    predicted = np.asarray(predicted, dtype=float)
    ground_truth = np.asarray(ground_truth, dtype=float)
    if predicted.shape != ground_truth.shape:
        raise ValueError("predicted and ground truth must align")
    denom = np.maximum(np.abs(ground_truth), 1e-8)
    return float(np.mean(np.abs(predicted - ground_truth) / denom))


def estimate_gamma(
    trained: TrainedSurrogate,
    interarrival_history: np.ndarray,
    configs,
    platform=None,
    n_samples: int = 160,
    seed: int = 0,
    method: str = "quantile",
    quantile: float = 0.9,
    headroom: float = 2.5,
    percentile: float = 95.0,
    stress_factors: tuple[float, ...] = (1.0 / 3.0, 3.0),
    slo: float | None = None,
    workers: int | None = None,
) -> float:
    """Measure γ for a workload by coupled simulation (§III-D).

    Samples (window × config) pairs from ``interarrival_history``, compares
    the surrogate's latency predictions with the simulated ground truth,
    and derives the SLO-tightening margin γ:

    * ``method="quantile"`` (default): γ is the ``quantile``-level
      *underprediction* margin of the SLO percentile —
      ``Q_q(true/pred − 1)`` clipped at 0 — so the tightened constraint
      ``SLO/(1+γ)`` covers the error tail that actually causes violations,
      not just the mean error;
    * ``method="mape"``: the paper-literal γ = MAPE(P̂, P), scaled by
      ``headroom`` (symmetric error; looser calibration).

    ``stress_factors`` additionally evaluates each window rescaled in time
    (rate regime shifts ×1/3 and ×3 by default) with freshly simulated
    labels. A bursty trace's observable first hour rarely contains the
    regimes of later hours; stress calibration measures the margin the
    model needs under the shifts it will actually face.
    """
    from repro.core.dataset import SurrogateDataset, generate_dataset, label_windows
    from repro.serverless.platform import ServerlessPlatform

    if method not in ("quantile", "mape"):
        raise ValueError(f"method must be 'quantile' or 'mape', got {method!r}")
    platform = platform if platform is not None else ServerlessPlatform()
    configs = list(configs)
    ds = generate_dataset(
        np.asarray(interarrival_history, dtype=float),
        n_samples=n_samples,
        seq_len=trained.model.seq_len,
        configs=configs,
        platform=platform,
        spec=trained.pipeline.spec,
        seed=seed,
        workers=workers,
    )
    datasets = [ds]
    feats_lookup = {tuple(c.as_array()): c for c in configs}
    sample_configs = [feats_lookup[tuple(row)] for row in ds.features]
    for k, factor in enumerate(stress_factors):
        if factor == 1.0:
            continue
        seqs = ds.sequences * factor
        targets = label_windows(
            seqs, sample_configs, platform, ds.spec,
            seed=seed + 1 + k if seed is not None else k,
            workers=workers,
        )
        datasets.append(SurrogateDataset(seqs, ds.features, targets, ds.spec))

    all_pred, all_true = [], []
    for d in datasets:
        all_pred.append(trained.predict(d.sequences, d.features))
        all_true.append(d.targets)
    preds = np.concatenate(all_pred)
    targets = np.concatenate(all_true)

    if method == "mape":
        return headroom * compute_gamma(preds[:, 1:], targets[:, 1:])
    col = 1 + ds.spec.percentile_index(percentile)
    pred_lat = np.maximum(preds[:, col], 1e-6)
    ratio = targets[:, col] / pred_lat - 1.0
    if slo is not None:
        # Violations are born at the decision boundary: restrict the
        # calibration to samples whose *predicted* latency is near the SLO
        # (where the optimizer actually trades off), falling back to the
        # full sample when the boundary region is too thin.
        near = (pred_lat > 0.5 * slo) & (pred_lat < 1.5 * slo)
        if near.sum() >= 20:
            ratio = ratio[near]
    return float(max(0.0, np.quantile(ratio, quantile)))
