"""Training-set generation for the surrogate (§III-D, Offline Model
Training).

Following the paper: randomly sample arrival-sequence windows of length
``l`` from the processed historical data, pair each with a randomly picked
configuration (M, B, T) from the candidate space, and label the pair with
the simulated ground truth — per-request cost and latency percentiles of
serving exactly that window under that configuration.

Labeling is the dominant cost of offline training, so it has a batched
path (:func:`label_windows`) and an opt-in process pool (``workers=N``).
Determinism is preserved under parallelism: each sample's cold-start
randomness derives from a per-sample :class:`numpy.random.SeedSequence`
child keyed by the sample index, never from the platform's shared mutable
generator, so serial and parallel labeling are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.arrival.window import sample_windows
from repro.batching.config import BatchConfig, config_grid, grid_features
from repro.batching.simulator import simulate
from repro.core.features import TargetSpec
from repro.serverless.platform import ServerlessPlatform
from repro.telemetry.metrics import get_registry
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class SurrogateDataset:
    """Aligned (sequence, config-features, targets) arrays.

    ``sequences``: (n, seq_len) raw inter-arrival windows (unscaled);
    ``features``: (n, 3) raw (M, B, T);
    ``targets``: (n, 1 + #percentiles) [cost per 1M req, latency percentiles].
    """

    sequences: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    spec: TargetSpec

    def __post_init__(self) -> None:
        n = len(self.sequences)
        if len(self.features) != n or len(self.targets) != n:
            raise ValueError("sequences, features and targets must align")
        if self.targets.shape[1] != self.spec.n_outputs:
            raise ValueError(
                f"targets must have {self.spec.n_outputs} columns, "
                f"got {self.targets.shape[1]}"
            )

    def __len__(self) -> int:
        return len(self.sequences)

    def subset(self, idx: np.ndarray) -> "SurrogateDataset":
        return SurrogateDataset(
            self.sequences[idx], self.features[idx], self.targets[idx], self.spec
        )

    def concat(self, other: "SurrogateDataset") -> "SurrogateDataset":
        if other.spec.percentiles != self.spec.percentiles:
            raise ValueError("cannot concatenate datasets with different specs")
        return SurrogateDataset(
            np.concatenate([self.sequences, other.sequences]),
            np.concatenate([self.features, other.features]),
            np.concatenate([self.targets, other.targets]),
            self.spec,
        )


def _sample_rng(entropy: int, index: int) -> np.random.Generator:
    """The per-sample cold-start generator: a stable function of
    ``(entropy, index)``, independent of labeling order or process."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=(index,))
    )


def label_window(
    window: np.ndarray,
    config: BatchConfig,
    platform: ServerlessPlatform,
    spec: TargetSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Ground-truth label of one (window, config) pair via simulation."""
    timestamps = np.concatenate([[0.0], np.cumsum(window)])
    result = simulate(timestamps, config, platform, rng=rng)
    return spec.pack(
        result.cost_per_request, result.latency_percentiles(spec.percentiles)
    )


def _label_chunk(
    windows: np.ndarray,
    configs: list[BatchConfig],
    platform: ServerlessPlatform,
    spec: TargetSpec,
    entropy: int | None,
    offset: int,
) -> np.ndarray:
    """Label a contiguous chunk of samples (runs in-process or in a worker)."""
    targets = np.empty((len(windows), spec.n_outputs))
    for i in range(len(windows)):
        rng = _sample_rng(entropy, offset + i) if entropy is not None else None
        targets[i] = label_window(windows[i], configs[i], platform, spec, rng=rng)
    return targets


def label_windows(
    windows: np.ndarray,
    configs: list[BatchConfig],
    platform: ServerlessPlatform,
    spec: TargetSpec,
    seed: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Label ``(window, config)`` pairs in batch; the fast labeling path.

    ``workers > 1`` fans chunks out over a process pool. Results are
    bit-identical to the serial path regardless of ``workers`` because each
    sample's cold-start generator is keyed by ``(seed, sample index)``.
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if len(configs) != len(windows):
        raise ValueError("windows and configs must align")
    n = len(windows)
    if n == 0:
        return np.empty((0, spec.n_outputs))
    # Per-sample generators whenever any randomness (cold starts, fault
    # injection) is active — they key the draws to the sample index, which
    # is what makes labeling independent of the worker count.
    entropy = (
        int(seed)
        if platform.cold_start is not None or platform.faults_active
        else None
    )

    registry = get_registry()
    t0 = time.perf_counter()
    if workers is not None and workers > 1 and n > 1:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, n, min(workers, n) + 1).astype(int)
        chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                _label_chunk,
                [windows[lo:hi] for lo, hi in chunks],
                [configs[lo:hi] for lo, hi in chunks],
                [platform] * len(chunks),
                [spec] * len(chunks),
                [entropy] * len(chunks),
                [lo for lo, _ in chunks],
            ))
        targets = np.concatenate(parts)
    else:
        targets = _label_chunk(windows, configs, platform, spec, entropy, 0)
    if registry.enabled:
        registry.histogram("dataset.label_time").observe(time.perf_counter() - t0)
        registry.counter("dataset.labels").inc(n)
        registry.gauge("dataset.workers").set(workers if workers else 1)
    return targets


def generate_dataset(
    interarrival_history: np.ndarray,
    n_samples: int,
    seq_len: int = 256,
    configs: list[BatchConfig] | None = None,
    platform: ServerlessPlatform | None = None,
    spec: TargetSpec | None = None,
    seed: int | None | np.random.Generator = None,
    workers: int | None = None,
) -> SurrogateDataset:
    """Sample ``n_samples`` (window × random config) training pairs.

    ``interarrival_history`` is the processed historical data (e.g. the
    first 12 hours of the Azure trace); configurations are drawn uniformly
    from ``configs`` (default: the standard candidate grid), so the model
    sees the whole decision space during training. ``workers > 1`` labels
    in parallel with deterministic per-sample seeding — the dataset is
    identical for every worker count.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = as_rng(seed)
    platform = platform if platform is not None else ServerlessPlatform()
    spec = spec if spec is not None else TargetSpec()
    configs = configs if configs is not None else config_grid()
    if not configs:
        raise ValueError("configs must be non-empty")

    windows = sample_windows(interarrival_history, seq_len, n_samples, rng)
    chosen = rng.integers(0, len(configs), size=n_samples)
    feats = grid_features(configs)[chosen]
    targets = label_windows(
        windows,
        [configs[i] for i in chosen],
        platform,
        spec,
        seed=int(rng.integers(0, 2**63)),
        workers=workers,
    )
    return SurrogateDataset(windows, feats, targets, spec)
