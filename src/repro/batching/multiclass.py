"""Multi-class batching (the MBS extension, Ali et al., VLDB'22).

The paper's §VI discusses MBS, the multi-class successor of BATCH by the
same authors: several request classes (different models, input sizes, or
SLO tiers) share one deployed serverless function — one memory size ``M`` —
while each class batches independently with its own ``(B_k, T_k)``. The
optimization decomposes cleanly: for a fixed ``M`` the classes are
independent, so the optimal multi-class configuration is, per memory tier,
the per-class cheapest feasible ``(B, T)``, then the best tier overall.

This module implements the multi-class configuration, the multi-class
ground-truth simulator, and that decomposed exhaustive optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.batching.config import BatchConfig
from repro.batching.simulator import SimulationResult, simulate
from repro.serverless.platform import ServerlessPlatform


@dataclass(frozen=True)
class RequestClass:
    """One request class: its arrival stream and SLO target."""

    name: str
    timestamps: np.ndarray
    slo: float
    percentile: float = 95.0
    #: Brownout tier: higher sheds later under fleet-wide overload.
    priority: int = 0

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.size and not np.all(np.isfinite(ts)):
            raise ValueError(
                f"class {self.name!r}: timestamps contain non-finite values"
            )
        if ts.size and np.any(ts < 0):
            raise ValueError(
                f"class {self.name!r}: timestamps must be >= 0"
            )
        if ts.size and np.any(np.diff(ts) < 0):
            raise ValueError(f"class {self.name!r}: timestamps must be sorted")
        if self.slo <= 0:
            raise ValueError(f"class {self.name!r}: slo must be > 0")
        object.__setattr__(self, "timestamps", ts)


@dataclass(frozen=True)
class MultiClassConfig:
    """Shared memory + per-class batching parameters."""

    memory_mb: float
    per_class: dict[str, tuple[int, float]]  # name -> (batch_size, timeout)

    def batch_config(self, name: str) -> BatchConfig:
        b, t = self.per_class[name]
        return BatchConfig(self.memory_mb, b, t)

    def __str__(self) -> str:
        # ":g" keeps sub-millisecond timeouts visible (0.4ms, not 0ms).
        inner = ", ".join(
            f"{k}:(B={b},T={t * 1e3:g}ms)" for k, (b, t) in sorted(self.per_class.items())
        )
        return f"(M={self.memory_mb:.0f}MB, {inner})"


@dataclass(frozen=True)
class MultiClassResult:
    """Per-class simulation outcomes under one multi-class configuration."""

    config: MultiClassConfig
    per_class: dict[str, SimulationResult]

    @property
    def total_cost(self) -> float:
        return float(sum(r.total_cost for r in self.per_class.values()))

    @property
    def n_requests(self) -> int:
        return int(sum(r.n_requests for r in self.per_class.values()))

    @property
    def cost_per_request(self) -> float:
        n = self.n_requests
        return self.total_cost / n if n else np.nan

    def meets_all_slos(self, classes: list[RequestClass]) -> bool:
        return all(
            not self.per_class[c.name].violates_slo(c.slo, c.percentile)
            for c in classes
            if self.per_class[c.name].n_requests > 0
        )


def simulate_multiclass(
    classes: list[RequestClass],
    config: MultiClassConfig,
    platform: ServerlessPlatform,
    platforms: dict[str, ServerlessPlatform] | None = None,
) -> MultiClassResult:
    """Simulate every class's stream under its (shared-M) batch config.

    ``platforms`` optionally overrides the shared ``platform`` per class —
    the fleet scheduler plans heterogeneous endpoints (different service
    profiles or pricing) through this hook.
    """
    missing = {c.name for c in classes} - set(config.per_class)
    if missing:
        raise ValueError(f"config missing classes: {sorted(missing)}")
    results = {
        c.name: simulate(
            c.timestamps,
            config.batch_config(c.name),
            platforms.get(c.name, platform) if platforms else platform,
        )
        for c in classes
    }
    return MultiClassResult(config=config, per_class=results)


def optimize_multiclass(
    classes: list[RequestClass],
    platform: ServerlessPlatform,
    memories: tuple[float, ...] = (512.0, 1024.0, 1792.0, 3008.0),
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    timeouts: tuple[float, ...] = (0.0, 0.025, 0.05, 0.1, 0.2),
    platforms: dict[str, ServerlessPlatform] | None = None,
) -> tuple[MultiClassConfig, MultiClassResult]:
    """Decomposed exhaustive search (the MBS insight).

    For each memory tier, each class independently picks its cheapest
    (B, T) meeting its own SLO (falling back to its lowest-latency option);
    the tier with the lowest total cost — preferring tiers where *every*
    class is feasible — wins. ``platforms`` optionally overrides the shared
    ``platform`` per class (heterogeneous fleet endpoints).
    """
    if not classes:
        raise ValueError("classes must be non-empty")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise ValueError("class names must be unique")

    best: tuple[bool, float, MultiClassConfig, MultiClassResult] | None = None
    for mem in memories:
        chosen: dict[str, tuple[int, float]] = {}
        feasible_all = True
        for c in classes:
            cls_platform = platforms.get(c.name, platform) if platforms else platform
            best_cls: tuple[float, tuple[int, float]] | None = None
            fallback: tuple[float, tuple[int, float]] | None = None
            for b, t in product(batch_sizes, timeouts):
                if b == 1 and t > 0:
                    continue
                res = simulate(c.timestamps, BatchConfig(mem, b, t), cls_platform)
                lat = res.latency_percentile(c.percentile)
                if res.n_requests == 0 or not np.isfinite(lat):
                    continue
                if lat <= c.slo:
                    key = (res.cost_per_request, (b, t))
                    if best_cls is None or key < best_cls:
                        best_cls = key
                else:
                    key = (lat, (b, t))
                    if fallback is None or key < fallback:
                        fallback = key
            if best_cls is not None:
                chosen[c.name] = best_cls[1]
            elif fallback is not None:
                chosen[c.name] = fallback[1]
                feasible_all = False
            else:  # empty stream: any config serves it
                chosen[c.name] = (batch_sizes[0], timeouts[0])
        config = MultiClassConfig(memory_mb=mem, per_class=chosen)
        result = simulate_multiclass(classes, config, platform,
                                     platforms=platforms)
        key = (not feasible_all, result.total_cost)
        if best is None or key < (not best[0], best[1]):
            best = (feasible_all, result.total_cost, config, result)
    assert best is not None
    return best[2], best[3]
