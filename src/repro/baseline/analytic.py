"""The BATCH analytic performance model (Ali et al., SC'20), rebuilt.

Given a fitted MAP and a candidate configuration (M, B, T), the model
computes — purely numerically, no simulation — the distribution of request
latency and the expected per-request cost, by a transient matrix-analytic
solution of the batch-formation process:

1. A batch *cycle* opens when a request arrives into an empty buffer
   (phase ≈ the MAP's stationary post-arrival distribution — the standard
   cycle-decoupling approximation).
2. The cycle evolves on the level-expanded chain of
   :mod:`repro.baseline.uniformization`; reaching level B−1 means the batch
   filled (dispatch at the B-th arrival), surviving to T means timeout
   dispatch with 1 + (level at T) requests.
3. Every request's buffer wait is a first-passage functional of that chain;
   the model accumulates the exact (to grid resolution) wait distribution
   of a *randomly tagged request* by weighting arrival flows into each
   level with their remaining-first-passage distributions.
4. Latency = wait + deterministic service s(M, N); cost follows the Lambda
   billing of each dispatch.

The computational cost — a matrix exponential plus O(K) kernel products per
(configuration, fitted MAP) — is intentionally representative of BATCH's
documented expense; the prediction-time benchmark (§IV-F) measures it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrival.map_process import MAP
from repro.batching.config import BatchConfig
from repro.batching.simulator import DEFAULT_PERCENTILES
from repro.baseline.uniformization import transient_kernels
from repro.serverless.pricing import LambdaPricing
from repro.serverless.service_profile import ServiceProfile


@dataclass(frozen=True)
class AnalyticPrediction:
    """Model output for one configuration."""

    config: BatchConfig
    cost_per_request: float
    percentiles: tuple[float, ...]
    latency_percentiles: np.ndarray
    mean_batch_size: float
    p_full: float  # probability a batch dispatches full (vs timeout)

    def latency_at(self, percentile: float) -> float:
        idx = self.percentiles.index(percentile)
        return float(self.latency_percentiles[idx])


def weighted_percentiles(
    values: np.ndarray, weights: np.ndarray, percentiles: np.ndarray
) -> np.ndarray:
    """Percentiles of a weighted discrete distribution (step CDF)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError("values and weights must align")
    if np.any(weights < -1e-12):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("total weight must be positive")
    order = np.argsort(values)
    v = values[order]
    cum = np.cumsum(weights[order]) / total
    qs = np.asarray(percentiles, dtype=float) / 100.0
    idx = np.searchsorted(cum, qs, side="left")
    idx = np.clip(idx, 0, v.size - 1)
    return v[idx]


class BatchAnalyticModel:
    """Latency/cost predictor for batched serverless inference on a MAP.

    Parameters
    ----------
    map_:
        The (fitted) arrival process.
    profile, pricing:
        The platform model — must match the simulator's for a fair
        comparison.
    n_steps:
        Time-grid resolution over [0, T]. 96 keeps discretization error
        well under the simulator's sampling noise.
    """

    def __init__(
        self,
        map_: MAP,
        profile: ServiceProfile | None = None,
        pricing: LambdaPricing | None = None,
        n_steps: int = 96,
    ) -> None:
        if n_steps < 4:
            raise ValueError(f"n_steps must be >= 4, got {n_steps}")
        self.map = map_
        self.profile = profile if profile is not None else ServiceProfile()
        self.pricing = pricing if pricing is not None else LambdaPricing()
        self.n_steps = n_steps

    # ----------------------------------------------------------------- API
    def evaluate(
        self,
        config: BatchConfig,
        percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
    ) -> AnalyticPrediction:
        """Predict cost per request and latency percentiles for ``config``."""
        pct = np.asarray(percentiles, dtype=float)
        if config.batch_size == 1 or config.timeout == 0.0:
            return self._no_batching(config, percentiles)

        atoms_lat, atoms_w, mean_n, p_full, cost_req = self._solve(config)
        lat_p = weighted_percentiles(atoms_lat, atoms_w, pct)
        return AnalyticPrediction(
            config=config,
            cost_per_request=cost_req,
            percentiles=tuple(percentiles),
            latency_percentiles=lat_p,
            mean_batch_size=mean_n,
            p_full=p_full,
        )

    def evaluate_grid(
        self,
        configs: list[BatchConfig],
        percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
    ) -> list[AnalyticPrediction]:
        return [self.evaluate(c, percentiles) for c in configs]

    # ------------------------------------------------------------ internals
    def _no_batching(
        self, config: BatchConfig, percentiles: tuple[float, ...]
    ) -> AnalyticPrediction:
        """B = 1 or T = 0: every (continuous-time) arrival dispatches alone."""
        svc = self.profile.service_time(config.memory_mb, 1)
        cost = self.pricing.invocation_cost(config.memory_mb, svc)
        lat = np.full(len(percentiles), svc)
        return AnalyticPrediction(
            config=config,
            cost_per_request=float(cost),
            percentiles=tuple(percentiles),
            latency_percentiles=lat,
            mean_batch_size=1.0,
            p_full=0.0,
        )

    def _solve(
        self, config: BatchConfig
    ) -> tuple[np.ndarray, np.ndarray, float, float, float]:
        """Transient solve for B >= 2, T > 0.

        Returns (latency_atoms, weights, mean_batch_size, p_full,
        cost_per_request); atom weights are per batch cycle.
        """
        b, t_out, mem = config.batch_size, config.timeout, config.memory_mb
        m = self.map.order
        levels = b - 1  # transient levels 0 .. B-2
        ker = transient_kernels(self.map, levels, t_out, self.n_steps)
        k_max = ker.n_steps
        n_states = levels * m
        surv = ker.survival()  # (K+1, n_states)

        # Opener: level 0, stationary post-arrival phase.
        pi_a = self.map.arrival_phase_distribution()
        p0 = np.zeros(n_states)
        p0[:m] = pi_a

        # Forward (defective) state occupancy at each grid step.
        occupancy = p0 @ ker.kernels  # (K+1, n_states) via batched matmul

        # Arrival flows: rate of requests entering level l (1..B-1) at step
        # k is occupancy[k, level l-1 block] @ D1. Flows into transient
        # levels create tagged requests; flow into level B-1 is absorption
        # (the B-th request, wait 0).
        occ3 = occupancy.reshape(k_max + 1, levels, m)
        flows = occ3 @ self.map.d1  # (K+1, levels, m): from level l-1 -> l
        h = ker.h
        # Trapezoid weights along the time grid.
        tw = np.full(k_max + 1, h)
        tw[0] = tw[-1] = h / 2

        # Request weights entering each *transient* expanded state per step:
        # entering level l corresponds to source block l-1 for l = 1..B-2.
        w_enter = np.zeros((k_max + 1, n_states))
        if levels >= 2:
            w_enter[:, m:] = (flows[:, :-1, :] * tw[:, None, None]).reshape(
                k_max + 1, (levels - 1) * m
            )
        # The opener is a unit point mass at step 0, state block 0.
        w_enter[0, :m] += pi_a

        # Absorbing arrivals (B-th request of a full batch): flow out of the
        # top transient block.
        p_full_flow = float((flows[:, -1, :].sum(axis=1) * tw).sum())

        # ---- batch-size distribution (per cycle) -------------------------
        final_levels = ker.level_distribution(k_max, p0)  # timeout outcome
        p_timeout_sizes = final_levels  # level l -> size 1 + l
        p_full = 1.0 - float(p_timeout_sizes.sum())
        p_full = min(max(p_full, 0.0), 1.0)
        sizes_timeout = 1 + np.arange(levels)
        mean_n = p_full * b + float((sizes_timeout * p_timeout_sizes).sum())

        # ---- expected cost per cycle --------------------------------------
        svc_full = self.profile.service_time(mem, b)
        cost_cycle = p_full * self.pricing.invocation_cost(mem, svc_full)
        svc_sizes = self.profile.service_time(mem, sizes_timeout)
        cost_cycle += float(
            (self.pricing.invocation_cost(mem, svc_sizes) * p_timeout_sizes).sum()
        )
        cost_per_request = cost_cycle / mean_n

        # ---- tagged-request wait distribution -----------------------------
        # Full-dispatch waits: for a request entering state s at step k, the
        # probability its batch fills with wait <= x is
        # 1 - surv[min(x_steps, K-k), s]. Accumulate the CDF on the grid and
        # difference into a pmf.
        total_w = w_enter.sum()  # expected non-absorbing requests per cycle
        ks = np.arange(k_max + 1)
        full_cdf = np.empty(k_max + 1)
        for ix in range(k_max + 1):
            u = np.minimum(ix, k_max - ks)  # remaining-time index per entry step
            full_cdf[ix] = float((w_enter * (1.0 - surv[u, :])).sum())
        full_pmf = np.diff(np.concatenate([[0.0], full_cdf]))
        full_pmf = np.clip(full_pmf, 0.0, None)
        wait_grid = h * ks

        # Timeout point masses with joint final size: a request entering
        # state s at step k that survives to T waits exactly T - k·h and
        # shares a batch of size 1 + (level at T).
        timeout_joint = np.zeros((k_max + 1, levels))  # [wait index K-k, level]
        for k in range(k_max + 1):
            row = w_enter[k]
            if not row.any():
                continue
            at_t = row @ ker.kernels[k_max - k]  # defective: survivors only
            timeout_joint[k_max - k] += at_t.reshape(levels, m).sum(axis=1)

        # ---- assemble latency atoms ---------------------------------------
        atoms_lat = [wait_grid + svc_full]  # full batches: wait pmf grid
        atoms_w = [full_pmf]
        atoms_lat.append(np.array([svc_full]))  # absorbing request, wait 0
        atoms_w.append(np.array([p_full_flow]))
        lat_timeout = wait_grid[:, None] + svc_sizes[None, :]
        atoms_lat.append(lat_timeout.ravel())
        atoms_w.append(timeout_joint.ravel())

        lat = np.concatenate(atoms_lat)
        w = np.concatenate(atoms_w)
        keep = w > 1e-15
        return lat[keep], w[keep], mean_n, p_full, cost_per_request
