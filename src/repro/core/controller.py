"""The DeepBAT controller — the full Fig. 2 loop.

Wires the trained deep surrogate to the SLO-aware optimizer: build the
inter-arrival window → batch-predict every candidate configuration in one
surrogate forward → pick the cheapest SLO-feasible configuration. Live
serving (observing arrivals, batching, reconfiguring) is
:class:`~repro.serving.engine.ServingEngine`'s job, with this controller
as its chooser.

Each optimization round is traced through :mod:`repro.telemetry`: nested
spans attribute decision time to window building, the surrogate forward,
and the optimizer search, and a :class:`DecisionEvent` records the chosen
``(M, B, T)`` with its predicted cost/latency. With the default no-op
registry this instrumentation adds only attribute lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrival.window import latest_window
from repro.batching.config import BatchConfig, config_grid
from repro.core.optimizer import OptimizationResult, SloAwareOptimizer
from repro.core.training import TrainedSurrogate
from repro.core.types import Decision, history_fault as _history_fault
from repro.telemetry.events import DecisionEvent
from repro.telemetry.metrics import get_registry
from repro.utils.timing import Timer


@dataclass(frozen=True)
class DeepBATDecision(Decision):
    """Outcome of one DeepBAT optimization round.

    Inherits the unified :class:`~repro.core.types.Decision` surface
    (``config``, ``decision_time``, ``predictions``) and adds the
    optimizer's full result plus the surrogate-forward share of the time.
    """

    optimization: OptimizationResult | None = None
    inference_time: float = 0.0  # surrogate forward over the whole grid


class DeepBATController:
    """SLO-aware configuration chooser backed by the deep surrogate."""

    def __init__(
        self,
        surrogate: TrainedSurrogate,
        configs: list[BatchConfig] | None = None,
        percentile: float = 95.0,
        gamma: float = 0.0,
        window_length: int | None = None,
    ) -> None:
        self.surrogate = surrogate
        configs = configs if configs is not None else config_grid()
        self.optimizer = SloAwareOptimizer(
            configs, spec=surrogate.pipeline.spec, percentile=percentile, gamma=gamma
        )
        self.window_length = (
            window_length if window_length is not None else surrogate.model.seq_len
        )
        if self.window_length != surrogate.model.seq_len:
            raise ValueError(
                f"window_length {self.window_length} must equal the surrogate's "
                f"sequence length {surrogate.model.seq_len}"
            )
        # The candidate grid is constant, so its standardized features are
        # precomputed once; choose() then skips the per-call config
        # transform (sequence scaling still runs per window).
        self._features_scaled = surrogate.scale_features(self.optimizer.features)
        self.last_decision: DeepBATDecision | None = None

    # ------------------------------------------------------------ decisions
    def choose(self, interarrival_history: np.ndarray, slo: float) -> DeepBATDecision:
        """One optimization round from a raw inter-arrival history.

        Degraded mode: when the history window is corrupted (NaN/inf or
        negative inter-arrivals) or any stage of the round raises, the
        controller keeps serving by re-issuing its last known-good decision
        (marked ``diagnostics["degraded"]``) instead of taking the serving
        loop down. With no prior decision to fall back on, the error
        propagates.
        """
        history = np.asarray(interarrival_history, dtype=float)
        fault = _history_fault(history)
        if fault is not None:
            return self._fall_back(fault)
        try:
            return self._choose(history, slo)
        except Exception as exc:  # degraded-mode serving: keep the last config
            return self._fall_back(f"choose() raised {type(exc).__name__}: {exc}", exc)

    def _choose(self, history: np.ndarray, slo: float) -> DeepBATDecision:
        registry = get_registry()
        with registry.span("deepbat.choose"):
            with registry.span("deepbat.window"):
                window = latest_window(history, self.window_length)
            with Timer() as t_inf:
                with registry.span("deepbat.forward"):
                    preds = self.surrogate.predict_scaled(window, self._features_scaled)
            with Timer() as t_opt:
                with registry.span("deepbat.search"):
                    result = self.optimizer.choose(preds, slo)
        decision = DeepBATDecision(
            config=result.config,
            optimization=result,
            predictions=preds,
            inference_time=t_inf.elapsed,
            decision_time=t_inf.elapsed + t_opt.elapsed,
        )
        if registry.enabled:
            registry.counter("deepbat.decisions").inc()
            registry.histogram("deepbat.decision_time").observe(decision.decision_time)
            registry.record_event(DecisionEvent(
                controller="deepbat",
                memory_mb=result.config.memory_mb,
                batch_size=result.config.batch_size,
                timeout=result.config.timeout,
                decision_time=decision.decision_time,
                predicted_cost=result.predicted_cost_per_million,
                predicted_p95=result.predicted_latency,
                feasible=result.feasible,
            ))
        self.last_decision = decision
        return decision

    def _fall_back(self, reason: str, exc: Exception | None = None) -> DeepBATDecision:
        """Re-issue the last known-good decision, or re-raise without one."""
        if self.last_decision is None:
            if exc is not None:
                raise exc
            raise ValueError(reason)
        registry = get_registry()
        if registry.enabled:
            registry.counter("fault.degraded_decisions").inc()
        # Deliberately NOT stored as last_decision: the known-good anchor
        # must survive a run of degraded rounds.
        return DeepBATDecision(
            config=self.last_decision.config,
            optimization=self.last_decision.optimization,
            predictions=self.last_decision.predictions,
            decision_time=0.0,
            diagnostics={"degraded": True, "reason": reason},
        )

    def set_gamma(self, gamma: float) -> None:
        """Tighten/relax the SLO margin γ (fast OOD reaction, §III-D)."""
        self.optimizer.set_gamma(gamma)
