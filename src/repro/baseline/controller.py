"""The BATCH controller: hourly MAP re-fitting + exhaustive analytic search.

This is the end-to-end baseline of §IV-B: every segment ("hour") BATCH
profiles the *previous* segment's inter-arrival times, fits a MAP, and
solves the optimization problem (Eq. 10) by evaluating the analytic model
on every candidate configuration. Its two documented weaknesses emerge
structurally:

* **computational cost** — fitting plus a matrix-analytic solve per
  candidate (the §IV-F prediction-time comparison measures exactly this);
* **staleness** — the fitted MAP describes last hour, so sudden workload
  changes (Alibaba, MAP-synthetic) are served with mis-tuned parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrival.fitting import FitReport, fit_map, fit_map_kpc
from repro.arrival.map_process import MAP
from repro.baseline.analytic import AnalyticPrediction, BatchAnalyticModel
from repro.batching.config import BatchConfig, config_grid
from repro.core.types import Decision, history_fault as _history_fault
from repro.serverless.pricing import LambdaPricing
from repro.serverless.service_profile import ServiceProfile
from repro.telemetry.events import DecisionEvent
from repro.telemetry.metrics import get_registry
from repro.utils.timing import Timer


@dataclass(frozen=True)
class BatchDecision(Decision):
    """Outcome of one BATCH optimization round.

    ``decision_time`` (the unified API's timing field) equals
    ``fit_time + solve_time``.
    """

    prediction: AnalyticPrediction | None = None
    fit_report: FitReport | None = None
    fit_time: float = 0.0
    solve_time: float = 0.0
    feasible: bool = True


class BATCHController:
    """SLO-aware configuration chooser backed by the analytic model."""

    def __init__(
        self,
        configs: list[BatchConfig] | None = None,
        profile: ServiceProfile | None = None,
        pricing: LambdaPricing | None = None,
        percentile: float = 95.0,
        n_steps: int = 96,
        min_samples: int = 30,
        fitting: str = "closed-form",
        fit_order: int = 4,
    ) -> None:
        """``fitting``: ``"closed-form"`` uses the fast exact 2-phase fit
        (equivalent decisions, accelerated — the closed-loop experiments'
        default); ``"kpc"`` runs the KPC-toolbox-style numerical MAP(
        ``fit_order``) optimization, reproducing BATCH's real fitting cost
        (used by the §IV-F prediction-time comparison)."""
        if fitting not in ("closed-form", "kpc"):
            raise ValueError(f"fitting must be 'closed-form' or 'kpc', got {fitting!r}")
        self.configs = configs if configs is not None else config_grid()
        if not self.configs:
            raise ValueError("configs must be non-empty")
        self.profile = profile if profile is not None else ServiceProfile()
        self.pricing = pricing if pricing is not None else LambdaPricing()
        self.percentile = percentile
        self.n_steps = n_steps
        self.min_samples = min_samples
        self.fitting = fitting
        self.fit_order = fit_order
        self.last_map: MAP | None = None
        self.last_decision: BatchDecision | None = None

    def choose(self, interarrival_history: np.ndarray, slo: float) -> BatchDecision:
        """Fit the history window and return the cheapest SLO-feasible
        configuration (Eq. 10); safest config when nothing is feasible.

        Degraded mode: a corrupted or too-short history window, or a
        fitting/solving failure, falls back to the last known-good decision
        (marked ``diagnostics["degraded"]``) instead of killing the serving
        loop; without a prior decision, the error propagates. An invalid
        ``slo`` is a caller bug and always raises.
        """
        if slo <= 0:
            raise ValueError(f"slo must be > 0, got {slo}")
        x = np.asarray(interarrival_history, dtype=float)
        fault = _history_fault(x)
        if fault is None and x.size < self.min_samples:
            fault = (
                f"BATCH needs at least {self.min_samples} inter-arrival samples "
                f"to fit a MAP, got {x.size}"
            )
        if fault is not None:
            return self._fall_back(fault)
        try:
            return self._choose(x, slo)
        except Exception as exc:  # degraded-mode serving: keep the last config
            return self._fall_back(f"choose() raised {type(exc).__name__}: {exc}", exc)

    def _fall_back(self, reason: str, exc: Exception | None = None) -> BatchDecision:
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
        return BatchDecision(
            config=self.last_decision.config,
            prediction=self.last_decision.prediction,
            fit_report=self.last_decision.fit_report,
            feasible=self.last_decision.feasible,
            decision_time=0.0,
            diagnostics={"degraded": True, "reason": reason},
        )

    def _choose(self, x: np.ndarray, slo: float) -> BatchDecision:
        registry = get_registry()
        with registry.span("batch.choose"):
            with Timer() as t_fit, registry.span("batch.fit"):
                if self.fitting == "kpc":
                    fitted, report = fit_map_kpc(x, order=self.fit_order)
                else:
                    fitted, report = fit_map(x)
            self.last_map = fitted

            model = BatchAnalyticModel(
                fitted, profile=self.profile, pricing=self.pricing, n_steps=self.n_steps
            )
            with Timer() as t_solve, registry.span("batch.solve"):
                preds = model.evaluate_grid(
                    self.configs, percentiles=(self.percentile,)
                )
                feasible = [
                    (p.cost_per_request, i)
                    for i, p in enumerate(preds)
                    if p.latency_percentiles[0] <= slo
                ]
                if feasible:
                    _, best = min(feasible)
                    ok = True
                else:
                    _, best = min(
                        (p.latency_percentiles[0], i) for i, p in enumerate(preds)
                    )
                    ok = False

        decision = BatchDecision(
            config=self.configs[best],
            decision_time=t_fit.elapsed + t_solve.elapsed,
            prediction=preds[best],
            fit_report=report,
            fit_time=t_fit.elapsed,
            solve_time=t_solve.elapsed,
            feasible=ok,
        )
        if registry.enabled:
            registry.counter("batch.decisions").inc()
            registry.histogram("batch.decision_time").observe(decision.decision_time)
            registry.record_event(DecisionEvent(
                controller="batch",
                memory_mb=decision.config.memory_mb,
                batch_size=decision.config.batch_size,
                timeout=decision.config.timeout,
                decision_time=decision.decision_time,
                predicted_cost=preds[best].cost_per_request * 1e6,
                predicted_p95=float(preds[best].latency_percentiles[0]),
                feasible=ok,
            ))
        self.last_decision = decision
        return decision
