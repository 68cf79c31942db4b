"""Closed-loop experiment harness.

Replays a trace segment by segment ("hour by hour"): before each segment a
*chooser* (BATCH, DeepBAT, or the ground-truth oracle) picks a
configuration from the workload observed so far, the segment is then served
under that choice in the ground-truth simulator, and per-segment metrics
are logged. DeepBAT can additionally re-optimize *within* a segment (its
fast decisions make that affordable — the adaptivity advantage of §IV-C/D),
while BATCH re-fits only at segment boundaries, exactly as in the paper.

Every chooser returns the unified :class:`repro.core.types.Decision`
surface, and each served segment emits a :class:`SegmentEvent` (plus a
:class:`ViolationEvent` on SLO breaches) through :mod:`repro.telemetry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.arrival.stats import interarrivals
from repro.arrival.traces import Trace
from repro.batching.config import BatchConfig
from repro.batching.simulator import SimulationResult, simulate
from repro.core.types import Decision
from repro.evaluation.metrics import vcr
from repro.serverless.platform import ServerlessPlatform
from repro.telemetry.events import SegmentEvent, ViolationEvent
from repro.telemetry.metrics import get_registry

#: Eq. 11's request-sequence length, used when a chooser does not expose
#: the window length it actually observes.
DEFAULT_SEQUENCE_LENGTH = 256


class Chooser(Protocol):
    """Anything that picks a configuration from an inter-arrival history."""

    def choose(self, interarrival_history: np.ndarray, slo: float) -> Decision:
        """Returns a :class:`repro.core.types.Decision` (or a subclass)."""
        ...


def _resolve_sequence_length(chooser: Chooser, sequence_length: int | None) -> int:
    """The VCR chunk length for a run: explicit > chooser's window > Eq. 11.

    A chooser advertising a nonsensical window (``window_length < 1``) is
    rejected loudly, mirroring the explicit-argument check — it must not
    silently fall back to the Eq. 11 default.
    """
    if sequence_length is not None:
        if sequence_length < 1:
            raise ValueError(f"sequence_length must be >= 1, got {sequence_length}")
        return int(sequence_length)
    window = getattr(chooser, "window_length", None)
    if window is None:
        return DEFAULT_SEQUENCE_LENGTH
    window = int(window)
    if window < 1:
        raise ValueError(
            f"chooser window_length must be >= 1, got {window}"
        )
    return window


@dataclass(frozen=True)
class SegmentOutcome:
    """Metrics of one trace segment served under a chooser's decisions.

    The resilience fields are zero on fault-free runs: ``n_retries`` counts
    invocation re-dispatches (failures, timeouts, throttle rejections),
    ``n_failed`` the requests whose batch exhausted every retry, and
    ``degraded_decisions`` the choose() calls answered from the
    controller's last known-good decision.
    """

    segment: int
    configs: tuple[BatchConfig, ...]
    latencies: np.ndarray
    total_cost: float
    n_requests: int
    decision_times: tuple[float, ...]
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH
    n_retries: int = 0
    n_failed: int = 0
    degraded_decisions: int = 0

    def p(self, percentile: float) -> float:
        if self.latencies.size == 0:
            return np.nan
        return float(np.percentile(self.latencies, percentile))

    @property
    def cost_per_request(self) -> float:
        return self.total_cost / self.n_requests if self.n_requests else np.nan

    def vcr(
        self,
        slo: float,
        sequence_length: int | None = None,
        percentile: float = 95.0,
    ) -> float:
        """VCR of this segment; chunked by the run's recorded sequence
        length unless an explicit ``sequence_length`` overrides it."""
        length = self.sequence_length if sequence_length is None else sequence_length
        return vcr(self.latencies, slo, length, percentile)


@dataclass
class ExperimentLog:
    """Per-segment outcomes for one chooser over one trace."""

    name: str
    trace: str
    slo: float
    outcomes: list[SegmentOutcome] = field(default_factory=list)
    sequence_length: int = DEFAULT_SEQUENCE_LENGTH

    def vcr_series(
        self, sequence_length: int | None = None, percentile: float = 95.0
    ) -> np.ndarray:
        length = self.sequence_length if sequence_length is None else sequence_length
        return np.array(
            [o.vcr(self.slo, length, percentile) for o in self.outcomes]
        )

    def cost_series(self) -> np.ndarray:
        return np.array([o.cost_per_request for o in self.outcomes])

    def latency_series(self, percentile: float = 95.0) -> np.ndarray:
        return np.array([o.p(percentile) for o in self.outcomes])

    def all_latencies(self) -> np.ndarray:
        if not self.outcomes:
            return np.empty(0)
        return np.concatenate([o.latencies for o in self.outcomes])

    @property
    def total_cost(self) -> float:
        return float(sum(o.total_cost for o in self.outcomes))

    @property
    def total_retries(self) -> int:
        return sum(o.n_retries for o in self.outcomes)

    @property
    def total_failed(self) -> int:
        return sum(o.n_failed for o in self.outcomes)

    @property
    def total_degraded_decisions(self) -> int:
        return sum(o.degraded_decisions for o in self.outcomes)

    @property
    def mean_decision_time(self) -> float:
        times = [t for o in self.outcomes for t in o.decision_times]
        return float(np.mean(times)) if times else 0.0


def run_segment(
    trace: Trace,
    segment: int,
    chooser: Chooser,
    slo: float,
    platform: ServerlessPlatform,
    update_every: int | None = None,
    history_tail: int = 4096,
    sequence_length: int | None = None,
) -> SegmentOutcome:
    """Serve one segment under the chooser's decisions.

    ``update_every``: re-optimize after this many requests *within* the
    segment (None = one decision per segment, BATCH-style). The history
    handed to the chooser is the previous segment plus the part of the
    current segment already served, truncated to ``history_tail`` samples.
    ``sequence_length``: the VCR chunk length recorded on the outcome;
    defaults to the chooser's observation window (falling back to Eq. 11's
    256 for window-less choosers).
    """
    if segment < 1:
        raise ValueError("segment must be >= 1 (segment 0 has no history)")
    seq_len = _resolve_sequence_length(chooser, sequence_length)
    prev = trace.segment(segment - 1, relative=False)
    current = trace.segment(segment, relative=False)

    if current.size == 0:
        return SegmentOutcome(segment, (), np.empty(0), 0.0, 0, (), seq_len)

    blocks: list[np.ndarray]
    if update_every is None or current.size <= update_every:
        blocks = [current]
    else:
        n_blocks = int(np.ceil(current.size / update_every))
        blocks = np.array_split(current, n_blocks)

    latencies: list[np.ndarray] = []
    cost = 0.0
    configs: list[BatchConfig] = []
    dtimes: list[float] = []
    n_retries = 0
    n_failed = 0
    degraded = 0
    served = np.empty(0)
    for block in blocks:
        history_ts = np.concatenate([prev, served])
        # The last k inter-arrivals only need the last k+1 timestamps;
        # slicing first keeps the per-block work O(history_tail), not
        # O(total served history).
        hist = interarrivals(history_ts[-(history_tail + 1):])
        decision = chooser.choose(hist, slo)
        diagnostics = getattr(decision, "diagnostics", None)
        if diagnostics and diagnostics.get("degraded"):
            degraded += 1
        configs.append(decision.config)
        dtimes.append(float(decision.decision_time))
        result: SimulationResult = simulate(block, decision.config, platform)
        latencies.append(result.latencies)
        cost += result.total_cost
        n_retries += int(result.extra.get("retries", 0))
        n_retries += int(result.extra.get("throttle_retries", 0))
        n_failed += int(result.extra.get("failed_requests", 0))
        served = np.concatenate([served, block])

    outcome = SegmentOutcome(
        segment=segment,
        configs=tuple(configs),
        latencies=np.concatenate(latencies),
        total_cost=cost,
        n_requests=current.size,
        decision_times=tuple(dtimes),
        sequence_length=seq_len,
        n_retries=n_retries,
        n_failed=n_failed,
        degraded_decisions=degraded,
    )
    registry = get_registry()
    if registry.enabled:
        p95 = outcome.p(95.0)
        registry.histogram("harness.segment_p95").observe(p95)
        registry.histogram("harness.segment_cost_per_request").observe(
            outcome.cost_per_request
        )
        registry.histogram("harness.decision_time").observe_many(
            np.asarray(dtimes, dtype=float)
        )
        if n_retries:
            registry.counter("harness.retried_invocations").inc(n_retries)
        if n_failed:
            registry.counter("harness.failed_requests").inc(n_failed)
        registry.record_event(SegmentEvent(
            segment=segment,
            n_requests=outcome.n_requests,
            p95=p95,
            cost_per_request=outcome.cost_per_request,
            vcr=outcome.vcr(slo),
            mean_decision_time=float(np.mean(dtimes)) if dtimes else 0.0,
            slo=slo,
            controller=type(chooser).__name__,
            retries=n_retries,
            failed_requests=n_failed,
            degraded_decisions=degraded,
        ))
        if p95 > slo:
            registry.counter("harness.slo_violations").inc()
            registry.record_event(
                ViolationEvent(segment=segment, observed_p95=p95, slo=slo)
            )
    return outcome


def run_experiment(
    trace: Trace,
    chooser: Chooser,
    slo: float,
    platform: ServerlessPlatform | None = None,
    segments: range | None = None,
    update_every: int | None = None,
    history_tail: int = 4096,
    sequence_length: int | None = None,
    name: str = "chooser",
) -> ExperimentLog:
    """Run a chooser over a range of segments (default: 1 … n−1)."""
    platform = platform if platform is not None else ServerlessPlatform()
    segments = segments if segments is not None else range(1, trace.n_segments)
    seq_len = _resolve_sequence_length(chooser, sequence_length)
    log = ExperimentLog(
        name=name, trace=trace.name, slo=slo, sequence_length=seq_len
    )
    for seg in segments:
        log.outcomes.append(
            run_segment(
                trace, seg, chooser, slo, platform,
                update_every=update_every,
                history_tail=history_tail,
                sequence_length=seq_len,
            )
        )
    return log


@dataclass
class OracleChooser:
    """Ground-truth oracle: exhaustively simulates the *upcoming* workload.

    Used as the "Ground Truth" line of the paper's figures. Because it sees
    the future it is not a real controller — it bounds what any controller
    could achieve. Its decisions report ``decision_time`` 0 for the same
    reason: exhaustive search over the future is not a cost any deployable
    controller would pay.
    """

    configs: list[BatchConfig]
    platform: ServerlessPlatform
    percentile: float = 95.0
    future: np.ndarray | None = None

    def set_future(self, timestamps: np.ndarray) -> None:
        self.future = np.asarray(timestamps, dtype=float)

    def choose(self, interarrival_history: np.ndarray, slo: float) -> Decision:
        from repro.batching.simulator import ground_truth_optimum

        if self.future is None:
            raise RuntimeError("oracle needs set_future() before choose()")
        config, _ = ground_truth_optimum(
            self.future, self.configs, self.platform, slo, self.percentile
        )
        return Decision(config=config)

