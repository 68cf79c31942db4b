"""Structured event records emitted by the serving and evaluation loops.

Events are frozen dataclasses with a class-level ``kind`` discriminator and
a flat ``to_record()``/:func:`event_from_record` wire format, so a JSONL
dump round-trips losslessly:

* :class:`DecisionEvent` — one controller optimization round (who decided,
  the chosen ``(M, B, T)``, how long it took, what it predicted);
* :class:`ViolationEvent` — a served segment whose observed tail latency
  exceeded the SLO;
* :class:`SegmentEvent` — the per-segment scorecard the evaluation harness
  logs (p95, cost/request, VCR, decision time);
* :class:`RetryEvent` — one fault-injected execution's retry summary
  (retries, timeouts, failed batches/requests, throttle rejections);
* :class:`ReconfigureEvent` — the serving runtime applied a new ``(M, B,
  T)`` after its deploy lag;
* :class:`GuardrailEvent` — the SLO circuit breaker changed state
  (tripped to the fallback config, half-open probe, restored);
* :class:`CheckpointEvent` — the serving runtime wrote a crash-safe
  snapshot of its state.

The serving loop records only the last three. Sheds and drift triggers
are counted, not recorded: ``ServingLog.publish`` reads them from the
finished run, as it does every other serving counter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import ClassVar


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class; subclasses set ``kind`` and add their payload fields."""

    kind: ClassVar[str] = "event"

    def to_record(self) -> dict:
        record = asdict(self)
        record["type"] = "event"
        record["kind"] = self.kind
        return record


@dataclass(frozen=True)
class DecisionEvent(TelemetryEvent):
    """One optimization round of any controller."""

    kind: ClassVar[str] = "decision"

    controller: str
    memory_mb: float
    batch_size: int
    timeout: float
    decision_time: float
    predicted_cost: float | None = None
    predicted_p95: float | None = None
    feasible: bool | None = None


@dataclass(frozen=True)
class ViolationEvent(TelemetryEvent):
    """A segment whose observed tail latency broke the SLO."""

    kind: ClassVar[str] = "violation"

    segment: int
    observed_p95: float
    slo: float


@dataclass(frozen=True)
class SegmentEvent(TelemetryEvent):
    """Per-segment scorecard from the closed-loop harness."""

    kind: ClassVar[str] = "segment"

    segment: int
    n_requests: int
    p95: float
    cost_per_request: float
    vcr: float
    mean_decision_time: float
    slo: float
    controller: str = ""
    retries: int = 0
    failed_requests: int = 0
    degraded_decisions: int = 0


@dataclass(frozen=True)
class RetryEvent(TelemetryEvent):
    """Retry/failure summary of one fault-injected batch execution."""

    kind: ClassVar[str] = "retry"

    memory_mb: float
    batches: int
    retries: int
    timeouts: int
    failed_batches: int
    failed_requests: int
    throttle_retries: int


@dataclass(frozen=True)
class ReconfigureEvent(TelemetryEvent):
    """The serving runtime switched to a new configuration."""

    kind: ClassVar[str] = "reconfigure"

    time: float
    reason: str
    memory_mb: float
    batch_size: int
    timeout: float
    old_memory_mb: float
    old_batch_size: int
    old_timeout: float
    lag: float


@dataclass(frozen=True)
class GuardrailEvent(TelemetryEvent):
    """The SLO guardrail's circuit breaker changed state."""

    kind: ClassVar[str] = "guardrail"

    time: float
    action: str  # "tripped" | "probe" | "restored"
    state: str  # breaker state after the action
    observed_p: float  # latency percentile of the window that drove it
    slo: float
    memory_mb: float
    batch_size: int
    timeout: float


@dataclass(frozen=True)
class CheckpointEvent(TelemetryEvent):
    """The serving runtime wrote a crash-safe state snapshot."""

    kind: ClassVar[str] = "checkpoint"

    time: float
    events_processed: int
    journal_entries: int


EVENT_TYPES: dict[str, type[TelemetryEvent]] = {
    cls.kind: cls
    for cls in (
        DecisionEvent, ViolationEvent, SegmentEvent, RetryEvent,
        ReconfigureEvent, GuardrailEvent, CheckpointEvent,
    )
}


def event_from_record(record: dict) -> TelemetryEvent | dict:
    """Rebuild an event from its wire record.

    Unknown kinds come back as the raw dict so readers stay forward-
    compatible with dumps written by newer code.
    """
    cls = EVENT_TYPES.get(record.get("kind", ""))
    if cls is None:
        return dict(record)
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in record.items() if k in names})
