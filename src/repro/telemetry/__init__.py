"""Dependency-free observability for the serving loop.

Four pieces: :mod:`~repro.telemetry.metrics` (counters, gauges, streaming
histograms, and the :class:`MetricsRegistry` sink), :mod:`~repro.telemetry.
tracing` (nested wall-clock spans), :mod:`~repro.telemetry.events`
(structured decision/violation/segment and serving control-plane
records), and :mod:`~repro.telemetry.export` (JSONL round-trip plus an
ASCII dashboard).

The default registry is a no-op, so the instrumentation wired through the
controllers, simulator, buffer, trainer, and harness costs (near) nothing
unless a real registry is installed with :func:`set_registry` /
:func:`use_registry` — or via ``python -m repro evaluate --telemetry``.
"""

from repro.telemetry.events import (
    CheckpointEvent,
    DecisionEvent,
    GuardrailEvent,
    ReconfigureEvent,
    RetryEvent,
    SegmentEvent,
    TelemetryEvent,
    ViolationEvent,
    event_from_record,
)
from repro.telemetry.export import read_jsonl, render_dashboard, write_jsonl
from repro.telemetry.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.telemetry.tracing import NULL_SPAN, NullSpan, Span, SpanRecord

__all__ = [
    "Counter",
    "CheckpointEvent",
    "DecisionEvent",
    "GuardrailEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NullRegistry",
    "NullSpan",
    "ReconfigureEvent",
    "RetryEvent",
    "SegmentEvent",
    "Span",
    "SpanRecord",
    "TelemetryEvent",
    "ViolationEvent",
    "event_from_record",
    "get_registry",
    "read_jsonl",
    "render_dashboard",
    "set_registry",
    "use_registry",
    "write_jsonl",
]
