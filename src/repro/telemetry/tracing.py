"""Nested wall-clock spans (the tracing half of :mod:`repro.telemetry`).

A :class:`Span` is a context manager built on
:class:`repro.utils.timing.Timer` that records its name, parent, start
offset, and duration into the registry that created it. Spans nest: the
registry keeps a stack, so a span opened while another is active records
that span as its parent — enough structure to attribute a DeepBAT decision's
time to window building, the surrogate forward, and the optimizer search.

The disabled path is a shared :data:`NULL_SPAN` singleton whose
``__enter__``/``__exit__`` do nothing, so instrumented hot loops pay only a
couple of attribute lookups when telemetry is off.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.utils.timing import Timer


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: where time went, and under which parent."""

    name: str
    parent: str | None
    start: float  # seconds since the registry's epoch
    duration: float  # seconds

    def to_record(self) -> dict:
        record = asdict(self)
        record["type"] = "span"
        return record


class Span:
    """A live span; use as a context manager (created by the registry)."""

    __slots__ = ("_sink", "name", "_timer", "_start")

    def __init__(self, sink, name: str) -> None:
        self._sink = sink  # the owning MetricsRegistry
        self.name = name
        self._timer = Timer()
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter() - self._sink.epoch
        self._sink._span_stack.append(self.name)
        self._timer.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.__exit__(*exc)
        stack = self._sink._span_stack
        stack.pop()
        self._sink.spans.append(
            SpanRecord(
                name=self.name,
                parent=stack[-1] if stack else None,
                start=self._start,
                duration=self._timer.elapsed,
            )
        )


class NullSpan:
    """Do-nothing span for the disabled registry (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


#: Shared no-op span returned by :class:`~repro.telemetry.metrics.NullRegistry`.
NULL_SPAN = NullSpan()
