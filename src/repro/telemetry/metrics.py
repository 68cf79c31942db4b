"""Counters, gauges, streaming histograms, and the :class:`MetricsRegistry`.

The registry is the single sink every instrumented code path writes to:
counters and gauges for scalar state, reservoir-sampled histograms for
distributions (percentile summaries without unbounded memory), plus the
span and event streams defined in :mod:`repro.telemetry.tracing` and
:mod:`repro.telemetry.events`.

The process-wide default is :data:`NULL_REGISTRY`, whose instruments are
shared do-nothing singletons — instrumentation left in hot paths costs a
dictionary-free attribute lookup when telemetry is off (verified against
the §IV-F decision-time benchmark). Enable collection either globally::

    registry = MetricsRegistry()
    set_registry(registry)

or scoped::

    with use_registry(MetricsRegistry()) as registry:
        run_experiment(...)
    print(render_dashboard(registry.records()))
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.tracing import NULL_SPAN, NullSpan, Span, SpanRecord

#: Percentiles reported in histogram summaries and dashboard rows.
SUMMARY_PERCENTILES: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0)


class Counter:
    """Monotonically increasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_record(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self.value}


class Gauge:
    """Last-write-wins scalar (e.g. the current epoch's training loss)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = float("nan")
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def to_record(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "value": self.value,
            "updates": self.updates,
        }


class Histogram:
    """Streaming distribution: exact count/sum/min/max, reservoir percentiles.

    Observations beyond ``max_samples`` are reservoir-sampled (algorithm R,
    vectorized) with a deterministic per-histogram RNG, so memory stays
    bounded on arbitrarily long runs while percentile summaries remain an
    unbiased sample of the whole stream.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_cap", "_samples", "_rng")

    def __init__(self, name: str, max_samples: int = 4096, seed: int = 0) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._cap = max_samples
        self._samples: list[float] = []
        self._rng = np.random.default_rng(seed)

    def observe(self, value: float) -> None:
        self.observe_many(np.asarray([value], dtype=float))

    def observe_many(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 0:
            return
        self.total += float(v.sum())
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))
        seen = self.count
        self.count += int(v.size)
        free = self._cap - len(self._samples)
        if free > 0:
            head = v[:free]
            self._samples.extend(head.tolist())
            v = v[free:]
            seen += head.size
        if v.size:
            # Algorithm R: the i-th observation survives with prob cap/i.
            order = np.arange(seen + 1, seen + 1 + v.size, dtype=float)
            keep = self._rng.random(v.size) < (self._cap / order)
            slots = self._rng.integers(0, self._cap, size=int(keep.sum()))
            samples = self._samples
            for slot, value in zip(slots.tolist(), v[keep].tolist()):
                samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, p: float) -> float:
        if not self._samples:
            return float("nan")
        return float(np.percentile(self._samples, p))

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
            "mean": self.mean,
            "percentiles": {
                f"{p:g}": self.percentile(p) for p in SUMMARY_PERCENTILES
            },
        }

    def to_record(self) -> dict:
        record = {"type": "histogram", "name": self.name}
        record.update(self.summary())
        return record


class MetricsRegistry:
    """The live telemetry sink: instruments, spans, and events in one place."""

    enabled: bool = True

    def __init__(self, max_histogram_samples: int = 4096) -> None:
        self._max_histogram_samples = max_histogram_samples
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.spans: list[SpanRecord] = []
        self.events: list[tuple[float, TelemetryEvent]] = []
        self._span_stack: list[str] = []
        self.epoch = time.perf_counter()

    # ---------------------------------------------------------- instruments
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(
                name, max_samples=self._max_histogram_samples
            )
        return inst

    # -------------------------------------------------------- spans & events
    def span(self, name: str) -> Span | NullSpan:
        return Span(self, name)

    def record_event(self, event: TelemetryEvent) -> None:
        self.events.append((time.perf_counter() - self.epoch, event))

    # --------------------------------------------------------------- export
    def records(self) -> Iterator[dict]:
        """Every collected datum as a flat JSON-serializable dict."""
        for counter in self._counters.values():
            yield counter.to_record()
        for gauge in self._gauges.values():
            yield gauge.to_record()
        for hist in self._histograms.values():
            yield hist.to_record()
        for span in self.spans:
            yield span.to_record()
        for offset, event in self.events:
            record = event.to_record()
            record["t"] = offset
            yield record

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.spans.clear()
        self.events.clear()
        self._span_stack.clear()
        self.epoch = time.perf_counter()


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = float("nan")
    updates = 0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    mean = float("nan")

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def percentile(self, p: float) -> float:
        return float("nan")


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """Disabled registry: every instrument is a shared do-nothing singleton."""

    enabled = False

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_COUNTER  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_GAUGE  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:  # type: ignore[override]
        return _NULL_HISTOGRAM  # type: ignore[return-value]

    def span(self, name: str) -> NullSpan:
        return NULL_SPAN

    def record_event(self, event: TelemetryEvent) -> None:
        pass


#: The process default: telemetry off, near-zero overhead.
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently active registry (the no-op default unless enabled)."""
    return _active


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` globally; ``None`` restores the no-op default."""
    global _active
    _active = registry if registry is not None else NULL_REGISTRY
    return _active


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Scoped activation: install ``registry``, restore the previous on exit."""
    previous = _active
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
