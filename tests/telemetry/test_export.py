"""Tests for JSONL persistence, event round-trips, and the dashboard."""

import numpy as np
import pytest

from repro.telemetry.events import (
    DecisionEvent,
    ReconfigureEvent,
    SegmentEvent,
    ViolationEvent,
    event_from_record,
)
from repro.telemetry.export import read_jsonl, render_dashboard, write_jsonl
from repro.telemetry.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests").inc(42)
    reg.gauge("loss").set(0.25)
    reg.histogram("latency").observe_many(np.linspace(0.01, 0.2, 50))
    with reg.span("choose"):
        with reg.span("forward"):
            pass
    reg.record_event(DecisionEvent(
        controller="deepbat", memory_mb=1024.0, batch_size=8, timeout=0.05,
        decision_time=0.002, predicted_cost=1.5, predicted_p95=0.08,
        feasible=True,
    ))
    reg.record_event(ReconfigureEvent(
        time=1.0, reason="interval", memory_mb=2048.0, batch_size=16,
        timeout=0.02, old_memory_mb=1024.0, old_batch_size=8,
        old_timeout=0.05, lag=0.25,
    ))
    reg.record_event(SegmentEvent(
        segment=1, n_requests=900, p95=0.09, cost_per_request=2e-6,
        vcr=3.0, mean_decision_time=0.002, slo=0.1, controller="DeepBATController",
    ))
    reg.record_event(ViolationEvent(segment=2, observed_p95=0.15, slo=0.1))
    return reg


class TestJsonlRoundTrip:
    def test_write_read_preserves_records(self, tmp_path):
        reg = populated_registry()
        path = tmp_path / "dump.jsonl"
        n = write_jsonl(reg, path)
        records = read_jsonl(path)
        assert len(records) == n
        assert records == list(reg.records())

    def test_numpy_scalars_serializable(self, tmp_path):
        records = [{"type": "gauge", "name": "g",
                    "value": np.float64(1.5), "arr": np.arange(3)}]
        path = tmp_path / "np.jsonl"
        write_jsonl(records, path)
        back = read_jsonl(path)
        assert back == [{"type": "gauge", "name": "g", "value": 1.5,
                         "arr": [0, 1, 2]}]

    def test_events_rebuild_from_records(self, tmp_path):
        reg = populated_registry()
        path = tmp_path / "dump.jsonl"
        write_jsonl(reg, path)
        events = [event_from_record(r) for r in read_jsonl(path)
                  if r["type"] == "event"]
        originals = [e for _, e in reg.events]
        assert events == originals

    def test_unknown_kind_passes_through(self):
        raw = {"type": "event", "kind": "from-the-future", "payload": 1}
        assert event_from_record(raw) == raw


class TestDashboard:
    def test_renders_every_section(self):
        text = render_dashboard(populated_registry())
        for section in ("segments", "decisions", "SLO violations", "spans",
                        "histograms", "scalars"):
            assert section in text
        # Per-segment scorecard values survive formatting.
        assert "DeepBATController" in text
        assert "90.0" in text       # p95 in ms
        assert "2.0000" in text     # cost $/1M
        # Nested span shows its parent.
        assert "forward" in text and "choose" in text

    def test_accepts_record_list(self, tmp_path):
        reg = populated_registry()
        path = tmp_path / "dump.jsonl"
        write_jsonl(reg, path)
        assert render_dashboard(read_jsonl(path)) == render_dashboard(reg)

    def test_empty_dump(self):
        assert "(no telemetry records)" in render_dashboard([])

    def test_title(self):
        text = render_dashboard([], title="custom title")
        assert text.startswith("custom title")


class TestReliabilitySection:
    def test_renders_guardrail_and_checkpoint_rows(self):
        from repro.telemetry.events import CheckpointEvent, GuardrailEvent

        reg = MetricsRegistry()
        reg.counter("guardrail.tripped").inc(2)
        reg.counter("guardrail.probe").inc(2)
        reg.counter("guardrail.restored").inc()
        reg.counter("guardrail.suppressed_decisions").inc(5)
        reg.counter("checkpoint.snapshots").inc(7)
        reg.counter("checkpoint.restores").inc()
        reg.record_event(GuardrailEvent(
            time=1.0, action="tripped", state="open", observed_p=0.24,
            slo=0.1, memory_mb=2048.0, batch_size=1, timeout=0.0,
        ))
        reg.record_event(GuardrailEvent(
            time=5.0, action="restored", state="closed", observed_p=0.05,
            slo=0.1, memory_mb=2048.0, batch_size=8, timeout=0.05,
        ))
        reg.record_event(CheckpointEvent(
            time=6.0, events_processed=640, journal_entries=900,
        ))
        text = render_dashboard(reg)
        assert "reliability" in text
        assert "breaker trips" in text and "snapshots written" in text
        assert "240.0" in text  # worst tripped percentile in ms
        assert "(2048 MB, B=1, T=0s)" in text  # last fallback config
        assert "final breaker state" in text and "closed" in text
        assert "event 640" in text

    def test_absent_without_reliability_metrics(self):
        assert "reliability" not in render_dashboard(populated_registry())


class TestDegradationSection:
    def test_renders_engine_and_fleet_scopes(self):
        reg = MetricsRegistry()
        # Single-engine namespace: serving.<outage|degrade>.<metric>.
        reg.counter("serving.outage.crashes").inc(4)
        reg.counter("serving.outage.crash_requeued").inc(9)
        reg.counter("serving.outage.straggler_batches").inc(36)
        reg.counter("serving.degrade.cold_retries").inc(106)
        reg.counter("serving.degrade.hedges").inc(14)
        reg.counter("serving.degrade.hedge_wins").inc(5)
        # Fleet-lane namespace: serving.<endpoint>.<outage|degrade>.<metric>.
        reg.counter("serving.gold.degrade.failover").inc(141)
        reg.counter("serving.gold.degrade.brownout_shed").inc(37)
        text = render_dashboard(reg)
        assert "degradation" in text
        assert "engine" in text and "gold" in text
        assert "141" in text and "106" in text

    def test_absent_without_degradation_metrics(self):
        assert "degradation" not in render_dashboard(populated_registry())
        # Plain serving counters don't open the section either.
        reg = MetricsRegistry()
        reg.counter("serving.batches").inc(10)
        assert "degradation" not in render_dashboard(reg)


class TestPerformanceSection:
    def test_renders_simcore_throughput(self):
        reg = MetricsRegistry()
        reg.histogram("simulator.grid_time").observe(0.5)
        reg.counter("simulator.grid_configs").inc(285)
        reg.counter("simulator.grid_sweeps").inc()
        reg.histogram("dataset.label_time").observe(2.0)
        reg.counter("dataset.labels").inc(600)
        reg.gauge("dataset.workers").set(4)
        text = render_dashboard(reg)
        assert "performance (simulation core)" in text
        assert "grid simulation" in text
        assert "570.0" in text  # 285 configs / 0.5 s
        assert "dataset labeling (workers=4)" in text
        assert "300.0" in text  # 600 labels / 2.0 s

    def test_absent_without_perf_metrics(self):
        assert "performance" not in render_dashboard(populated_registry())


class TestResilienceSection:
    def test_renders_fault_counters(self):
        from repro.telemetry.events import RetryEvent

        reg = MetricsRegistry()
        reg.counter("fault.attempts").inc(120)
        reg.counter("fault.retries").inc(20)
        reg.counter("fault.timeouts").inc(3)
        reg.counter("fault.failed_batches").inc(2)
        reg.counter("fault.failed_requests").inc(9)
        reg.counter("fault.degraded_decisions").inc(1)
        reg.record_event(RetryEvent(
            memory_mb=1024.0, batches=100, retries=20, timeouts=3,
            failed_batches=2, failed_requests=9, throttle_retries=0,
        ))
        text = render_dashboard(reg)
        assert "resilience" in text
        assert "invocation attempts" in text
        assert "invocation retries" in text
        assert "timed-out batches" in text
        assert "failed requests" in text
        assert "degraded decisions" in text
        assert "fault-injected executions" in text

    def test_absent_on_fault_free_dumps(self):
        assert "resilience" not in render_dashboard(populated_registry())

    def test_retry_event_round_trips(self, tmp_path):
        from repro.telemetry.events import RetryEvent, event_from_record

        reg = MetricsRegistry()
        event = RetryEvent(memory_mb=512.0, batches=10, retries=4, timeouts=1,
                           failed_batches=1, failed_requests=8,
                           throttle_retries=2)
        reg.record_event(event)
        path = tmp_path / "retry.jsonl"
        write_jsonl(reg, path)
        rebuilt = [event_from_record(r) for r in read_jsonl(path)
                   if r["type"] == "event"]
        assert rebuilt == [event]

    def test_segment_degraded_sum_without_counter(self):
        reg = MetricsRegistry()
        reg.record_event(SegmentEvent(
            segment=1, n_requests=900, p95=0.09, cost_per_request=2e-6,
            vcr=3.0, mean_decision_time=0.002, slo=0.1, controller="deepbat",
            retries=5, failed_requests=2, degraded_decisions=3,
        ))
        reg.counter("fault.attempts").inc(10)  # opens the section
        text = render_dashboard(reg)
        assert "degraded decisions" in text
