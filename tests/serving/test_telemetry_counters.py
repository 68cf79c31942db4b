"""Telemetry counters agree with the ServingLog they describe.

A run's counters are published once, from its finished
:class:`~repro.serving.log.ServingLog` (:meth:`ServingLog.publish`). This
file pins that contract three ways:

* on every golden scenario, the registry's counters equal a table this
  file computes from the returned log(s) — including the cases where
  in-loop counting used to disagree with the log (straggler batches that
  later crash, the buffer dispatcher's prefill/decode iterations, and
  generation requests counted at start instead of at arrival);
* the loop records only reconfigure, guardrail and checkpoint events: a
  run that sheds and fires the drift trigger reports both through its
  counters, and a static run records no event at all;
* a kill/restore drill counts every request once: crashed legs publish
  nothing, the completed leg publishes the log — counters and histograms
  alike;
* the loop reads no clock: with telemetry off a run completes under a
  poisoned ``time.perf_counter``; with it on, a plain run drives the
  event loop (``_advance``) once, with no stop, creates no counter or
  histogram before ``_finish``, and publishes no wall-clock counters, so
  the dashboard has no serving-performance section;
* an ``ast`` lint keeps data-plane ``.counter(...)`` calls out of
  ``repro.serving``: only ``checkpoint.*`` and the ``publish`` functions
  of ``ServingLog`` and ``FleetLog`` may create counters; and it keeps
  ``.histogram(...)`` calls out of ``repro.serving`` and the batching
  buffer except in their ``publish`` functions; and it lets their
  ``.record_event(...)`` calls build only reconfigure, guardrail and
  checkpoint events.
"""

import ast
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.drift import WorkloadDriftDetector
from repro.serverless.generation import TokenLengthModel
from repro.serverless.platform import ServerlessPlatform
from repro.serving import (
    ServingEngine,
    SimulatedCrash,
    WarmPoolConfig,
    run_with_crashes,
)
from repro.serving.config import DriftConfig, GenerationConfig
from repro.serving.engine import _NO_STOP
from repro.telemetry.export import render_dashboard
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.serving.test_fleet_drive_equivalence import run_scheduled
from tests.serving.test_golden_digests import (
    CONFIG,
    AlternatingChooser,
    outage_engine,
    poisson,
    run_control_plane,
    run_faults,
    run_fleet,
    run_gen_buffer,
    run_gen_continuous,
    run_outages,
    run_plain,
    run_plain_limited,
    uniform,
)

pytestmark = pytest.mark.serving

SRC_DIR = Path(__file__).resolve().parents[2] / "src" / "repro"
SERVING_DIR = SRC_DIR / "serving"
BUFFER_PATH = SRC_DIR / "batching" / "buffer.py"


def registry_counters(registry) -> dict:
    """The run's counters, minus the checkpoint counters that stay in the
    loop."""
    return {
        r["name"]: r["value"] for r in registry.records()
        if r["type"] == "counter" and not r["name"].startswith("checkpoint.")
    }


def registry_histograms(registry) -> dict:
    """Name -> the run's histogram record (count, sum, min, max, ...)."""
    return {r["name"]: r for r in registry.records()
            if r["type"] == "histogram"}


def expected_counters(logs, prefixes) -> dict:
    """Name -> value, computed from the logs; zero values are absent."""
    table: dict = {}

    def add(name, value):
        if value:
            table[name] = table.get(name, 0.0) + value

    for log, prefix in zip(logs, prefixes):
        rows = log.batch_cold.size
        cold = int(np.count_nonzero(log.batch_cold))
        per_lane = {
            "requests": log.arrival_times.size,
            "batches": rows,
            "cold_starts": cold,
            "warm_starts": rows - cold,
            "queued_batches": log.queued_batches,
            "shed_batches": log.shed_batches,
            "shed_requests": int(log.shed.sum()) - log.brownout_shed,
            "decisions": len(
                [d for d in log.decisions if d.reason != "guardrail"]
            ),
            "decision_errors": log.decision_errors,
            "reconfigurations": log.reconfigurations,
            "drift_triggers": log.drift_triggers,
            "prediction_drift_triggers": log.prediction_drift_triggers,
            "retrains": log.retrains,
            "prewarm.ticks": log.prewarm_ticks,
            "prewarm.provisioned": log.prewarmed_containers,
            "prewarm.cost": log.prewarm_cost,
            "prewarm.retired": log.prewarm_retired,
            "gen.requests": (
                log.arrival_times.size if log.ttft is not None else 0
            ),
            "gen.sessions": log.gen_sessions,
            "gen.prefill_iterations": log.gen_prefill_iterations,
            "gen.decode_iterations": log.gen_decode_iterations,
            "gen.tokens": log.gen_tokens,
            "gen.shed": log.gen_shed,
            "outage.crashes": log.crashed_containers,
            "outage.crash_requeued": log.crash_requeued,
            "outage.straggler_batches": log.straggler_batches,
            "degrade.cold_retries": log.cold_retries,
            "degrade.retry_exhausted": log.cold_retry_exhausted,
            "degrade.hedges": log.hedges,
            "degrade.hedge_wins": log.hedge_wins,
            "degrade.hedge_denied": log.hedge_denied,
            "degrade.hedge_cost": log.hedge_cost,
            "degrade.failover": log.failover_batches,
            "degrade.brownout_shed": log.brownout_shed,
        }
        for name, value in per_lane.items():
            add(f"{prefix}.{name}", value)
        # Unprefixed: a fleet's lanes add up into one set.
        add("guardrail.tripped", log.guardrail_trips)
        add("guardrail.probe", log.guardrail_probes)
        add("guardrail.restored", log.guardrail_restores)
        add("guardrail.suppressed_decisions", log.guardrail_suppressed)
    return table


def observed(run):
    with use_registry(MetricsRegistry()) as registry:
        result = run()
    return result, registry_counters(registry)


def run_gen_buffer_small_pool():
    """Buffer dispatcher that sheds: started requests < arrivals."""
    gen = GenerationConfig(dispatcher="buffer",
                           length_model=TokenLengthModel(output_mean=8.0))
    return ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=6),
        pool=WarmPoolConfig(max_containers=1, max_queued_batches=2),
        generation=gen,
    ).run(poisson(400.0, 1500, 6), name="gen-small-pool")


SINGLE = {
    "plain": run_plain,
    "plain-limited": run_plain_limited,
    "faults": run_faults,
    "outages": run_outages,
    "control-plane": run_control_plane,
    "gen-buffer": run_gen_buffer,
    "gen-continuous": run_gen_continuous,
    "gen-buffer-small-pool": run_gen_buffer_small_pool,
}


class TestCountersMatchLog:
    @pytest.mark.parametrize("scenario", sorted(SINGLE))
    def test_single_engine(self, scenario):
        log, counters = observed(SINGLE[scenario])
        assert counters == expected_counters([log], ["serving"])

    def test_fleet(self):
        logs, counters = observed(run_fleet)
        lanes = ["gold", "silver", "bronze", "tin"]
        assert counters == expected_counters(
            logs, [f"serving.{lane}" for lane in lanes]
        )
        # A lane's cold_starts counts the batch rows it billed (failed-over
        # rows ran on a donor's container); ServingLog.cold_starts counts
        # the leases of the lane's own pool.
        gold = logs[0]
        assert counters["serving.gold.cold_starts"] == 320
        assert gold.cold_starts == 284

    def test_fleet_scheduler_plans(self):
        log, counters = observed(run_scheduled)
        assert log.fleet_decisions >= 1
        assert counters["fleet.scheduler_plans"] == log.fleet_decisions

    def test_straggler_batches_that_later_crash_are_counted(self):
        log, counters = observed(run_outages)
        assert log.straggler_batches == 45
        assert counters["serving.outage.straggler_batches"] == 45

    def test_buffer_dispatcher_publishes_iterations(self):
        log, counters = observed(run_gen_buffer)
        assert counters["serving.gen.prefill_iterations"] == 193
        assert counters["serving.gen.decode_iterations"] == 3800
        assert log.gen_prefill_iterations == 193

    def test_generation_requests_count_arrivals(self):
        log, counters = observed(run_gen_buffer_small_pool)
        assert log.n_shed > 0
        assert counters["serving.gen.requests"] == log.n_requests == 1500

    def test_queued_batches_and_decision_errors(self):
        class Failing(AlternatingChooser):
            def choose(self, history, slo):
                self.calls += 1
                if self.calls % 2:
                    raise RuntimeError("controller crashed")
                return super().choose(history, slo)

        def run():
            return ServingEngine(
                CONFIG, platform=ServerlessPlatform(seed=8),
                chooser=Failing(), decision_interval_s=0.5, min_history=16,
                pool=WarmPoolConfig(max_containers=2, max_queued_batches=6),
            ).run(poisson(800.0, 1500, 8), record_trace=True)

        log, counters = observed(run)
        queued = sum(1 for e in log.event_trace if e[0] == "queued")
        errors = sum(1 for e in log.event_trace if e[0] == "decision_error")
        assert queued > 0 and errors > 0
        assert log.queued_batches == queued
        assert log.decision_errors == errors
        assert counters["serving.queued_batches"] == queued
        assert counters["serving.decision_errors"] == errors
        # The fast loop (telemetry off) keeps the same log counts.
        plain = run()
        assert (plain.queued_batches, plain.decision_errors) == (queued,
                                                                 errors)


class TestLoopEvents:
    def test_shed_and_drift_reach_the_report_as_counters(self):
        detector = WorkloadDriftDetector().fit(
            np.diff(poisson(100.0, 2000, 9)), 32
        )
        calm = poisson(100.0, 800, 4)
        ts = np.concatenate([calm, calm[-1] + poisson(500.0, 1500, 5)])
        with use_registry(MetricsRegistry()) as registry:
            log = ServingEngine(
                CONFIG, platform=ServerlessPlatform(seed=4),
                chooser=AlternatingChooser(), decision_interval_s=1.0,
                min_history=16,
                pool=WarmPoolConfig(max_containers=1, max_queued_batches=0),
                drift=DriftConfig(detector=detector, window=32,
                                  check_every=16, cooldown_s=2.0),
            ).run(ts)
        assert log.shed_batches > 0 and log.drift_triggers > 0
        kinds = {event.kind for _offset, event in registry.events}
        assert kinds and kinds <= {"reconfigure", "guardrail", "checkpoint"}
        dashboard = render_dashboard(registry)

        def row(label):
            return int(re.search(rf"^{label} +\| (\d+)", dashboard,
                                 re.MULTILINE).group(1))

        assert row("shed batches") == log.shed_batches
        assert row("workload-drift triggers") == log.drift_triggers

    def test_static_run_records_no_events(self):
        with use_registry(MetricsRegistry()) as registry:
            log = run_plain()
        assert log.n_requests > 0
        assert registry.events == []


class TestCrashRestoreCountsOnce:
    def test_each_request_counted_once(self, tmp_path):
        def drill():
            return run_with_crashes(
                outage_engine, uniform(1, 400, 30.0), tmp_path / "c.ckpt",
                n_crashes=3, seed=5, max_events=900,
            )

        (log, kills), counters = observed(drill)
        assert kills == [21, 604, 724]
        assert log.n_requests == 400 and log.batch_cold.size == 276
        assert counters["serving.requests"] == 400
        assert counters["serving.batches"] == 276
        assert counters == expected_counters([log], ["serving"])
        # Identical to the counters of a run that never crashed.
        _log, uninterrupted = observed(
            lambda: outage_engine().run(uniform(1, 400, 30.0))
        )
        assert counters == uninterrupted

    def test_histograms_counted_once(self, tmp_path):
        # Kills at events 57 and 1677, then a clean finish. Each restore
        # replays the events after its snapshot; the published histograms
        # must still hold every request exactly once.
        ts = poisson(300.0, 1500, 0)
        ckpt = tmp_path / "h.ckpt"

        def engine():
            return ServingEngine(CONFIG, platform=ServerlessPlatform(seed=1))

        with use_registry(MetricsRegistry()) as drilled:
            with pytest.raises(SimulatedCrash):
                engine().run(ts, checkpoint_path=ckpt, checkpoint_every=64,
                             crash_after_events=57)
            with pytest.raises(SimulatedCrash):
                engine().restore(ckpt, crash_after_events=1677)
            engine().restore(ckpt)
        with use_registry(MetricsRegistry()) as plain:
            engine().run(ts)
        histograms = registry_histograms(drilled)
        assert histograms["serving.latency"]["count"] == 1500
        assert histograms["buffer.wait"]["count"] == 1500
        assert histograms == registry_histograms(plain)


class TestHistogramsMatchLog:
    @pytest.mark.parametrize("scenario", sorted(SINGLE))
    def test_counts_follow_the_log(self, scenario):
        with use_registry(MetricsRegistry()) as registry:
            log = SINGLE[scenario]()
        counters = registry_counters(registry)
        histograms = registry_histograms(registry)
        expected = {
            "serving.latency": np.count_nonzero(~np.isnan(log.latencies)),
            "serving.cold_delay": counters.get("serving.cold_starts", 0),
        }
        if log.gen_sessions:
            expected["serving.gen.session_seconds"] = log.gen_sessions
        else:
            # Every request passes the buffer once, in exactly one batch.
            sizes = histograms.pop("buffer.batch_size")
            assert sizes["sum"] == log.n_requests
            expected["buffer.wait"] = log.n_requests
            expected["serving.queue_delay"] = counters["serving.batches"]
        if log.ttft is not None:
            expected["serving.ttft"] = np.count_nonzero(~np.isnan(log.ttft))
        counts = {name: r["count"] for name, r in histograms.items()}
        assert counts == {k: v for k, v in expected.items() if v}

    def test_values_come_from_the_batch_rows(self):
        with use_registry(MetricsRegistry()) as registry:
            log = run_outages()
        histograms = registry_histograms(registry)
        waits = log.start_times - log.dispatch_times
        queue = histograms["serving.queue_delay"]
        assert (queue["min"], queue["max"]) == (waits.min(), waits.max())
        assert queue["sum"] == pytest.approx(waits.sum(), rel=1e-12)
        # Crashed attempts have no service time; every other row does.
        crashed = np.isnan(log.batch_service)
        assert crashed.sum() == log.crashed_containers


# -------------------------------------------------------------------- lint
#: Counter names ``repro.serving`` may create outside a publish function.
def clock_engine():
    return ServingEngine(
        CONFIG, pool=WarmPoolConfig(keep_alive_s=2.0, max_containers=4),
    )


def clock_trace(seed, n):
    return np.cumsum(np.random.default_rng(seed).exponential(1 / 200.0, n))


class TestDisabledPath:
    def test_disabled_serving_run_never_touches_the_clock(self, monkeypatch):
        # With telemetry off, a full serving run must complete with a
        # poisoned perf_counter: no clock read is reachable in the loop.
        def poisoned():
            raise AssertionError("clock read in an untimed serving run")

        monkeypatch.setattr(time, "perf_counter", poisoned)
        log = clock_engine().run(clock_trace(0, 1000))
        assert log.n_requests == 1000


class TestEnabledPath:
    def test_enabled_serving_run_takes_the_fast_loop(self, monkeypatch):
        # The counterpart with a registry on: the run never stops between
        # events, and nothing is counted or sampled until the run is done.
        stops = []
        advance = ServingEngine._advance

        def recorded_advance(self, st, ctx, stop):
            stops.append(stop)
            return advance(self, st, ctx, stop)

        seen = []
        finish = ServingEngine._finish

        def checked_finish(self, st, ctx):
            seen.append([r["name"] for r in ctx.registry.records()
                         if r["type"] in ("counter", "histogram")])
            return finish(self, st, ctx)

        monkeypatch.setattr(ServingEngine, "_advance", recorded_advance)
        monkeypatch.setattr(ServingEngine, "_finish", checked_finish)
        with use_registry(MetricsRegistry()) as registry:
            log = clock_engine().run(clock_trace(0, 1000))
        assert stops == [_NO_STOP]
        assert seen == [[]]
        histograms = {r["name"]: r for r in registry.records()
                      if r["type"] == "histogram"}
        assert histograms["serving.latency"]["count"] == log.n_served
        assert histograms["buffer.wait"]["count"] == log.n_requests


class TestDashboardSection:
    def test_no_perf_counters_no_section(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            clock_engine().run(clock_trace(1, 800))
        assert not [r for r in reg.records() if ".perf." in r.get("name", "")]
        text = render_dashboard(reg)
        assert "serving" in text
        assert "performance (serving)" not in text


ALLOWED_PREFIXES = ("checkpoint.",)
#: The only events the serving loop and the batching buffer may record.
LOOP_EVENTS = ("ReconfigureEvent", "GuardrailEvent", "CheckpointEvent")


def counter_calls(path: Path, attr: str = "counter"):
    """``(lineno, first-argument node, enclosing function)`` of every
    ``<expr>.<attr>(...)`` call in ``path`` (``.counter(...)`` by
    default)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            name = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr
            ):
                found.append((child.lineno,
                              child.args[0] if child.args else None, func))
            walk(child, name)

    walk(tree, None)
    return found


def unexpected_events(path: Path) -> list[int]:
    """Lines of ``.record_event(...)`` calls in ``path`` whose argument is
    not a direct construction of one of :data:`LOOP_EVENTS`."""
    return [
        lineno for lineno, arg, _func in counter_calls(path, "record_event")
        if not (isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id in LOOP_EVENTS)
    ]


class TestNoDataPlaneCounters:
    def test_serving_creates_counters_only_at_publish(self):
        offenders = []
        for path in sorted(SERVING_DIR.glob("*.py")):
            for lineno, arg, func in counter_calls(path):
                if path.name in ("log.py", "fleet.py") and func == "publish":
                    continue
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith(ALLOWED_PREFIXES)
                ):
                    continue
                offenders.append(f"{path.name}:{lineno}")
        assert not offenders, (
            "counters belong in ServingLog.publish; in-loop .counter() "
            f"calls found at {offenders}"
        )

    def test_serving_samples_histograms_only_at_publish(self):
        offenders = [
            f"{path.name}:{lineno}"
            for path in [*sorted(SERVING_DIR.glob("*.py")), BUFFER_PATH]
            for lineno, _arg, func in counter_calls(path, "histogram")
            if not (path.name in ("log.py", "buffer.py")
                    and func == "publish")
        ]
        assert not offenders, (
            "histograms are published from the finished run; in-loop "
            f".histogram() calls found at {offenders}"
        )

    def test_lint_sees_a_loop_histogram(self, tmp_path):
        bad = tmp_path / "buffer.py"
        bad.write_text(
            "def _dispatch(self, registry):\n"
            "    registry.histogram('buffer.wait').observe(0.0)\n"
            "def publish(self, registry):\n"
            "    registry.histogram('buffer.wait').observe(0.0)\n"
        )
        calls = counter_calls(bad, "histogram")
        assert [(line, func) for line, _arg, func in calls] == [
            (2, "_dispatch"), (4, "publish"),
        ]

    def test_lint_sees_a_data_plane_counter(self, tmp_path):
        bad = tmp_path / "engine.py"
        bad.write_text(
            "def _on_arrival(self, ctx):\n"
            "    ctx.registry.counter(f'{self.metrics_prefix}.requests')"
            ".inc()\n"
            "    ctx.registry.counter('checkpoint.snapshots').inc()\n"
        )
        calls = counter_calls(bad)
        assert [(line, func) for line, _arg, func in calls] == [
            (2, "_on_arrival"), (3, "_on_arrival"),
        ]
        assert not isinstance(calls[0][1], ast.Constant)

    def test_loop_records_only_control_plane_events(self):
        offenders = [
            f"{path.name}:{lineno}"
            for path in [*sorted(SERVING_DIR.glob("*.py")), BUFFER_PATH]
            for lineno in unexpected_events(path)
        ]
        assert not offenders, (
            "the serving loop records only reconfigure, guardrail and "
            "checkpoint events; sheds, drift triggers and dispatches are "
            f"counted from the finished log. Found at {offenders}"
        )

    def test_lint_sees_a_loop_event(self, tmp_path):
        bad = tmp_path / "engine.py"
        bad.write_text(
            "def _enqueue_or_shed(self, ctx, event):\n"
            "    ctx.registry.record_event(ShedEvent(time=0.0))\n"
            "    ctx.registry.record_event(ReconfigureEvent(time=0.0))\n"
            "    ctx.registry.record_event(event)\n"
        )
        assert unexpected_events(bad) == [2, 4]
