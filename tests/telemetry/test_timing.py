"""The serving loop reads no clock and does no per-event metric work.

Wall-clock attribution of the event loop is the perf benchmark's job (its
tracer wraps the engine from outside); the engine's own counters and
histograms are published once, from the finished run. This file pins both
halves:

* with telemetry off, a full serving run completes under a poisoned
  ``time.perf_counter``;
* with telemetry on, a plain run drives the event loop (``_advance``)
  once, with no stop, and creates no counter or histogram before
  ``_finish``;
* an observed run publishes no wall-clock counters, so the dashboard has
  no serving-performance section.
"""

import time

import numpy as np

from repro.batching.config import BatchConfig
from repro.serving import ServingEngine, WarmPoolConfig
from repro.serving.engine import _NO_STOP
from repro.telemetry.export import render_dashboard
from repro.telemetry.metrics import MetricsRegistry, use_registry

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)


def trace(seed, n):
    return np.cumsum(np.random.default_rng(seed).exponential(1 / 200.0, n))


def engine():
    return ServingEngine(
        CONFIG, pool=WarmPoolConfig(keep_alive_s=2.0, max_containers=4),
    )


class TestDisabledPath:
    def test_disabled_serving_run_never_touches_the_clock(self, monkeypatch):
        # With telemetry off, a full serving run must complete with a
        # poisoned perf_counter: no clock read is reachable in the loop.
        def poisoned():
            raise AssertionError("clock read in an untimed serving run")

        monkeypatch.setattr(time, "perf_counter", poisoned)
        log = engine().run(trace(0, 1000))
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
            log = engine().run(trace(0, 1000))
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
            engine().run(trace(1, 800))
        assert not [r for r in reg.records() if ".perf." in r.get("name", "")]
        text = render_dashboard(reg)
        assert "serving" in text
        assert "performance (serving)" not in text
