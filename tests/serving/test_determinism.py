"""Determinism regression: the engine is a seeded, replayable system.

Two runs with identical inputs — same trace, same platform seed, same
chooser, same pool — must produce identical event traces and identical
:class:`ServingLog` contents, including under fault injection, cold
starts, finite keep-alive, bounded queues, and live reconfigurations.
"""

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    ServingEngine,
    WarmPoolConfig,
    assert_serving_logs_equal,
)

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
OTHER = BatchConfig(memory_mb=4096.0, batch_size=16, timeout=0.02)


class FlipFlopChooser:
    """Alternates between two configs so reconfigurations exercise the
    deploy-lag and generation-superseding paths on every run."""

    def __init__(self):
        self.calls = 0

    def choose(self, history, slo):
        self.calls += 1
        config = OTHER if self.calls % 2 else CONFIG
        return Decision(config=config, decision_time=1e-3,
                        diagnostics={"predicted_p95": 0.08})


def trace(seed=5, n=1200, lam=250.0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / lam, size=n))


def build_engine(seed=123, faults=False):
    fault_model = FaultModel(failure_rate=0.2) if faults else None
    platform = ServerlessPlatform(
        cold_start=ColdStartModel(),
        faults=fault_model,
        concurrency_limit=4,
        seed=seed,
    )
    return ServingEngine(
        CONFIG,
        platform=platform,
        chooser=FlipFlopChooser(),
        pool=WarmPoolConfig(keep_alive_s=2.0, max_containers=4,
                            max_queued_batches=2),
        deploy_delay_s=0.25,
        decision_interval_s=0.5,
        min_history=16,
    )


class TestDeterminism:
    def test_same_inputs_same_event_trace(self):
        ts = trace()
        a = build_engine().run(ts, record_trace=True)
        b = build_engine().run(ts, record_trace=True)
        assert a.event_trace is not None
        assert len(a.event_trace) == len(b.event_trace)
        for ea, eb in zip(a.event_trace, b.event_trace):
            assert ea == eb
        assert_serving_logs_equal(a, b)

    def test_same_seed_same_faults(self):
        ts = trace()
        a = build_engine(seed=7, faults=True).run(ts, record_trace=True)
        b = build_engine(seed=7, faults=True).run(ts, record_trace=True)
        # Faults actually fired, and identically so.
        assert a.n_retries > 0
        assert a.event_trace == b.event_trace
        assert_serving_logs_equal(a, b)

    def test_different_seed_different_faults(self):
        ts = trace()
        a = build_engine(seed=7, faults=True).run(ts)
        b = build_engine(seed=8, faults=True).run(ts)
        assert not np.array_equal(a.batch_retries, b.batch_retries)

    def test_reuse_of_one_engine_is_fresh_per_run(self):
        # run() must not leak state between invocations on the same engine.
        ts = trace()
        engine = build_engine()
        a = engine.run(ts, record_trace=True)
        b = engine.run(ts, record_trace=True)
        assert a.event_trace == b.event_trace
        assert_serving_logs_equal(a, b)

    def test_trace_is_opt_in(self):
        log = build_engine().run(trace(n=200))
        assert log.event_trace is None

    def test_trace_covers_all_event_kinds(self):
        ts = trace()
        log = build_engine().run(ts, record_trace=True)
        kinds = {e[0] for e in log.event_trace}
        assert {"arrival", "start", "completion", "decision",
                "reconfigure"} <= kinds
        # Events are emitted in non-decreasing simulated time.
        times = [e[1] for e in log.event_trace]
        assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))
