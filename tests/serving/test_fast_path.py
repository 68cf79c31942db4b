"""One event loop, whatever stops it: checkpointed and telemetry runs
match plain runs, bit-for-bit.

Every single-engine run drives :meth:`ServingEngine._advance` (batched
arrival runs, cached heap head, memoized service/cost). A plain run makes
one call with no stop; a checkpointed, journaled or chaos run stops at
snapshot boundaries and crash points.
Stopping must not change the run: same trace, same engine, same seed ⇒
identical :class:`ServingLog`, event trace included, and identical
published telemetry. The stop contract itself is pinned by driving a run
in random chunks and comparing it with one unbounded call.

Also pins the hot-path micro-fixes: interned event kinds keep the engine's
same-seed determinism, and the per-batch service/cost memo is invalidated
on retrain.
"""

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel
from repro.serverless.generation import TokenLengthModel
from repro.serverless.outages import CrashHazard, OutageModel, OutageWindow
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    DegradeConfig,
    HedgeConfig,
    ServingEngine,
    WarmPoolConfig,
    assert_serving_logs_equal,
)
from repro.serving.config import GenerationConfig, PrewarmConfig
from repro.serving.engine import _RunContext
from repro.serving.prewarm import EmpiricalRateForecaster
from repro.telemetry.metrics import MetricsRegistry, get_registry, use_registry

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
OTHER = BatchConfig(memory_mb=4096.0, batch_size=16, timeout=0.02)


class FlipFlopChooser:
    def __init__(self):
        self.calls = 0

    def choose(self, history, slo):
        self.calls += 1
        config = OTHER if self.calls % 2 else CONFIG
        return Decision(config=config, decision_time=1e-3,
                        diagnostics={"predicted_p95": 0.08})


def trace(seed=5, n=1500, lam=250.0):
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


def published(registry):
    """Counter and histogram records, minus a checkpointed run's own
    ``checkpoint.*`` counters."""
    return [r for r in registry.records()
            if r["type"] in ("counter", "histogram")
            and not r["name"].startswith("checkpoint.")]


class TestFastEqualsStepwise:
    @pytest.mark.parametrize("faults", [False, True])
    def test_telemetry_run_matches_plain_run(self, faults, tmp_path):
        # Telemetry adds no stop; a checkpoint_path stops at every
        # snapshot. Both must serve and publish the same run.
        ts = trace()
        with use_registry(MetricsRegistry()) as fast_registry:
            fast = build_engine(seed=7, faults=faults).run(
                ts, record_trace=True
            )
        with use_registry(MetricsRegistry()) as slow_registry:
            slow = build_engine(seed=7, faults=faults).run(
                ts, record_trace=True, checkpoint_path=tmp_path / "run.ckpt",
            )
        assert_serving_logs_equal(fast, slow)
        assert (published(fast_registry) == published(slow_registry)
                != [])

    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        # A checkpoint_path stops the loop at every snapshot boundary.
        ts = trace(seed=9)
        fast = build_engine(seed=7, faults=True).run(ts, record_trace=True)
        slow = build_engine(seed=7, faults=True).run(
            ts, record_trace=True,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=128,
        )
        assert fast.n_events == slow.n_events
        np.testing.assert_array_equal(fast.latencies, slow.latencies)
        np.testing.assert_array_equal(fast.batch_costs, slow.batch_costs)
        assert fast.event_trace == slow.event_trace


def degraded_engine():
    """Request level with platform faults, crash hazard, hedging and
    prewarm: every heap event kind the data plane has."""
    platform = ServerlessPlatform(
        cold_start=ColdStartModel(), faults=FaultModel(failure_rate=0.2),
        seed=17,
    )
    return ServingEngine(
        CONFIG, platform=platform,
        pool=WarmPoolConfig(keep_alive_s=1.0, max_containers=4,
                            max_queued_batches=6),
        outages=OutageModel(windows=(OutageWindow(2.0, 3.0),),
                            crash=CrashHazard(rate=0.05, outage_rate=0.3),
                            seed=5),
        degrade=DegradeConfig(hedge=HedgeConfig(percentile=75.0,
                                                min_observations=8)),
        prewarm=PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                              interval_s=0.5, retire=True),
    )


def continuous_engine():
    gen = GenerationConfig(
        dispatcher="continuous",
        length_model=TokenLengthModel(prompt_mean=64.0, output_mean=8.0),
        ttft_slo=0.05, max_waiting=16,
    )
    return ServingEngine(CONFIG, platform=ServerlessPlatform(seed=7),
                         pool=WarmPoolConfig(max_containers=4),
                         generation=gen)


class TestStopContract:
    @pytest.mark.parametrize("factory, exercised", [
        (degraded_engine,
         ("crashed_containers", "hedges", "prewarm_ticks", "n_retries")),
        (continuous_engine, ("gen_sessions",)),
    ], ids=["request-level", "continuous"])
    def test_random_chunks_match_one_unbounded_call(self, factory, exercised):
        # _advance(st, ctx, stop) stops exactly at ``stop`` while events
        # remain and reports the end once; where it stops must not change
        # the run.
        ts = trace(seed=21, n=1500)
        whole = factory().run(ts, record_trace=True)
        engine = factory()
        st = engine._init_state(ts, "serving", "trace", None, True)
        ctx = _RunContext(registry=get_registry())
        rng = np.random.default_rng(3)
        chunks = 0
        while True:
            stop = st.events_processed + int(rng.integers(1, 301))
            if not engine._advance(st, ctx, stop):
                break
            assert st.events_processed == stop
            chunks += 1
        assert not engine._advance(st, ctx, st.events_processed + 1)
        chunked = engine._finish(st, ctx)
        assert chunks > 10
        assert_serving_logs_equal(chunked, whole)
        assert all(getattr(whole, name) for name in exercised)


class TestHotPathMicroFixes:
    @pytest.mark.parametrize("faults", [False, True])
    def test_same_seed_runs_identical(self, faults):
        # Interned event-kind constants and the payload restructure must
        # not perturb replay determinism.
        ts = trace(seed=11)
        a = build_engine(seed=3, faults=faults).run(ts, record_trace=True)
        b = build_engine(seed=3, faults=faults).run(ts, record_trace=True)
        assert_serving_logs_equal(a, b)

    def test_retrain_invalidates_service_memo(self):
        # A retrain hook that changes the service profile must take effect
        # on the next dispatched batch — the per-run (memory, size) memo
        # cannot keep serving a stale pre-retrain service time.
        from repro.core.drift import WorkloadDriftDetector
        from repro.serving import DriftConfig

        class ScalingProfile:
            """Wraps the real profile; a retrain can rescale it live."""

            def __init__(self, inner):
                self.inner = inner
                self.scale = 1.0

            def service_time(self, memory_mb, size):
                return self.scale * self.inner.service_time(memory_mb, size)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        class StaticChooser:
            def choose(self, history, slo):
                return Decision(config=CONFIG, decision_time=1e-3)

        # Detector fit on calm traffic, live traffic 40x faster: one
        # drift trigger (huge cooldown), followed by one retrain.
        ts = np.cumsum(
            np.random.default_rng(14).exponential(1 / 2000.0, size=4000)
        )

        def run_with(make_hook):
            warmup = np.diff(np.cumsum(
                np.random.default_rng(10).exponential(1 / 50.0, size=3000)
            ))
            detector = WorkloadDriftDetector().fit(warmup, 32)
            platform = ServerlessPlatform()
            profile = ScalingProfile(platform.profile)
            platform.profile = profile
            return ServingEngine(
                CONFIG,
                platform=platform,
                chooser=StaticChooser(),
                drift=DriftConfig(detector=detector, window=32,
                                  check_every=32, cooldown_s=1e9,
                                  retrain_delay_s=0.2,
                                  on_retrain=make_hook(profile)),
                min_history=16,
            ).run(ts)

        def doubling(profile):
            def hook(recent):
                profile.scale = 2.0
            return hook

        def inert(profile):
            return lambda recent: None

        doubled = run_with(doubling)
        plain = run_with(inert)
        assert doubled.retrains == 1 and plain.retrains == 1
        # Were the memo kept across the retrain, the doubled profile would
        # never be re-read and the two runs would be identical.
        assert not np.array_equal(doubled.latencies, plain.latencies)
