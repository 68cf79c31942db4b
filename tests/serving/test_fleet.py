"""Fleet serving: the keystone equivalence and multi-tenant behaviours.

The anchored correctness property (tier-1 pinned): a single-endpoint
:class:`FleetEngine` with an unconstrained shared budget reproduces
:class:`ServingEngine` **bit-for-bit** — per-request latencies, per-batch
costs, and the full event trace — faults on and off. Everything the fleet
adds (shared container budget, cross-lane queue draining, the MBS-style
cross-tenant scheduler, per-endpoint telemetry namespacing) is exercised
as behavioural deltas on top of that baseline.
"""

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.serverless.faults import FaultModel
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    EndpointSpec,
    FleetBudget,
    FleetEngine,
    FleetScheduler,
    ServingEngine,
    WarmPoolConfig,
    split_by_shares,
)
from repro.telemetry import MetricsRegistry, use_registry

pytestmark = [pytest.mark.serving, pytest.mark.fleet]

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
OTHER = BatchConfig(memory_mb=1024.0, batch_size=4, timeout=0.02)


def poisson_trace(lam: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / lam, size=n))


def make_platform(seed: int = 7, faults: bool = False,
                  limit: int | None = None) -> ServerlessPlatform:
    return ServerlessPlatform(
        seed=seed,
        cold_start=ColdStartModel(),
        concurrency_limit=limit,
        faults=(FaultModel(failure_rate=0.05, timeout_s=0.5)
                if faults else None),
    )


class StubChooser:
    """Replays a config sequence (same stub the engine tests use)."""

    def __init__(self, configs):
        self.configs = list(configs)
        self.calls = 0

    def choose(self, history, slo):
        from repro.core.types import Decision

        config = self.configs[min(self.calls, len(self.configs) - 1)]
        self.calls += 1
        return Decision(config=config, decision_time=1e-3)


def assert_bit_identical(fleet_log, ref_log):
    np.testing.assert_array_equal(fleet_log.latencies, ref_log.latencies)
    np.testing.assert_array_equal(fleet_log.dispatch_times,
                                  ref_log.dispatch_times)
    np.testing.assert_array_equal(fleet_log.start_times, ref_log.start_times)
    np.testing.assert_array_equal(fleet_log.batch_costs, ref_log.batch_costs)
    np.testing.assert_array_equal(fleet_log.batch_sizes, ref_log.batch_sizes)
    assert fleet_log.event_trace == ref_log.event_trace
    assert fleet_log.n_retries == ref_log.n_retries
    assert fleet_log.n_failed == ref_log.n_failed
    assert fleet_log.cold_starts == ref_log.cold_starts
    assert fleet_log.warm_starts == ref_log.warm_starts


class TestKeystoneEquivalence:
    """Single endpoint + unconstrained budget ≡ ServingEngine, bit-for-bit."""

    @pytest.mark.parametrize("faults", [False, True])
    @pytest.mark.parametrize("budget", [None, 64])
    def test_single_endpoint_reproduces_engine(self, faults, budget):
        ts = poisson_trace(150.0, 1200, seed=1)
        pool = WarmPoolConfig(keep_alive_s=2.0, max_containers=4,
                              max_queued_batches=3)
        ref = ServingEngine(
            CONFIG, platform=make_platform(faults=faults), pool=pool
        ).run(ts, record_trace=True)
        fleet = FleetEngine(
            [EndpointSpec(name="solo", config=CONFIG,
                          platform=make_platform(faults=faults), pool=pool)],
            max_containers=budget,  # None or generous: never binds
        )
        log = fleet.run({"solo": ts}, record_trace=True)["solo"]
        assert_bit_identical(log, ref)

    @pytest.mark.parametrize("limit", [None, 4])
    def test_equivalence_with_concurrency_limit(self, limit):
        ts = poisson_trace(200.0, 800, seed=2)
        ref = ServingEngine(
            CONFIG, platform=make_platform(limit=limit)
        ).run(ts, record_trace=True)
        fleet = FleetEngine([
            EndpointSpec(name="solo", config=CONFIG,
                         platform=make_platform(limit=limit))
        ])
        log = fleet.run({"solo": ts}, record_trace=True)["solo"]
        assert_bit_identical(log, ref)

    def test_equivalence_with_chooser_and_decisions(self):
        ts = poisson_trace(300.0, 1500, seed=3)
        kwargs = dict(slo=0.1, decision_interval_s=0.5, min_history=16)
        ref = ServingEngine(
            CONFIG, platform=make_platform(),
            chooser=StubChooser([OTHER, CONFIG]), **kwargs
        ).run(ts, record_trace=True)
        fleet = FleetEngine([
            EndpointSpec(name="solo", config=CONFIG,
                         platform=make_platform(),
                         chooser=StubChooser([OTHER, CONFIG]), **kwargs)
        ])
        log = fleet.run({"solo": ts}, record_trace=True)["solo"]
        assert_bit_identical(log, ref)
        assert len(log.decisions) == len(ref.decisions)
        assert log.reconfigurations == ref.reconfigurations


class TestSharedBudget:
    def two_endpoint_fleet(self, budget, lam=200.0, n=500):
        specs = [
            EndpointSpec(name="a", config=CONFIG,
                         platform=ServerlessPlatform(seed=2)),
            EndpointSpec(name="b", config=OTHER,
                         platform=ServerlessPlatform(seed=3)),
        ]
        traffic = {
            "a": poisson_trace(lam, n, seed=4),
            "b": poisson_trace(lam, n, seed=5),
        }
        return FleetEngine(specs, max_containers=budget).run(traffic)

    def test_binding_budget_queues_but_serves_everything(self):
        tight = self.two_endpoint_fleet(budget=1)
        free = self.two_endpoint_fleet(budget=None)
        for name in ("a", "b"):
            assert tight[name].n_served == tight[name].n_requests
            assert np.all(np.isfinite(tight[name].latencies))
        # The shared cap must actually bind: some starts delayed past
        # dispatch, which never happens unconstrained.
        delayed = sum(
            int(np.sum(tight[n].start_times > tight[n].dispatch_times))
            for n in ("a", "b")
        )
        assert delayed > 0
        for name in ("a", "b"):
            np.testing.assert_array_equal(
                free[name].start_times, free[name].dispatch_times
            )
        assert (tight["a"].latencies.max() + tight["b"].latencies.max()
                > free["a"].latencies.max() + free["b"].latencies.max())

    def test_budget_evicts_idle_containers_across_lanes(self):
        # Budget 1 with two tiers: every handover between lanes evicts
        # the other lane's idle container (a cross-tenant redeploy).
        log = self.two_endpoint_fleet(budget=1, lam=20.0, n=50)
        evictions = sum(log[n].evicted_containers for n in ("a", "b"))
        assert evictions > 0
        assert log.max_containers == 1

    def test_queued_only_lane_does_not_deadlock(self):
        # Lane b's single batch dispatches while lane a holds the only
        # budget slot; b has no completion events of its own, so only the
        # cross-lane drain can ever start it.
        specs = [
            EndpointSpec(name="a", config=BatchConfig(2048.0, 1, 0.0),
                         platform=ServerlessPlatform(seed=2)),
            EndpointSpec(name="b", config=BatchConfig(1024.0, 1, 0.0),
                         platform=ServerlessPlatform(seed=3)),
        ]
        traffic = {
            "a": np.array([0.0]),
            "b": np.array([1e-4]),  # arrives while a's invocation runs
        }
        log = FleetEngine(specs, max_containers=1).run(traffic)
        assert log["b"].n_served == 1
        assert np.all(np.isfinite(log["b"].latencies))
        # b's start waited for a's completion.
        assert log["b"].start_times[0] > log["b"].dispatch_times[0]

    def test_fleet_log_aggregates(self):
        log = self.two_endpoint_fleet(budget=None, n=300)
        assert log.endpoints == ["a", "b"]
        assert log.n_requests == 600
        assert log.n_served == 600
        assert log.total_cost == pytest.approx(
            log["a"].total_cost + log["b"].total_cost
        )
        assert log.cost_per_request == pytest.approx(log.total_cost / 600)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            FleetBudget(max_containers=0)
        with pytest.raises(ValueError):
            FleetEngine([EndpointSpec(name="a", config=CONFIG)],
                        max_containers=0)


class TestFleetScheduler:
    def test_arbitrates_shared_memory_and_meets_slos(self):
        rng_a = poisson_trace(100.0, 1500, seed=6)
        rng_b = poisson_trace(60.0, 900, seed=7)
        specs = [
            EndpointSpec(name="a", config=BatchConfig(512.0, 1, 0.0),
                         slo=0.2, platform=ServerlessPlatform(seed=2)),
            EndpointSpec(name="b", config=BatchConfig(512.0, 1, 0.0),
                         slo=0.05, platform=ServerlessPlatform(seed=3)),
        ]
        scheduler = FleetScheduler(
            memories=(1024.0, 2048.0), batch_sizes=(1, 2, 4, 8),
            timeouts=(0.0, 0.01, 0.02), min_history=32,
        )
        fleet = FleetEngine(specs, scheduler=scheduler,
                            scheduler_interval_s=3.0)
        log = fleet.run({"a": rng_a, "b": rng_b})
        assert log.fleet_decisions >= 1
        # Every fleet plan shares one memory tier across tenants.
        for name in ("a", "b"):
            fleet_decided = [d for d in log[name].decisions
                            if d.reason == "fleet"]
            assert fleet_decided
        mem_a = [d.config.memory_mb for d in log["a"].decisions
                 if d.reason == "fleet"]
        mem_b = [d.config.memory_mb for d in log["b"].decisions
                 if d.reason == "fleet"]
        assert mem_a == mem_b  # one M, per-endpoint (B, T): the MBS shape
        assert log["a"].p(95.0) <= 0.2
        assert log["b"].p(95.0) <= 0.05

    def test_abstains_without_history_and_choosers_fall_back(self):
        # min_history larger than the whole stream: the scheduler never
        # plans, and the lane's own chooser keeps controlling.
        ts = poisson_trace(300.0, 400, seed=8)
        spec = EndpointSpec(
            name="a", config=CONFIG, platform=ServerlessPlatform(seed=2),
            chooser=StubChooser([OTHER]), decision_interval_s=0.3,
            min_history=16,
        )
        scheduler = FleetScheduler(min_history=10_000)
        fleet = FleetEngine([spec], scheduler=scheduler,
                            scheduler_interval_s=0.5)
        log = fleet.run({"a": ts})
        assert log.fleet_decisions == 0
        assert any(d.reason == "interval" for d in log["a"].decisions)
        assert all(d.reason != "fleet" for d in log["a"].decisions)

    def test_decide_returns_none_below_min_history(self):
        scheduler = FleetScheduler(min_history=32)
        specs = [EndpointSpec(name="a", config=CONFIG)]
        assert scheduler.decide({"a": np.ones(8)}, specs) is None
        assert scheduler.decide({}, specs) is None

    def test_planning_never_consumes_live_platform_rng(self):
        # Identical runs with and without the scheduler enabled must draw
        # identical fault sequences: planning uses fresh platforms.
        ts = poisson_trace(150.0, 800, seed=9)

        def run(with_scheduler):
            spec = EndpointSpec(name="a", config=CONFIG,
                                platform=make_platform(faults=True))
            fleet = FleetEngine(
                [spec],
                scheduler=(FleetScheduler(memories=(2048.0,),
                                          batch_sizes=(8,),
                                          timeouts=(0.05,))
                           if with_scheduler else None),
                scheduler_interval_s=2.0 if with_scheduler else None,
            )
            return fleet.run({"a": ts})["a"]

        base, planned = run(False), run(True)
        # The scheduler's only plan equals the active config, so nothing
        # reconfigures — outputs must be bit-identical.
        np.testing.assert_array_equal(base.latencies, planned.latencies)
        np.testing.assert_array_equal(base.batch_costs, planned.batch_costs)
        assert base.n_retries == planned.n_retries

    def test_scheduler_requires_interval(self):
        with pytest.raises(ValueError):
            FleetEngine([EndpointSpec(name="a", config=CONFIG)],
                        scheduler=FleetScheduler())


class TestTelemetryNamespacing:
    def test_two_endpoints_disjoint_prefixes_no_crosstalk(self):
        specs = [
            EndpointSpec(name="a", config=CONFIG,
                         platform=ServerlessPlatform(seed=2)),
            EndpointSpec(name="b", config=OTHER,
                         platform=ServerlessPlatform(seed=3)),
        ]
        traffic = {
            "a": poisson_trace(200.0, 300, seed=10),
            "b": poisson_trace(200.0, 200, seed=11),
        }
        registry = MetricsRegistry()
        with use_registry(registry):
            log = FleetEngine(specs).run(traffic)
        counters = {
            r["name"]: r["value"] for r in registry.records()
            if r["type"] == "counter"
        }
        # Per-endpoint namespaces, nothing under the bare single-engine
        # prefix (no cross-talk between lanes or into "serving.*").
        assert counters["serving.a.requests"] == 300
        assert counters["serving.b.requests"] == 200
        assert "serving.requests" not in counters
        assert counters["serving.a.batches"] == log["a"].batch_sizes.size
        assert counters["serving.b.batches"] == log["b"].batch_sizes.size
        a_names = {n for n in counters if n.startswith("serving.a.")}
        b_names = {n for n in counters if n.startswith("serving.b.")}
        assert a_names and b_names and not (a_names & b_names)

    def test_dashboard_gets_fleet_section(self):
        from repro.telemetry import render_dashboard

        registry = MetricsRegistry()
        with use_registry(registry):
            FleetEngine([
                EndpointSpec(name="a", config=CONFIG,
                             platform=ServerlessPlatform(seed=2)),
            ]).run({"a": poisson_trace(200.0, 200, seed=12)})
        dashboard = render_dashboard(registry)
        assert "fleet" in dashboard
        assert "serving.a.requests" in dashboard

    def test_single_engine_keeps_bare_prefix(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            ServingEngine(CONFIG, platform=ServerlessPlatform()).run(
                poisson_trace(200.0, 200, seed=13)
            )
        names = {
            r["name"] for r in registry.records() if r["type"] == "counter"
        }
        assert "serving.requests" in names


class TestSpecsAndSplitting:
    def test_endpoint_name_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            EndpointSpec(name="", config=CONFIG)
        with pytest.raises(ValueError, match=r"\."):
            EndpointSpec(name="a.b", config=CONFIG)
        with pytest.raises(ValueError, match="slo"):
            EndpointSpec(name="a", config=CONFIG, slo=0.0)
        with pytest.raises(ValueError, match="percentile"):
            EndpointSpec(name="a", config=CONFIG, percentile=0.0)
        with pytest.raises(ValueError, match="share"):
            EndpointSpec(name="a", config=CONFIG, share=1.5)
        with pytest.raises(ValueError, match="decision_interval_s"):
            EndpointSpec(name="a", config=CONFIG, decision_interval_s=0.0)

    @pytest.mark.parametrize("name", ["prewarm", "gen", "outage", "degrade"])
    def test_engine_namespaces_are_not_endpoint_names(self, name):
        """The dashboard reads ``serving.<x>.<metric>`` as a single-engine
        counter for these names, so an endpoint named ``gen`` vanished from
        the fleet table and showed up as a phantom ``engine`` row."""
        with pytest.raises(ValueError, match=f"name must not be one of .*{name!r}"):
            EndpointSpec(name=name, config=CONFIG)

    def test_fleet_engine_validation(self):
        with pytest.raises(ValueError):
            FleetEngine([])
        spec = EndpointSpec(name="a", config=CONFIG)
        with pytest.raises(ValueError, match="unique"):
            FleetEngine([spec, spec])

    def test_run_rejects_unknown_traffic_keys(self):
        fleet = FleetEngine([EndpointSpec(name="a", config=CONFIG)])
        with pytest.raises(ValueError, match="unknown"):
            fleet.run({"a": np.array([0.0]), "zz": np.array([0.0])})

    def test_split_by_shares_partitions_exactly(self):
        specs = [
            EndpointSpec(name="a", config=CONFIG, share=0.7),
            EndpointSpec(name="b", config=OTHER, share=0.3),
        ]
        ts = poisson_trace(100.0, 2000, seed=14)
        parts = split_by_shares(ts, specs, seed=0)
        assert set(parts) == {"a", "b"}
        merged = np.sort(np.concatenate([parts["a"], parts["b"]]))
        np.testing.assert_array_equal(merged, ts)
        # Roughly proportional, and deterministic in the seed.
        assert 0.6 < parts["a"].size / ts.size < 0.8
        again = split_by_shares(ts, specs, seed=0)
        np.testing.assert_array_equal(parts["a"], again["a"])

    def test_split_requires_shares(self):
        specs = [EndpointSpec(name="a", config=CONFIG)]
        with pytest.raises(ValueError, match="share"):
            split_by_shares(np.array([0.0, 1.0]), specs)

    def test_run_splits_single_trace(self):
        specs = [
            EndpointSpec(name="a", config=CONFIG, share=0.5,
                         platform=ServerlessPlatform(seed=2)),
            EndpointSpec(name="b", config=OTHER, share=0.5,
                         platform=ServerlessPlatform(seed=3)),
        ]
        ts = poisson_trace(150.0, 600, seed=15)
        log = FleetEngine(specs).run(ts)
        assert log.n_requests == 600
        assert log["a"].n_requests + log["b"].n_requests == 600
