"""The fleet's cross-lane passes: drain, failover and brownout.

After a fleet step, :meth:`FleetEngine._drive_lanes` may start queued
batches anywhere (the drain, with a shared budget), move a starved lane's
queue onto idle donors (failover) and shed the backlog (brownout). The
golden digests below pin scenarios built around the inputs the drain
reacts to: keep-alive expiry under a binding budget, an outage window
closing over a queued lane, scheduler ticks that move a queued lane's
memory tier, and prewarm/retire with container crashes. The regression
tests after them pin, one trigger at a time, the instant a blocked lane
gets served, then that a budget leaves ``outage_denied`` alone. The last
test keeps the drain from running after every fleet step again.
"""

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.serverless.faults import RetryPolicy
from repro.serverless.outages import (
    CrashHazard,
    OutageModel,
    OutageWindow,
    StragglerModel,
)
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    BrownoutConfig,
    DegradeConfig,
    EndpointSpec,
    FailoverConfig,
    FleetEngine,
    HedgeConfig,
    WarmPoolConfig,
)
from repro.serving.config import PrewarmConfig
from repro.serving.fleet import FleetScheduler
from repro.serving.prewarm import EmpiricalRateForecaster
from tests.serving.test_fleet_drive_equivalence import StubChooser
from tests.serving.test_golden_digests import fleet_digest, poisson, uniform

pytestmark = pytest.mark.fleet

SMALL = BatchConfig(1024.0, 4, 0.02)
LARGE = BatchConfig(2048.0, 8, 0.05)


def bursts(seed, n_bursts, per_burst, gap, width=0.05, start=0.0):
    """``n_bursts`` tight bursts ``gap`` seconds apart: idle spells long
    enough for a short keep-alive to reclaim the containers between them."""
    rng = np.random.default_rng(seed)
    ts = [start + k * gap + rng.uniform(0.0, width, per_burst)
          for k in range(n_bursts)]
    return np.sort(np.concatenate(ts))


# --------------------------------------------------------------- scenarios
def run_expiry():
    """Short keep-alives under a binding budget: bursts on staggered
    lanes, so one lane's idle containers expire while another queues."""
    pool = WarmPoolConfig(keep_alive_s=0.15, max_containers=3,
                          max_queued_batches=16)
    specs = [
        EndpointSpec(name=f"ep{k}", config=SMALL if k % 2 else LARGE,
                     slo=0.5, priority=k, pool=pool,
                     platform=ServerlessPlatform(seed=40 + k),
                     outages=OutageModel(
                         windows=(OutageWindow(1.0, 1.8),), seed=k,
                     ) if k == 0 else None)
        for k in range(3)
    ]
    traffic = {
        "ep0": bursts(50, 12, 40, 0.31),
        "ep1": bursts(51, 10, 60, 0.37, start=0.1),
        "ep2": bursts(52, 9, 30, 0.43, start=0.2),
    }
    return FleetEngine(specs, max_containers=4).run(traffic,
                                                    record_trace=True)


def run_outage_end():
    """An outage window closes while its lane is queued with nothing in
    flight; the drain is all that can restart it."""
    pool = WarmPoolConfig(max_containers=2, max_queued_batches=40)
    specs = [
        EndpointSpec(name="struck", config=LARGE, slo=0.5, priority=1,
                     pool=pool, platform=ServerlessPlatform(seed=60),
                     outages=OutageModel(
                         windows=(OutageWindow(2.0, 3.5),
                                  OutageWindow(5.0, 5.75)),
                         crash=CrashHazard(rate=0.0, outage_rate=0.5),
                         seed=6)),
        EndpointSpec(name="steady", config=LARGE, slo=0.5, pool=pool,
                     platform=ServerlessPlatform(seed=61)),
    ]
    traffic = {"struck": uniform(62, 700, 8.0),
               "steady": uniform(63, 900, 8.0)}
    return FleetEngine(specs, max_containers=3).run(traffic,
                                                    record_trace=True)


def run_tier_change():
    """Scheduler ticks re-tier lanes that are queued under a binding
    budget, one of them inside an outage window: the first plan lands
    mid-surge and moves the 2048 MB lanes to 1024 MB."""
    pool = WarmPoolConfig(keep_alive_s=1.0, max_containers=2,
                          max_queued_batches=12)
    specs = [
        EndpointSpec(name=f"ep{k}", config=SMALL if k == 2 else LARGE,
                     slo=0.12 * (1 + k), pool=pool,
                     platform=ServerlessPlatform(seed=70 + k),
                     outages=OutageModel(
                         windows=(OutageWindow(0.3, 0.9),), seed=k,
                     ) if k == 1 else None)
        for k in range(3)
    ]
    scheduler = FleetScheduler(
        memories=(1024.0, 2048.0, 3008.0), batch_sizes=(1, 4, 8),
        timeouts=(0.0, 0.05), min_history=32,
    )

    def surge_then_calm(seed):
        surge = poisson(400.0, 800, seed)
        calm = surge[-1] + poisson(60.0, 120, seed + 1)
        return np.concatenate([surge, calm])

    traffic = {f"ep{k}": surge_then_calm(71 + 2 * k) for k in range(3)}
    return FleetEngine(specs, max_containers=3, scheduler=scheduler,
                       scheduler_interval_s=0.5).run(traffic,
                                                     record_trace=True)


def run_prewarm_crash():
    """Prewarm/retire ticks and container crashes under a shared budget,
    with failover and brownout armed."""
    outages = OutageModel(
        windows=(OutageWindow(2.0, 3.0),),
        crash=CrashHazard(rate=0.02, outage_rate=0.2),
        straggler=StragglerModel(rate=0.2, slowdown=2.5),
        seed=8,
    )
    degrade = DegradeConfig(
        backoff=RetryPolicy(max_attempts=3, base_backoff_s=0.05,
                            max_total_delay_s=0.5),
        hedge=HedgeConfig(percentile=90.0, multiplier=1.5),
    )
    specs = []
    for k in range(4):
        specs.append(EndpointSpec(
            name=f"ep{k}", config=LARGE if k < 2 else SMALL, slo=0.3,
            priority=k % 2,
            pool=WarmPoolConfig(keep_alive_s=0.6, max_containers=6,
                                max_queued_batches=24),
            platform=ServerlessPlatform(seed=80 + k,
                                        cold_start=ColdStartModel()),
            prewarm=PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                                  interval_s=0.5, headroom=6.0,
                                  retire=True) if k % 2 else None,
            outages=outages if k % 2 == 0 else None,
            degrade=degrade if k == 0 else None,
        ))
    traffic = {f"ep{k}": poisson(120.0, 600, 90 + k) for k in range(4)}
    return FleetEngine(specs, max_containers=12,
                       brownout=BrownoutConfig(max_total_queued=10),
                       failover=FailoverConfig(min_queue=2)).run(
        traffic, record_trace=True)


#: :func:`~tests.serving.test_golden_digests.fleet_digest` of each scenario.
GOLDEN = {
    "expiry":
        "b721d0c2595974845a4a03d2924936f3b5e3925be0ef01a2e87793ffbd8a321f",
    "outage-end":
        "6915e3cb31e11d1b05488ae66b9a61555e0738273905ded9101f035233ae76bb",
    "tier-change":
        "0f093fa88013fb3c34f96d027d8ebb3cc34ee5231d85e7946db810e3016b1f21",
    "prewarm-crash":
        "f2df06d0cdbb6d7e401bd9fb03c8cd697c2812d42de01108be83174e4b7fbe11",
}


def total(log, field):
    return sum(getattr(log[name], field) for name in log.endpoints)


@pytest.mark.golden
class TestFleetPassDigests:
    def test_keep_alive_expiry_under_a_binding_budget(self):
        log = run_expiry()
        assert total(log, "expired_containers") > 0
        assert total(log, "evicted_containers") > 0
        assert fleet_digest(log) == GOLDEN["expiry"]

    def test_outage_window_ends_over_a_queued_lane(self):
        log = run_outage_end()
        assert log["struck"].outage_denied > 0
        assert fleet_digest(log) == GOLDEN["outage-end"]

    def test_scheduler_ticks_move_queued_tiers(self):
        log = run_tier_change()
        assert log.fleet_decisions > 0
        assert total(log, "reconfigurations") > 0
        assert fleet_digest(log) == GOLDEN["tier-change"]

    def test_prewarm_retire_and_crashes_under_a_budget(self):
        log = run_prewarm_crash()
        assert total(log, "prewarmed_containers") > 0
        assert total(log, "prewarm_retired") > 0
        assert total(log, "crashed_containers") > 0
        assert fleet_digest(log) == GOLDEN["prewarm-crash"]


# -------------------------------------------------- one trigger at a time
ONE = BatchConfig(2048.0, 1, 0.0)
ONE_SMALL = BatchConfig(1024.0, 1, 0.0)


def steady(**kw):
    """A second lane; its steps are the fleet steps the drain may follow."""
    return EndpointSpec(name="steady", config=ONE, slo=0.5,
                        platform=ServerlessPlatform(seed=1), **kw)


def grid(start=0.25, until=3.0):
    """Arrivals every quarter second, ``start`` and ``until`` included."""
    return np.arange(start, until + 0.125, 0.25)


class TestDrainTriggers:
    """Each test blocks one lane's queued batch behind one input of the
    drain and checks the batch starts at the fleet step where that input
    changes. The fleet runs with a roomy budget, so the drain is armed but
    capacity never binds."""

    def test_outage_window_end_restarts_a_queued_lane(self):
        # The struck lane's only batch dispatches inside [1, 2) and
        # queues (no backoff, nothing in flight). The window is
        # closed-open, so the drain after the steady lane's first step, its
        # arrival at 2.0, provisions it; no container was released before.
        struck = EndpointSpec(
            name="struck", config=ONE, slo=0.5,
            platform=ServerlessPlatform(seed=2),
            outages=OutageModel(windows=(OutageWindow(1.0, 2.0),)),
        )
        log = FleetEngine([struck, steady()], max_containers=4).run(
            {"struck": np.array([1.5]), "steady": grid(start=2.0)})
        assert log["struck"].outage_denied > 0
        assert log["struck"].start_times.tolist() == [2.0]
        assert log["struck"].batch_cold.tolist() == [True]

    def test_tier_change_matches_a_warm_container(self):
        # The struck lane serves two requests at 2048 MB, leaving one warm
        # container, then its chooser moves it to 1024 MB. Inside the
        # outage its 1024 MB batch cannot provision and queues. The third
        # decision (1.625 s) moves it back to 2048 MB: the drain after
        # that reconfiguration starts the queued batch on the warm
        # container, at the reconfiguration instant.
        struck = EndpointSpec(
            name="struck", config=ONE, slo=0.5,
            platform=ServerlessPlatform(seed=3),
            chooser=StubChooser([ONE_SMALL, ONE_SMALL, ONE]),
            decision_interval_s=0.5, min_history=1,
            outages=OutageModel(windows=(OutageWindow(1.0, 3.0),)),
        )
        log = FleetEngine([struck, steady()], max_containers=4).run(
            {"struck": np.array([0.125, 0.25, 1.25, 2.5]), "steady": grid()})
        s = log["struck"]
        assert [d.applied_at for d in s.decisions if d.applied_at] == [
            0.625, 1.625]
        assert s.start_times.tolist() == [0.125, 0.25, 1.625, 2.5]
        assert s.batch_cold.tolist() == [True, False, False, False]
        assert s.batch_memory.tolist() == [2048.0, 2048.0, 2048.0, 2048.0]

    def test_keep_alive_deadline_sweeps_a_stuck_lane(self):
        # Expiry alone never starts a batch: an idle container is always
        # evictable (by its own pool or the fleet budget), and inside an
        # outage nothing provisions. What the keep-alive deadline does
        # change is the sweep. Here the struck lane's only container
        # (2048 MB, idle from ~0.26 s) sits in the pool of a lane queued at
        # 1024 MB inside an outage that outlasts the run. The steady lane
        # is in an outage too and sheds every arrival, so nothing is
        # released after 0.26 s: only the clock passing the deadline
        # (~1.76 s) makes the drain after its 2.0 s step reclaim the
        # container, and no later acquire touches that pool.
        struck = EndpointSpec(
            name="struck", config=ONE, slo=0.5,
            platform=ServerlessPlatform(seed=4),
            chooser=StubChooser([ONE_SMALL]), decision_interval_s=0.5,
            min_history=1,
            pool=WarmPoolConfig(keep_alive_s=1.5),
            outages=OutageModel(windows=(OutageWindow(1.0, 50.0),)),
        )
        shedding = steady(
            pool=WarmPoolConfig(max_queued_batches=0),
            outages=OutageModel(windows=(OutageWindow(1.5, 50.0),)),
        )
        log = FleetEngine([struck, shedding], max_containers=4).run(
            {"struck": np.array([0.125, 0.25, 1.25]),
             "steady": grid(start=1.5)})
        s = log["struck"]
        assert s.start_times.tolist() == [0.125, 0.25]
        assert s.cold_starts == 1 and s.expired_containers == 1
        assert not np.isfinite(s.latencies[2])
        assert log["steady"].shed_batches == log["steady"].n_requests


class TestOutageDenied:
    def test_outage_denied_ignores_a_non_binding_budget(self):
        # ``outage_denied`` counts batches refused at dispatch, not pool
        # calls: the drain's retries of a queued lane inside a window add
        # nothing. A budget of 8 never binds here (each pool caps at 1),
        # so the data plane is the same with and without it, and so is
        # the count.
        def specs():
            pool = WarmPoolConfig(max_containers=1, max_queued_batches=20)
            config = BatchConfig(2048.0, 4, 0.01)
            return [
                EndpointSpec(name="struck", config=config, pool=pool,
                             platform=ServerlessPlatform(seed=1),
                             outages=OutageModel(
                                 windows=(OutageWindow(1.0, 2.0),))),
                EndpointSpec(name="other", config=config, pool=pool,
                             platform=ServerlessPlatform(seed=2)),
            ]

        traffic = {"struck": uniform(5, 1200, 3.0),
                   "other": uniform(6, 600, 3.0)}
        plain = FleetEngine(specs()).run(traffic)["struck"]
        budgeted = FleetEngine(specs(), max_containers=8).run(traffic)
        budgeted = budgeted["struck"]
        np.testing.assert_array_equal(plain.latencies, budgeted.latencies)
        assert (plain.outage_denied, budgeted.outage_denied) == (108, 108)


class TestPassesRunOnChange:
    def test_drain_runs_on_a_fraction_of_fleet_steps(self, monkeypatch):
        # The drain runs when capacity may have been freed, a tier moved,
        # or the clock reached a queued lane's wake instant, not after
        # every step; the digest shows the skipped drains did nothing.
        calls = []
        drain = FleetEngine._drain_queues

        def counting(lanes, now):
            calls.append(now)
            return drain(lanes, now)

        monkeypatch.setattr(FleetEngine, "_drain_queues",
                            staticmethod(counting))
        log = run_outage_end()
        assert 0 < len(calls) < total(log, "n_events") / 4
        assert fleet_digest(log) == GOLDEN["outage-end"]
