"""The fleet's event loop, pinned by golden digests.

:meth:`FleetEngine._drive_lanes` runs every lane on the engine's own loop
over one shared heap ranked ``(time, priority, lane, seq)``, with the
lanes' arrivals merged by ``(time, lane)``. The first four digests were
recorded on a loop that scanned every lane per event and kept through the
lane-merging loops that followed it, event traces included: shared budget,
per-lane choosers, faults, and scheduler ticks. Every digest here was
re-pinned once, when fleet lanes stopped arming the buffer deadlines their
own arrivals close first; only ``n_events`` moved.

The tie-order digests were recorded on the lane-merging loop before the
shared heap replaced it. Their arrivals sit on a 1/64 s grid, so equal
instants are exact: two lanes carry the identical timestamp array, buffer
timers and prewarm ticks land on other lanes' arrivals, and scheduler
ticks land on arrival instants and on the lanes' own decision ticks.
"""

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import BrownoutConfig, FailoverConfig, WarmPoolConfig
from repro.serving.config import PrewarmConfig
from repro.serving.fleet import EndpointSpec, FleetEngine, FleetScheduler
from repro.serving.prewarm import EmpiricalRateForecaster
from tests.serving.test_golden_digests import fleet_digest, poisson

pytestmark = pytest.mark.fleet

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
OTHER = BatchConfig(memory_mb=1024.0, batch_size=4, timeout=0.02)


class StubChooser:
    def __init__(self, configs):
        self.configs = list(configs)
        self.calls = 0

    def choose(self, history, slo):
        config = self.configs[min(self.calls, len(self.configs) - 1)]
        self.calls += 1
        return Decision(config=config, decision_time=1e-3)


def make_specs(faults=False, choosers=False):
    def platform(seed):
        return ServerlessPlatform(
            faults=FaultModel(failure_rate=0.15) if faults else None,
            seed=seed,
        )

    return [
        EndpointSpec(
            name=f"ep{i}",
            config=CONFIG if i % 2 else OTHER,
            slo=0.1 * (1 + i),
            platform=platform(seed=10 + i),
            chooser=StubChooser([OTHER, CONFIG]) if choosers else None,
            decision_interval_s=0.5 if choosers else None,
            min_history=16,
            pool=WarmPoolConfig(keep_alive_s=2.0, max_containers=4,
                                max_queued_batches=3),
        )
        for i in range(4)
    ]


def make_traffic(seed0=20, lam=150.0, n=900):
    return {
        f"ep{i}": poisson(lam, n, seed0 + i) for i in range(4)
    }


#: :func:`~tests.serving.test_golden_digests.fleet_digest` of each scenario.
GOLDEN = {
    "independent":
        "48c955cde47012d0d314be11445e29d17ef32c83f987bee24f649b43ca48cd58",
    "faults-choosers":
        "97913d1fd0bc9426e6704a65584882d71204545f9fe7d848d615e9e205d0dca5",
    "budget":
        "1567ec8f0e1201d4e8b2742af3e1d6f5e869824d26bbdf79c9d4e80e568985d8",
    "scheduler":
        "a4ad3d3f9c67b78e5161cc5cc70082c54e3e04bc77aa3b65217f7c1a5ff4fd09",
    "tie-twins":
        "10b19f493ade2c3fafda7600c966a7efcc2cb1d1644467334355eac5d80656ee",
    "tie-ticks":
        "10f7987e90e85d2adb65cf1349f0691ae205a83e76df980825b5f439a6ca63ee",
}


def run(fleet_kwargs, faults=False, choosers=False):
    return FleetEngine(make_specs(faults, choosers), **fleet_kwargs).run(
        make_traffic(), record_trace=True)


def run_scheduled():
    scheduler = FleetScheduler(
        memories=(1024.0, 2048.0), batch_sizes=(1, 2, 4, 8),
        timeouts=(0.0, 0.02, 0.05), min_history=32,
    )
    return run({"scheduler": scheduler, "scheduler_interval_s": 2.0})


def pinned(scenario, log):
    assert fleet_digest(log) == GOLDEN[scenario]
    return log


@pytest.mark.golden
class TestHeapEqualsScan:
    def test_independent_lanes(self):
        pinned("independent", run({}))

    def test_with_faults_and_choosers(self):
        pinned("faults-choosers", run({}, faults=True, choosers=True))

    def test_with_binding_budget(self):
        # A tight shared budget exercises the cross-lane drain pass.
        log = pinned("budget", run({"max_containers": 3}, faults=True))
        assert sum(log[n].evicted_containers for n in log.endpoints) > 0

    def test_with_scheduler_ticks(self):
        log = pinned("scheduler", run_scheduled())
        assert log.fleet_decisions >= 1


# ------------------------------------------------------------ tie order
GRID = 1.0 / 64.0
TWIN = BatchConfig(memory_mb=2048.0, batch_size=4, timeout=2 * GRID)
WIDE = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=3 * GRID)


def grid_trace(seed, n):
    """Arrivals on the grid, several per instant at times."""
    steps = np.random.default_rng(seed).integers(0, 3, size=n)
    return np.cumsum(steps) * GRID


def tie_specs(choosers=False):
    def spec(name, config, prewarm=None):
        return EndpointSpec(
            name=name, config=config, slo=0.2,
            platform=ServerlessPlatform(seed=5, cold_start=ColdStartModel()),
            chooser=StubChooser([WIDE, TWIN]) if choosers else None,
            decision_interval_s=0.25 if choosers else None, min_history=8,
            pool=WarmPoolConfig(keep_alive_s=0.5, max_containers=3,
                                max_queued_batches=4),
            prewarm=prewarm,
        )

    prewarm = PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                            interval_s=0.25)
    return [spec("a", TWIN), spec("b", TWIN), spec("c", WIDE, prewarm)]


@pytest.mark.golden
class TestTieOrder:
    def test_twin_lanes_with_every_pass(self):
        # Lanes a and b are identical down to their platform seed, so
        # their arrivals, timers and completions tie; a's timers also land
        # on b's and c's arrivals, and c's prewarm ticks on everyone's.
        ts = grid_trace(1, 600)
        assert np.isin(ts + TWIN.timeout, ts).any()
        log = FleetEngine(tie_specs(), max_containers=5,
                          failover=FailoverConfig(min_queue=2),
                          brownout=BrownoutConfig(max_total_queued=6)).run(
            {"a": ts, "b": ts, "c": ts}, record_trace=True)
        pinned("tie-twins", log)
        assert log["b"].failover_batches and log["c"].brownout_shed

    def test_scheduler_ticks_on_arrival_instants(self):
        # Ticks every 0.5 s from the shared first arrival: each lands on
        # the lanes' own 0.25 s decision ticks, and on arrivals.
        ts = grid_trace(2, 600)
        scheduler = FleetScheduler(
            memories=(1024.0, 2048.0), batch_sizes=(1, 4, 8),
            timeouts=(0.0, 2 * GRID), min_history=16,
        )
        log = FleetEngine(tie_specs(choosers=True), max_containers=6,
                          scheduler=scheduler, scheduler_interval_s=0.5).run(
            {"a": ts, "b": ts, "c": ts}, record_trace=True)
        pinned("tie-ticks", log)
        fleet = [d.time for d in log["a"].decisions if d.reason == "fleet"]
        own = {d.time for d in log["a"].decisions if d.reason == "interval"}
        assert len(fleet) == log.fleet_decisions > 1
        assert own & set(fleet) and np.isin(fleet, ts).any()
