"""The heap-merged fleet loop, pinned by golden digests.

:meth:`FleetEngine._drive_lanes` steps whichever lane owns the globally
next event through a lane-key heap. It replaced a loop that scanned every
lane per event; each digest below was recorded while both loops ran and
were asserted bit-identical on the scenario (shared budget, per-lane
choosers, faults, and scheduler ticks), event traces included.
"""

import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel
from repro.serverless.platform import ServerlessPlatform
from repro.serving import WarmPoolConfig
from repro.serving.fleet import EndpointSpec, FleetEngine, FleetScheduler
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
        "0a22f74cf44851061b1f904cc4c708fc0f5f0bbcf427ce0ac707ee42e0b6215d",
    "faults-choosers":
        "8a52b8cca25edf8246e9a6dfd18eb962000f17064b18097ea5b53f1136277495",
    "budget":
        "4294d477e799914372a6abf7137bb9483e9748938ab97b370506af2e852e0ba6",
    "scheduler":
        "6c76593fe523085892a8b13d2d06b86a06f42d6ae04499d6841f5f393a535e5b",
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
        # A tight shared budget exercises the cross-lane drain pass, whose
        # changed-lane set feeds the heap's re-keying.
        log = pinned("budget", run({"max_containers": 3}, faults=True))
        assert sum(log[n].evicted_containers for n in log.endpoints) > 0

    def test_with_scheduler_ticks(self):
        log = pinned("scheduler", run_scheduled())
        assert log.fleet_decisions >= 1
