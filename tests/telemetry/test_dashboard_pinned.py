"""The rendered dashboard of three seeded serving runs, pinned verbatim.

Each scenario's ``render_dashboard`` text is compared byte for byte with a
committed file under ``dashboards/``, so a refactor of the dashboard
renderer (or of what a run publishes) that changes a single character of
the report fails here with a diff. The scenarios cover every per-scope
section: a single engine with prewarming, outages and hedging; a
token-streaming run; and a fleet whose lanes carry outages, hedging,
failover, brownout, prewarming and generation.

Regenerate a file only for an intended report change, with
``PYTHONPATH=src python -m tests.telemetry.test_dashboard_pinned``, and say
in the commit message what moved.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.serverless.generation import TokenLengthModel
from repro.serverless.platform import ServerlessPlatform
from repro.serving import (
    BrownoutConfig,
    EmpiricalRateForecaster,
    FailoverConfig,
    FleetEngine,
    GenerationConfig,
    PrewarmConfig,
    ServingEngine,
    WarmPoolConfig,
)
from repro.telemetry.export import render_dashboard
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.serving.test_golden_digests import (
    CONFIG,
    DEGRADE,
    OUTAGES,
    fleet_specs,
    poisson,
    run_gen_continuous,
    uniform,
)

DASHBOARDS = Path(__file__).resolve().parent / "dashboards"

PREWARM = PrewarmConfig(forecaster=EmpiricalRateForecaster(), interval_s=0.5,
                        retire=True)


def run_engine():
    ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=3),
        pool=WarmPoolConfig(max_containers=4, max_queued_batches=8),
        outages=OUTAGES, degrade=DEGRADE, prewarm=PREWARM,
    ).run(uniform(0, 400, 30.0), name="outages")


def run_fleet():
    specs = fleet_specs()
    specs[2] = dataclasses.replace(specs[2], prewarm=PREWARM)
    specs[3] = dataclasses.replace(specs[3], generation=GenerationConfig(
        length_model=TokenLengthModel(prompt_mean=64.0, output_mean=4.0),
    ))
    traffic = {
        "gold": uniform(20, 1500, 20.0),
        "silver": uniform(21, 4000, 20.0),
        "bronze": uniform(22, 300, 20.0),
        "tin": poisson(100.0, 1500, 23),
    }
    FleetEngine(
        specs, max_containers=3,
        brownout=BrownoutConfig(max_total_queued=4),
        failover=FailoverConfig(min_queue=2),
    ).run(traffic, name="fleet")


SCENARIOS = {
    "engine": run_engine,
    "generation": run_gen_continuous,
    "fleet": run_fleet,
}


def dashboard(scenario: str) -> str:
    with use_registry(MetricsRegistry()) as registry:
        SCENARIOS[scenario]()
    return render_dashboard(registry, title=f"dashboard: {scenario}") + "\n"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_dashboard_text_is_pinned(scenario):
    expected = (DASHBOARDS / f"{scenario}.txt").read_text(encoding="utf-8")
    assert dashboard(scenario) == expected


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(SCENARIOS):
        (DASHBOARDS / f"{name}.txt").write_text(dashboard(name),
                                                encoding="utf-8")
