"""Regressions found where serving features combine.

Each feature is pinned on its own elsewhere; these tests run the
combinations that broke and check the invariant that broke.
"""

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.serverless.faults import FaultModel, RetryPolicy
from repro.serverless.outages import (
    CrashHazard,
    OutageModel,
    OutageWindow,
    StragglerModel,
)
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.generation import TokenLengthModel
from repro.serving import (
    DegradeConfig,
    EndpointSpec,
    FailoverConfig,
    FleetEngine,
    HedgeConfig,
    ServingEngine,
    WarmPoolConfig,
)
from repro.serving.config import GenerationConfig

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)


@pytest.mark.faults
@pytest.mark.outage
@pytest.mark.parametrize("platform_seed", [1, 2])
def test_winning_hedge_keeps_n_failed_equal_to_the_mask(platform_seed):
    # A winning hedge clears the primary's fault verdict for its requests;
    # n_failed must count the mask after that, not the verdicts before.
    rng = np.random.default_rng(0)
    ts = np.cumsum(rng.exponential(1.0 / 400.0, size=20_000))
    engine = ServingEngine(
        CONFIG,
        platform=ServerlessPlatform(
            seed=platform_seed, faults=FaultModel(failure_rate=0.3),
            retry_policy=RetryPolicy(max_attempts=1),
        ),
        outages=OutageModel(straggler=StragglerModel(rate=0.3, slowdown=4.0),
                            seed=1),
        degrade=DegradeConfig(hedge=HedgeConfig(percentile=50.0,
                                                multiplier=1.0,
                                                min_observations=4)),
    )
    log = engine.run(ts)
    assert log.hedge_wins > 0 and log.n_failed > 0
    assert log.n_failed == int(log.failed.sum())
    assert log.to_experiment_log(10.0).total_failed == log.n_failed


def stranded_run(seed):
    """A crash inside the outage window kills the only container and
    requeues its batch; the cold start is denied and no later event
    retries the queue. The run ends there with requests still queued."""
    ts = np.cumsum(np.random.default_rng(seed).exponential(1 / 600, 51))
    return ServingEngine(
        BatchConfig(1024.0, 1, 0.1),
        platform=ServerlessPlatform(seed=seed,
                                    faults=FaultModel(failure_rate=0.3),
                                    retry_policy=RetryPolicy(max_attempts=3)),
        outages=OutageModel(windows=(OutageWindow(2.0, 4.0),),
                            crash=CrashHazard(rate=0.02, outage_rate=0.2),
                            seed=4),
        pool=WarmPoolConfig(keep_alive_s=0.3, max_containers=1),
    ).run(ts, record_trace=True)


@pytest.mark.faults
@pytest.mark.outage
@pytest.mark.parametrize("seed, unserved", [(1, 2), (3, 12)])
def test_queue_left_behind_an_outage_fails_at_the_end(seed, unserved):
    # What the run still queues fails, never started, instead of being
    # neither served, shed nor failed.
    log = stranded_run(seed)
    never = np.isnan(log.latencies) & ~log.shed
    assert log.unserved_batches == never.sum() == unserved
    assert log.failed[never].all()
    assert (log.shed | log.failed | np.isfinite(log.latencies)).all()
    assert log.n_failed == int(log.failed.sum())
    assert [e[0] for e in log.event_trace[-unserved:]] == ["unserved"] * unserved


@pytest.mark.faults
@pytest.mark.outage
def test_never_started_requests_leave_p_and_count_in_vcr():
    log = stranded_run(1)
    lat = log.served_latencies()
    assert np.isnan(lat[-2:]).all() and np.isfinite(lat[:-2]).all()
    # p() reads the requests that started; it used to read NaN.
    assert log.p(95) == np.percentile(lat[:-2], 95)
    # One chunk of 51, stranded pair included: a violation (it read 0.0).
    assert log.vcr() == 100.0
    # The p100 of the chunk is a never-started request at an integer
    # rank, where inf would read NaN.
    assert log.vcr(percentile=100.0) == 100.0


@pytest.mark.fleet
@pytest.mark.gen
def test_token_timed_lane_fails_over_request_level_batches():
    # A backed-up buffer-generation lane drains onto an idle same-tier
    # lane. The failed-over batch is billed and timed at request level
    # and its container goes back to the donor's pool.
    gen = GenerationConfig(dispatcher="buffer",
                           length_model=TokenLengthModel(output_mean=4.0))
    pool = WarmPoolConfig(max_containers=1, max_queued_batches=50)
    specs = [
        EndpointSpec(name=name, config=BatchConfig(2048.0, 4, 0.01),
                     pool=pool, generation=gen)
        for name in ("busy", "idle")
    ]
    rng = np.random.default_rng(0)
    traffic = {"busy": np.sort(rng.uniform(0, 5, 3000)),
               "idle": np.sort(rng.uniform(0, 5, 50))}
    log = FleetEngine(specs, failover=FailoverConfig(min_queue=1)).run(
        traffic)
    busy = log["busy"]
    assert busy.failover_batches > 0
    assert np.isfinite(busy.latencies[~busy.shed]).all()
    assert busy.failed_over.sum() > 0


@pytest.mark.fleet
@pytest.mark.gen
def test_failed_over_batch_on_a_token_timed_lane_records_ttft():
    # A failed-over batch takes request-level timing, the one-token case
    # of generation timing: its TTFT is its latency, its TPOT stays NaN,
    # so every served request counts in TTFT percentiles and attainment.
    gen = GenerationConfig(dispatcher="buffer",
                           length_model=TokenLengthModel(output_mean=4.0))
    pool = WarmPoolConfig(max_containers=1, max_queued_batches=50)
    specs = [
        EndpointSpec(name=name, config=BatchConfig(2048.0, 4, 0.01),
                     pool=pool, generation=gen)
        for name in ("busy", "idle")
    ]
    rng = np.random.default_rng(0)
    traffic = {"busy": np.sort(rng.uniform(0, 5, 3000)),
               "idle": np.sort(rng.uniform(0, 5, 50))}
    busy = FleetEngine(specs, failover=FailoverConfig(min_queue=1)).run(
        traffic)["busy"]
    moved = busy.failed_over
    assert moved.sum() > 0
    np.testing.assert_array_equal(busy.ttft[moved], busy.latencies[moved])
    assert np.isnan(busy.tpot[moved]).all()
    served = ~busy.shed
    assert np.isfinite(busy.ttft[served]).all()
