"""Correlated infrastructure outages + the graceful-degradation stack.

PR 10's fault layer (:mod:`repro.serverless.outages`) makes the platform
fail in correlated ways — outage windows deny cold starts, containers
crash mid-batch, stragglers stretch service times — and the degradation
stack (:mod:`repro.serving.degrade`) answers: cold-start retry with
capped backoff, percentile-delay request hedging, fleet brownout
(priority shedding), and queue failover to compatible endpoints.

The anchored contracts, in test order:

* the fault models and the JSON schema validate and sample
  deterministically;
* the warm pool denies provisioning (only) inside windows, and
  ``kill()`` frees capacity immediately — the fleet-shared budget
  included;
* with every feature disabled the engine and the fleet are
  **bit-identical** to a build that never heard of this PR;
* every degradation mechanism is exercised, deterministic, crash-safe
  (chaos drill with the full stack on), and refuses to restore under a
  different outage model;
* the pinned degradation eval: under a mid-run outage the defended
  fleet keeps at least twice the undefended in-window goodput at
  bounded extra cost, and the premium tier stays ahead of the blend.
"""

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel, RetryPolicy
from repro.serverless.outages import (
    CrashHazard,
    OutageModel,
    OutageWindow,
    StragglerModel,
    sample_outage_windows,
)
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    BrownoutConfig,
    ConfigError,
    DegradeConfig,
    EndpointSpec,
    FailoverConfig,
    FleetEngine,
    GuardrailConfig,
    HedgeConfig,
    ServingEngine,
    WarmPoolConfig,
    assert_serving_logs_equal,
    load_outage_config,
    run_with_crashes,
    validate_fleet_degrade,
    validate_outage_config,
)
from repro.serving.checkpoint import CheckpointError
from repro.serving.fleet import FleetBudget
from repro.serving.pool import WarmPool
from repro.telemetry import MetricsRegistry, use_registry
from tests.serving.test_golden_digests import fleet_digest

pytestmark = [pytest.mark.serving, pytest.mark.outage]

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)

#: The full-stack engine scenario most tests share: a mid-run outage
#: window, elevated in-window crash hazard, 20% stragglers, and the
#: complete per-engine degradation stack on a tightly capped pool.
OUTAGES = OutageModel(
    windows=(OutageWindow(10.0, 15.0),),
    crash=CrashHazard(rate=0.01, outage_rate=0.1),
    straggler=StragglerModel(rate=0.2, slowdown=3.0),
    seed=3,
)
DEGRADE = DegradeConfig(
    backoff=RetryPolicy(max_attempts=4, base_backoff_s=0.2,
                        max_total_delay_s=3.0),
    hedge=HedgeConfig(percentile=90.0, multiplier=1.5),
)


def uniform_trace(seed=0, n=400, horizon=30.0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0, horizon, n))


def build_engine(outages=OUTAGES, degrade=DEGRADE, **kwargs):
    kwargs.setdefault(
        "pool", WarmPoolConfig(max_containers=4, max_queued_batches=8)
    )
    return ServingEngine(CONFIG, outages=outages, degrade=degrade, **kwargs)


# ---------------------------------------------------------------- the models
class TestOutageModel:
    def test_window_validation(self):
        with pytest.raises(ValueError, match="start"):
            OutageWindow(-1.0, 2.0)
        with pytest.raises(ValueError, match="end"):
            OutageWindow(3.0, 3.0)
        with pytest.raises(ValueError, match="non-overlapping"):
            OutageModel(windows=(OutageWindow(0.0, 5.0),
                                 OutageWindow(4.0, 6.0)))

    def test_active_is_closed_open(self):
        m = OutageModel(windows=(OutageWindow(2.0, 4.0),
                                 OutageWindow(8.0, 9.0)))
        assert not m.active(1.9)
        assert m.active(2.0) and m.active(3.99)
        assert not m.active(4.0)
        assert m.active(8.5) and not m.active(9.0)

    def test_crash_probability_switches_inside_windows(self):
        m = OutageModel(windows=(OutageWindow(2.0, 4.0),),
                        crash=CrashHazard(rate=0.01, outage_rate=0.2))
        assert m.crash_probability(1.0) == 0.01
        assert m.crash_probability(3.0) == 0.2
        # Without an explicit outage_rate the base rate applies everywhere.
        m = OutageModel(windows=(OutageWindow(2.0, 4.0),),
                        crash=CrashHazard(rate=0.05))
        assert m.crash_probability(3.0) == 0.05
        assert OutageModel().crash_probability(3.0) == 0.0

    def test_straggler_factor_is_pure_and_seeded(self):
        m = OutageModel(straggler=StragglerModel(rate=0.3, slowdown=4.0),
                        seed=7)
        factors = [m.straggler_factor(cid) for cid in range(200)]
        assert factors == [m.straggler_factor(cid) for cid in range(200)]
        assert set(factors) == {1.0, 4.0}
        # A different seed re-rolls the per-container draws.
        other = OutageModel(straggler=StragglerModel(rate=0.3, slowdown=4.0),
                            seed=8)
        assert factors != [other.straggler_factor(cid) for cid in range(200)]
        # Degenerate rates pin both ends.
        never = OutageModel(straggler=StragglerModel(rate=0.0, slowdown=4.0))
        always = OutageModel(straggler=StragglerModel(rate=1.0, slowdown=4.0))
        assert never.straggler_factor(0) == 1.0
        assert always.straggler_factor(0) == 4.0

    def test_disabled_detection(self):
        assert not OutageModel().enabled
        assert not OutageModel(crash=CrashHazard()).enabled
        assert not OutageModel(straggler=StragglerModel(rate=0.0)).enabled
        assert OutageModel(windows=(OutageWindow(0.0, 1.0),)).enabled
        assert OutageModel(crash=CrashHazard(rate=0.1)).enabled
        assert OutageModel(straggler=StragglerModel(rate=0.1)).enabled

    def test_sampled_windows_are_seeded_and_clipped(self):
        a = sample_outage_windows(seed=4, horizon_s=300.0, mean_up_s=40.0,
                                  mean_down_s=10.0)
        b = sample_outage_windows(seed=4, horizon_s=300.0, mean_up_s=40.0,
                                  mean_down_s=10.0)
        assert a == b and a
        assert a != sample_outage_windows(seed=5, horizon_s=300.0,
                                          mean_up_s=40.0, mean_down_s=10.0)
        assert all(w.end <= 300.0 for w in a)
        OutageModel(windows=a)  # sorted and non-overlapping by construction
        with pytest.raises(ValueError, match="horizon_s"):
            sample_outage_windows(seed=0, horizon_s=0.0, mean_up_s=1.0,
                                  mean_down_s=1.0)
        with pytest.raises(ValueError, match="mean_up_s"):
            sample_outage_windows(seed=0, horizon_s=1.0, mean_up_s=0.0,
                                  mean_down_s=1.0)


# ---------------------------------------------------------------- the schema
class TestOutageSchema:
    DOC = {
        "windows": [{"start": 20.0, "end": 35.0}],
        "crash": {"rate": 0.002, "outage_rate": 0.02},
        "straggler": {"rate": 0.1, "slowdown": 3.0},
        "seed": 7,
        "degrade": {
            "backoff": {"max_attempts": 4, "base_backoff_s": 0.1,
                        "max_total_delay_s": 5.0},
            "hedge": {"percentile": 95.0, "multiplier": 1.5},
        },
    }

    def test_full_document_round_trips(self):
        model, degrade = validate_outage_config(self.DOC)
        assert model.windows == (OutageWindow(20.0, 35.0),)
        assert model.crash == CrashHazard(rate=0.002, outage_rate=0.02)
        assert model.straggler == StragglerModel(rate=0.1, slowdown=3.0)
        assert model.seed == 7
        assert degrade.backoff.max_attempts == 4
        assert degrade.backoff.max_total_delay_s == 5.0
        assert degrade.hedge.percentile == 95.0
        assert degrade.hedge.multiplier == 1.5

    def test_windows_and_random_are_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            validate_outage_config({
                "windows": [{"start": 0.0, "end": 1.0}],
                "random": {"horizon_s": 10.0},
            })

    def test_random_windows_resolve_through_the_seed(self):
        doc = {"random": {"horizon_s": 200.0, "mean_up_s": 30.0,
                          "mean_down_s": 5.0}, "seed": 9}
        model, _ = validate_outage_config(doc)
        assert model.windows == sample_outage_windows(
            seed=9, horizon_s=200.0, mean_up_s=30.0, mean_down_s=5.0)

    def test_errors_are_path_qualified(self):
        with pytest.raises(ConfigError, match=r"outages: unknown keys"):
            validate_outage_config({"windwos": []})
        with pytest.raises(ConfigError,
                           match=r"outages\.windows\[0\]\.end"):
            validate_outage_config({"windows": [{"start": 5.0, "end": 5.0}]})
        with pytest.raises(ConfigError, match=r"outages\.crash\.rate"):
            validate_outage_config({"crash": {"rate": 2.0}})
        with pytest.raises(ConfigError,
                           match=r"ep\.outages\.straggler\.slowdown"):
            validate_outage_config({"straggler": {"slowdown": 0.5}},
                                   path="ep.outages")

    def test_empty_degrade_normalizes_to_none(self):
        model, degrade = validate_outage_config(
            {"windows": [{"start": 0.0, "end": 1.0}], "degrade": {}})
        assert degrade is None and model.enabled

    def test_loader_wraps_io_and_json_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_outage_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_outage_config(bad)
        good = tmp_path / "good.json"
        good.write_text('{"windows": [{"start": 1.0, "end": 2.0}]}')
        model, degrade = load_outage_config(good)
        assert model.windows == (OutageWindow(1.0, 2.0),)
        assert degrade is None

    def test_fleet_degrade_schema(self):
        brownout, failover = validate_fleet_degrade(
            {"brownout": {"max_total_queued": 6},
             "failover": {"min_queue": 2}})
        assert brownout == BrownoutConfig(max_total_queued=6)
        assert failover == FailoverConfig(min_queue=2)
        assert validate_fleet_degrade({}) == (None, None)
        with pytest.raises(ConfigError, match="max_total_queued"):
            validate_fleet_degrade({"brownout": {}})
        with pytest.raises(ConfigError,
                           match=r"degrade\.failover\.min_queue"):
            validate_fleet_degrade({"failover": {"min_queue": 0}})


# ------------------------------------------------------------------ the pool
WINDOWED = OutageModel(windows=(OutageWindow(5.0, 10.0),))


@pytest.mark.parametrize("pool_cls", [WarmPool])
class TestPoolOutages:
    def test_windows_deny_cold_starts_only(self, pool_cls):
        pool = pool_cls(WarmPoolConfig(), outage=WINDOWED)
        lease = pool.acquire(0.0, 2048.0)  # before the window: cold start
        assert lease is not None and lease.cold
        pool.release(lease.container_id, 1.0)
        # Inside the window warm reuse still works...
        warm = pool.acquire(6.0, 2048.0)
        assert warm is not None and not warm.cold
        # ...but a fresh cold start is denied.
        assert pool.acquire(7.0, 2048.0) is None
        # The window closing restores provisioning.
        assert pool.acquire(10.0, 2048.0) is not None

    def test_prewarm_is_denied_inside_windows(self, pool_cls):
        pool = pool_cls(WarmPoolConfig(), outage=WINDOWED)
        assert pool.prewarm(6.0, 2048.0, 3) == 0
        assert pool.prewarm(11.0, 2048.0, 3) == 3

    def test_windowless_model_is_normalized_away(self, pool_cls):
        pool = pool_cls(WarmPoolConfig(),
                        outage=OutageModel(crash=CrashHazard(rate=0.5)))
        assert pool.outage is None

    def test_kill_frees_capacity_immediately(self, pool_cls):
        pool = pool_cls(WarmPoolConfig(max_containers=1))
        lease = pool.acquire(0.0, 2048.0)
        assert pool.acquire(1.0, 2048.0) is None  # at cap, container busy
        pool.kill(lease.container_id)
        assert pool.stats.crashed == 1
        assert pool.acquire(1.0, 2048.0) is not None  # slot is free now
        # Killing an unknown id is a no-op, not a crash.
        pool.kill(999)
        assert pool.stats.crashed == 1

    def test_kill_frees_a_shared_fleet_budget_slot(self, pool_cls):
        from repro.serving.fleet import BudgetedWarmPool

        budget = FleetBudget(max_containers=1)
        a = BudgetedWarmPool(WarmPoolConfig(), None, budget)
        b = BudgetedWarmPool(WarmPoolConfig(), None, budget)
        lease = a.acquire(0.0, 2048.0)
        assert b.acquire(1.0, 2048.0) is None  # fleet-wide cap, all busy
        a.kill(lease.container_id)
        assert b.acquire(1.0, 2048.0) is not None

    def test_budgeted_pool_honours_outage_windows(self, pool_cls):
        from repro.serving.fleet import BudgetedWarmPool

        pool = BudgetedWarmPool(WarmPoolConfig(), None, FleetBudget(4),
                                outage=WINDOWED)
        assert pool.acquire(6.0, 2048.0) is None


# ---------------------------------------------------------------- the engine
class TestEngineDegrade:
    def test_disabled_configs_are_bit_identical(self):
        ts = uniform_trace()
        base = ServingEngine(CONFIG).run(ts, record_trace=True)
        off = ServingEngine(CONFIG, outages=OutageModel(),
                            degrade=DegradeConfig()).run(ts,
                                                         record_trace=True)
        assert_serving_logs_equal(base, off)
        assert off.hedged is None and off.failed_over is None
        assert off.outage_denied == 0 and off.crashed_containers == 0

    def test_full_stack_exercises_every_mechanism(self):
        ts = uniform_trace()
        log = build_engine().run(ts)
        assert log.outage_denied > 0
        assert log.crashed_containers > 0
        assert log.crash_requeued > 0
        assert log.straggler_batches > 0
        assert log.cold_retries > 0
        assert log.cold_retry_exhausted > 0
        assert log.hedges > 0 and log.hedge_wins > 0
        assert log.hedge_cost > 0.0
        assert log.hedged is not None and log.hedged.sum() > 0

    def test_full_stack_is_deterministic(self):
        ts = uniform_trace()
        a = build_engine().run(ts, record_trace=True)
        b = build_engine().run(ts, record_trace=True)
        assert_serving_logs_equal(a, b)

    def test_no_request_is_lost_to_a_crash(self):
        # Conservation: a crashed batch's requests re-enter the queue and
        # every non-shed request eventually completes (served or failed).
        ts = uniform_trace(seed=1)
        log = build_engine(degrade=None).run(ts)
        assert log.crashed_containers > 0
        assert log.crash_requeued > 0
        assert np.all(np.isfinite(log.latencies) | log.shed)
        # The kill reached the pool's accounting.
        assert log.crashed_containers <= log.cold_starts

    def test_windows_only_model_denies_without_crashing(self):
        # Short keep-alive: warm capacity expires into the window, so the
        # engine genuinely needs cold starts while provisioning is denied.
        om = OutageModel(windows=(OutageWindow(10.0, 15.0),))
        log = build_engine(
            outages=om, degrade=None,
            pool=WarmPoolConfig(max_containers=4, max_queued_batches=8,
                                keep_alive_s=0.2),
        ).run(uniform_trace())
        assert log.outage_denied > 0
        assert log.crashed_containers == 0 and log.straggler_batches == 0
        assert log.hedged is None

    def test_a_batch_waiting_out_a_window_is_denied_once(self):
        # One request at 1.1 s, inside a window that closes at 2.0 s: the
        # cold start is refused at dispatch, and the backoff retries at
        # about 1.2, 1.4 and 1.8 s are refused too before the one at about
        # 2.6 s starts it. The batch counts once, not once per refusal.
        log = ServingEngine(
            BatchConfig(2048.0, 1, 0.0),
            outages=OutageModel(windows=(OutageWindow(1.0, 2.0),)),
            degrade=DegradeConfig(backoff=RetryPolicy(
                max_attempts=6, base_backoff_s=0.1, jitter=0.0)),
        ).run(np.array([1.1]))
        assert log.cold_retries == 4 and log.cold_retry_exhausted == 0
        assert log.start_times[0] > 2.0
        assert log.outage_denied == 1

    def test_straggler_slowdown_shows_up_in_latencies(self):
        om_straggle = OutageModel(
            straggler=StragglerModel(rate=1.0, slowdown=5.0), seed=1)
        ts = uniform_trace()
        slow = build_engine(outages=om_straggle, degrade=None).run(ts)
        clean = build_engine(outages=None, degrade=None).run(ts)
        assert slow.straggler_batches == len(slow.batch_sizes)
        assert np.nanmean(slow.latencies) > np.nanmean(clean.latencies)

    def test_backoff_budget_truncates_the_retry_schedule(self):
        om = OutageModel(windows=(OutageWindow(10.0, 15.0),))
        ts = uniform_trace()

        def run(budget):
            return build_engine(
                outages=om,
                degrade=DegradeConfig(backoff=RetryPolicy(
                    max_attempts=6, base_backoff_s=0.5, jitter=0.0,
                    max_total_delay_s=budget)),
                pool=WarmPoolConfig(max_containers=4, max_queued_batches=8,
                                    keep_alive_s=0.2),
            ).run(ts)

        roomy = run(None)
        tight = run(0.6)  # only the first 0.5s retry fits the budget
        assert roomy.cold_retries > 0
        assert tight.cold_retries > 0
        # The tight budget gives up earlier: more batches exhaust their
        # schedule and fall back to the queue.
        assert tight.cold_retry_exhausted > roomy.cold_retry_exhausted

    def test_generation_mode_refuses_the_fault_layer(self):
        from repro.serving.config import GenerationConfig

        with pytest.raises(ValueError, match="generation"):
            ServingEngine(CONFIG, generation=GenerationConfig(),
                          outages=OUTAGES)
        with pytest.raises(ValueError, match="generation"):
            ServingEngine(CONFIG, generation=GenerationConfig(),
                          degrade=DEGRADE)

    def test_outage_telemetry_is_namespaced(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            build_engine().run(uniform_trace())
        counters = {r["name"]: r["value"] for r in registry.records()
                    if r.get("type") == "counter"}
        assert counters["serving.outage.crashes"] > 0
        assert counters["serving.outage.crash_requeued"] > 0
        assert counters["serving.outage.straggler_batches"] > 0
        assert counters["serving.degrade.cold_retries"] > 0
        assert counters["serving.degrade.hedges"] > 0

    def test_chaos_restore_with_the_stack_on(self, tmp_path):
        ts = uniform_trace()
        clean = build_engine().run(ts, record_trace=True)
        log, kills = run_with_crashes(
            build_engine, ts, tmp_path / "outage.ckpt",
            n_crashes=4, seed=11, record_trace=True,
        )
        assert kills, "the drill must actually kill the engine"
        assert_serving_logs_equal(clean, log)

    def test_restore_refuses_a_different_outage_model(self, tmp_path):
        ts = uniform_trace()
        path = tmp_path / "fp.ckpt"
        build_engine().run(ts, checkpoint_path=path)
        other = OutageModel(
            windows=OUTAGES.windows, crash=OUTAGES.crash,
            straggler=OUTAGES.straggler, seed=OUTAGES.seed + 1,
        )
        with pytest.raises(CheckpointError, match="outages"):
            build_engine(outages=other).restore(path)
        with pytest.raises(CheckpointError, match="degrade"):
            build_engine(degrade=DegradeConfig(
                backoff=DEGRADE.backoff)).restore(path)


# ----------------------------------------------------------------- the fleet
def fleet_traces(seed=2, horizon=10.0, n_gold=3000, n_bulk=2000):
    rng = np.random.default_rng(seed)
    return {"gold": np.sort(rng.uniform(0, horizon, n_gold)),
            "bulk": np.sort(rng.uniform(0, horizon, n_bulk))}


def tiered_endpoints(queue_cap=20, containers=1, gold_outages=None,
                     gold_degrade=None):
    return [
        EndpointSpec(
            name="gold", config=BatchConfig(2048.0, 4, 0.01), slo=0.2,
            priority=1,
            pool=WarmPoolConfig(max_containers=containers,
                                max_queued_batches=queue_cap),
            outages=gold_outages, degrade=gold_degrade,
        ),
        EndpointSpec(
            name="bulk", config=BatchConfig(2048.0, 8, 0.05), slo=1.0,
            priority=0,
            pool=WarmPoolConfig(max_containers=containers,
                                max_queued_batches=queue_cap),
        ),
    ]


#: :func:`~tests.serving.test_golden_digests.fleet_digest` of the failover
#: and brownout scenarios below.
FLEET_DEGRADE_GOLDEN = {
    "failover":
        "1e8551e29c41375bbfd5ce179ae3a0a6dc0bafd24e0212949058b839c3200118",
    "brownout":
        "f6c239cb79b7ea62908bb13995643abb09af9abcb1b0be408e0b89b91c0a4167",
}


@pytest.mark.fleet
class TestFleetDegrade:
    @pytest.mark.golden
    def test_failover_drains_a_starved_lane(self):
        traffic = fleet_traces()
        kw = dict(brownout=BrownoutConfig(max_total_queued=10),
                  failover=FailoverConfig(min_queue=2))
        log = FleetEngine(tiered_endpoints(), **kw).run(traffic)
        g = log["gold"]
        assert g.failover_batches > 0
        assert g.failed_over is not None and g.failed_over.sum() > 0
        # Determinism, and the digest of the run the heap drive loop was
        # asserted equal to the scan-every-lane loop on (re-pinned when
        # fleet lanes took the single-engine timer rule: only
        # ``n_events`` moved).
        again = FleetEngine(tiered_endpoints(), **kw).run(traffic)
        for name in ("gold", "bulk"):
            assert_serving_logs_equal(log[name], again[name])
        assert fleet_digest(log) == FLEET_DEGRADE_GOLDEN["failover"]

    @pytest.mark.golden
    def test_brownout_sheds_the_low_priority_tier_first(self):
        # Gold is lightly loaded (its queue stays clear); bulk is swamped.
        # Every brownout victim must come from the priority-0 lane.
        rng = np.random.default_rng(3)
        traffic = {"gold": np.sort(rng.uniform(0, 10.0, 100)),
                   "bulk": np.sort(rng.uniform(0, 10.0, 8000))}
        kw = dict(brownout=BrownoutConfig(max_total_queued=4))
        log = FleetEngine(tiered_endpoints(queue_cap=50), **kw).run(traffic)
        assert log["bulk"].brownout_shed > 0
        assert log["gold"].brownout_shed == 0
        assert fleet_digest(log) == FLEET_DEGRADE_GOLDEN["brownout"]

    def test_single_lane_fleet_degradation_is_inert(self):
        # One endpoint: failover has no donor, a roomy brownout never
        # trips — the data plane must match a fleet without the stack.
        ts = {"gold": uniform_trace(seed=4, n=600, horizon=10.0)}
        spec = [tiered_endpoints(queue_cap=50)[0]]
        plain = FleetEngine(spec).run(ts)["gold"]
        armed = FleetEngine(
            [tiered_endpoints(queue_cap=50)[0]],
            brownout=BrownoutConfig(max_total_queued=10_000),
            failover=FailoverConfig(min_queue=1),
        ).run(ts)["gold"]
        # The failover mask exists (the feature is armed) but never fires,
        # and the data plane is bit-identical to the unarmed fleet.
        assert armed.failed_over is not None and not armed.failed_over.any()
        assert armed.brownout_shed == 0 and armed.failover_batches == 0
        for name in ("latencies", "shed", "failed", "dispatch_times",
                     "start_times", "batch_sizes", "batch_costs",
                     "batch_cold"):
            np.testing.assert_array_equal(getattr(plain, name),
                                          getattr(armed, name))

    def test_budgeted_lane_still_honours_outage_windows(self):
        # The shared-budget pool subclass must keep the outage gate: with
        # a fleet-wide budget set, the outage-struck lane is still denied.
        om = OutageModel(windows=(OutageWindow(2.0, 8.0),))
        traffic = fleet_traces(n_gold=800, n_bulk=200)
        specs = tiered_endpoints(gold_outages=om)
        specs = [
            EndpointSpec(**{**spec.__dict__,
                            "pool": WarmPoolConfig(max_containers=None,
                                                   max_queued_batches=20,
                                                   keep_alive_s=0.5)})
            for spec in specs
        ]
        log = FleetEngine(specs, max_containers=4).run(traffic)
        assert log["gold"].outage_denied > 0
        assert log["bulk"].outage_denied == 0


# --------------------------------------------------- the pinned degradation eval
def in_window_goodput(log, window):
    """Fraction of the window's arrivals served inside the endpoint SLO."""
    arrived = ((log.arrival_times >= window.start)
               & (log.arrival_times < window.end))
    ok = np.isfinite(log.latencies) & (log.latencies <= log.slo) & ~log.failed
    return float((arrived & ok).sum() / max(1, arrived.sum()))


def attainment(log):
    ok = np.isfinite(log.latencies) & (log.latencies <= log.slo) & ~log.failed
    return float(ok.sum() / log.n_requests)


@pytest.mark.fleet
class TestDegradationEval:
    """The PR's pinned claim: defended >= 2x undefended in-window goodput,
    at bounded extra cost, with the premium tier ahead of the blend.

    The drill: the premium "gold" lane is outage-struck mid-run — a 4s
    window denying cold starts with an elevated in-window crash hazard
    and 15% stragglers — while the same-tier "bulk" lane idles in an
    unaffected zone. Undefended, gold's crashed containers cannot be
    replaced, its queue saturates, and it sheds. Defended, denied cold
    starts back off briefly and re-enter the queue, failover drains that
    queue onto bulk's healthy pool, and hedging covers the stragglers.
    Measured at these seeds: in-window goodput 0.98 vs 0.07 (>13x) for
    about 1.35x the blended bill.
    """

    WINDOW = OutageWindow(4.0, 8.0)
    OM = OutageModel(
        windows=(WINDOW,),
        crash=CrashHazard(rate=0.005, outage_rate=0.08),
        straggler=StragglerModel(rate=0.15, slowdown=3.0),
        seed=5,
    )
    DC = DegradeConfig(
        backoff=RetryPolicy(max_attempts=2, base_backoff_s=0.05,
                            max_total_delay_s=0.5),
        hedge=HedgeConfig(percentile=90.0, multiplier=1.5),
    )

    def endpoints(self, defended):
        pool = WarmPoolConfig(max_containers=3, max_queued_batches=12,
                              keep_alive_s=1.0)
        return [
            EndpointSpec(
                name="gold", config=BatchConfig(2048.0, 4, 0.01),
                slo=0.25, priority=1, pool=pool,
                platform=ServerlessPlatform(seed=17,
                                            cold_start=ColdStartModel()),
                outages=self.OM, degrade=self.DC if defended else None,
            ),
            EndpointSpec(
                name="bulk", config=BatchConfig(2048.0, 8, 0.05),
                slo=0.5, priority=0, pool=pool,
                platform=ServerlessPlatform(seed=18,
                                            cold_start=ColdStartModel()),
            ),
        ]

    def run_fleet(self, defended):
        traffic = fleet_traces(seed=6, horizon=12.0, n_gold=1200,
                               n_bulk=150)
        engine = FleetEngine(
            self.endpoints(defended),
            brownout=BrownoutConfig(max_total_queued=10) if defended else None,
            failover=FailoverConfig(min_queue=1) if defended else None,
        )
        return engine.run(traffic)

    def test_defended_fleet_beats_the_undefended_one(self):
        defended = self.run_fleet(True)
        undefended = self.run_fleet(False)
        d_gold, u_gold = defended["gold"], undefended["gold"]

        # The stack actually engaged during the drill.
        assert d_gold.cold_retries > 0
        assert d_gold.hedges > 0
        assert (d_gold.failover_batches > 0
                or defended["bulk"].failover_batches > 0)

        # Pinned headline: >= 2x in-window goodput for the premium tier.
        d_good = in_window_goodput(d_gold, self.WINDOW)
        u_good = in_window_goodput(u_gold, self.WINDOW)
        assert d_good >= 2.0 * u_good, (d_good, u_good)

        # Bounded economics: hedging + retries at most double the bill.
        d_cost = sum(defended[n].total_cost for n in ("gold", "bulk"))
        u_cost = sum(undefended[n].total_cost for n in ("gold", "bulk"))
        assert d_cost <= 2.0 * u_cost, (d_cost, u_cost)

        # The premium tier ends above the undefended fleet's blended
        # attainment — degradation is graceful, not just redistributed.
        blended = (
            sum(attainment(undefended[n]) * undefended[n].n_requests
                for n in ("gold", "bulk"))
            / sum(undefended[n].n_requests for n in ("gold", "bulk"))
        )
        assert attainment(d_gold) > blended, (attainment(d_gold), blended)

    def test_the_eval_is_deterministic(self):
        a = self.run_fleet(True)
        b = self.run_fleet(True)
        for name in ("gold", "bulk"):
            assert_serving_logs_equal(a[name], b[name])


# ------------------------------------------- guardrail under infrastructure faults
GOOD = BatchConfig(memory_mb=2048.0, batch_size=1, timeout=0.0)
BAD = BatchConfig(memory_mb=2048.0, batch_size=64, timeout=0.5)


class RecoveringChooser:
    """Serves BAD until the breaker trips, then GOOD: the half-open probe
    should succeed and the breaker close again."""

    def __init__(self):
        self.calls = 0

    def choose(self, history, slo):
        self.calls += 1
        return Decision(config=BAD if self.calls <= 1 else GOOD,
                        decision_time=0.0)


class TestGuardrailUnderFaults:
    """PR 10 satellite: the breaker's half-open probe must re-admit the
    controller while request faults are active and while an outage window
    is (or was) open — infrastructure trouble must not wedge it OPEN."""

    def trace(self, n=3000, lam=250.0):
        rng = np.random.default_rng(5)
        return np.cumsum(rng.exponential(1.0 / lam, size=n))

    def test_half_open_probe_restores_under_request_faults(self):
        platform = ServerlessPlatform(
            seed=9, faults=FaultModel(failure_rate=0.05))
        log = ServingEngine(
            BAD, platform=platform, chooser=RecoveringChooser(), slo=0.1,
            decision_interval_s=1.0,
            guardrail=GuardrailConfig(window=32, k=2, cooldown_s=2.0,
                                      probe_windows=2),
        ).run(self.trace())
        assert log.n_retries > 0  # the fault layer really was active
        assert log.guardrail_trips >= 1
        assert log.guardrail_restores >= 1
        assert log.guardrail_state == "closed"

    def test_half_open_probe_restores_across_an_outage_window(self):
        om = OutageModel(windows=(OutageWindow(2.0, 5.0),))
        log = ServingEngine(
            BAD, chooser=RecoveringChooser(), slo=0.1,
            decision_interval_s=1.0,
            pool=WarmPoolConfig(max_containers=4, max_queued_batches=8),
            outages=om,
            guardrail=GuardrailConfig(window=32, k=2, cooldown_s=2.0,
                                      probe_windows=2),
        ).run(self.trace())
        assert log.outage_denied > 0  # the window really did bite
        assert log.guardrail_trips >= 1
        assert log.guardrail_restores >= 1
        assert log.guardrail_state == "closed"
