"""Golden digests: absolute outputs of the serving engine, pinned.

The equivalence suites compare the engine against itself (checkpointed
run vs plain run of the same loop, heap-merged fleet vs scan, restored vs
uninterrupted).
They cannot notice a change that moves every path the same way. This
file pins the *absolute* outputs instead: a sha256 over the event trace,
the per-request columns, the batch columns, the decisions and every
scalar ``ServingLog`` counter, for a fixed seeded scenario matrix.

A digest here changes only by a hand edit, in a commit whose message
says which behaviour changed and why. There is deliberately no
regenerate helper.
"""

import hashlib

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.drift import WorkloadDriftDetector
from repro.core.types import Decision
from repro.serverless.faults import FaultModel, RetryPolicy
from repro.serverless.generation import TokenLengthModel
from repro.serverless.outages import (
    CrashHazard,
    OutageModel,
    OutageWindow,
    StragglerModel,
)
from repro.serverless.platform import ServerlessPlatform
from repro.serving import (
    BrownoutConfig,
    DegradeConfig,
    DriftConfig,
    EndpointSpec,
    FailoverConfig,
    FleetEngine,
    GuardrailConfig,
    HedgeConfig,
    ServingEngine,
    WarmPoolConfig,
    run_with_crashes,
)
from repro.serving.config import GenerationConfig, PrewarmConfig
from repro.serving.prewarm import EmpiricalRateForecaster

pytestmark = [pytest.mark.serving, pytest.mark.golden]

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)

#: The per-request and per-batch columns every digest covers.
ARRAY_FIELDS = (
    "arrival_times", "latencies", "shed", "failed", "dispatch_times",
    "start_times", "batch_sizes", "batch_costs", "batch_cold",
    "batch_memory", "batch_retries",
)
#: Present only when a feature allocates them (``None`` otherwise).
OPTIONAL_ARRAY_FIELDS = ("hedged", "failed_over", "ttft", "tpot",
                         "prompt_tokens", "output_tokens")
#: Every scalar counter of a ``ServingLog``: the chaos comparator's list
#: plus the prewarm and generation counts.
SCALAR_FIELDS = (
    "name", "trace", "slo", "reconfigurations", "drift_triggers",
    "prediction_drift_triggers", "retrains", "shed_batches",
    "cold_starts", "warm_starts", "expired_containers",
    "evicted_containers", "n_retries", "n_failed", "sequence_length",
    "n_events", "guardrail_trips", "guardrail_restores",
    "guardrail_probes", "guardrail_suppressed", "guardrail_state",
    "outage_denied", "crashed_containers", "crash_requeued",
    "straggler_batches", "cold_retries", "cold_retry_exhausted",
    "hedges", "hedge_wins", "hedge_denied", "hedge_cost",
    "brownout_shed", "failover_batches",
    "prewarmed_containers", "prewarm_retired", "prewarm_ticks",
    "prewarm_cost", "gen_sessions", "gen_prefill_iterations",
    "gen_decode_iterations", "gen_tokens", "gen_shed",
)


# ------------------------------------------------------------------ digest
def canon(x) -> str:
    """A numpy-version-independent text form: floats as exact hex."""
    if x is None:
        return "None"
    if isinstance(x, (bool, np.bool_)):
        return "T" if x else "F"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, str):
        return repr(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    return repr(x)


def update_log(h, log) -> None:
    for name in ARRAY_FIELDS + OPTIONAL_ARRAY_FIELDS:
        a = getattr(log, name)
        h.update(name.encode())
        if a is None:
            h.update(b"None")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    for name in SCALAR_FIELDS:
        h.update(f"{name}={canon(getattr(log, name))};".encode())
    for d in log.decisions:
        # decision_time is a wall-clock measurement; everything else is
        # simulated and deterministic.
        h.update(canon((d.time, d.reason, str(d.config), d.degraded,
                        d.applied_at, d.predicted_p95)).encode())
    trace = log.event_trace
    h.update(b"trace:" + (b"None" if trace is None else b""))
    for event in trace or ():
        h.update(canon(event).encode() + b"\n")


def digest(*logs) -> str:
    h = hashlib.sha256()
    for log in logs:
        update_log(h, log)
    return h.hexdigest()


def fleet_digest(fleet_log) -> str:
    """:func:`digest` over every lane in spec order, plus the per-row cold
    delay and service columns and the fleet's applied scheduler plans."""
    h = hashlib.sha256()
    for name in fleet_log.endpoints:
        log = fleet_log[name]
        update_log(h, log)
        h.update(log.batch_cold_delay.tobytes() + log.batch_service.tobytes())
    h.update(f"fleet_decisions={canon(fleet_log.fleet_decisions)};".encode())
    return h.hexdigest()


# --------------------------------------------------------------- scenarios
def poisson(lam, n, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / lam, size=n))


def uniform(seed, n, horizon):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, horizon, n))


OUTAGES = OutageModel(
    windows=(OutageWindow(10.0, 15.0),),
    crash=CrashHazard(rate=0.01, outage_rate=0.1),
    straggler=StragglerModel(rate=0.2, slowdown=3.0),
    seed=3,
)
DEGRADE = DegradeConfig(
    backoff=RetryPolicy(max_attempts=4, base_backoff_s=0.2,
                        max_total_delay_s=3.0),
    hedge=HedgeConfig(percentile=75.0, multiplier=1.0),
)


def outage_engine():
    return ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=3),
        pool=WarmPoolConfig(max_containers=4, max_queued_batches=8),
        outages=OUTAGES, degrade=DEGRADE,
    )


class AlternatingChooser:
    """Flips between two configurations on every call."""

    CONFIGS = (
        BatchConfig(memory_mb=2048.0, batch_size=4, timeout=0.02),
        BatchConfig(memory_mb=3008.0, batch_size=16, timeout=0.1),
    )

    def __init__(self):
        self.calls = 0

    def choose(self, history, slo):
        self.calls += 1
        return Decision(config=self.CONFIGS[self.calls % 2],
                        decision_time=0.0)


def run_plain():
    return ServingEngine(CONFIG, platform=ServerlessPlatform(seed=1)).run(
        poisson(300.0, 2000, 0), name="plain", record_trace=True)


def run_plain_limited():
    platform = ServerlessPlatform(seed=1, concurrency_limit=3)
    return ServingEngine(CONFIG, platform=platform).run(
        poisson(600.0, 2000, 1), name="limited", record_trace=True)


def run_faults():
    platform = ServerlessPlatform(
        seed=2, faults=FaultModel(failure_rate=0.3),
        retry_policy=RetryPolicy(max_attempts=2),
    )
    return ServingEngine(CONFIG, platform=platform).run(
        poisson(300.0, 2000, 2), name="faults", record_trace=True)


def run_outages():
    return outage_engine().run(uniform(0, 400, 30.0), name="outages",
                               record_trace=True)


def run_control_plane():
    detector = WorkloadDriftDetector().fit(np.diff(poisson(100.0, 2000, 9)),
                                           32)
    calm = poisson(100.0, 800, 4)
    ts = np.concatenate([calm, calm[-1] + poisson(500.0, 1500, 5)])
    return ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=4),
        chooser=AlternatingChooser(), decision_interval_s=1.0,
        deploy_delay_s=0.25, min_history=16,
        pool=WarmPoolConfig(keep_alive_s=0.5, max_containers=6,
                            max_queued_batches=20),
        drift=DriftConfig(detector=detector, window=32, check_every=16,
                          cooldown_s=2.0, retrain_delay_s=0.5,
                          on_retrain=lambda recent: None),
        guardrail=GuardrailConfig(window=32, k=2, cooldown_s=2.0),
        prewarm=PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                              interval_s=0.5, retire=True),
    ).run(ts, name="control", record_trace=True)


def fleet_specs():
    pool = WarmPoolConfig(max_containers=2, max_queued_batches=12,
                          keep_alive_s=1.0)
    return [
        EndpointSpec(name="gold", config=BatchConfig(2048.0, 4, 0.01),
                     slo=0.25, priority=2, pool=pool,
                     platform=ServerlessPlatform(seed=11),
                     outages=OUTAGES, degrade=DEGRADE),
        EndpointSpec(name="silver", config=BatchConfig(2048.0, 8, 0.05),
                     slo=0.5, priority=1, pool=pool,
                     platform=ServerlessPlatform(
                         seed=12, faults=FaultModel(failure_rate=0.1),
                         retry_policy=RetryPolicy(max_attempts=2))),
        EndpointSpec(name="bronze", config=BatchConfig(2048.0, 8, 0.05),
                     slo=1.0, priority=0, pool=pool,
                     platform=ServerlessPlatform(seed=13),
                     outages=OutageModel(
                         straggler=StragglerModel(rate=0.5, slowdown=2.0),
                         seed=4)),
        EndpointSpec(name="tin", config=BatchConfig(1024.0, 16, 0.1),
                     slo=1.0, priority=0, pool=pool,
                     platform=ServerlessPlatform(seed=14)),
    ]


def run_fleet():
    traffic = {
        "gold": uniform(20, 1500, 20.0),
        "silver": uniform(21, 8000, 20.0),
        "bronze": uniform(22, 300, 20.0),
        "tin": uniform(23, 3000, 20.0),
    }
    log = FleetEngine(
        fleet_specs(), max_containers=3,
        brownout=BrownoutConfig(max_total_queued=4),
        failover=FailoverConfig(min_queue=2),
    ).run(traffic, name="fleet", record_trace=True)
    return [log[spec.name] for spec in fleet_specs()]


def run_gen_buffer():
    gen = GenerationConfig(dispatcher="buffer",
                           length_model=TokenLengthModel(output_mean=8.0))
    return ServingEngine(CONFIG, platform=ServerlessPlatform(seed=6),
                         generation=gen).run(
        poisson(200.0, 1500, 6), name="gen-buffer", record_trace=True)


def run_gen_continuous():
    gen = GenerationConfig(
        dispatcher="continuous",
        length_model=TokenLengthModel(prompt_mean=64.0, output_mean=8.0),
        ttft_slo=0.05, max_waiting=16,
    )
    return ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=7),
        pool=WarmPoolConfig(max_containers=4), generation=gen,
    ).run(poisson(300.0, 1500, 7), name="gen-continuous", record_trace=True)


def run_checkpoint(tmp_path):
    log, kills = run_with_crashes(
        outage_engine, uniform(1, 400, 30.0), tmp_path / "golden.ckpt",
        n_crashes=3, seed=5, record_trace=True, name="checkpoint",
    )
    assert kills, "the drill must actually kill the engine"
    return log


# ----------------------------------------------------------------- digests
GOLDEN = {
    "plain":
        "6db4f6446a2e2801573b70042a4aadc86c510509f8bd95c6e9651efe795e292e",
    "plain-limited":
        "0d2313d0d75dcfba3119f7cf60d75f2024db01c9c79585cbf0199dd578600b6c",
    "faults":
        "1186c77a2e75b83c29c122f3d543a42347b43694b856de5903115ee9260c5244",
    "outages":
        "afcd2c1f6b1a54c862b0e3487b29225ff309de04ca5a25b46a2c8ba30b10f934",
    "control-plane":
        "6766c09de836d0109c92c5fefd4620b1c988622ceccd3671a9d70a5191339ddd",
    "fleet":
        "b6cf863d86f7363c78f7b0144a555121dcf197f47089caee56627317c88ebbce",
    "gen-buffer":
        "1947b7fc8fb16c0b813dc1a56f0a7f582e1a019fb688be842e7fb671fafd1a9d",
    "gen-continuous":
        "20b0f6ccb0757e34d1978f993853479f278b274b94a0422073910d840371d6df",
    "checkpoint":
        "fcbb200c9727d059b08a535ff7cbf7dee89afedc1d52a6e9018bb7e6df3317cb",
}


class TestGoldenDigests:
    def test_plain(self):
        assert digest(run_plain()) == GOLDEN["plain"]

    def test_plain_with_concurrency_limit(self):
        log = run_plain_limited()
        assert log.cold_starts == 3
        assert digest(log) == GOLDEN["plain-limited"]

    def test_platform_faults_with_retries(self):
        log = run_faults()
        assert log.n_retries > 0 and log.n_failed > 0
        assert digest(log) == GOLDEN["faults"]

    def test_outages_crash_stragglers_backoff_hedging(self):
        log = run_outages()
        assert log.crashed_containers > 0 and log.straggler_batches > 0
        assert log.cold_retries > 0 and log.hedge_wins > 0
        assert digest(log) == GOLDEN["outages"]

    def test_control_plane(self):
        log = run_control_plane()
        assert log.reconfigurations > 0 and log.drift_triggers > 0
        assert log.retrains > 0 and log.prewarm_ticks > 0
        assert digest(log) == GOLDEN["control-plane"]

    def test_fleet_budget_brownout_failover(self):
        logs = run_fleet()
        assert sum(log.failover_batches for log in logs) > 0
        assert sum(log.brownout_shed for log in logs) > 0
        assert sum(log.evicted_containers for log in logs) > 0
        assert digest(*logs) == GOLDEN["fleet"]

    def test_generation_buffer_dispatcher(self):
        log = run_gen_buffer()
        assert log.gen_decode_iterations > 0
        assert digest(log) == GOLDEN["gen-buffer"]

    def test_generation_continuous_dispatcher(self):
        log = run_gen_continuous()
        assert log.gen_sessions > 0
        assert digest(log) == GOLDEN["gen-continuous"]

    def test_checkpoint_kill_restore(self, tmp_path):
        assert digest(run_checkpoint(tmp_path)) == GOLDEN["checkpoint"]
