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
#: The scalars of the behaviour digest: every one but ``n_events``, which
#: counts the events the loop processed (a property of the loop, not of
#: the simulated run).
BEHAVIOUR_FIELDS = tuple(f for f in SCALAR_FIELDS if f != "n_events")


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


def update_log(h, log, scalars=SCALAR_FIELDS) -> None:
    for name in ARRAY_FIELDS + OPTIONAL_ARRAY_FIELDS:
        a = getattr(log, name)
        h.update(name.encode())
        if a is None:
            h.update(b"None")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    for name in scalars:
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


def digest(*logs, scalars=SCALAR_FIELDS) -> str:
    h = hashlib.sha256()
    for log in logs:
        update_log(h, log, scalars)
    return h.hexdigest()


def behaviour_digest(*logs) -> str:
    """:func:`digest` without ``n_events``: equal for two loops that
    simulate the same run however many events each processes."""
    return digest(*logs, scalars=BEHAVIOUR_FIELDS)


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


#: The admission budget of :func:`run_gen_budget`.
GEN_BUDGET = 256


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


def run_gen_budget():
    """A ``max_batch_tokens`` budget that some footprints exceed alone:
    those requests join only an empty batch and run by themselves."""
    gen = GenerationConfig(
        dispatcher="continuous",
        length_model=TokenLengthModel(prompt_mean=64.0, output_mean=8.0),
        max_batch_tokens=GEN_BUDGET,
    )
    return ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=13),
        pool=WarmPoolConfig(max_containers=4), generation=gen,
    ).run(poisson(300.0, 1500, 13), name="gen-budget", record_trace=True)


def run_gen_one_token():
    """``output_mean = 1``: every request is prefilled and finished at
    the same iteration boundary, and no session ever decodes."""
    gen = GenerationConfig(dispatcher="continuous",
                           length_model=TokenLengthModel(output_mean=1.0))
    return ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=14),
        pool=WarmPoolConfig(max_containers=4), generation=gen,
    ).run(poisson(300.0, 1500, 14), name="gen-one-token", record_trace=True)


def run_gen_guardrail():
    """A TTFT objective watched by the guardrail, which trips, deploys
    ``B = 4`` for the sessions opened after it, and restores, mid-run."""
    gen = GenerationConfig(
        dispatcher="continuous",
        length_model=TokenLengthModel(prompt_mean=64.0, output_mean=8.0),
        ttft_slo=0.015,
    )
    return ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=15),
        pool=WarmPoolConfig(max_containers=8), generation=gen,
        guardrail=GuardrailConfig(window=32, k=2, cooldown_s=1.0,
                                  fallback=BatchConfig(2048.0, 4, 0.05)),
    ).run(poisson(200.0, 1500, 15), name="gen-guardrail", record_trace=True)


def run_checkpoint(tmp_path):
    log, kills = run_with_crashes(
        outage_engine, uniform(1, 400, 30.0), tmp_path / "golden.ckpt",
        n_crashes=3, seed=5, record_trace=True, name="checkpoint",
    )
    assert kills, "the drill must actually kill the engine"
    return log


class FlipChooser(AlternatingChooser):
    """Flips ``(B, T)`` between ``(8, 0.05)`` and ``(16, 0.02)``."""

    CONFIGS = (CONFIG, BatchConfig(memory_mb=2048.0, batch_size=16,
                                   timeout=0.02))


def run_unbuffered():
    """``B = 1`` with ``T = 0``: every arrival leaves alone, at once."""
    return ServingEngine(BatchConfig(2048.0, 1, 0.0),
                         platform=ServerlessPlatform(seed=8)).run(
        poisson(300.0, 1000, 8), name="unbuffered", record_trace=True)


def run_grid():
    """Arrivals on a 1/64 s grid with ``T = 4/64`` s: arrivals tie with
    each other and land exactly on head deadlines."""
    ts = np.ceil(poisson(100.0, 1500, 10) * 64.0) / 64.0
    return ServingEngine(BatchConfig(2048.0, 8, 0.0625),
                         platform=ServerlessPlatform(seed=10)).run(
        ts, name="grid", record_trace=True)


class GridFlipChooser(AlternatingChooser):
    """Flips ``(B, T)`` between ``(8, 4/64)`` and ``(16, 2/64)``."""

    CONFIGS = (BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.0625),
               BatchConfig(memory_mb=2048.0, batch_size=16,
                           timeout=0.03125))


def run_grid_flip():
    """:func:`run_grid`'s arrivals with ``(B, T)`` flipping every 0.5 s
    after a 0.25 s deploy lag: reconfigurations land on arrival instants
    and go before them."""
    ts = np.ceil(poisson(100.0, 1500, 10) * 64.0) / 64.0
    return ServingEngine(
        GridFlipChooser.CONFIGS[0], platform=ServerlessPlatform(seed=10),
        chooser=GridFlipChooser(), decision_interval_s=0.5,
        deploy_delay_s=0.25, min_history=16,
    ).run(ts, name="grid-flip", record_trace=True)


def run_flip(tmp_path):
    """``(B, T)`` flipping every 0.5 s with a deploy lag, drift checks
    every 7 arrivals and a snapshot every 5 events."""
    detector = WorkloadDriftDetector().fit(np.diff(poisson(400.0, 2000, 11)),
                                           32)
    return ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=12),
        chooser=FlipChooser(), decision_interval_s=0.5, deploy_delay_s=0.1,
        min_history=16,
        drift=DriftConfig(detector=detector, window=32, check_every=7,
                          cooldown_s=1.0),
    ).run(poisson(400.0, 2000, 12), name="flip", record_trace=True,
          checkpoint_path=tmp_path / "flip.ckpt", checkpoint_every=5)


# ----------------------------------------------------------------- digests
GOLDEN = {
    "plain":
        "2f1d3e194003a1bbd4b13d3536c379f5cda3014e1d7a43c8b6617d479bc0fd62",
    "plain-limited":
        "597793f1348bb50cff81b8b4453d907f443c2e04ab725152efdf5fe4747b415d",
    "faults":
        "bba016f4ae10f287c9fc0f05774a117b6fef78a157a56f34de7f32ff0a3531c1",
    "outages":
        "5d4f8fc660d2538b68f85125bee103cbb0ff477e672e657b9ffc8aa1171c7e4c",
    "control-plane":
        "2728d6cff18855f0830586d9e78cccc6c76d669d7e0f7ce9351a8cadce2e50b8",
    "fleet":
        "e75b5addaca7210bf1128fe9e6b89577b0966b66d9230b1d2a85b008965aed35",
    "gen-buffer":
        "5ae0dcc711eb7d8d53d5755c70513d9dcf800ed4c09021881f9ca6995fb2d6b3",
    "gen-continuous":
        "20b0f6ccb0757e34d1978f993853479f278b274b94a0422073910d840371d6df",
    "gen-budget":
        "8a9ed72c037e22b77cf01daea9699f161ee73105d9288aefd58a2de8c841e4bc",
    "gen-one-token":
        "b8ac4afe5556ee502e9d85126d3328ac40576f618b66368a315db3fadef1d589",
    "gen-guardrail":
        "5dd0b0b8a4365b98142000e59d9e31751ed86bd53728501cfeeccca5f7e61146",
    "checkpoint":
        "d1de56e0c626afde8e1fe6ee96db6af31ae97cf0d51d01f944c65ecdcd64fcca",
}

#: :func:`behaviour_digest` of the single-engine scenarios: the engine may
#: process fewer events for the same run, never simulate a different one.
BEHAVIOUR = {
    "plain":
        "9d6bd9b67f8ddf38d69cb8fcd55cdb4e9d7b86320dcd4e3e3f49154f4fc52596",
    "plain-limited":
        "b12b8ba675ba931f0621db14324ad9eb7894077c640f28bfc06dc9b03b3cacfd",
    "faults":
        "fd0a30c853b3e4c005992c1da93f7601ec288a1f0f2a3a47a76de73902f20237",
    "control-plane":
        "a47eb3c7344bc69b87c168b0c5706644faa628aa6fe4f026330ef92f67660ea8",
    "gen-buffer":
        "a704abde9dbf4bd69bd6b18b3671240eeb2f6eb6686918f32b65f92221cbe919",
    "gen-continuous":
        "0bafbe7fc62aa5d31c5f065d1d422545795a0859d42f7ae1a27663536f03556a",
    "gen-budget":
        "ad0e38dd7f7660f3953209737104aa00c7c741090eaee5412cf94bc06c51e6bb",
    "gen-one-token":
        "8acd4cd8f616abd14663d0af5cabb88c7377831d20bbc0eedd6334184f21d9d7",
    "gen-guardrail":
        "55c50ad0d34b0a36cc458b3a08e17a374f86decf118cf10a28a2f823decd7649",
    "checkpoint":
        "16d14647689bd456e818dd6f15988021e448bc20022f231218181efad76bc59c",
    "unbuffered":
        "226c277c9aeccaf7a9a62c54abafe89937ae3eeccb14ba3e142b6fead162d606",
    "grid":
        "e3bcf28a666e7414888ef45af7b1da13696cee67e7151247fed23fba934d2d66",
    "flip":
        "2d2632c6720c2c9e674a60392bbd76273a685c7dc5fe5c3a7817bd314e1155c8",
    "grid-flip":
        "6b2375a705f36a7411ebb5bc02b24bfceecf19e87cd2e9c90421a0226eaf529e",
}


class TestGoldenDigests:
    def test_plain(self):
        log = run_plain()
        assert digest(log) == GOLDEN["plain"]
        assert behaviour_digest(log) == BEHAVIOUR["plain"]

    def test_plain_with_concurrency_limit(self):
        log = run_plain_limited()
        assert log.cold_starts == 3
        assert digest(log) == GOLDEN["plain-limited"]
        assert behaviour_digest(log) == BEHAVIOUR["plain-limited"]

    def test_platform_faults_with_retries(self):
        log = run_faults()
        assert log.n_retries > 0 and log.n_failed > 0
        assert digest(log) == GOLDEN["faults"]
        assert behaviour_digest(log) == BEHAVIOUR["faults"]

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
        assert behaviour_digest(log) == BEHAVIOUR["control-plane"]

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
        assert behaviour_digest(log) == BEHAVIOUR["gen-buffer"]

    def test_generation_continuous_dispatcher(self):
        log = run_gen_continuous()
        assert log.gen_sessions > 0
        assert digest(log) == GOLDEN["gen-continuous"]
        assert behaviour_digest(log) == BEHAVIOUR["gen-continuous"]

    def test_continuous_budget_runs_oversized_requests_alone(self):
        log = run_gen_budget()
        oversized = log.prompt_tokens + log.output_tokens > GEN_BUDGET
        assert oversized.any() and not oversized.all()
        assert np.isfinite(log.latencies[oversized]).all()
        assert digest(log) == GOLDEN["gen-budget"]
        assert behaviour_digest(log) == BEHAVIOUR["gen-budget"]

    def test_continuous_one_token_requests(self):
        log = run_gen_one_token()
        assert (log.output_tokens == 1).all()
        assert log.gen_decode_iterations == 0 and log.gen_sessions > 1
        np.testing.assert_array_equal(log.ttft, log.latencies)
        assert digest(log) == GOLDEN["gen-one-token"]
        assert behaviour_digest(log) == BEHAVIOUR["gen-one-token"]

    def test_continuous_guardrail_trips_mid_run(self):
        log = run_gen_guardrail()
        assert log.guardrail_trips > 0 and log.guardrail_restores > 0
        assert log.reconfigurations > 0
        trips = [d.time for d in log.decisions if d.reason == "guardrail"]
        assert log.arrival_times[0] < trips[0] < log.arrival_times[-1]
        assert digest(log) == GOLDEN["gen-guardrail"]
        assert behaviour_digest(log) == BEHAVIOUR["gen-guardrail"]

    def test_checkpoint_kill_restore(self, tmp_path):
        log = run_checkpoint(tmp_path)
        assert digest(log) == GOLDEN["checkpoint"]
        assert behaviour_digest(log) == BEHAVIOUR["checkpoint"]

    def test_unbuffered_zero_timeout(self):
        log = run_unbuffered()
        assert (log.batch_sizes == 1).all()
        assert behaviour_digest(log) == BEHAVIOUR["unbuffered"]

    def test_arrivals_on_deadlines(self):
        log = run_grid()
        timed_out = log.batch_sizes < 8
        assert not timed_out.all()
        # Timeout batches that left at the very instant of an arrival.
        assert np.isin(log.dispatch_times[timed_out], log.arrival_times).any()
        assert behaviour_digest(log) == BEHAVIOUR["grid"]

    def test_config_flipping_on_arrival_instants(self):
        log = run_grid_flip()
        applied = [d.applied_at for d in log.decisions
                   if d.applied_at is not None]
        assert np.isin(applied, log.arrival_times).any()
        assert behaviour_digest(log) == BEHAVIOUR["grid-flip"]

    def test_flipping_config_with_drift_checks_and_snapshots(self, tmp_path):
        log = run_flip(tmp_path)
        assert log.reconfigurations > 0 and log.drift_triggers > 0
        assert (log.batch_sizes > 8).any()
        assert behaviour_digest(log) == BEHAVIOUR["flip"]
