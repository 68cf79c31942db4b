"""Live serving runtime: a deterministic discrete-event engine.

:mod:`repro.serving` drives the repo's existing components — the online
:class:`~repro.batching.buffer.BatchingBuffer`, the
:class:`~repro.serverless.platform.ServerlessPlatform` (faults included),
and any ``Chooser`` — as one live system with warm-pool keep-alive, deploy
lag, admission control, and drift-triggered re-decisions. With all of those
turned off it reproduces :func:`repro.batching.simulator.simulate`
bit-for-bit; see :mod:`repro.serving.engine`.

PR 5 adds the reliability layer: crash-safe checkpoint/restore with an
event journal (:mod:`repro.serving.checkpoint`), an SLO circuit breaker
around the learned controller (:mod:`repro.serving.guardrail`), and the
chaos harness that proves kill-and-restore is bit-identical
(:mod:`repro.serving.chaos`).

PR 6 generalizes the engine into a fleet: grouped config dataclasses
(:mod:`repro.serving.config`), multi-endpoint serving under a shared
container budget with an SLO-aware cross-tenant scheduler
(:mod:`repro.serving.fleet`), and a validated JSON fleet-config loader
(:mod:`repro.serving.fleet_config`).

PR 8 adds predictive warm-pool prewarming
(:mod:`repro.serving.prewarm`): a periodic policy forecasts the
near-future arrival rate from the fitted arrival models and provisions or
retires warm containers ahead of demand, with an oracle upper bound for
honest evaluation.

PR 9 adds the token-streaming generation workload: a prefill/decode
service model (:mod:`repro.serverless.generation`), iteration-level
continuous batching (:mod:`repro.batching.continuous`) wired into the
engine via :class:`~repro.serving.config.GenerationConfig`, goodput and
TTFT/TPOT SLOs on the log, and a validated JSON loader
(:mod:`repro.serving.generation`).

PR 10 adds correlated infrastructure faults and the graceful-degradation
stack: seeded outage windows, mid-batch container crashes, and straggler
containers (:mod:`repro.serverless.outages`) threaded through the engine
as first-class events, answered by cold-start retry with capped backoff,
percentile-delay request hedging, fleet-level brownout (priority
shedding), and queue failover to compatible endpoints
(:mod:`repro.serving.degrade`).
"""

from repro.serving.chaos import (
    SimulatedCrash,
    assert_serving_logs_equal,
    run_with_crashes,
)
from repro.serving.checkpoint import (
    CheckpointError,
    Journal,
    JournalReplayError,
    journal_path,
    read_snapshot,
    write_snapshot,
)
from repro.serving.config import (
    DriftConfig,
    GenerationConfig,
    PredictionDriftConfig,
    PrewarmConfig,
)
from repro.serving.degrade import (
    BrownoutConfig,
    DegradeConfig,
    FailoverConfig,
    HedgeConfig,
    load_outage_config,
    validate_fleet_degrade,
    validate_outage_config,
)
from repro.serving.engine import ServingEngine
from repro.serving.fleet import (
    EndpointSpec,
    FleetBudget,
    FleetEngine,
    FleetLog,
    FleetScheduler,
    split_by_shares,
)
from repro.serving.fleet_config import load_fleet_config
from repro.serving.generation import (
    load_generation_config,
    validate_generation_config,
)
from repro.serving.guardrail import GuardrailConfig, SLOGuardrail
from repro.serving.log import ServingDecision, ServingLog
from repro.serving.pool import Lease, PoolStats, WarmPool, WarmPoolConfig
from repro.serving.prewarm import (
    EmpiricalRateForecaster,
    MAPRateForecaster,
    NHPPRateForecaster,
    OracleForecaster,
    PrewarmPlan,
    PrewarmPolicy,
    RateForecaster,
)
from repro.serving.schema import ConfigError

__all__ = [
    "BrownoutConfig",
    "CheckpointError",
    "ConfigError",
    "DegradeConfig",
    "DriftConfig",
    "EmpiricalRateForecaster",
    "EndpointSpec",
    "FailoverConfig",
    "FleetBudget",
    "FleetEngine",
    "FleetLog",
    "FleetScheduler",
    "GenerationConfig",
    "GuardrailConfig",
    "HedgeConfig",
    "MAPRateForecaster",
    "NHPPRateForecaster",
    "OracleForecaster",
    "PredictionDriftConfig",
    "PrewarmConfig",
    "PrewarmPlan",
    "PrewarmPolicy",
    "Journal",
    "JournalReplayError",
    "Lease",
    "PoolStats",
    "RateForecaster",
    "SLOGuardrail",
    "ServingDecision",
    "ServingEngine",
    "ServingLog",
    "SimulatedCrash",
    "WarmPool",
    "WarmPoolConfig",
    "assert_serving_logs_equal",
    "journal_path",
    "load_fleet_config",
    "load_generation_config",
    "load_outage_config",
    "split_by_shares",
    "read_snapshot",
    "run_with_crashes",
    "validate_fleet_degrade",
    "validate_generation_config",
    "validate_outage_config",
    "write_snapshot",
]
