"""Validated JSON fleet configuration (``repro serve --fleet fleet.json``).

The fleet CLI is driven by a config file instead of a kwargs explosion:
one JSON document declares the endpoints (name, initial ``(M, B, T)``,
SLO, traffic share, per-endpoint pool/controller knobs) and the
fleet-level settings (shared container budget, scheduler cadence). This
module is the hand-rolled schema for that document — every violation
raises :class:`~repro.serving.schema.ConfigError` with the *path* of the
offending field (``endpoints[1].slo: must be > 0``), which the CLI
converts into an ``exit 2`` error message. Unknown keys are rejected (a
typo'd knob must not silently become a no-op).

Example::

    {
      "max_containers": 6,
      "scheduler": {"interval_s": 5.0},
      "endpoints": [
        {"name": "chat",  "memory_mb": 2048, "batch_size": 8,
         "timeout": 0.05, "slo": 0.15, "share": 0.7},
        {"name": "embed", "memory_mb": 1024, "batch_size": 16,
         "timeout": 0.02, "slo": 0.05, "share": 0.3,
         "chooser": "batch", "decision_interval_s": 10.0}
      ]
    }

:func:`load_fleet_config` parses and validates; the resulting
:class:`FleetConfig` builds a ready :class:`~repro.serving.fleet
.FleetEngine` via :meth:`FleetConfig.build`, with hooks for the CLI to
supply per-endpoint platforms and choosers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from repro.batching.config import BatchConfig
from repro.serverless.outages import OutageModel
from repro.serving.config import GenerationConfig, PrewarmConfig
from repro.serving.degrade import (
    BrownoutConfig,
    DegradeConfig,
    FailoverConfig,
    validate_fleet_degrade,
    validate_outage_config,
)
from repro.serving.fleet import EndpointSpec, FleetEngine, FleetScheduler
from repro.serving.generation import validate_generation_config
from repro.serving.pool import WarmPoolConfig
from repro.serving.prewarm import EmpiricalRateForecaster
from repro.serving.schema import (
    ConfigError,
    as_object,
    check_keys,
    fail,
    integer,
    load_json,
    number,
)


#: Recognized chooser names (resolved by the caller's ``chooser_factory``).
CHOOSERS = ("none", "batch", "deepbat")

_TOP_KEYS = {"endpoints", "max_containers", "scheduler", "split_seed",
             "degrade"}
_SCHEDULER_KEYS = {"interval_s", "min_history"}
_ENDPOINT_KEYS = {
    "name", "memory_mb", "batch_size", "timeout", "slo", "percentile",
    "share", "chooser", "decision_interval_s", "keep_alive_s",
    "max_containers", "max_queued_batches", "prewarm", "generation",
    "priority", "outages",
}
_PREWARM_KEYS = {
    "interval_s", "horizon_s", "headroom", "max_per_tick", "retire", "window",
}


@dataclass(frozen=True)
class EndpointConfig:
    """One validated endpoint entry of the fleet config file."""

    name: str
    memory_mb: float
    batch_size: int
    timeout: float
    slo: float = 0.1
    percentile: float = 95.0
    share: float | None = None
    chooser: str = "none"
    decision_interval_s: float | None = None
    keep_alive_s: float = math.inf
    max_containers: int | None = None
    max_queued_batches: int | None = None
    #: Built from the endpoint's ``prewarm`` object. JSON cannot name a
    #: fitted arrival model, so file-driven prewarming always uses the
    #: windowed empirical forecaster; programmatic :class:`EndpointSpec`
    #: construction can pass any forecaster.
    prewarm: PrewarmConfig | None = None
    #: Built from the endpoint's ``generation`` object (the schema lives
    #: in :mod:`repro.serving.generation`); makes this endpoint serve the
    #: token-streaming workload instead of single-response requests.
    generation: GenerationConfig | None = None
    #: Brownout/failover tier: lower sheds first, higher fails over first.
    priority: int = 0
    #: Built from the endpoint's ``outages`` object (the schema lives in
    #: :mod:`repro.serving.degrade`): the lane's infrastructure-fault
    #: model plus its per-engine degradation stack.
    outages: OutageModel | None = None
    degrade: DegradeConfig | None = None


@dataclass(frozen=True)
class FleetConfig:
    """A validated fleet document, ready to build a :class:`FleetEngine`."""

    endpoints: tuple[EndpointConfig, ...]
    max_containers: int | None = None
    scheduler_interval_s: float | None = None
    scheduler_min_history: int = 32
    split_seed: int = 0
    brownout: BrownoutConfig | None = None
    failover: FailoverConfig | None = None

    def build(
        self,
        platform_factory: Callable | None = None,
        chooser_factory: Callable | None = None,
    ) -> FleetEngine:
        """Construct the :class:`FleetEngine` this config describes.

        ``platform_factory(endpoint_config)`` supplies each endpoint's
        :class:`ServerlessPlatform` (``None`` = platform defaults);
        ``chooser_factory(endpoint_config, platform)`` resolves the
        ``chooser`` name into a controller (``None`` = no controller,
        whatever the name — the library has no model registry).
        """
        specs = []
        for ep in self.endpoints:
            platform = platform_factory(ep) if platform_factory else None
            chooser = (
                chooser_factory(ep, platform)
                if chooser_factory and ep.chooser != "none" else None
            )
            specs.append(EndpointSpec(
                name=ep.name,
                config=BatchConfig(memory_mb=ep.memory_mb,
                                   batch_size=ep.batch_size,
                                   timeout=ep.timeout),
                slo=ep.slo,
                percentile=ep.percentile,
                platform=platform,
                chooser=chooser,
                decision_interval_s=ep.decision_interval_s,
                share=ep.share,
                pool=WarmPoolConfig(
                    keep_alive_s=ep.keep_alive_s,
                    max_containers=ep.max_containers,
                    max_queued_batches=ep.max_queued_batches,
                ),
                prewarm=ep.prewarm,
                generation=ep.generation,
                priority=ep.priority,
                outages=ep.outages,
                degrade=ep.degrade,
            ))
        scheduler = (
            FleetScheduler(min_history=self.scheduler_min_history)
            if self.scheduler_interval_s is not None else None
        )
        return FleetEngine(
            specs,
            max_containers=self.max_containers,
            scheduler=scheduler,
            scheduler_interval_s=self.scheduler_interval_s,
            split_seed=self.split_seed,
            brownout=self.brownout,
            failover=self.failover,
        )


# ------------------------------------------------------------- validation
def _prewarm(obj, path: str) -> PrewarmConfig:
    as_object(obj, path)
    check_keys(obj, _PREWARM_KEYS, path)
    retire = obj.get("retire", False)
    if not isinstance(retire, bool):
        fail(f"{path}.retire", f"must be a boolean, got {retire!r}")
    return PrewarmConfig(
        forecaster=EmpiricalRateForecaster(),
        interval_s=number(obj, "interval_s", path, default=1.0,
                          minimum=0.0, strict=True),
        horizon_s=number(obj, "horizon_s", path, minimum=0.0, strict=True,
                         nullable=True),
        headroom=number(obj, "headroom", path, default=1.0,
                        minimum=0.0, strict=True),
        max_per_tick=integer(obj, "max_per_tick", path, minimum=1,
                             nullable=True),
        retire=retire,
        window=integer(obj, "window", path, default=256, minimum=1),
    )


def _endpoint(obj, path: str) -> EndpointConfig:
    as_object(obj, path)
    check_keys(obj, _ENDPOINT_KEYS, path)
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        fail(f"{path}.name", "is required and must be a non-empty string")
    if "." in name:
        fail(f"{path}.name", f"must not contain '.', got {name!r} "
                              "(names namespace telemetry as serving.<name>.*)")
    chooser = obj.get("chooser", "none")
    if chooser not in CHOOSERS:
        fail(f"{path}.chooser", f"must be one of {list(CHOOSERS)}, "
                                 f"got {chooser!r}")
    share = number(obj, "share", path, minimum=0.0, strict=True)
    if share is not None and share > 1.0:
        fail(f"{path}.share", f"must be <= 1, got {share:g}")
    keep_alive = number(obj, "keep_alive_s", path, default=math.inf,
                        minimum=0.0)
    outages = degrade = None
    if obj.get("outages") is not None:
        outages, degrade = validate_outage_config(obj["outages"],
                                                  f"{path}.outages")
        if not outages.enabled:
            outages = None
    return EndpointConfig(
        name=name,
        memory_mb=number(obj, "memory_mb", path, required=True,
                         minimum=0.0, strict=True),
        batch_size=integer(obj, "batch_size", path, required=True, minimum=1),
        timeout=number(obj, "timeout", path, required=True, minimum=0.0),
        slo=number(obj, "slo", path, default=0.1, minimum=0.0, strict=True),
        percentile=number(obj, "percentile", path, default=95.0,
                          minimum=0.0, strict=True),
        share=share,
        chooser=chooser,
        decision_interval_s=number(obj, "decision_interval_s", path,
                                   minimum=0.0, strict=True, nullable=True),
        keep_alive_s=keep_alive,
        max_containers=integer(obj, "max_containers", path, minimum=1,
                               nullable=True),
        max_queued_batches=integer(obj, "max_queued_batches", path,
                                   minimum=0, nullable=True),
        prewarm=(
            _prewarm(obj["prewarm"], f"{path}.prewarm")
            if obj.get("prewarm") is not None else None
        ),
        generation=(
            validate_generation_config(obj["generation"],
                                       f"{path}.generation")
            if obj.get("generation") is not None else None
        ),
        priority=integer(obj, "priority", path, default=0),
        outages=outages,
        degrade=degrade,
    )


def validate_fleet_config(doc) -> FleetConfig:
    """Validate a parsed fleet document; raise :class:`ConfigError`."""
    if not isinstance(doc, dict):
        fail("fleet config", f"must be a JSON object, "
                              f"got {type(doc).__name__}")
    check_keys(doc, _TOP_KEYS, "fleet config")
    raw_endpoints = doc.get("endpoints")
    if not isinstance(raw_endpoints, list) or not raw_endpoints:
        fail("endpoints", "is required and must be a non-empty array")
    endpoints = tuple(
        _endpoint(ep, f"endpoints[{i}]") for i, ep in enumerate(raw_endpoints)
    )
    names = [ep.name for ep in endpoints]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        fail("endpoints", f"names must be unique; duplicated: {dupes}")
    percentile_out = [ep.name for ep in endpoints if ep.percentile > 100.0]
    if percentile_out:
        fail("endpoints", f"percentile must be <= 100 for: {percentile_out}")
    shares = [ep.share for ep in endpoints]
    if any(s is not None for s in shares) and any(s is None for s in shares):
        missing = [ep.name for ep in endpoints if ep.share is None]
        fail("endpoints", f"either every endpoint has a share or none does; "
                           f"missing on: {missing}")

    scheduler_interval = None
    scheduler_min_history = 32
    if "scheduler" in doc and doc["scheduler"] is not None:
        sched = doc["scheduler"]
        if not isinstance(sched, dict):
            fail("scheduler", f"must be an object, got {type(sched).__name__}")
        check_keys(sched, _SCHEDULER_KEYS, "scheduler")
        scheduler_interval = number(sched, "interval_s", "scheduler",
                                    required=True, minimum=0.0, strict=True)
        scheduler_min_history = integer(sched, "min_history", "scheduler",
                                        default=32, minimum=1)
    brownout = failover = None
    if doc.get("degrade") is not None:
        brownout, failover = validate_fleet_degrade(doc["degrade"], "degrade")
    return FleetConfig(
        endpoints=endpoints,
        max_containers=integer(doc, "max_containers", "fleet config",
                               minimum=1, nullable=True),
        scheduler_interval_s=scheduler_interval,
        scheduler_min_history=scheduler_min_history,
        split_seed=integer(doc, "split_seed", "fleet config", default=0,
                           minimum=0),
        brownout=brownout,
        failover=failover,
    )


def load_fleet_config(path: str | os.PathLike) -> FleetConfig:
    """Read and validate a fleet JSON file.

    Raises :class:`ConfigError` with an actionable, path-qualified
    message on any problem — unreadable file, invalid JSON, or a schema
    violation.
    """
    return validate_fleet_config(load_json(path))
