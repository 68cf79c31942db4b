"""Validated JSON fleet configuration (``repro serve --fleet fleet.json``).

The fleet CLI is driven by a config file instead of a kwargs explosion:
one JSON document declares the endpoints (name, initial ``(M, B, T)``,
SLO, traffic share, per-endpoint pool/controller knobs) and the
fleet-level settings (shared container budget, scheduler cadence). Each
endpoint entry is an :class:`~repro.serving.fleet.EndpointSpec` with the
fields of its ``config`` (:class:`~repro.batching.config.BatchConfig`)
and ``pool`` (:class:`~repro.serving.pool.WarmPoolConfig`) flattened
into it, plus a ``chooser`` name; ``max_containers`` and ``split_seed``
are :class:`~repro.serving.fleet.FleetEngine` arguments. This module
builds them with :func:`~repro.serving.schema.build`, so each rule is the
dataclass's own — every violation raises
:class:`~repro.serving.schema.ConfigError` with the *path* of the
offending field (``endpoints[1].slo: must be > 0, got 0.0``), which the
CLI converts into an ``exit 2`` error message. Unknown keys are rejected
(a typo'd knob must not silently become a no-op).

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

import os
from dataclasses import dataclass, fields, replace
from typing import Callable

from repro.batching.config import BatchConfig
from repro.serving.config import PrewarmConfig
from repro.serving.degrade import (
    BrownoutConfig,
    FailoverConfig,
    validate_fleet_degrade,
    validate_outage_config,
)
from repro.serving.fleet import EndpointSpec, FleetEngine, FleetScheduler
from repro.serving.generation import validate_generation_config
from repro.serving.pool import WarmPoolConfig
from repro.serving.prewarm import EmpiricalRateForecaster
from repro.serving.schema import (
    DEFAULT,
    as_object,
    build,
    fail,
    load_json,
    number,
)


#: Recognized chooser names (resolved by the caller's ``chooser_factory``).
CHOOSERS = ("none", "batch", "deepbat")


@dataclass(frozen=True)
class FleetConfig:
    """A validated fleet document, ready to build a :class:`FleetEngine`.

    ``endpoints`` are the specs as the document declares them (no
    platform, no chooser); ``choosers`` holds each one's chooser name
    (one of :data:`CHOOSERS`), resolved by :meth:`build`.
    """

    endpoints: tuple[EndpointSpec, ...]
    choosers: tuple[str, ...]
    max_containers: int | None
    scheduler_interval_s: float | None
    #: The scheduler's ``min_history``; ``None`` without a scheduler.
    scheduler_min_history: int | None
    split_seed: int
    brownout: BrownoutConfig | None
    failover: FailoverConfig | None

    def build(
        self,
        platform_factory: Callable | None = None,
        chooser_factory: Callable | None = None,
    ) -> FleetEngine:
        """Construct the :class:`FleetEngine` this config describes.

        ``platform_factory(spec)`` supplies each endpoint's
        :class:`ServerlessPlatform` (``None`` = platform defaults);
        ``chooser_factory(spec, platform)`` resolves the chooser name
        into a controller (``None`` = no controller, whatever the name —
        the library has no model registry). Both factories see the
        endpoint's spec with ``chooser`` set to its chooser name.
        """
        specs = []
        for spec, name in zip(self.endpoints, self.choosers):
            named = replace(spec, chooser=name)
            platform = platform_factory(named) if platform_factory else None
            chooser = (
                chooser_factory(named, platform)
                if chooser_factory and name != "none" else None
            )
            specs.append(replace(spec, platform=platform, chooser=chooser))
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
def _endpoint(obj, path: str) -> tuple[EndpointSpec, str]:
    """One endpoint entry: its :class:`EndpointSpec` and chooser name.

    The entry is flat: the keys of the spec's ``config``
    (:class:`BatchConfig`) and ``pool`` (:class:`WarmPoolConfig`) sit
    beside its own. JSON cannot name a fitted arrival model, so
    ``prewarm`` always uses the windowed empirical forecaster.
    """
    obj = as_object(obj, path)
    chooser = obj.get("chooser", "none")
    if chooser not in CHOOSERS:
        fail(f"{path}.chooser", f"must be one of {list(CHOOSERS)}, "
                                 f"got {chooser!r}")
    flat, flat_keys = {}, []
    for field, cls in (("config", BatchConfig), ("pool", WarmPoolConfig)):
        keys = [f.name for f in fields(cls)]
        flat[field] = build(cls, {k: obj[k] for k in keys if k in obj}, path)
        flat_keys += keys
    prewarm = generation = outages = degrade = None
    if obj.get("prewarm") is not None:
        prewarm = build(PrewarmConfig, obj["prewarm"], f"{path}.prewarm",
                        forecaster=EmpiricalRateForecaster())
    if obj.get("generation") is not None:
        generation = validate_generation_config(obj["generation"],
                                                f"{path}.generation")
    if obj.get("outages") is not None:
        outages, degrade = validate_outage_config(obj["outages"],
                                                  f"{path}.outages")
        if not outages.enabled:
            outages = None
    spec = build(
        EndpointSpec, obj, path,
        handled=("chooser", "prewarm", "generation", "outages", *flat_keys),
        **flat, prewarm=prewarm, generation=generation, outages=outages,
        degrade=degrade, platform=DEFAULT, chooser=DEFAULT,
        min_history=DEFAULT, drift=DEFAULT, prediction=DEFAULT,
        guardrail=DEFAULT,
    )
    return spec, chooser


def validate_fleet_config(doc) -> FleetConfig:
    """Validate a parsed fleet document; raise
    :class:`~repro.serving.schema.ConfigError`."""
    if not isinstance(doc, dict):
        fail("fleet config", f"must be a JSON object, "
                              f"got {type(doc).__name__}")
    raw_endpoints = doc.get("endpoints")
    if not isinstance(raw_endpoints, list) or not raw_endpoints:
        fail("endpoints", "is required and must be a non-empty array")
    specs, choosers = zip(*(
        _endpoint(ep, f"endpoints[{i}]") for i, ep in enumerate(raw_endpoints)
    ))
    names = [spec.name for spec in specs]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        fail("endpoints", f"names must be unique; duplicated: {dupes}")
    if len({spec.share is None for spec in specs}) > 1:
        missing = [spec.name for spec in specs if spec.share is None]
        fail("endpoints", f"either every endpoint has a share or none does; "
                           f"missing on: {missing}")

    scheduler = interval = None
    if doc.get("scheduler") is not None:
        scheduler = build(FleetScheduler, doc["scheduler"], "scheduler",
                          handled=("interval_s",), memories=DEFAULT,
                          batch_sizes=DEFAULT, timeouts=DEFAULT)
        interval = number(doc["scheduler"], "interval_s", "scheduler",
                          required=True)
        # FleetEngine states this rule too, under its parameter's name.
        if not interval > 0:
            fail("scheduler.interval_s", f"must be > 0, got {interval:g}")
    brownout, failover = (
        validate_fleet_degrade(doc["degrade"], "degrade")
        if doc.get("degrade") is not None else (None, None)
    )
    # FleetEngine states the fleet-level rules (max_containers, split_seed).
    engine = build(FleetEngine, doc, "fleet config",
                   handled=("endpoints", "scheduler", "degrade"),
                   endpoints=list(specs), scheduler=scheduler,
                   scheduler_interval_s=interval, brownout=brownout,
                   failover=failover)
    return FleetConfig(
        endpoints=specs,
        choosers=choosers,
        max_containers=engine.max_containers,
        scheduler_interval_s=interval,
        scheduler_min_history=scheduler and scheduler.min_history,
        split_seed=engine.split_seed,
        brownout=brownout,
        failover=failover,
    )


def load_fleet_config(path: str | os.PathLike) -> FleetConfig:
    """Read and validate a fleet JSON file.

    Raises :class:`~repro.serving.schema.ConfigError` with an actionable,
    path-qualified message on any problem — unreadable file, invalid
    JSON, or a schema violation.
    """
    return validate_fleet_config(load_json(path))
