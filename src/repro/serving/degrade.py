"""Graceful-degradation policies and the ``--outages`` JSON schema.

The infrastructure-fault layer (:mod:`repro.serverless.outages`) makes the
platform *fail*: outage windows deny cold starts, containers crash
mid-batch, stragglers stretch service times. This module holds the
policies that make the serving layer *degrade gracefully* instead of
falling over:

* :class:`HedgeConfig` — request hedging: once a dispatched batch has run
  longer than a percentile of recently observed batch durations, dispatch
  a duplicate to a second container; the first completion wins, the
  loser's cost is still billed (speculative-execution economics);
* :class:`DegradeConfig` — the per-engine stack: an optional cold-start
  retry policy (capped exponential backoff, reusing
  :class:`~repro.serverless.faults.RetryPolicy` semantics and its fixed
  draw counts) plus optional hedging;
* :class:`BrownoutConfig` — fleet-level priority shedding: when the total
  queued backlog exceeds a budget, shed from the *lowest-priority*
  endpoint first instead of each lane shedding FIFO on its own;
* :class:`FailoverConfig` — fleet-level failover: a lane whose queue is
  backed up (outage-struck or budget-starved) drains batches to a
  compatible idle endpoint, billed to the donor.

The JSON loader mirrors the generation-config house style: one object for
``repro serve --outages outages.json`` (also embeddable per-endpoint in a
fleet document), every violation raising
:class:`~repro.serving.schema.ConfigError` with a path-qualified message,
unknown keys rejected.

Example::

    {
      "windows": [{"start": 20.0, "end": 35.0}],
      "crash": {"rate": 0.002, "outage_rate": 0.02},
      "straggler": {"rate": 0.1, "slowdown": 3.0},
      "seed": 7,
      "degrade": {
        "backoff": {"max_attempts": 4, "base_backoff_s": 0.1,
                    "max_total_delay_s": 5.0},
        "hedge": {"percentile": 95.0, "multiplier": 1.5}
      }
    }

Scheduled windows may be replaced by a sampled schedule::

    {"random": {"horizon_s": 300.0, "mean_up_s": 60.0, "mean_down_s": 10.0}}
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.serverless.faults import RetryPolicy
from repro.serverless.outages import (
    CrashHazard,
    OutageModel,
    OutageWindow,
    StragglerModel,
    sample_outage_windows,
)
from repro.serving.schema import (
    ConfigError,
    as_object,
    check_keys,
    fail,
    integer,
    load_json,
    number,
)

__all__ = [
    "BrownoutConfig",
    "DegradeConfig",
    "FailoverConfig",
    "HedgeConfig",
    "load_outage_config",
    "validate_fleet_degrade",
    "validate_outage_config",
]


@dataclass(frozen=True)
class HedgeConfig:
    """Percentile-delay request hedging.

    A dispatched batch that is still in flight ``multiplier`` times the
    ``percentile``-th percentile of the last ``window`` observed batch
    durations after its start gets a duplicate dispatched to a fresh
    container. The first completion wins the latency; both invocations
    bill. Hedging stays dormant until ``min_observations`` durations have
    been seen — there is no percentile to judge against before that.
    """

    percentile: float = 95.0
    multiplier: float = 1.0
    min_observations: int = 16
    window: int = 128

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {self.percentile}"
            )
        if self.multiplier <= 0:
            raise ValueError(f"multiplier must be > 0, got {self.multiplier}")
        if self.min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {self.min_observations}"
            )
        if self.window < self.min_observations:
            raise ValueError(
                f"window must be >= min_observations, got {self.window}"
            )


@dataclass(frozen=True)
class DegradeConfig:
    """One engine's graceful-degradation stack.

    * ``backoff`` — cold-start retry policy: a dispatch denied capacity
      during an outage retries after capped exponential backoff instead
      of parking in the queue (``RetryPolicy.max_total_delay_s`` bounds
      the cumulative wait); ``None`` keeps the queue-or-shed behaviour;
    * ``hedge`` — duplicate-dispatch hedging; ``None`` disables it.

    A config with neither set is treated exactly like an absent one.
    """

    backoff: RetryPolicy | None = None
    hedge: HedgeConfig | None = None

    @property
    def enabled(self) -> bool:
        return self.backoff is not None or self.hedge is not None


@dataclass(frozen=True)
class BrownoutConfig:
    """Fleet-wide priority shedding under backlog pressure.

    When the summed queue depth across lanes exceeds ``max_total_queued``,
    the fleet sheds the most recently queued batch of the lowest-priority
    backlogged endpoint — repeatedly, until the backlog fits. High-priority
    tenants brown out last.
    """

    max_total_queued: int

    def __post_init__(self) -> None:
        if self.max_total_queued < 0:
            raise ValueError(
                f"max_total_queued must be >= 0, got {self.max_total_queued}"
            )


@dataclass(frozen=True)
class FailoverConfig:
    """Fleet-wide queue failover to compatible endpoints.

    A lane whose queue holds at least ``min_queue`` batches drains them to
    endpoints of the *same memory tier* whose own queues are empty and
    whose pools have capacity, highest-priority owners first. The donor's
    pool hosts (and is billed for) the foreign batch; the owner keeps the
    latency and the fault model.
    """

    min_queue: int = 1

    def __post_init__(self) -> None:
        if self.min_queue < 1:
            raise ValueError(f"min_queue must be >= 1, got {self.min_queue}")


# --------------------------------------------------------------------------
# JSON schema (``repro serve --outages`` / fleet per-endpoint "outages")
# --------------------------------------------------------------------------


_OUTAGE_KEYS = {"windows", "random", "crash", "straggler", "seed", "degrade"}
_WINDOW_KEYS = {"start", "end"}
_RANDOM_KEYS = {"horizon_s", "mean_up_s", "mean_down_s", "t_start"}
_CRASH_KEYS = {"rate", "outage_rate"}
_STRAGGLER_KEYS = {"rate", "slowdown"}
_DEGRADE_KEYS = {"backoff", "hedge"}
_BACKOFF_KEYS = {"max_attempts", "base_backoff_s", "multiplier", "jitter",
                 "max_total_delay_s"}
_HEDGE_KEYS = {"percentile", "multiplier", "min_observations", "window"}
_FLEET_DEGRADE_KEYS = {"brownout", "failover"}
_BROWNOUT_KEYS = {"max_total_queued"}
_FAILOVER_KEYS = {"min_queue"}


def _windows(obj, path: str) -> tuple[OutageWindow, ...]:
    if not isinstance(obj, list):
        fail(path, f"must be an array, got {type(obj).__name__}")
    windows = []
    for i, entry in enumerate(obj):
        wpath = f"{path}[{i}]"
        entry = as_object(entry, wpath)
        check_keys(entry, _WINDOW_KEYS, wpath)
        if "start" not in entry or "end" not in entry:
            fail(wpath, "must set both start and end")
        start = number(entry, "start", wpath, minimum=0.0)
        end = number(entry, "end", wpath, minimum=0.0)
        if end <= start:
            fail(f"{wpath}.end", f"must be > start ({start:g}), got {end:g}")
        windows.append(OutageWindow(start, end))
    return tuple(windows)


def _random_windows(obj, path: str, seed: int) -> tuple[OutageWindow, ...]:
    obj = as_object(obj, path)
    check_keys(obj, _RANDOM_KEYS, path)
    if "horizon_s" not in obj:
        fail(path, "must set horizon_s")
    return sample_outage_windows(
        seed=seed,
        horizon_s=number(obj, "horizon_s", path, minimum=0.0, strict=True),
        mean_up_s=number(obj, "mean_up_s", path, default=60.0, minimum=0.0,
                         strict=True),
        mean_down_s=number(obj, "mean_down_s", path, default=10.0,
                           minimum=0.0, strict=True),
        t_start=number(obj, "t_start", path, default=0.0, minimum=0.0),
    )


def _crash(obj, path: str) -> CrashHazard:
    obj = as_object(obj, path)
    check_keys(obj, _CRASH_KEYS, path)
    return CrashHazard(
        rate=number(obj, "rate", path, default=0.0, minimum=0.0,
                    maximum=1.0),
        outage_rate=number(obj, "outage_rate", path, minimum=0.0,
                           maximum=1.0, nullable=True),
    )


def _straggler(obj, path: str) -> StragglerModel:
    obj = as_object(obj, path)
    check_keys(obj, _STRAGGLER_KEYS, path)
    return StragglerModel(
        rate=number(obj, "rate", path, default=0.0, minimum=0.0, maximum=1.0),
        slowdown=number(obj, "slowdown", path, default=3.0, minimum=1.0),
    )


def _backoff(obj, path: str) -> RetryPolicy:
    obj = as_object(obj, path)
    check_keys(obj, _BACKOFF_KEYS, path)
    return RetryPolicy(
        max_attempts=integer(obj, "max_attempts", path, default=3, minimum=1),
        base_backoff_s=number(obj, "base_backoff_s", path, default=0.05,
                              minimum=0.0),
        multiplier=number(obj, "multiplier", path, default=2.0, minimum=1.0),
        jitter=number(obj, "jitter", path, default=0.1, minimum=0.0),
        max_total_delay_s=number(obj, "max_total_delay_s", path,
                                 minimum=0.0, strict=True, nullable=True),
    )


def _hedge(obj, path: str) -> HedgeConfig:
    obj = as_object(obj, path)
    check_keys(obj, _HEDGE_KEYS, path)
    min_obs = integer(obj, "min_observations", path, default=16, minimum=1)
    window = integer(obj, "window", path, default=128, minimum=1)
    if window < min_obs:
        fail(f"{path}.window", f"must be >= min_observations ({min_obs})")
    return HedgeConfig(
        percentile=number(obj, "percentile", path, default=95.0,
                          minimum=0.0, maximum=100.0, strict=True),
        multiplier=number(obj, "multiplier", path, default=1.0, minimum=0.0,
                          strict=True),
        min_observations=min_obs,
        window=window,
    )


def _degrade(obj, path: str) -> DegradeConfig:
    obj = as_object(obj, path)
    check_keys(obj, _DEGRADE_KEYS, path)
    return DegradeConfig(
        backoff=(_backoff(obj["backoff"], f"{path}.backoff")
                 if obj.get("backoff") is not None else None),
        hedge=(_hedge(obj["hedge"], f"{path}.hedge")
               if obj.get("hedge") is not None else None),
    )


def validate_outage_config(
    doc, path: str = "outages",
) -> tuple[OutageModel, DegradeConfig | None]:
    """Validate a parsed outage object into ``(OutageModel, DegradeConfig)``.

    Raises :class:`ConfigError` with a path-qualified message on any
    violation; ``path`` prefixes the reported locations (the fleet passes
    ``endpoints[i].outages``). The second element is ``None`` when the
    document configures no degradation stack.
    """
    doc = as_object(doc, path)
    check_keys(doc, _OUTAGE_KEYS, path)
    if "windows" in doc and "random" in doc:
        fail(path, "windows and random are mutually exclusive")
    seed = integer(doc, "seed", path, default=0, minimum=0)
    if doc.get("random") is not None:
        windows = _random_windows(doc["random"], f"{path}.random", seed)
    elif doc.get("windows") is not None:
        windows = _windows(doc["windows"], f"{path}.windows")
    else:
        windows = ()
    try:
        model = OutageModel(
            windows=windows,
            crash=(_crash(doc["crash"], f"{path}.crash")
                   if doc.get("crash") is not None else None),
            straggler=(_straggler(doc["straggler"], f"{path}.straggler")
                       if doc.get("straggler") is not None else None),
            seed=seed,
        )
    except ValueError as exc:
        # Window ordering is the model's own cross-field check.
        raise ConfigError(f"{path}.windows: {exc}") from exc
    degrade = (
        _degrade(doc["degrade"], f"{path}.degrade")
        if doc.get("degrade") is not None else None
    )
    if degrade is not None and not degrade.enabled:
        degrade = None
    return model, degrade


def validate_fleet_degrade(
    doc, path: str = "degrade",
) -> tuple[BrownoutConfig | None, FailoverConfig | None]:
    """Validate a fleet document's top-level ``"degrade"`` object.

    The fleet-level stack holds the cross-lane policies only — brownout
    and failover; per-engine backoff/hedging lives in each endpoint's
    ``"outages"`` entry. Returns ``(brownout, failover)``.
    """
    doc = as_object(doc, path)
    check_keys(doc, _FLEET_DEGRADE_KEYS, path)
    brownout = failover = None
    if doc.get("brownout") is not None:
        obj = as_object(doc["brownout"], f"{path}.brownout")
        check_keys(obj, _BROWNOUT_KEYS, f"{path}.brownout")
        if "max_total_queued" not in obj:
            fail(f"{path}.brownout", "must set max_total_queued")
        brownout = BrownoutConfig(
            max_total_queued=integer(obj, "max_total_queued",
                                     f"{path}.brownout", minimum=0)
        )
    if doc.get("failover") is not None:
        obj = as_object(doc["failover"], f"{path}.failover")
        check_keys(obj, _FAILOVER_KEYS, f"{path}.failover")
        failover = FailoverConfig(
            min_queue=integer(obj, "min_queue", f"{path}.failover",
                              default=1, minimum=1)
        )
    return brownout, failover


def load_outage_config(
    path: str | os.PathLike,
) -> tuple[OutageModel, DegradeConfig | None]:
    """Read and validate an outage JSON file.

    Raises :class:`ConfigError` with an actionable, path-qualified
    message on any problem — unreadable file, invalid JSON, or a schema
    violation.
    """
    return validate_outage_config(load_json(path))
