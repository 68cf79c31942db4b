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
  compatible idle endpoint; the donor's pool hosts the container, the
  owner keeps the bill and the latencies.

The JSON loader builds these dataclasses, and the outage model of
:mod:`repro.serverless.outages`, with :func:`~repro.serving.schema.build`:
one object for ``repro serve --outages outages.json`` (also embeddable
per-endpoint in a fleet document) whose keys are the dataclasses' fields,
validated by their own ``__post_init__``; every violation raises
:class:`~repro.serving.schema.ConfigError` with a path-qualified message,
and unknown keys are rejected.

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
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, replace

from repro.serverless.faults import RetryPolicy
from repro.serverless.outages import (
    OutageModel,
    OutageWindow,
    sample_outage_windows,
)
from repro.serving.schema import DEFAULT, as_object, build, fail, load_json

__all__ = [
    "BrownoutConfig",
    "DegradeConfig",
    "FailoverConfig",
    "HedgeConfig",
    "HedgeWindow",
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


class HedgeWindow:
    """The last ``maxlen`` batch durations, in arrival order (which one
    leaves next) and sorted; :meth:`percentile` is ``np.percentile`` over
    them (its ``linear`` method) bit for bit, without a partition."""

    def __init__(self, maxlen: int) -> None:
        self.order: deque = deque(maxlen=maxlen)
        self.sorted: list = []

    def __len__(self) -> int:
        return len(self.order)

    def append(self, duration: float) -> None:
        if len(self.order) == self.order.maxlen:
            del self.sorted[bisect_left(self.sorted, self.order[0])]
        insort(self.sorted, duration)
        self.order.append(duration)

    def percentile(self, p: float) -> float:
        # numpy's arithmetic: index (n - 1) * p / 100, then a lerp taken
        # from the upper neighbour at weights of a half or more.
        values = self.sorted
        index = (len(values) - 1) * (p / 100)
        if index >= len(values) - 1:
            return values[-1]
        lo = int(index)
        gamma = index - lo
        a, b = values[lo], values[lo + 1]
        if gamma >= 0.5:
            return b - (b - a) * (1 - gamma)
        return a + (b - a) * gamma


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
    pool hosts the container of the foreign batch; the owner keeps the
    bill, the latency and the fault model.
    """

    min_queue: int = 1

    def __post_init__(self) -> None:
        if self.min_queue < 1:
            raise ValueError(f"min_queue must be >= 1, got {self.min_queue}")


# --------------------------------------------------------------------------
# JSON documents (``repro serve --outages`` / fleet per-endpoint "outages")
# --------------------------------------------------------------------------


def _windows(obj, path: str) -> tuple[OutageWindow, ...]:
    if not isinstance(obj, list):
        fail(path, f"must be an array, got {type(obj).__name__}")
    return tuple(build(OutageWindow, w, f"{path}[{i}]")
                 for i, w in enumerate(obj))


def validate_outage_config(
    doc, path: str = "outages",
) -> tuple[OutageModel, DegradeConfig | None]:
    """Build an outage object into ``(OutageModel, DegradeConfig)``.

    The object's keys are :class:`OutageModel`'s, with ``windows`` a list
    of :class:`OutageWindow` objects, plus ``random`` (the arguments of
    :func:`sample_outage_windows`, drawn with the model's ``seed``; it
    replaces ``windows``) and ``degrade`` (a :class:`DegradeConfig`).
    Raises :class:`~repro.serving.schema.ConfigError` with a
    path-qualified message on any violation; ``path`` prefixes the
    reported locations (the fleet passes ``endpoints[i].outages``). The
    second element is ``None`` when the document configures no
    degradation stack.
    """
    doc = as_object(doc, path)
    if "windows" in doc and "random" in doc:
        fail(path, "windows and random are mutually exclusive")
    model = build(
        OutageModel, doc, path, handled=("windows", "random", "degrade"),
        windows=(_windows(doc["windows"], f"{path}.windows")
                 if doc.get("windows") is not None else DEFAULT),
    )
    if doc.get("random") is not None:
        model = replace(model, windows=build(
            sample_outage_windows, doc["random"], f"{path}.random",
            seed=model.seed,
        ))
    degrade = (
        build(DegradeConfig, doc["degrade"], f"{path}.degrade")
        if doc.get("degrade") is not None else None
    )
    if degrade is not None and not degrade.enabled:
        degrade = None
    return model, degrade


def _fleet_degrade(
    brownout: BrownoutConfig | None = None,
    failover: FailoverConfig | None = None,
) -> tuple[BrownoutConfig | None, FailoverConfig | None]:
    """The fleet ``degrade`` object's keys, as a signature for ``build``."""
    return brownout, failover


def validate_fleet_degrade(
    doc, path: str = "degrade",
) -> tuple[BrownoutConfig | None, FailoverConfig | None]:
    """Build a fleet document's top-level ``"degrade"`` object.

    The fleet-level stack holds the cross-lane policies only — a
    :class:`BrownoutConfig` at ``brownout`` and a :class:`FailoverConfig`
    at ``failover``; per-engine backoff/hedging lives in each endpoint's
    ``"outages"`` entry. Returns ``(brownout, failover)``.
    """
    return build(_fleet_degrade, doc, path)


def load_outage_config(
    path: str | os.PathLike,
) -> tuple[OutageModel, DegradeConfig | None]:
    """Read and build an outage JSON file.

    Raises :class:`~repro.serving.schema.ConfigError` with an actionable,
    path-qualified message on any problem — unreadable file, invalid JSON, or a schema
    violation.
    """
    return validate_outage_config(load_json(path))
