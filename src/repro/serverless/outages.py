"""Correlated infrastructure faults: outages, crashes, stragglers.

PR 3's :class:`~repro.serverless.faults.FaultModel` covers *independent*
per-attempt request faults — each invocation flips its own coin. Real
serverless fleets also fail in correlated, infrastructure-level ways that
no per-request model can express:

* **outage windows** — intervals during which the platform cannot
  provision *new* capacity (a zonal capacity crunch, a control-plane
  incident). Warm containers keep serving; cold starts are denied with
  a capacity-unavailable error until the window closes;
* **container crashes** — a live container dies mid-batch (OOM kill,
  host reclaim). The in-flight requests fail and must re-enter the
  queue; the container leaves the pool immediately;
* **stragglers** — some fraction of freshly provisioned containers run
  slower than the fleet (noisy neighbours, degraded hardware), by a
  fixed per-container slowdown factor drawn once at cold start.

Everything here is *pure and seeded*: window schedules are explicit or
sampled once up front from a caller-owned seed, the straggler draw is a
deterministic function of ``(seed, container_id)``, and crash draws are
taken by the serving engine from its per-batch ``spawn_rng`` children with
fixed draw counts — so runs stay order-independent and checkpoint-safe.
The default-constructed model is disabled and the serving layer treats a
disabled model exactly like an absent one, keeping fault-free runs
bit-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OutageWindow:
    """One closed-open interval ``[start, end)`` of denied provisioning."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"end must be > start, got [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class CrashHazard:
    """Per-batch probability that the serving container dies mid-batch.

    ``rate`` applies outside outage windows, ``outage_rate`` (defaulting
    to ``rate``) inside them — capacity crunches and elevated crash rates
    tend to arrive together. The hazard is evaluated once per dispatched
    batch at its start time; a crashed batch fails partway through, bills
    its partial run, and its requests re-enter the queue.
    """

    rate: float = 0.0
    outage_rate: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {self.rate}")
        if self.outage_rate is not None and not 0.0 <= self.outage_rate < 1.0:
            raise ValueError(
                f"outage_rate must be in [0, 1), got {self.outage_rate}"
            )

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0 or bool(self.outage_rate)

    def probability(self, in_outage: bool) -> float:
        """The crash probability applying at a batch start."""
        if in_outage and self.outage_rate is not None:
            return self.outage_rate
        return self.rate


@dataclass(frozen=True)
class StragglerModel:
    """Per-container slowdown drawn once at cold start.

    With probability ``rate`` a freshly provisioned container is a
    straggler: every batch it serves takes ``slowdown`` times its clean
    service time. The draw is a pure function of the outage model's seed
    and the container id, so it survives checkpoint/restore without any
    state and is independent of dispatch order.
    """

    rate: float = 0.0
    slowdown: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0 and self.slowdown > 1.0


@dataclass(frozen=True)
class OutageModel:
    """The full infrastructure-fault configuration for one serving run.

    ``windows`` must be sorted by start and non-overlapping (validated).
    ``seed`` feeds the straggler draw only — crash draws come from the
    engine's per-batch generators, and windows are fixed schedules.
    """

    windows: tuple[OutageWindow, ...] = ()
    crash: CrashHazard | None = None
    straggler: StragglerModel | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        prev_end = -1.0
        for w in self.windows:
            if w.start < prev_end:
                raise ValueError(
                    "windows must be sorted by start and "
                    f"non-overlapping; [{w.start}, {w.end}) follows a "
                    f"window ending at {prev_end}"
                )
            prev_end = w.end
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def enabled(self) -> bool:
        """Whether any infrastructure fault is configured.

        The serving layer treats a disabled model exactly like ``None``.
        """
        return (
            bool(self.windows)
            or (self.crash is not None and self.crash.enabled)
            or (self.straggler is not None and self.straggler.enabled)
        )

    def active(self, t: float) -> bool:
        """Whether an outage window is open at ``t``."""
        for w in self.windows:
            if w.start <= t < w.end:
                return True
            if t < w.start:
                return False
        return False

    def crash_probability(self, t: float) -> float:
        """Crash probability for a batch starting at ``t`` (0 when off)."""
        if self.crash is None:
            return 0.0
        return self.crash.probability(self.active(t))

    def straggler_factor(self, container_id: int) -> float:
        """Service-time multiplier of one container (1.0 = healthy).

        A pure function of ``(seed, container_id)`` via its own
        ``SeedSequence`` child — no mutable state, so the factor is
        identical whenever and wherever it is evaluated.
        """
        sm = self.straggler
        if sm is None or not sm.enabled:
            return 1.0
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(container_id,))
        )
        return sm.slowdown if float(rng.random()) < sm.rate else 1.0


def sample_outage_windows(
    seed: int,
    horizon_s: float,
    mean_up_s: float = 60.0,
    mean_down_s: float = 10.0,
    t_start: float = 0.0,
) -> tuple[OutageWindow, ...]:
    """Sample an alternating up/down renewal schedule of outage windows.

    The platform alternates exponential up-times (mean ``mean_up_s``,
    starting up at ``t_start``) and exponential down-times (mean
    ``mean_down_s``); down intervals inside ``[t_start, t_start +
    horizon_s)`` become :class:`OutageWindow` s, clipped to the horizon.
    Sampling is a pure function of ``seed`` — the schedule is fixed
    before the run begins, exactly like an explicit window list.
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
    if mean_up_s <= 0:
        raise ValueError(f"mean_up_s must be > 0, got {mean_up_s}")
    if mean_down_s <= 0:
        raise ValueError(f"mean_down_s must be > 0, got {mean_down_s}")
    if t_start < 0:
        raise ValueError(f"t_start must be >= 0, got {t_start}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0xD0, 0x0E))
    )
    end = t_start + horizon_s
    t = t_start
    windows: list[OutageWindow] = []
    while t < end:
        t += float(rng.exponential(mean_up_s))
        if t >= end:
            break
        down = float(rng.exponential(mean_down_s))
        windows.append(OutageWindow(t, min(t + down, end)))
        t += down
    return tuple(windows)
