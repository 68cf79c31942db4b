"""Warm-pool keep-alive model of serverless execution environments.

The offline simulator treats cold starts as a per-invocation coin flip
(:class:`~repro.serverless.service_profile.ColdStartModel.cold_probability`).
Real platforms behave differently — and DeepServe-style measurements show
the difference dominates tail latency at scale: a container that finishes an
invocation stays *warm* for a keep-alive window, and the next invocation is
cold only when no warm container is available. This module models exactly
that state:

* an invocation that finds a warm container of its memory tier starts
  immediately (no cold delay);
* otherwise a new container is provisioned — a **cold start** whose delay is
  the deterministic :meth:`ColdStartModel.delay` for the tier (zero when the
  platform has no cold-start model attached, which is what makes the offline
  simulator a special case of the serving runtime);
* containers idle longer than ``keep_alive_s`` are reclaimed;
* ``max_containers`` caps the pool (the account concurrency limit). A full
  pool with every container busy means the caller must queue or shed; an
  *idle* container of the wrong memory tier is evicted to make room, which
  is how a memory reconfiguration turns into a cold-start storm.

The pool is purely deterministic — no RNG — so the serving engine's
event-trace determinism reduces to event ordering.

Expiry, MRU warm reuse, and capacity eviction all run off heaps with lazy
invalidation (an idle min-heap keyed ``(free_at, container_id)`` doubling
as expiry queue and eviction order, plus one MRU max-heap per memory
tier), so every :meth:`~WarmPool.acquire` costs O(log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from repro.serverless.outages import OutageModel
from repro.serverless.service_profile import ColdStartModel


@dataclass(frozen=True)
class WarmPoolConfig:
    """Keep-alive and admission parameters of the container pool.

    * ``keep_alive_s`` — idle time after which a container is reclaimed
      (``inf`` = never, the offline simulator's implicit assumption);
    * ``max_containers`` — pool size cap (``None`` = unbounded, Lambda's
      idealized autoscaling);
    * ``max_queued_batches`` — admission control: batches allowed to wait
      for a container when the pool is exhausted. ``None`` queues without
      bound (the base platform's throttle semantics); ``0`` sheds
      immediately.
    """

    keep_alive_s: float = math.inf
    max_containers: int | None = None
    max_queued_batches: int | None = None

    def __post_init__(self) -> None:
        if self.keep_alive_s < 0:
            raise ValueError(f"keep_alive_s must be >= 0, got {self.keep_alive_s}")
        if self.max_containers is not None and self.max_containers < 1:
            raise ValueError(
                f"max_containers must be >= 1 or None, got {self.max_containers}"
            )
        if self.max_queued_batches is not None and self.max_queued_batches < 0:
            raise ValueError(
                "max_queued_batches must be >= 0 (0 sheds immediately when "
                "the pool is exhausted) or None (unbounded queueing), "
                f"got {self.max_queued_batches}"
            )


@dataclass
class _Container:
    """One execution environment: its tier and when it last went idle."""

    container_id: int
    memory_mb: float
    free_at: float  # inf while busy; else the time it became idle


@dataclass
class PoolStats:
    """Lifetime counters the serving log reports."""

    cold_starts: int = 0
    warm_starts: int = 0
    expired: int = 0
    evicted: int = 0
    prewarmed: int = 0
    retired: int = 0
    crashed: int = 0

    @property
    def cold_start_rate(self) -> float:
        total = self.cold_starts + self.warm_starts
        return self.cold_starts / total if total else 0.0


@dataclass
class Lease:
    """A granted container: start immediately, pay ``cold_delay`` if cold."""

    container_id: int
    cold: bool
    cold_delay: float


class WarmPool:
    """Deterministic container pool with keep-alive reuse.

    The caller (the serving engine) drives it with three calls:
    :meth:`acquire` when a batch dispatches, :meth:`release` when its
    invocation completes, and reads :attr:`stats` for the scorecard.
    Expiry is evaluated lazily at acquire time — capacity only matters at
    that moment, so no timer events are needed and the pool stays
    event-order deterministic.

    Internals: expiry, warm reuse and eviction run off heaps rather than
    rescanning every container on each acquire:

    * ``_idle_heap`` — min-heap of ``(free_at, container_id)`` entries, one
      per release. Ascending ``free_at`` is simultaneously the expiry order
      (oldest idle first) and the eviction order (the least-recently-freed
      idle container, ties by container id).
    * ``_warm_heaps[memory_mb]`` — per-tier max-heap on
      ``(free_at, container_id)`` (stored negated): the MRU pick, ties by
      highest container id.

    Entries are invalidated lazily: an entry is live only while the
    container still exists *and* still has the recorded ``free_at`` (an
    acquire resets ``free_at`` to ``inf``, orphaning every older entry).
    A container re-released at an identical timestamp re-creates an equal
    key, which selects identically — so lazy invalidation never changes a
    decision, only skips dead weight. The seeded churns and their golden
    digests in ``tests/serving/test_pool_equivalence.py`` pin the
    behaviour.
    """

    def __init__(
        self,
        config: WarmPoolConfig | None = None,
        cold_start: ColdStartModel | None = None,
        outage: OutageModel | None = None,
    ) -> None:
        self.config = config if config is not None else WarmPoolConfig()
        self.cold_start = cold_start
        self.stats = PoolStats()
        # Outage windows deny *provisioning* only: warm reuse keeps
        # working, cold starts (and prewarming) fail capacity-unavailable.
        # A model without windows is normalized away, so the window-free
        # crash/straggler configs add no per-acquire work here.
        self.outage = outage if outage is not None and outage.windows else None
        self._containers: dict[int, _Container] = {}
        self._next_id = 0
        self._idle_heap: list[tuple[float, int]] = []
        self._warm_heaps: dict[float, list[tuple[float, int]]] = {}

    # ------------------------------------------------------------- inspection
    def cold_delay(self, memory_mb: float) -> float:
        """Deterministic provisioning delay for a cold start at this tier."""
        if self.cold_start is None:
            return 0.0
        return float(self.cold_start.delay(memory_mb))

    def live_containers(self, now: float, memory_mb: float | None = None) -> int:
        """Containers currently busy or within their keep-alive window
        (optionally of one memory tier).

        Pure inspection: containers past their keep-alive are *counted out*
        but not reclaimed, so a prewarmer (or any observer) polling off the
        event clock cannot mutate pool state. Reclamation still happens
        lazily inside :meth:`acquire`/:meth:`prewarm`/:meth:`retire_idle`,
        where ``now`` is an event timestamp.
        """
        keep = self.config.keep_alive_s
        return sum(
            1
            for c in self._containers.values()
            if not (c.free_at <= now and now - c.free_at > keep)
            and (memory_mb is None or c.memory_mb == memory_mb)
        )

    def warm_containers(self, now: float, memory_mb: float | None = None) -> int:
        """Idle-but-warm containers (optionally of one memory tier).

        Pure inspection, like :meth:`live_containers` — the expiry filter is
        applied in the count (the same ``now - free_at > keep`` float
        comparison the sweep uses) without sweeping anything out.
        """
        keep = self.config.keep_alive_s
        return sum(
            1
            for c in self._containers.values()
            if c.free_at <= now
            and not (now - c.free_at > keep)
            and (memory_mb is None or c.memory_mb == memory_mb)
        )

    # ------------------------------------------------------------------ flow
    def _expire(self, now: float) -> None:
        keep = self.config.keep_alive_s
        if math.isinf(keep):
            return
        # The heap yields idle containers oldest-first; ``now - free_at``
        # is monotone non-increasing along that order, so the first
        # still-alive entry ends the sweep. The comparison is kept as
        # ``now - free_at > keep`` (not a precomputed cutoff) so the
        # floating-point decision matches the inspection counts'.
        heap = self._idle_heap
        containers = self._containers
        while heap and now - heap[0][0] > keep:
            free_at, cid = heappop(heap)
            container = containers.get(cid)
            if container is not None and container.free_at == free_at:
                del containers[cid]
                self.stats.expired += 1

    def acquire(self, now: float, memory_mb: float) -> Lease | None:
        """Grant a container for a batch dispatching at ``now``.

        Warm reuse picks the most-recently-freed matching container
        (Lambda's observed MRU behaviour; also what keeps the rest of the
        pool coldest-first for expiry). Returns ``None`` when the pool is
        at ``max_containers`` with every container busy — the caller
        queues or sheds the batch.
        """
        self._expire(now)
        containers = self._containers
        warm_heap = self._warm_heaps.get(memory_mb)
        while warm_heap:
            neg_free, neg_cid = warm_heap[0]
            cid = -neg_cid
            container = containers.get(cid)
            if container is None or container.free_at != -neg_free:
                heappop(warm_heap)  # expired, evicted, or re-acquired
                continue
            # Idle containers always have free_at <= now (a release can
            # only stamp a past event time), so the MRU top is grantable.
            heappop(warm_heap)
            container.free_at = math.inf
            self.stats.warm_starts += 1
            return Lease(cid, cold=False, cold_delay=0.0)

        if self.outage is not None and self.outage.active(now):
            # Capacity crunch: no warm container matched and the platform
            # cannot provision (nor evict-to-provision) until the window
            # closes. The caller backs off, queues, or sheds.
            return None

        cap = self.config.max_containers
        if cap is not None and len(containers) >= cap:
            # Evict an idle container of another tier to make room (a
            # redeploy); with every container busy the pool is exhausted.
            oldest = self._oldest_idle()
            if oldest is None:
                return None
            heappop(self._idle_heap)
            del containers[oldest[1]]
            self.stats.evicted += 1

        if not self._admit_cold(now):
            return None
        container = _Container(self._next_id, memory_mb, free_at=math.inf)
        self._next_id += 1
        containers[container.container_id] = container
        self.stats.cold_starts += 1
        return Lease(container.container_id, cold=True,
                     cold_delay=self.cold_delay(memory_mb))

    def _oldest_idle(self) -> tuple[float, int] | None:
        """``(free_at, container_id)`` of the least-recently-freed idle
        container (ties by container id), or ``None`` when none is idle.

        The live top of the idle heap, with stale entries discarded on
        the way; it is the eviction victim and the next container to
        expire.
        """
        heap = self._idle_heap
        containers = self._containers
        while heap:
            free_at, cid = heap[0]
            container = containers.get(cid)
            if container is not None and container.free_at == free_at:
                return heap[0]
            heappop(heap)
        return None

    def _admit_cold(self, now: float) -> bool:
        """Hook: may a *new* container be provisioned at ``now``?

        The base pool only enforces its own ``max_containers`` cap (already
        checked by the caller); a fleet-shared budget subclasses this to
        charge the new container against a global account limit.
        """
        return True

    def kill(self, container_id: int) -> None:
        """Remove a crashed container immediately.

        The container leaves the pool (and any fleet-shared budget, which
        counts ``len(_containers)``) the moment it dies — not at its next
        keep-alive sweep — so replacement capacity can provision right
        away. A crashed container is mid-invocation (``free_at == inf``),
        so no idle/warm heap entry can refer to it; stale entries from
        earlier idle spells self-invalidate lazily as usual.
        """
        if self._containers.pop(container_id, None) is not None:
            self.stats.crashed += 1

    def release(self, container_id: int, now: float) -> None:
        """Mark a container idle (its invocation — retries included —
        finished at ``now``); the keep-alive clock starts here."""
        container = self._containers.get(container_id)
        if container is None:  # reclaimed mid-flight cannot happen; be safe
            return
        container.free_at = now
        heappush(self._idle_heap, (now, container_id))
        warm_heap = self._warm_heaps.get(container.memory_mb)
        if warm_heap is None:
            warm_heap = self._warm_heaps[container.memory_mb] = []
        heappush(warm_heap, (-now, -container_id))

    # ------------------------------------------------------------- prewarming
    def prewarm(self, now: float, memory_mb: float, n: int) -> int:
        """Speculatively provision up to ``n`` warm containers at this tier.

        Each provisioned container pays its cold start *off the request
        path* (the caller accounts the provisioning cost) and enters the
        pool idle-warm at ``now`` — the keep-alive clock starts
        immediately, exactly as if an invocation had just released it.
        Prewarming respects ``max_containers`` and the fleet admission
        hook but never evicts: speculative capacity must not cannibalize
        live containers. Returns the number actually provisioned.
        """
        if n <= 0:
            return 0
        self._expire(now)
        if self.outage is not None and self.outage.active(now):
            # Speculative provisioning hits the same capacity wall as a
            # demand-driven cold start.
            return 0
        containers = self._containers
        cap = self.config.max_containers
        provisioned = 0
        for _ in range(n):
            if cap is not None and len(containers) >= cap:
                break
            if not self._admit_cold(now):
                break
            container = _Container(self._next_id, memory_mb, free_at=math.inf)
            self._next_id += 1
            containers[container.container_id] = container
            # release() marks it idle at ``now`` and indexes it in the heaps.
            self.release(container.container_id, now)
            provisioned += 1
        self.stats.prewarmed += provisioned
        return provisioned

    def retire_idle(self, now: float, memory_mb: float, n: int) -> int:
        """Retire up to ``n`` idle containers of one tier, coldest-first.

        The inverse of :meth:`prewarm`: when the forecast says the tier is
        over-provisioned, idle containers are reclaimed ahead of their
        keep-alive expiry (stopping their idle-time billing). Busy
        containers are never touched. Victims follow the eviction order —
        least-recently-freed first, ties by container id. Orphaned heap
        entries self-invalidate lazily, as with expiry and eviction.
        Returns the number actually retired.
        """
        if n <= 0:
            return 0
        self._expire(now)
        idle = [
            c
            for c in self._containers.values()
            if c.free_at <= now and c.memory_mb == memory_mb
        ]
        idle.sort(key=lambda c: (c.free_at, c.container_id))
        for c in idle[:n]:
            del self._containers[c.container_id]
        retired = min(n, len(idle))
        self.stats.retired += retired
        return retired

