"""Fleet serving: N endpoints, one deterministic event loop (PR 6).

The single-endpoint :class:`~repro.serving.engine.ServingEngine` optimizes
one model against one SLO. The real serverless setting — the paper's §VI
(MBS) and HarmonyBatch — is heterogeneous: several request classes with
distinct SLOs sharing platform capacity. This module generalizes the
engine into that setting:

* :class:`EndpointSpec` — one tenant: its model/service profile, initial
  ``(M, B, T)``, per-class SLO + percentile, and traffic source (a named
  stream passed to :meth:`FleetEngine.run`, or a ``share`` of one trace
  split by :func:`split_by_shares`);
* :class:`FleetBudget` / :class:`BudgetedWarmPool` — per-endpoint warm
  pools drawing on one fleet-wide container budget (the account-level
  concurrency limit): a cold start anywhere charges the shared cap, and
  when the fleet is at the cap the globally least-recently-freed idle
  container — whichever tenant owns it — is evicted to make room;
* :class:`FleetScheduler` — cross-tenant arbitration of ``(M, B, T)``:
  cost-min subject to *every* endpoint's SLO, reusing the decomposed
  multi-class optimizer (:func:`repro.batching.multiclass
  .optimize_multiclass`) per memory tier over the endpoints' live
  arrival histories. When the scheduler abstains (insufficient history),
  each lane's own chooser keeps deciding — the per-endpoint fallback;
* :class:`FleetEngine` — N lane engines in **one** event loop: each lane
  is a full :class:`ServingEngine` run state, and the engine's own loop
  (:func:`~repro.serving.engine._run_lanes`) runs them all over one
  shared heap ordered by ``(time, priority, lane, seq)``, so with a
  single endpoint and an unconstrained budget the fleet reproduces
  ``ServingEngine`` bit-for-bit: latencies, costs, and event trace,
  faults on and off. That equivalence is this module's keystone, pinned
  in tier-1.

Determinism: lanes share no RNG (each endpoint has its own platform, and
fault draws are keyed by per-lane batch index), the budget's eviction is
a pure ``min`` over ``(free_at, lane, container_id)``, and the scheduler
plans on *fresh fault-free platforms* so planning never consumes a live
generator. Telemetry is namespaced ``serving.<endpoint>.*`` per lane, so
two endpoints never share a counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.batching.config import BatchConfig
from repro.batching.multiclass import RequestClass, optimize_multiclass
from repro.serverless.outages import OutageModel
from repro.serverless.platform import ServerlessPlatform
from repro.serving.config import (
    DriftConfig,
    GenerationConfig,
    PredictionDriftConfig,
    PrewarmConfig,
)
from repro.serving.degrade import BrownoutConfig, DegradeConfig, FailoverConfig
from repro.serving.engine import (
    _P_DECISION,
    ServingEngine,
    _RunContext,
    _run_lanes,
)
from repro.serving.guardrail import GuardrailConfig
from repro.serving.log import ServingLog
from repro.serving.pool import WarmPool, WarmPoolConfig
from repro.telemetry.export import ENGINE_NAMESPACES
from repro.telemetry.metrics import get_registry
from repro.utils.validation import check_sorted


# --------------------------------------------------------------- endpoints
@dataclass(frozen=True)
class EndpointSpec:
    """One fleet tenant: a model endpoint with its own SLO and traffic.

    * ``name`` — endpoint identifier; becomes the telemetry namespace
      ``serving.<name>.*``, so it must not contain ``.`` nor be one of the
      single engine's namespaces (``prewarm``, ``gen``, ``outage``,
      ``degrade``);
    * ``config`` — the initial ``(M, B, T)`` deployment;
    * ``slo`` / ``percentile`` — the endpoint's latency target;
    * ``platform`` — the endpoint's service-time/pricing/fault model
      (``None`` = a default :class:`ServerlessPlatform`);
    * ``chooser`` — optional per-endpoint controller (the fallback when
      the fleet scheduler abstains); ``decision_interval_s`` paces it;
    * ``share`` — this endpoint's fraction of a single shared trace when
      :meth:`FleetEngine.run` is given one array instead of per-endpoint
      streams (see :func:`split_by_shares`);
    * ``pool`` / ``drift`` / ``prediction`` / ``guardrail`` /
      ``prewarm`` / ``generation`` — the same grouped config dataclasses
      the single engine takes (``generation`` turns the lane into a
      token-streaming endpoint; lanes mix freely, so one fleet can serve
      a chat endpoint continuously batched next to request-level lanes);
    * ``priority`` — the brownout tier (PR 10): under fleet-wide
      overload, lower tiers shed first, and the failover pass serves
      higher tiers first;
    * ``outages`` / ``degrade`` — the lane's infrastructure-fault model
      and graceful-degradation stack, exactly the single engine's
      ``ServingEngine(outages=..., degrade=...)`` knobs.
    """

    name: str
    config: BatchConfig
    slo: float = 0.1
    percentile: float = 95.0
    platform: ServerlessPlatform | None = None
    chooser: object | None = None
    decision_interval_s: float | None = None
    min_history: int = 32
    share: float | None = None
    pool: WarmPoolConfig | None = None
    drift: DriftConfig | None = None
    prediction: PredictionDriftConfig | None = None
    guardrail: GuardrailConfig | None = None
    prewarm: PrewarmConfig | None = None
    generation: GenerationConfig | None = None
    priority: int = 0
    outages: OutageModel | None = None
    degrade: DegradeConfig | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if "." in self.name:
            raise ValueError(
                f"name must not contain '.', got {self.name!r} "
                "(it namespaces telemetry as serving.<name>.*)"
            )
        if self.name in ENGINE_NAMESPACES:
            raise ValueError(
                f"name must not be one of {sorted(ENGINE_NAMESPACES)}, got "
                f"{self.name!r} (the dashboard reads serving.{self.name}.* "
                "as a single-engine counter)"
            )
        if self.slo <= 0:
            raise ValueError(f"slo must be > 0, got {self.slo}")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {self.percentile}"
            )
        if self.decision_interval_s is not None and self.decision_interval_s <= 0:
            raise ValueError(
                f"decision_interval_s must be > 0 or None, "
                f"got {self.decision_interval_s}"
            )
        if self.share is not None and not 0.0 < self.share <= 1.0:
            raise ValueError(f"share must be in (0, 1], got {self.share}")


def split_by_shares(
    timestamps: np.ndarray,
    endpoints: list[EndpointSpec],
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Split one arrival trace across endpoints by their ``share`` weights.

    Each arrival is assigned independently (a thinned Poisson process
    stays Poisson), with probabilities proportional to the shares. The
    split is a pure function of ``(timestamps, shares, seed)`` — it uses
    its own seeded generator, never global state.
    """
    ts = check_sorted(np.asarray(timestamps, dtype=float), "timestamps")
    missing = [e.name for e in endpoints if e.share is None]
    if missing:
        raise ValueError(
            f"endpoints without a share cannot split a single trace: {missing}"
        )
    shares = np.asarray([e.share for e in endpoints], dtype=float)
    edges = np.cumsum(shares) / shares.sum()
    rng = np.random.default_rng(seed)
    lane = np.searchsorted(edges, rng.random(ts.size), side="right")
    return {e.name: ts[lane == i] for i, e in enumerate(endpoints)}


# ------------------------------------------------------------ shared budget
class FleetBudget:
    """A fleet-wide cap on live containers across all endpoint pools.

    ``max_containers`` bounds busy + warm-idle containers summed over
    every registered pool (``None`` = unbounded, in which case the budget
    never denies anything). A pool asking to provision a cold container
    when the fleet is at the cap triggers a *global* eviction: the
    least-recently-freed idle container anywhere — ties broken by lane
    registration order, then container id — is reclaimed, whichever
    tenant owns it. With every container busy fleet-wide, admission is
    denied and the batch queues in its own lane.

    A budget is built fresh per :meth:`FleetEngine.run` (pools register
    at pool construction), so runs never share eviction state.

    ``freed`` is raised by every call that may free capacity anywhere in
    the fleet — a release (donor releases and prewarms included), a kill,
    a keep-alive sweep, a retirement, a budget eviction — and lowered when
    the fleet drains. Of these, only releases and kills can turn a denied
    acquire into a grant (the others remove idle containers, which a
    denied lane could not use or could have evicted itself); the rest
    raise it too, so that "nothing was freed" needs no such argument. A
    pool's own-cap eviction raises nothing: the same acquire refills the
    slot.
    """

    def __init__(self, max_containers: int | None = None) -> None:
        if max_containers is not None and max_containers < 1:
            raise ValueError(
                f"max_containers must be >= 1 or None, got {max_containers}"
            )
        self.max_containers = max_containers
        self._pools: list[WarmPool] = []
        self.freed = False

    def register(self, pool: WarmPool) -> None:
        self._pools.append(pool)

    def live_containers(self, now: float) -> int:
        """Busy + warm-idle containers fleet-wide (after lazy expiry)."""
        return sum(p.live_containers(now) for p in self._pools)

    def admit_cold(self, now: float) -> bool:
        """May a new container be provisioned anywhere in the fleet?"""
        if self.max_containers is None:
            return True
        for pool in self._pools:
            pool._expire(now)
        live = sum(len(p._containers) for p in self._pools)
        if live < self.max_containers:
            return True
        # Each pool's least-recently-freed idle container, and the oldest
        # of those: the global minimum of (free_at, lane, container_id).
        tops = [
            (top[0], lane, top[1])
            for lane, pool in enumerate(self._pools)
            if (top := pool._oldest_idle()) is not None
        ]
        if not tops:
            return False
        _, lane, victim_id = min(tops)
        victim = self._pools[lane]
        heappop(victim._idle_heap)
        del victim._containers[victim_id]
        victim.stats.evicted += 1
        self.freed = True
        return True


class BudgetedWarmPool(WarmPool):
    """A :class:`WarmPool` whose cold starts charge a shared fleet budget
    and whose capacity-freeing calls raise the budget's ``freed`` flag
    (:meth:`prewarm` through :meth:`release`)."""

    def __init__(
        self,
        config: WarmPoolConfig | None,
        cold_start,
        budget: FleetBudget,
        outage=None,
    ) -> None:
        super().__init__(config, cold_start, outage=outage)
        self.budget = budget
        budget.register(self)

    def _admit_cold(self, now: float) -> bool:
        return self.budget.admit_cold(now)

    def _expire(self, now: float) -> None:
        heap = self._idle_heap
        if heap and now - heap[0][0] > self.config.keep_alive_s:
            # The sweep will pop at least this entry (a stale one, at
            # worst, which makes the flag merely conservative).
            self.budget.freed = True
            super()._expire(now)

    def release(self, container_id: int, now: float) -> None:
        self.budget.freed = True
        super().release(container_id, now)

    def kill(self, container_id: int) -> None:
        self.budget.freed = True
        super().kill(container_id)

    def retire_idle(self, now: float, memory_mb: float, n: int) -> int:
        retired = super().retire_idle(now, memory_mb, n)
        if retired:
            self.budget.freed = True
        return retired

    def wake_at(self, now: float) -> float:
        """The first clock value from which an acquire denied at ``now``
        may act differently with no capacity freed in between: the end of
        the outage window open at ``now`` (windows are closed-open), or
        the instant the oldest idle container expires. ``inf`` if neither.

        The expiry instant is the smallest float ``t`` with ``t - free_at
        > keep_alive_s`` — :meth:`_expire`'s own comparison, which is
        monotone in ``t`` — so ``now >= wake_at(...)`` holds exactly when
        the sweep would reclaim that container.
        """
        windows = self.outage.windows if self.outage is not None else ()
        wake = next((w.end for w in windows if w.start <= now < w.end),
                    math.inf)
        keep = self.config.keep_alive_s
        oldest = self._oldest_idle()
        if oldest is not None and not math.isinf(keep):
            free_at = oldest[0]
            t = free_at + keep
            while t - free_at > keep:
                t = math.nextafter(t, -math.inf)
            while not t - free_at > keep:
                t = math.nextafter(t, math.inf)
            wake = min(wake, t)
        return wake


class _LaneEngine(ServingEngine):
    """A per-endpoint engine whose pool can draw on a shared budget.

    With ``fleet_budget`` unset it *is* a ``ServingEngine`` (the base
    pool, no budget checks) — the keystone equivalence path.
    """

    fleet_budget: FleetBudget | None = None

    def _make_pool(self) -> WarmPool:
        if self.fleet_budget is None:
            return super()._make_pool()
        return BudgetedWarmPool(
            self.pool_config, self.platform.cold_start, self.fleet_budget,
            outage=self.outage_config,
        )


# --------------------------------------------------------------- scheduler
class FleetScheduler:
    """Cross-tenant ``(M, B, T)`` arbitration via the MBS decomposition.

    At each fleet decision tick the scheduler sees every endpoint's
    recent interarrival history, rebuilds them as
    :class:`~repro.batching.multiclass.RequestClass` streams, and runs
    the decomposed multi-class optimizer: per memory tier each endpoint
    independently picks its cheapest SLO-feasible ``(B, T)``, and the
    cheapest tier where every endpoint is feasible wins (cost-min subject
    to all SLOs). The plan is one shared ``M`` with per-endpoint
    ``(B, T)`` — exactly the MBS deployment shape.

    Planning runs on **fresh fault-free platforms** cloned from each
    endpoint's profile/pricing: the live platforms' generators must never
    be consumed by what-if simulation, or the fleet would stop being
    bit-reproducible. :meth:`decide` abstains (returns ``None``) while
    any endpoint's history is shorter than ``min_history`` — the lanes'
    own choosers remain the fallback controllers.
    """

    def __init__(
        self,
        memories: tuple[float, ...] = (512.0, 1024.0, 2048.0, 4096.0),
        batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
        timeouts: tuple[float, ...] = (0.0, 0.025, 0.05, 0.1),
        min_history: int = 32,
    ) -> None:
        if not memories or not batch_sizes or not timeouts:
            raise ValueError("memories, batch_sizes, timeouts must be non-empty")
        if min_history < 1:
            raise ValueError(f"min_history must be >= 1, got {min_history}")
        self.memories = tuple(memories)
        self.batch_sizes = tuple(batch_sizes)
        self.timeouts = tuple(timeouts)
        self.min_history = min_history

    @staticmethod
    def _planning_platform(platform: ServerlessPlatform) -> ServerlessPlatform:
        """A fault-free, cold-start-free clone for what-if simulation."""
        return ServerlessPlatform(
            profile=platform.profile, pricing=platform.pricing
        )

    def decide(
        self,
        histories: dict[str, np.ndarray],
        endpoints: list[EndpointSpec],
    ) -> dict[str, BatchConfig] | None:
        """Arbitrate one plan, or ``None`` when history is insufficient."""
        if any(
            histories.get(e.name) is None
            or histories[e.name].size < self.min_history
            for e in endpoints
        ):
            return None
        classes = []
        platforms = {}
        for e in endpoints:
            hist = np.asarray(histories[e.name], dtype=float)
            ts = np.concatenate([[0.0], np.cumsum(hist)])
            classes.append(RequestClass(
                name=e.name, timestamps=ts, slo=e.slo,
                percentile=e.percentile, priority=e.priority,
            ))
            platforms[e.name] = self._planning_platform(
                e.platform if e.platform is not None else ServerlessPlatform()
            )
        config, _result = optimize_multiclass(
            classes,
            platforms[endpoints[0].name],
            memories=self.memories,
            batch_sizes=self.batch_sizes,
            timeouts=self.timeouts,
            platforms=platforms,
        )
        return {e.name: config.batch_config(e.name) for e in endpoints}


# ------------------------------------------------------------------- fleet
@dataclass
class FleetLog:
    """Per-endpoint :class:`ServingLog`\\ s plus fleet-level aggregates."""

    name: str
    logs: dict[str, ServingLog]
    fleet_decisions: int = 0
    max_containers: int | None = None

    def __getitem__(self, endpoint: str) -> ServingLog:
        return self.logs[endpoint]

    @property
    def endpoints(self) -> list[str]:
        return list(self.logs)

    @property
    def n_requests(self) -> int:
        return sum(log.n_requests for log in self.logs.values())

    @property
    def n_served(self) -> int:
        return sum(log.n_served for log in self.logs.values())

    @property
    def n_shed(self) -> int:
        return sum(log.n_shed for log in self.logs.values())

    @property
    def total_cost(self) -> float:
        return float(sum(log.total_cost for log in self.logs.values()))

    @property
    def cost_per_request(self) -> float:
        served = self.n_served
        return self.total_cost / served if served else float("nan")

    def publish(self, registry) -> None:
        """Add the fleet-level counters to ``registry``: the applied
        scheduler plans, when there were any (the lanes publish their own
        logs, with :meth:`ServingLog.publish`'s skip-zero rule)."""
        if self.fleet_decisions:
            registry.counter("fleet.scheduler_plans").inc(self.fleet_decisions)


class FleetEngine:
    """N endpoint engines on one deterministic event loop.

    Parameters
    ----------
    endpoints:
        The tenants. Each becomes an independent lane — its own
        :class:`BatchingBuffer`, warm pool, chooser, and telemetry
        namespace ``serving.<name>.*``.
    max_containers:
        The shared fleet-wide container budget (``None`` = unconstrained;
        each lane then runs the plain per-endpoint pool, which is the
        keystone-equivalence configuration).
    scheduler:
        Optional :class:`FleetScheduler` arbitrating configs across
        tenants every ``scheduler_interval_s`` of simulated time. When it
        abstains, lanes fall back to their own choosers.
    scheduler_interval_s:
        Cadence of fleet decision ticks (required with a scheduler).
    brownout:
        Optional :class:`~repro.serving.degrade.BrownoutConfig` (PR 10):
        after any fleet step that leaves the total queued-batch backlog
        across all lanes above its cap, the newest queued batch of the
        lowest-priority backlogged lane is shed until the backlog fits —
        controlled load shedding that starves the cheap tier to keep the
        premium tier inside SLO.
    failover:
        Optional :class:`~repro.serving.degrade.FailoverConfig` (PR 10):
        after any fleet step that leaves some lane's queue at least
        ``min_queue`` deep, starved lanes drain batches onto idle
        compatible donors — lanes at the same memory tier with empty
        queues — highest priority first. The owner keeps the accounting;
        the donor hosts the container.
    """

    def __init__(
        self,
        endpoints: list[EndpointSpec],
        max_containers: int | None = None,
        scheduler: FleetScheduler | None = None,
        scheduler_interval_s: float | None = None,
        split_seed: int = 0,
        brownout: BrownoutConfig | None = None,
        failover: FailoverConfig | None = None,
    ) -> None:
        if not endpoints:
            raise ValueError("endpoints must be non-empty")
        names = [e.name for e in endpoints]
        if len(set(names)) != len(names):
            raise ValueError(f"endpoint names must be unique, got {names}")
        if max_containers is not None and max_containers < 1:
            raise ValueError(
                f"max_containers must be >= 1 or None, got {max_containers}"
            )
        if split_seed < 0:
            raise ValueError(f"split_seed must be >= 0, got {split_seed}")
        if scheduler is not None and (
            scheduler_interval_s is None or scheduler_interval_s <= 0
        ):
            raise ValueError(
                "scheduler_interval_s must be > 0 when a scheduler is set"
            )
        self.endpoints = list(endpoints)
        self.max_containers = max_containers
        self.scheduler = scheduler
        self.scheduler_interval_s = scheduler_interval_s
        self.split_seed = split_seed
        self.brownout = brownout
        self.failover = failover

    # ----------------------------------------------------------------- run
    def run(
        self,
        traffic: dict[str, np.ndarray] | np.ndarray,
        name: str = "fleet",
        trace_name: str = "trace",
        histories: dict[str, np.ndarray] | None = None,
        record_trace: bool = False,
    ) -> FleetLog:
        """Serve every endpoint's stream in one merged event loop.

        ``traffic`` is either ``{endpoint: timestamps}`` or a single
        sorted array, which is split across the endpoints by their
        ``share`` weights (:func:`split_by_shares`, seeded with the
        engine's ``split_seed``). ``histories`` optionally seeds each
        lane's observation window, as ``ServingEngine.run(history=...)``
        does.
        """
        if isinstance(traffic, dict):
            unknown = set(traffic) - {e.name for e in self.endpoints}
            if unknown:
                raise ValueError(
                    f"traffic for unknown endpoints: {sorted(unknown)}"
                )
            streams = {
                e.name: np.asarray(traffic.get(e.name, []), dtype=float)
                for e in self.endpoints
            }
        else:
            streams = split_by_shares(traffic, self.endpoints, self.split_seed)

        budget = (
            FleetBudget(self.max_containers)
            if self.max_containers is not None else None
        )
        registry = get_registry()
        heap: list = []  # every lane's events, and the scheduler ticks
        lanes = []  # (engine, state, ctx) per endpoint, in spec order
        for i, spec in enumerate(self.endpoints):
            eng = _LaneEngine(
                spec.config,
                platform=spec.platform,
                chooser=spec.chooser,
                slo=spec.slo,
                pool=spec.pool,
                decision_interval_s=spec.decision_interval_s,
                min_history=spec.min_history,
                drift=spec.drift,
                prediction=spec.prediction,
                guardrail=spec.guardrail,
                prewarm=spec.prewarm,
                generation=spec.generation,
                outages=spec.outages,
                degrade=spec.degrade,
                metrics_prefix=f"serving.{spec.name}",
            )
            eng.fleet_budget = budget
            # Set before _init_state so the lane allocates its
            # failed_over mask and counter.
            eng._failover_enabled = self.failover is not None
            ts = check_sorted(streams[spec.name], f"traffic[{spec.name!r}]")
            history = histories.get(spec.name) if histories else None
            st = eng._init_state(
                ts, name=f"{name}.{spec.name}", trace_name=trace_name,
                history=history, record_trace=record_trace, heap=heap, lane=i,
            )
            ctx = _RunContext(registry=registry)
            lanes.append((eng, st, ctx))
        if self.failover is not None:
            # Donor releases route through the owner lane's completion
            # handler, which needs every lane's pool by index.
            pools = [st.pool for _eng, st, _ctx in lanes]
            for eng, _st, _ctx in lanes:
                eng._donor_pools = pools

        first_arrivals = [
            float(st.ts[0]) for _, st, _ in lanes if st.n
        ]
        first_tick = (
            min(first_arrivals) + self.scheduler_interval_s
            if self.scheduler is not None and first_arrivals else None
        )
        fleet_decisions = self._drive_lanes(lanes, budget, first_tick)

        logs = {
            spec.name: eng._finish(st, ctx)
            for spec, (eng, st, ctx) in zip(self.endpoints, lanes)
        }
        fleet_log = FleetLog(
            name=name, logs=logs, fleet_decisions=fleet_decisions,
            max_containers=self.max_containers,
        )
        if registry.enabled:
            fleet_log.publish(registry)
        return fleet_log

    # ------------------------------------------------------------ internals
    def _drive_lanes(self, lanes, budget, first_tick) -> int:
        """Run every lane to the end on the engine's own loop over their
        shared heap; returns the number of applied scheduler plans.

        A scheduler tick is a fleet heap entry (tie key ``-1``, so first
        at equal ``(time, priority)``), rescheduled while any lane has
        arrivals left. After every lane event the cross-lane passes run
        on that lane's clock when their inputs may have changed; with
        nothing queued each is a no-op. Failover runs while some lane is
        ``min_queue`` deep, brownout while the queued total exceeds its
        cap. The drain (budgeted fleets) runs when the budget's ``freed``
        flag is up, a lane's memory tier changed, or the clock reached a
        queued lane's :meth:`BudgetedWarmPool.wake_at`; otherwise every
        queued acquire would be denied again. ``sync`` keeps per-lane queue
        lengths, their total and the lanes ``min_queue`` deep exact for
        the lanes an event or pass touched. Pinned by the fleet golden
        digests (``test_fleet_passes.py``, ``test_fleet_drive_equivalence``).
        """
        n = len(lanes)
        heap = lanes[0][1].heap
        fleet_decisions = 0
        interval = self.scheduler_interval_s
        if first_tick is not None:
            heappush(heap, (first_tick, _P_DECISION, -1, "tick", None))

        def tick(now: float) -> None:
            nonlocal fleet_decisions
            fleet_decisions += self._scheduler_tick(lanes, now)
            if any(st.arrival_ptr < st.n for _, st, _ in lanes):
                heappush(heap, (now + interval, _P_DECISION, -1, "tick",
                                None))

        min_queue = (self.failover.min_queue if self.failover is not None
                     else None)
        cap = (self.brownout.max_total_queued if self.brownout is not None
               else None)
        qlen = [0] * n
        total = deep = 0
        tiers = [st.active.memory_mb for _eng, st, _ctx in lanes]
        wake = math.inf

        def sync(j: int) -> None:
            nonlocal total, deep
            q = len(lanes[j][1].queue)
            old = qlen[j]
            if q != old:
                qlen[j] = q
                total += q - old
                if min_queue is not None:
                    deep += (q >= min_queue) - (old >= min_queue)

        def after(i: int, st) -> None:
            nonlocal wake
            now = float(st.clock)
            newly_queued = not qlen[i]
            sync(i)
            if budget is not None and st.active.memory_mb != tiers[i]:
                tiers[i] = st.active.memory_mb
                budget.freed = True
            if not total:
                # Nothing queued: every pass would be a no-op, and this
                # counts as the drain for the freed flag.
                if budget is not None:
                    budget.freed = False
                    wake = math.inf
                return
            if budget is not None:
                if newly_queued and qlen[i]:
                    wake = min(wake, st.pool.wake_at(now))
                if budget.freed or now >= wake:
                    budget.freed = False
                    for j in self._drain_queues(lanes, now):
                        sync(j)
                    wake = min((lanes[j][1].pool.wake_at(now)
                                for j in range(n) if qlen[j]),
                               default=math.inf)
            if deep:
                for j in self._failover_pass(lanes, now):
                    sync(j)
            if cap is not None and total > cap:
                self._brownout_pass(lanes, now)
                for j in range(n):
                    sync(j)

        # Uncoupled lanes run the same loop with no passes.
        coupled = (budget is not None or self.failover is not None
                   or self.brownout is not None)
        _run_lanes(lanes, tick=tick if first_tick is not None else None,
                   after=after if coupled else None)
        return fleet_decisions

    def _scheduler_tick(self, lanes, now: float) -> int:
        """Run one fleet arbitration; returns 1 if a plan was applied."""
        histories = {
            spec.name: np.diff(np.asarray(st.recent_ts, dtype=float))
            for spec, (_eng, st, _ctx) in zip(self.endpoints, lanes)
        }
        plan = self.scheduler.decide(histories, self.endpoints)
        if plan is None:
            return 0
        for spec, (eng, st, ctx) in zip(self.endpoints, lanes):
            eng._inject_decision(st, ctx, now, plan[spec.name], "fleet")
        return 1

    @staticmethod
    def _drain_queues(lanes, now: float) -> set[int]:
        """Start queued batches anywhere the shared budget now allows.

        Without this pass a lane whose only pending work is queued
        batches would never see the capacity another lane frees: it has
        no completion event of its own. Returns the indices of lanes that
        started at least one batch, whose queues changed.
        """
        changed: set[int] = set()
        for lane, (eng, st, ctx) in enumerate(lanes):
            # Pop only after the start: ``_start_batch`` never reads the
            # queue, so peeking keeps the event order of pop-then-start.
            while st.queue and eng._try_start(st, ctx, st.queue[0], now):
                st.queue.popleft()
                changed.add(lane)
        return changed

    def _failover_pass(self, lanes, now: float) -> set[int]:
        """Drain starved lanes onto idle compatible donor lanes.

        Owners (queue at least ``min_queue`` deep) are served highest
        priority first (ties: lane order); donors are lanes at the same
        active memory tier with an empty queue of their own, tried in
        lane order. The owner keeps all accounting — its latencies, its
        fault draws, its bill — while the donor's pool hosts the
        container (see ``ServingEngine._start_batch``). Returns
        the owner lanes that dispatched (their queues changed).
        """
        min_queue = self.failover.min_queue
        changed: set[int] = set()
        owners = sorted(
            (i for i, (_eng, st, _ctx) in enumerate(lanes)
             if len(st.queue) >= min_queue),
            key=lambda i: (-self.endpoints[i].priority, i),
        )
        for o in owners:
            o_eng, o_st, o_ctx = lanes[o]
            memory_mb = o_st.active.memory_mb
            for d, (d_eng, d_st, d_ctx) in enumerate(lanes):
                if d == o or d_st.queue:
                    continue
                if d_st.active.memory_mb != memory_mb:
                    continue
                while o_st.queue:
                    lease = d_st.pool.acquire(now, memory_mb)
                    if lease is None:
                        break
                    batch = o_st.queue.popleft()
                    o_eng._start_batch(
                        o_st, o_ctx, batch, memory_mb, lease.cold_delay,
                        lease.cold, lease.container_id, now, donor=d,
                        slowdown=d_eng._straggler_factor(d_ctx,
                                                         lease.container_id),
                    )
                    changed.add(o)
                if not o_st.queue:
                    break
        return changed

    def _brownout_pass(self, lanes, now: float) -> None:
        """Shed the fleet's backlog down to the brownout cap.

        While the total queued-batch count exceeds ``max_total_queued``,
        drop the *newest* queued batch (LIFO — the oldest waiters keep
        their place) from the lowest-priority backlogged lane (ties:
        later lane first).
        """
        cap = self.brownout.max_total_queued
        total = sum(len(st.queue) for _eng, st, _ctx in lanes)
        while total > cap:
            victim = max(
                (i for i, (_eng, st, _ctx) in enumerate(lanes) if st.queue),
                key=lambda i: (-self.endpoints[i].priority, i),
            )
            eng, st, ctx = lanes[victim]
            batch = st.queue.pop()
            i0 = batch.first_index
            st.shed[i0:i0 + batch.size] = True
            st.counters["brownout_shed"] += batch.size
            if st.trace is not None or ctx.journal is not None:
                eng._emit(st, ctx, ("brownout_shed", now, batch.size))
            total -= 1
