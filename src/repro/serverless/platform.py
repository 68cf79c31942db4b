"""Serverless platform model: function instances and invocation accounting.

Under Lambda-style autoscaling every dispatched batch gets its own
(concurrent) execution environment, so batches never queue behind each
other; the platform's role in the simulation is the deterministic service
time, the billing record, and (optionally) cold starts and a concurrency
cap. :class:`ServerlessPlatform` bundles those pieces behind one interface
used by the ground-truth simulator.

Execution returns a struct-of-arrays :class:`BatchExecution`
(start/service/cold/cost arrays) instead of one Python object per
invocation. :meth:`ServerlessPlatform.execute_batches_grid` runs one batch
schedule at several memory tiers, broadcasting the service-time and
pricing math over all of them at once; :meth:`execute_batches` is its
one-tier case.

With a :class:`~repro.serverless.faults.FaultModel` attached, execution
additionally runs the per-batch retry loop of
:mod:`repro.serverless.faults`: failed and timed-out attempts re-dispatch
under the platform's :class:`~repro.serverless.faults.RetryPolicy`, adding
latency (backoff + wasted runs) and cost (every attempt billed) to the
affected batches. With the fault model absent or disabled — the default —
that code path is never entered and outputs are bit-identical to a
fault-free build (enforced by equivalence tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

import numpy as np

from repro.serverless.faults import (
    DEFAULT_RETRY_POLICY,
    FaultModel,
    RetryPolicy,
    inject_faults,
    rejecting_starts,
)
from repro.serverless.pricing import LambdaPricing
from repro.serverless.service_profile import ColdStartModel, ServiceProfile
from repro.telemetry.events import RetryEvent
from repro.telemetry.metrics import get_registry
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class BatchExecution:
    """Struct-of-arrays outcome of executing one batch schedule.

    All arrays are aligned per batch. ``start_times`` is when each
    invocation actually began — equal to the requested dispatch time unless
    a concurrency cap delayed it.

    The fault-layer fields are ``None`` on fault-free executions:
    ``attempts``/``failed``/``fault_delays`` come from the retry loop
    (:mod:`repro.serverless.faults`), ``throttle_retries`` counts throttle
    rejections per batch. ``fault_delays`` is already folded into
    :attr:`completion_times`.
    """

    memory_mb: float
    start_times: np.ndarray
    batch_sizes: np.ndarray
    service_times: np.ndarray
    cold_starts: np.ndarray
    costs: np.ndarray
    attempts: np.ndarray | None = None
    failed: np.ndarray | None = None
    fault_delays: np.ndarray | None = None
    throttle_retries: np.ndarray | None = None

    @property
    def n_batches(self) -> int:
        return self.start_times.size

    @property
    def completion_times(self) -> np.ndarray:
        base = self.start_times + self.cold_starts + self.service_times
        if self.fault_delays is not None:
            base = base + self.fault_delays
        return base

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    # ------------------------------------------------------ fault accounting
    @property
    def n_retries(self) -> int:
        """Invocation retries (failed/timed-out attempts that re-ran)."""
        return int((self.attempts - 1).sum()) if self.attempts is not None else 0

    @property
    def n_throttle_retries(self) -> int:
        return (
            int(self.throttle_retries.sum())
            if self.throttle_retries is not None
            else 0
        )

    @property
    def n_failed_batches(self) -> int:
        return int(self.failed.sum()) if self.failed is not None else 0

    @property
    def n_failed_requests(self) -> int:
        """Requests whose batch exhausted every attempt."""
        if self.failed is None:
            return 0
        return int(self.batch_sizes[self.failed].sum())


def _throttled_starts(
    dispatch_times: np.ndarray, durations: np.ndarray, limit: int
) -> np.ndarray:
    """Earliest-available-slot start times under a fixed concurrency pool.

    A min-heap of slot free-times replaces the naive argmin-over-slots scan:
    O(n log C) instead of O(n·C), with identical results — the start time
    depends only on the *minimum* free time, never on which slot holds it.
    """
    n = dispatch_times.size
    free = [0.0] * min(limit, n)
    heapify(free)
    starts = np.empty(n)
    for i in range(n):
        slot = heappop(free)
        d = dispatch_times[i]
        start = d if d > slot else slot
        starts[i] = start
        heappush(free, start + durations[i])
    return starts


@dataclass
class ServerlessPlatform:
    """A Lambda-like platform executing batched inference invocations.

    ``faults`` attaches the optional fault model; ``retry_policy`` governs
    how failed/rejected invocations re-dispatch. Both are inert unless the
    fault model is enabled.
    """

    profile: ServiceProfile = field(default_factory=ServiceProfile)
    pricing: LambdaPricing = field(default_factory=LambdaPricing)
    cold_start: ColdStartModel | None = None
    concurrency_limit: int | None = None
    seed: int | None = None
    faults: FaultModel | None = None
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY

    def __post_init__(self) -> None:
        if self.concurrency_limit is not None and self.concurrency_limit < 1:
            raise ValueError("concurrency_limit must be >= 1 or None")
        self._rng = as_rng(self.seed)

    @property
    def faults_active(self) -> bool:
        """True when an enabled fault model is attached."""
        return self.faults is not None and self.faults.enabled

    def spawn_rng(self, *key: int) -> np.random.Generator:
        """Deterministic child generator for ``(seed, key)``.

        Independent of the shared ``_rng`` stream's mutable state, so
        call sites that must be order-independent (grid sweeps evaluated in
        any grouping, parallel dataset labeling) derive their cold-start
        randomness from a stable key instead of consumption order.
        """
        entropy = self.seed if self.seed is not None else 0
        return np.random.default_rng(
            np.random.SeedSequence(entropy=entropy, spawn_key=tuple(key))
        )

    def execute_batches(
        self,
        dispatch_times: np.ndarray,
        batch_sizes: np.ndarray,
        memory_mb: float,
        rng: np.random.Generator | None = None,
    ) -> BatchExecution:
        """Execute a batch schedule; returns the struct-of-arrays outcome.

        With a ``concurrency_limit`` set, excess invocations are delayed
        until an execution slot frees up (Lambda's account-level throttle),
        which adds queueing delay on top of the buffer wait. ``rng``
        overrides the platform's shared generator for cold-start sampling
        *and* fault draws (used by deterministic parallel labeling and
        order-independent grid sweeps).

        With an enabled fault model, each batch additionally runs the
        retry loop: transient failures and timeouts re-dispatch under
        :attr:`retry_policy`, re-billing every attempt and delaying
        completion; the slot occupancy seen by the concurrency throttle
        includes those retries.
        """
        return self.execute_batches_grid(
            dispatch_times, batch_sizes, [memory_mb],
            rngs=None if rng is None else [rng],
        )[0]

    def _execute_faulty(
        self,
        dispatch_times: np.ndarray,
        batch_sizes: np.ndarray,
        memory_mb: float,
        service: np.ndarray,
        colds: np.ndarray,
        rng: np.random.Generator,
    ) -> BatchExecution:
        """The fault-injected execution path (fault model enabled only)."""
        n = dispatch_times.size
        durations = colds + service
        outcome = inject_faults(
            durations, memory_mb, self.pricing, self.faults, self.retry_policy, rng
        )
        # Slot occupancy covers the whole retry loop: wasted runs and
        # backoffs hold the execution environment.
        busy = durations + outcome.fault_delays
        throttle_retries = np.zeros(n, dtype=int)
        if self.concurrency_limit is not None:
            if self.faults.throttle_rejection:
                starts, throttle_retries = rejecting_starts(
                    dispatch_times, busy, self.concurrency_limit,
                    self.retry_policy, rng,
                )
            else:
                starts = _throttled_starts(dispatch_times, busy, self.concurrency_limit)
        else:
            starts = dispatch_times
        execution = BatchExecution(
            memory_mb=memory_mb,
            start_times=starts,
            batch_sizes=batch_sizes,
            service_times=service,
            cold_starts=colds,
            costs=np.asarray(outcome.costs),
            attempts=outcome.attempts,
            failed=outcome.failed,
            fault_delays=outcome.fault_delays,
            throttle_retries=throttle_retries,
        )
        registry = get_registry()
        if registry.enabled:
            self._observe_faults(registry, execution, outcome)
        return execution

    @staticmethod
    def _observe_faults(registry, execution: BatchExecution, outcome) -> None:
        registry.counter("fault.attempts").inc(int(execution.attempts.sum()))
        registry.counter("fault.retries").inc(execution.n_retries)
        registry.counter("fault.timeouts").inc(int(outcome.timed_out.sum()))
        registry.counter("fault.failed_batches").inc(execution.n_failed_batches)
        registry.counter("fault.failed_requests").inc(execution.n_failed_requests)
        registry.counter("fault.throttle_retries").inc(execution.n_throttle_retries)
        if execution.n_retries or execution.n_failed_batches \
                or execution.n_throttle_retries:
            registry.record_event(RetryEvent(
                memory_mb=execution.memory_mb,
                batches=execution.n_batches,
                retries=execution.n_retries,
                timeouts=int(outcome.timed_out.sum()),
                failed_batches=execution.n_failed_batches,
                failed_requests=execution.n_failed_requests,
                throttle_retries=execution.n_throttle_retries,
            ))

    def execute_batches_grid(
        self,
        dispatch_times: np.ndarray,
        batch_sizes: np.ndarray,
        memories: "list[float] | np.ndarray",
        rngs: "list[np.random.Generator] | None" = None,
    ) -> list[BatchExecution]:
        """Execute one shared batch schedule at several memory tiers.

        The schedule (dispatch times and batch sizes) depends only on the
        (B, T) policy, so grid sweeps form it once and evaluate every
        memory tier here: the service-time and pricing math broadcasts over
        an (M, n) matrix in one shot. Per-tier state (cold-start draws, the
        concurrency heap) still runs per memory, so a tier's result does
        not depend on which other tiers share the call. ``rngs`` supplies
        one cold-start generator per tier for order-independent sweeps.
        """
        dispatch_times = np.asarray(dispatch_times, dtype=float)
        batch_sizes = np.asarray(batch_sizes, dtype=int)
        if dispatch_times.shape != batch_sizes.shape:
            raise ValueError("dispatch_times and batch_sizes must align")
        mems = np.asarray(memories, dtype=float)
        if rngs is not None and len(rngs) != mems.size:
            raise ValueError("rngs must align with memories")
        n = dispatch_times.size
        if n == 0:
            empty = np.empty(0)
            return [
                BatchExecution(float(m), empty, np.empty(0, int), empty, empty, empty)
                for m in mems
            ]

        # (M, n): rows are memory tiers, columns are batches.
        service = np.asarray(
            self.profile.service_time(mems[:, None], batch_sizes[None, :]),
            dtype=float,
        ).reshape(mems.size, n)
        if self.cold_start is not None:
            colds = np.stack([
                self.cold_start.sample_delays(
                    float(m),
                    n,
                    (rngs[k] if rngs is not None else self._rng),
                )
                for k, m in enumerate(mems)
            ])
        else:
            colds = np.zeros((mems.size, n))
        if self.faults_active:
            # Fault draws must come from each tier's own generator (right
            # after its cold draws) so grid results match the per-config
            # path and stay independent of grouping order.
            return [
                self._execute_faulty(
                    dispatch_times, batch_sizes, float(m), service[k], colds[k],
                    rngs[k] if rngs is not None else self._rng,
                )
                for k, m in enumerate(mems)
            ]

        durations = colds + service
        costs = np.broadcast_to(
            np.asarray(self.pricing.invocation_cost(mems[:, None], durations)),
            (mems.size, n),
        )

        out = []
        for k, m in enumerate(mems):
            if self.concurrency_limit is not None:
                starts = _throttled_starts(
                    dispatch_times, durations[k], self.concurrency_limit
                )
            else:
                starts = dispatch_times
            out.append(BatchExecution(
                memory_mb=float(m),
                start_times=starts,
                batch_sizes=batch_sizes,
                service_times=service[k],
                cold_starts=colds[k],
                costs=costs[k],
            ))
        return out
