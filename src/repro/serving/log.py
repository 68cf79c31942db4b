"""The serving runtime's result log, scoreable like an :class:`ExperimentLog`.

A :class:`ServingLog` records one live run at two granularities: per request
(arrival, latency, shed/failed flags) and per executed batch (dispatch,
start, size, cost, cold/warm, memory tier, cold delay, service time), plus
every decision the controller took and the runtime counters the offline
harness cannot express (cold-start rate, shed requests, reconfigurations,
drift triggers).

:meth:`ServingLog.to_experiment_log` re-bins the run into trace segments and
returns a genuine :class:`~repro.evaluation.harness.ExperimentLog`, so the
whole of :mod:`repro.evaluation` — VCR series, cost series, comparison
tables, plots — scores live runs and offline replays through one interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.batching.config import BatchConfig
from repro.evaluation.harness import ExperimentLog, SegmentOutcome
from repro.evaluation.metrics import (
    generation_goodput as _generation_goodput,
    goodput as _goodput,
    nan_percentile as _nan_percentile,
    slo_attainment as _slo_attainment,
    vcr as _vcr,
)


class BatchColumns:
    """Chunked struct-of-arrays accumulator for the per-batch record.

    The serving engine appends one row per executed batch (dispatch, start,
    size, cost, cold, memory, retries, cold delay, service). Growing nine
    Python lists and converting them with ``np.asarray`` at the end of a
    run boxes every scalar twice; this accumulator writes straight into
    preallocated numpy chunks of ``chunk_rows`` rows and concatenates the
    chunks once in :meth:`arrays`. The object pickles (checkpoint snapshots
    carry it), and :meth:`arrays` produces dtypes identical to the
    historical ``np.asarray`` conversion, so :class:`ServingLog` contents
    are bit-identical to the list-backed build.
    """

    chunk_rows = 1024

    def __init__(self) -> None:
        self._count = 0
        self._full: list[tuple[np.ndarray, ...]] = []
        self._alloc()

    def _alloc(self) -> None:
        rows = self.chunk_rows
        self._dispatch = np.empty(rows)
        self._start = np.empty(rows)
        self._size = np.empty(rows, dtype=int)
        self._cost = np.empty(rows)
        self._cold = np.empty(rows, dtype=bool)
        self._memory = np.empty(rows)
        self._retries = np.empty(rows, dtype=int)
        self._cold_delay = np.empty(rows)
        self._service = np.empty(rows)
        self._fill = 0

    def _chunk(self, rows: int) -> tuple[np.ndarray, ...]:
        return (self._dispatch[:rows], self._start[:rows], self._size[:rows],
                self._cost[:rows], self._cold[:rows], self._memory[:rows],
                self._retries[:rows], self._cold_delay[:rows],
                self._service[:rows])

    def __len__(self) -> int:
        return self._count

    def append(self, dispatch: float, start: float, size: int, cost: float,
               cold: bool, memory: float, retries: int, cold_delay: float,
               service: float) -> None:
        i = self._fill
        if i == self.chunk_rows:
            self._full.append(self._chunk(self.chunk_rows))
            self._alloc()
            i = 0
        self._dispatch[i] = dispatch
        self._start[i] = start
        self._size[i] = size
        self._cost[i] = cost
        self._cold[i] = cold
        self._memory[i] = memory
        self._retries[i] = retries
        self._cold_delay[i] = cold_delay
        self._service[i] = service
        self._fill = i + 1
        self._count += 1

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(dispatch, start, sizes, costs, cold, memory, retries,
        cold_delay, service)`` as freshly-owned arrays (float, float, int,
        float, bool, float, int, float, float)."""
        chunks = list(self._full)
        if self._fill:
            chunks.append(self._chunk(self._fill))
        if not chunks:
            return (np.empty(0), np.empty(0), np.empty(0, dtype=int),
                    np.empty(0), np.empty(0, dtype=bool), np.empty(0),
                    np.empty(0, dtype=int), np.empty(0), np.empty(0))
        return tuple(np.concatenate(column) for column in zip(*chunks))


@dataclass
class ServingDecision:
    """One controller invocation inside the serving loop.

    Mutable on purpose: the engine back-fills ``applied_at`` when (and if)
    the decided configuration survives the deploy lag and takes effect.
    """

    time: float
    # "interval" | "drift" | "prediction-drift" | "initial" |
    # "guardrail" (breaker trip) | "guardrail-probe" (half-open re-admission)
    reason: str
    config: BatchConfig
    decision_time: float
    degraded: bool = False
    applied_at: float | None = None  # None: no reconfiguration was needed
    predicted_p95: float | None = None


@dataclass
class ServingLog:
    """Everything one :class:`~repro.serving.engine.ServingEngine` run saw."""

    name: str
    trace: str
    slo: float
    # Per request, in arrival order. Every request is served, shed or
    # failed. A shed request's latency is NaN; a failed request keeps its
    # last attempt's, or NaN if it never started (``unserved_batches``).
    arrival_times: np.ndarray
    latencies: np.ndarray
    shed: np.ndarray
    failed: np.ndarray
    # Per executed batch (execution start order).
    dispatch_times: np.ndarray
    start_times: np.ndarray
    batch_sizes: np.ndarray
    batch_costs: np.ndarray
    batch_cold: np.ndarray
    batch_memory: np.ndarray
    batch_retries: np.ndarray = field(default_factory=lambda: np.empty(0, int))
    #: The provisioning delay each row's container paid (0.0 when warm).
    batch_cold_delay: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: The service time that followed the cold start, fault-retry delay
    #: excluded: NaN for an attempt that crashed, a continuous session's
    #: whole hold after its cold start.
    batch_service: np.ndarray = field(default_factory=lambda: np.empty(0))
    # Control plane.
    decisions: list[ServingDecision] = field(default_factory=list)
    reconfigurations: int = 0
    drift_triggers: int = 0
    prediction_drift_triggers: int = 0
    retrains: int = 0
    #: Controller calls that raised; the active configuration was kept.
    decision_errors: int = 0
    shed_batches: int = 0
    #: Batches that waited in the admission queue for a container.
    queued_batches: int = 0
    # Pool scorecard.
    cold_starts: int = 0
    warm_starts: int = 0
    expired_containers: int = 0
    evicted_containers: int = 0
    # Predictive prewarming (PR 8); all zero when the feature is off.
    prewarm_ticks: int = 0
    prewarmed_containers: int = 0
    prewarm_retired: int = 0
    #: Provisioning spend of speculative cold starts (billed off the
    #: request path); add to ``total_cost`` for the all-in bill.
    prewarm_cost: float = 0.0
    # Fault layer.
    n_retries: int = 0
    n_failed: int = 0
    sequence_length: int = 256
    #: Optional deterministic event trace (``record_trace=True`` runs).
    event_trace: list[tuple] | None = None
    # Reliability layer (PR 5): crash safety and the SLO guardrail.
    #: Events the loop processed (every arrival and every heap entry it
    #: popped): a property of the loop, not of the simulated run.
    n_events: int = 0
    checkpoints: int = 0
    guardrail_trips: int = 0
    guardrail_restores: int = 0
    guardrail_probes: int = 0
    guardrail_suppressed: int = 0
    #: Final breaker state ("closed" | "open" | "half-open"), None when the
    #: guardrail was not enabled.
    guardrail_state: str | None = None
    # Token-streaming generation (PR 9); all None/zero when the feature is
    # off. Per-request arrays are NaN for shed requests, and ``tpot`` is
    # also NaN for one-token requests (no decode steps to pace).
    ttft: np.ndarray | None = None
    tpot: np.ndarray | None = None
    prompt_tokens: np.ndarray | None = None
    output_tokens: np.ndarray | None = None
    ttft_slo: float | None = None
    tpot_slo: float | None = None
    gen_sessions: int = 0
    gen_prefill_iterations: int = 0
    gen_decode_iterations: int = 0
    gen_tokens: int = 0
    gen_shed: int = 0
    # Infrastructure outages + graceful degradation (PR 10); all zero/None
    # when the features are off.
    #: Batch dispatches an open outage window refused, one per batch (a
    #: crashed batch dispatches again). The retries that follow (cold-start
    #: backoff, the fleet drain, failover) and refused prewarm ticks add
    #: nothing, so a budget that never binds leaves the count alone.
    outage_denied: int = 0
    crashed_containers: int = 0
    #: Requests that re-entered the queue after their container crashed.
    crash_requeued: int = 0
    straggler_batches: int = 0
    #: Cold-start retries scheduled by the backoff policy during outages.
    cold_retries: int = 0
    cold_retry_exhausted: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    hedge_denied: int = 0
    #: Spend on hedge duplicates (already included in ``total_cost``).
    hedge_cost: float = 0.0
    #: Requests shed by the fleet brownout controller.
    brownout_shed: int = 0
    #: Batches served on a donor lane's container via fleet failover.
    failover_batches: int = 0
    #: Batches still queued when the run ended (an outage window outlasting
    #: the run's last event): their requests count as failed, NaN latency.
    unserved_batches: int = 0
    #: Per-request masks: True where a hedge duplicate was dispatched /
    #: where the batch ran on a donor lane. None when the feature is off.
    hedged: np.ndarray | None = None
    failed_over: np.ndarray | None = None

    # ------------------------------------------------------------ request view
    @property
    def n_requests(self) -> int:
        return self.arrival_times.size

    @property
    def n_shed(self) -> int:
        return int(self.shed.sum())

    @property
    def n_served(self) -> int:
        return self.n_requests - self.n_shed

    def served_latencies(self) -> np.ndarray:
        """Latencies of the requests that were actually served."""
        return self.latencies[~self.shed]

    def p(self, percentile: float) -> float:
        """Latency percentile over the served requests that started: a
        failed request that never started (NaN latency, its batch counted
        by ``unserved_batches``) is left out; :meth:`vcr` charges it."""
        lat = self.served_latencies()
        lat = lat[~np.isnan(lat)]
        if lat.size == 0:
            return np.nan
        return float(np.percentile(lat, percentile))

    def vcr(self, sequence_length: int | None = None,
            percentile: float = 95.0) -> float:
        """SLO Violation Count Ratio over the served requests (Eq. 11). A
        request that never started counts at the largest finite latency
        (``inf`` would read NaN at an integer rank: ``0 * inf``)."""
        length = self.sequence_length if sequence_length is None else sequence_length
        lat = self.served_latencies()
        lat = np.where(np.isnan(lat), np.finfo(float).max, lat)
        return _vcr(lat, self.slo, length, percentile)

    # ------------------------------------------------------ generation view
    @property
    def is_generation(self) -> bool:
        """Whether this log came from a token-streaming run."""
        return self.ttft is not None

    def p_ttft(self, percentile: float) -> float:
        """TTFT percentile over the requests that actually ran (shed NaN
        excluded — pair with :meth:`ttft_attainment`, which charges them)."""
        if self.ttft is None:
            raise ValueError("not a generation log: no TTFT was recorded")
        return _nan_percentile(self.ttft, percentile)

    def p_tpot(self, percentile: float) -> float:
        """TPOT percentile over requests that decoded at least one token."""
        if self.tpot is None:
            raise ValueError("not a generation log: no TPOT was recorded")
        return _nan_percentile(self.tpot, percentile)

    def ttft_attainment(self) -> float:
        """Fraction of *all* requests whose TTFT met the SLO; shed requests
        (NaN TTFT) count as misses. NaN on an empty log."""
        if self.ttft is None:
            raise ValueError("not a generation log: no TTFT was recorded")
        slo = self.ttft_slo if self.ttft_slo is not None else self.slo
        return _slo_attainment(self.ttft, slo)

    def goodput(self, duration: float | None = None) -> float:
        """Requests/sec that met their SLO — the streaming headline metric.

        Generation runs judge TTFT against ``ttft_slo`` (and decode pace
        against ``tpot_slo`` when set); request-level runs judge end-to-end
        latency against ``slo``. Shed requests count as misses either way.
        ``duration`` defaults to the arrival span; a log with fewer than
        two arrivals has no span and returns NaN unless one is given.
        """
        if duration is None:
            if self.n_requests < 2:
                return float("nan")
            duration = float(self.arrival_times.max() - self.arrival_times.min())
            if duration <= 0:
                return float("nan")
        if self.ttft is not None:
            slo = self.ttft_slo if self.ttft_slo is not None else self.slo
            return _generation_goodput(self.ttft, slo, duration,
                                       tpot=self.tpot,
                                       tpot_slo=self.tpot_slo)
        return _goodput(self.latencies, self.slo, duration)

    # ------------------------------------------------------------- cost & pool
    @property
    def total_cost(self) -> float:
        return float(self.batch_costs.sum())

    @property
    def cost_per_request(self) -> float:
        return self.total_cost / self.n_served if self.n_served else np.nan

    @property
    def total_cost_with_prewarm(self) -> float:
        """Request-path spend plus speculative provisioning spend — the
        number the prewarming trade-off must be judged on."""
        return self.total_cost + self.prewarm_cost

    @property
    def cold_start_rate(self) -> float:
        total = self.cold_starts + self.warm_starts
        return self.cold_starts / total if total else 0.0

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_requests if self.n_requests else 0.0

    @property
    def mean_decision_time(self) -> float:
        times = [d.decision_time for d in self.decisions]
        return float(np.mean(times)) if times else 0.0

    @property
    def degraded_decisions(self) -> int:
        return sum(1 for d in self.decisions if d.degraded)

    # -------------------------------------------------------------- telemetry
    def publish(self, registry, prefix: str) -> None:
        """Add this run's counters and histograms to ``registry`` under
        ``<prefix>.*``.

        ``guardrail.*`` carries no prefix, so fleet lanes add up. Only
        nonzero counters and non-empty histograms are created; NaN marks
        "no value" (a shed request's latency, a crashed attempt's service)
        and is skipped. ``batches``/``cold_starts``/``warm_starts`` count
        batch rows (hedges, crashed attempts and failovers included), not
        the pool leases of :attr:`cold_starts`; ``queue_delay`` and
        ``cold_delay`` take one value per batch row and per cold batch row,
        so their counts equal those two counters. A continuous run's rows
        are its sessions: they publish ``gen.session_seconds`` instead of
        ``queue_delay``.
        """
        rows = int(self.batch_cold.size)
        cold = int(self.batch_cold.sum())
        decisions = sum(1 for d in self.decisions if d.reason != "guardrail")
        table = (
            (f"{prefix}.requests", self.n_requests),
            (f"{prefix}.batches", rows),
            (f"{prefix}.cold_starts", cold),
            (f"{prefix}.warm_starts", rows - cold),
            (f"{prefix}.queued_batches", self.queued_batches),
            (f"{prefix}.shed_batches", self.shed_batches),
            (f"{prefix}.unserved_batches", self.unserved_batches),
            (f"{prefix}.shed_requests", self.n_shed - self.brownout_shed),
            (f"{prefix}.decisions", decisions),
            (f"{prefix}.decision_errors", self.decision_errors),
            (f"{prefix}.reconfigurations", self.reconfigurations),
            (f"{prefix}.drift_triggers", self.drift_triggers),
            (f"{prefix}.prediction_drift_triggers",
             self.prediction_drift_triggers),
            (f"{prefix}.retrains", self.retrains),
            (f"{prefix}.prewarm.ticks", self.prewarm_ticks),
            (f"{prefix}.prewarm.provisioned", self.prewarmed_containers),
            (f"{prefix}.prewarm.cost", self.prewarm_cost),
            (f"{prefix}.prewarm.retired", self.prewarm_retired),
            (f"{prefix}.gen.requests",
             self.n_requests if self.is_generation else 0),
            (f"{prefix}.gen.sessions", self.gen_sessions),
            (f"{prefix}.gen.prefill_iterations", self.gen_prefill_iterations),
            (f"{prefix}.gen.decode_iterations", self.gen_decode_iterations),
            (f"{prefix}.gen.tokens", self.gen_tokens),
            (f"{prefix}.gen.shed", self.gen_shed),
            (f"{prefix}.outage.crashes", self.crashed_containers),
            (f"{prefix}.outage.crash_requeued", self.crash_requeued),
            (f"{prefix}.outage.straggler_batches", self.straggler_batches),
            (f"{prefix}.degrade.cold_retries", self.cold_retries),
            (f"{prefix}.degrade.retry_exhausted", self.cold_retry_exhausted),
            (f"{prefix}.degrade.hedges", self.hedges),
            (f"{prefix}.degrade.hedge_wins", self.hedge_wins),
            (f"{prefix}.degrade.hedge_denied", self.hedge_denied),
            (f"{prefix}.degrade.hedge_cost", self.hedge_cost),
            (f"{prefix}.degrade.failover", self.failover_batches),
            (f"{prefix}.degrade.brownout_shed", self.brownout_shed),
            ("guardrail.tripped", self.guardrail_trips),
            ("guardrail.probe", self.guardrail_probes),
            ("guardrail.restored", self.guardrail_restores),
            ("guardrail.suppressed_decisions", self.guardrail_suppressed),
        )
        for name, value in table:
            if value:
                registry.counter(name).inc(value)
        sessions = self.gen_sessions > 0
        histograms = (
            (f"{prefix}.latency", self.latencies),
            (f"{prefix}.ttft", self.ttft),
            (f"{prefix}.queue_delay",
             None if sessions else self.start_times - self.dispatch_times),
            (f"{prefix}.cold_delay", self.batch_cold_delay[self.batch_cold]),
            (f"{prefix}.gen.session_seconds",
             self.batch_cold_delay + self.batch_service if sessions else None),
        )
        for name, values in histograms:
            if values is None:
                continue
            values = values[~np.isnan(values)]
            if values.size:
                registry.histogram(name).observe_many(values)

    # ------------------------------------------------------------- conversion
    def to_experiment_log(
        self,
        segment_duration: float,
        t_start: float = 0.0,
        first_segment: int = 0,
    ) -> ExperimentLog:
        """Re-bin the run into segments for :mod:`repro.evaluation`.

        Served requests land in the segment of their *arrival*, batch costs
        in the segment of their *dispatch* (billing follows execution), and
        decisions in the segment they were taken — so segment rows of a live
        run line up with the offline harness's per-segment scorecard.
        """
        if segment_duration <= 0:
            raise ValueError("segment_duration must be > 0")
        log = ExperimentLog(
            name=self.name, trace=self.trace, slo=self.slo,
            sequence_length=self.sequence_length,
        )
        if self.n_requests == 0:
            return log
        horizon = float(
            max(self.arrival_times.max(),
                self.dispatch_times.max() if self.dispatch_times.size else -np.inf)
        )
        n_segments = int(np.floor((horizon - t_start) / segment_duration)) + 1
        req_seg = np.floor(
            (self.arrival_times - t_start) / segment_duration
        ).astype(int)
        batch_seg = np.floor(
            (self.dispatch_times - t_start) / segment_duration
        ).astype(int)
        served = ~self.shed
        for k in range(n_segments):
            in_seg = req_seg == k
            decisions = [
                d for d in self.decisions
                if t_start + k * segment_duration
                <= d.time < t_start + (k + 1) * segment_duration
            ]
            log.outcomes.append(SegmentOutcome(
                segment=first_segment + k,
                configs=tuple(d.config for d in decisions),
                latencies=self.latencies[in_seg & served],
                total_cost=float(self.batch_costs[batch_seg == k].sum()),
                n_requests=int(in_seg.sum()),
                decision_times=tuple(d.decision_time for d in decisions),
                sequence_length=self.sequence_length,
                n_retries=(
                    int(self.batch_retries[batch_seg == k].sum())
                    if self.batch_retries.size else 0
                ),
                n_failed=int((in_seg & served & self.failed).sum()),
                degraded_decisions=sum(1 for d in decisions if d.degraded),
            ))
        return log
