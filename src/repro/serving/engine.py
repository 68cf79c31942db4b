"""The discrete-event serving runtime (`repro serve`).

Everything else in the repo replays *fixed* segments offline; this engine
runs the same components — :class:`BatchingBuffer`,
:class:`ServerlessPlatform`, any ``Chooser`` — as a **live system** in which
arrivals, batch timeouts, invocation completions, controller decisions, and
reconfigurations interleave in simulated time on one event heap:

========================  ====================================================
event                     what happens
========================  ====================================================
``Arrival``               a request enters the buffer; may release batches
``BatchDispatch``         a buffer timeout fires (the (B, T) policy's timer)
``Completion``            an invocation finishes; its container goes warm and
                          the head of the admission queue starts
``DecisionTick``          the controller re-optimizes (periodic or
                          drift-triggered)
``Reconfigure``           a decided ``(M, B, T)`` takes effect after the
                          deploy lag; in-flight batches finish under the old
                          configuration
``RetrainComplete``       a drift-triggered fine-tune lands; the drift
                          envelope is refit on recent traffic
``PrewarmTick``           the predictive prewarmer forecasts the near-future
                          arrival rate and provisions/retires warm
                          containers ahead of demand
``GenStep``               a continuous-batching session reaches an iteration
                          boundary: finished decodes leave, waiting requests
                          join, the next prefill/decode step is planned
``Crash``                 a container dies mid-batch: it leaves the pool and
                          the batch re-enters the dispatch path
``ColdRetry``             a cold start denied during an outage window is
                          retried after its backoff delay
``Hedge``                 a batch is still in flight past the hedge delay; a
                          duplicate is dispatched and the first finish wins
========================  ====================================================

Arrivals are read straight from the sorted timestamp array; every other
kind is a heap entry, dispatched through one ``kind -> handler`` table
(:attr:`ServingEngine._handlers`). One loop processes both,
:func:`_run_lanes`: plain, checkpointed, journaled and chaos runs drive
it as one lane, differing only in where it stops, and a fleet drives all
its lanes through it over one shared heap.
Every request-level batch — plain, under the fault layer, or
failed over from another fleet lane — starts in one routine,
:meth:`ServingEngine._start_batch`.

The engine adds the state the offline path cannot express — a warm-pool
keep-alive model (:mod:`repro.serving.pool`), reconfiguration lag, and
admission control — while keeping the **equivalence property** that anchors
its correctness: with a static configuration, infinite keep-alive, zero
deploy lag, and no shedding, per-request latencies and per-batch costs match
:func:`repro.batching.simulator.simulate` bit-for-bit (with and without a
concurrency limit). The offline simulator is a special case of the runtime.

Determinism: the heap orders events by ``(time, priority, lane << 40 |
sequence)`` (lane 0 outside a fleet); the
pool draws no randomness; fault draws use one fixed-draw-count child
generator per dispatched batch (``platform.spawn_rng(batch_index)``, the
discipline of :mod:`repro.serverless.faults`), so two runs with the same
seed produce identical event traces and :class:`ServingLog`\\ s.

Crash safety (PR 5): the entire mutable state of a run lives in one
picklable :class:`_RunState`, so the engine can snapshot itself at any
event boundary (:mod:`repro.serving.checkpoint`) and
:meth:`ServingEngine.restore` continues a killed run **bit-identically** to
one that never crashed — the determinism property above is what makes the
resumed event stream exact, and the journal-replay check enforces it. An
optional SLO guardrail (:mod:`repro.serving.guardrail`) watches completed
latencies and circuit-breaks to a safe configuration when the learned
controller's predictions go wrong at runtime. Both features are off by
default. A snapshot restores only into the build that wrote it
(:data:`~repro.serving.checkpoint.SNAPSHOT_FORMAT`) and only into an engine
whose every constructor parameter but the chooser compares equal to the
writer's (:meth:`ServingEngine._fingerprint`); the run's counters are kept
under the :class:`ServingLog` field names they end up in.

Telemetry: counters and histograms are published once per run, from the
finished :class:`ServingLog` (:meth:`ServingLog.publish`) and the buffer's
dispatched batches (:meth:`BatchingBuffer.publish`), both called by
``_finish``. The loop itself records only reconfigure, guardrail and
checkpoint events and the ``checkpoint.*`` counters; sheds and drift
triggers reach the report as counters read from the finished log. An
enabled registry does not change which loop runs.
"""

from __future__ import annotations

import os
import pickle
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from heapq import heappop, heappush

import numpy as np

from repro.batching.buffer import Batch, BatchingBuffer
from repro.batching.config import BatchConfig
from repro.batching.continuous import ContinuousSession, GenRequest
from repro.core.drift import prediction_drift
from repro.core.types import Decision
from repro.evaluation.harness import Chooser, _resolve_sequence_length
from repro.serverless.faults import inject_faults
from repro.serverless.outages import OutageModel
from repro.serverless.platform import ServerlessPlatform
from repro.serving.config import (
    DriftConfig,
    GenerationConfig,
    PredictionDriftConfig,
    PrewarmConfig,
)
from repro.serving.checkpoint import (
    CheckpointError,
    Journal,
    JournalReplayError,
    SimulatedCrash,
    journal_path,
    jsonable,
    read_snapshot,
    write_snapshot,
)
from repro.serving.degrade import DegradeConfig, HedgeWindow
from repro.serving.guardrail import OPEN, GuardrailConfig, SLOGuardrail
from repro.serving.log import BatchColumns, ServingDecision, ServingLog
from repro.serving.pool import WarmPool, WarmPoolConfig
from repro.serving.prewarm import PrewarmPolicy
from repro.telemetry.events import (
    CheckpointEvent,
    GuardrailEvent,
    ReconfigureEvent,
)
from repro.telemetry.metrics import get_registry
from repro.utils.rng import spawned_pcg64_states
from repro.utils.validation import check_sorted

# Heap tie-break priorities: completions free containers before anything
# else at the same instant; reconfigurations land before the arrivals of
# that instant; arrivals join a batch whose deadline falls on their own
# timestamp (closed-interval semantics), so they precede the timer.
_P_COMPLETION = 0
_P_RECONFIGURE = 1
_P_ARRIVAL = 2
_P_TIMER = 3
_P_DECISION = 4
_P_RETRAIN = 5
_P_PREWARM = 6
_P_GENSTEP = 7
# PR 10 (outages & degradation): a crash vacates its container like a
# completion, so it ranks with completions; cold-start retries and hedge
# checks are background work that defers to everything else at an instant.
_P_CRASH = _P_COMPLETION
_P_COLD_RETRY = 8
_P_HEDGE = 9

# Event kinds: the keys of the engine's handler table. Heap entries are
# dispatched by dict lookup, which compares by value, so a heap restored
# from a pickle (whose strings are fresh objects) dispatches the same.
_K_COMPLETION = "completion"
_K_TIMER = "timer"
_K_RECONFIGURE = "reconfigure"
_K_DECISION = "decision"
_K_RETRAIN = "retrain"
_K_PREWARM = "prewarm"
_K_GENSTEP = "genstep"
_K_CRASH = "crash"
_K_COLD_RETRY = "cold_retry"
_K_HEDGE = "hedge"

_INF = float("inf")
#: A heap entry's tie key is ``lane << _LANE_SHIFT | seq``: lane 0's keys
#: are its push counts, and a fleet's lanes share one heap.
_LANE_SHIFT = 40
#: The stop of a drive with no snapshot cadence or chaos hook: an int, so
#: the per-event stop check stays one int compare.
_NO_STOP = sys.maxsize

#: A run's counters, keyed by the :class:`ServingLog` fields they become;
#: every run keeps all of them, and ``_finish`` passes them on as they are.
_COUNTERS = {
    "reconfigurations": 0, "drift_triggers": 0,
    "prediction_drift_triggers": 0, "retrains": 0, "decision_errors": 0,
    "shed_batches": 0, "queued_batches": 0, "n_retries": 0, "checkpoints": 0,
    "guardrail_trips": 0, "guardrail_restores": 0, "guardrail_probes": 0,
    "guardrail_suppressed": 0, "prewarm_ticks": 0, "prewarm_cost": 0.0,
    "gen_sessions": 0, "gen_prefill_iterations": 0,
    "gen_decode_iterations": 0, "gen_tokens": 0, "gen_shed": 0,
    "crashed_containers": 0, "crash_requeued": 0, "straggler_batches": 0,
    "cold_retries": 0, "cold_retry_exhausted": 0, "hedges": 0,
    "hedge_wins": 0, "hedge_denied": 0, "hedge_cost": 0.0,
    "brownout_shed": 0, "failover_batches": 0, "unserved_batches": 0,
    "outage_denied": 0,
}


@dataclass
class _RunState:
    """The complete mutable state of one engine run.

    Everything here pickles, and everything mutable about a run lives here
    (the engine object itself only holds immutable policy) — that is the
    invariant checkpoint/restore rests on: snapshot this object and the run
    can continue in another process, bit-identically.
    """

    name: str
    trace_name: str
    ts: np.ndarray
    n: int
    buffer: BatchingBuffer
    pool: WarmPool
    heap: list
    seq: int
    queue: deque
    timers: set
    recent_ts: deque
    active: BatchConfig
    target: BatchConfig
    reconfig_gen: int = 0
    arrival_ptr: int = 0
    cooldown_until: float = -np.inf
    retrain_pending: bool = False
    pred_p95: float | None = None
    recent_latencies: list = field(default_factory=list)
    guardrail: SLOGuardrail | None = None
    clock: float = -np.inf
    events_processed: int = 0
    # Generation mode (None unless a GenerationConfig is set).
    prompt_tokens: np.ndarray | None = None
    output_tokens: np.ndarray | None = None
    ttft: np.ndarray | None = None
    tpot: np.ndarray | None = None
    gen_queue: deque | None = None
    gen_sessions: dict | None = None
    gen_session_meta: dict | None = None
    # Infrastructure faults & degradation; None unless an
    # OutageModel/DegradeConfig needs them.
    inflight: dict | None = None
    hedge_obs: HedgeWindow | None = None
    hedged: np.ndarray | None = None
    failed_over: np.ndarray | None = None
    # Outputs.
    latencies: np.ndarray = None
    shed: np.ndarray = None
    failed: np.ndarray = None
    batches: BatchColumns = field(default_factory=BatchColumns)
    decisions: list = field(default_factory=list)
    trace: list | None = None
    counters: dict = field(default_factory=dict)


@dataclass
class _RunContext:
    """Transient per-drive plumbing that must NOT be checkpointed:
    the live telemetry registry, the open journal handle, the snapshot
    cadence, the chaos hook, the journal-replay expectation, and the
    service/cost memo caches (pure-function caches — a restore rebuilds
    them from scratch with identical values)."""

    registry: object
    journal: Journal | None = None
    snapshot_path: str | None = None
    checkpoint_every: int = 256
    crash_after: int | None = None
    replay_expect: list | None = None
    replay_pos: int = 0
    #: ``(memory_mb, size) -> (ttft, tpot)`` of the buffer-mode generation
    #: timing, and ``memory_mb -> {±n: duration}``, the iteration-duration
    #: memo shared by every continuous session at that memory.
    service_cache: dict = field(default_factory=dict)
    #: ``(memory_mb, size, cold_delay, slowdown) -> (service_time, cost)``.
    cost_cache: dict = field(default_factory=dict)
    #: ``container_id -> straggler slowdown`` — a pure function of the
    #: outage model's seed and the id, so restores rebuild it exactly.
    straggler_cache: dict = field(default_factory=dict)
    #: ``tail -> (block, states)``: the PCG64 states of
    #: ``platform.spawn_rng(row, *tail)`` for the 256 rows of ``block``,
    #: and the one generator :meth:`ServingEngine._batch_rng` sets them on.
    batch_states: dict = field(default_factory=dict)
    batch_rng: np.random.Generator | None = None
    #: ``st.ts`` as a list of floats, built by the first :func:`_run_lanes`
    #: of a drive: the known arrivals a buffer deadline is judged against
    #: (:func:`_fills_by`).
    arrivals: list | None = None
    #: ``(prompt_tokens, output_tokens)`` as lists of ints, built by the
    #: first :func:`_run_lanes` of a continuous-batching drive.
    token_lengths: tuple | None = None


class ServingEngine:
    """Seeded, deterministic online serving loop over an arrival stream.

    Parameters
    ----------
    config:
        The initial ``(M, B, T)`` deployment.
    platform:
        Service-time, pricing, cold-start, and fault models. The platform's
        ``concurrency_limit`` becomes the pool's ``max_containers`` default;
        its queueing throttle itself is *not* used — the warm pool is the
        concurrency model here.
    chooser:
        Optional controller re-deciding at ``decision_interval_s`` and on
        drift triggers; ``None`` serves the static ``config`` forever.
    pool:
        Warm-pool keep-alive and admission parameters. The default is the
        offline simulator's implicit platform: infinite keep-alive,
        ``max_containers`` from the platform's concurrency limit, unbounded
        queueing (no shedding).
    deploy_delay_s:
        Lag between a decision and the new configuration taking effect.
    drift:
        :class:`~repro.serving.config.DriftConfig` grouping the workload
        drift trigger: the fitted
        :class:`~repro.core.drift.WorkloadDriftDetector`, the check
        cadence/cooldown, and the optional delayed retrain. When a live
        window falls outside the training envelope, an out-of-band
        ``DecisionTick`` fires (§III-D's OOD trigger, run against live
        traffic). The default ``DriftConfig()`` carries no detector.
    prediction:
        :class:`~repro.serving.config.PredictionDriftConfig` enabling the
        second §III-D trigger via :func:`prediction_drift`: when the
        relative error between the active decision's predicted p95 and the
        observed p95 exceeds ``tolerance × baseline_error``, the controller
        re-decides. ``None`` disables it.
    guardrail:
        Optional :class:`GuardrailConfig` enabling the SLO circuit breaker:
        a sliding monitor over completed-request latencies that trips to a
        safe fallback configuration after ``k`` consecutive violation
        windows, suppresses learned reconfigurations while open, and
        half-open-probes the controller back in after a cooldown. ``None``
        (the default) changes nothing.
    prewarm:
        Optional :class:`~repro.serving.config.PrewarmConfig` enabling
        predictive warm-pool prewarming: a deterministic periodic
        ``PrewarmTick`` forecasts the near-future arrival rate
        (:mod:`repro.serving.prewarm`), sizes the active tier's warm
        target, and provisions or retires containers ahead of demand.
        ``None`` (the default) changes nothing — runs stay bit-identical
        to the purely reactive pool.
    generation:
        Optional :class:`~repro.serving.config.GenerationConfig` switching
        the workload to token-streaming generation: per-request
        ``(prompt, output)`` token lengths from the seeded length model,
        prefill/decode timing from the
        :class:`~repro.serverless.generation.TokenServiceProfile`, and the
        dispatcher it names — ``"buffer"`` keeps the size/timeout
        :class:`BatchingBuffer` (each batch holds its container for the
        longest decode), ``"continuous"`` runs iteration-level sessions
        where requests join and leave a running batch at token boundaries
        (:mod:`repro.batching.continuous`). The guardrail, when present,
        watches TTFT windows against ``ttft_slo``. ``None`` (the default)
        changes nothing — runs stay bit-identical to the request-level
        engine. Incompatible with active fault injection.
    outages:
        Optional :class:`~repro.serverless.outages.OutageModel` enabling
        the infrastructure-fault layer: scheduled outage windows during
        which the pool denies cold-start provisioning
        (capacity-unavailable), a per-batch container-crash hazard whose
        victims fail mid-batch and re-enter the queue, and a seeded
        straggler model stretching a slow container's service times.
        ``None`` (and a disabled model, which is treated identically)
        changes nothing — runs stay bit-identical to the fault-free tree.
        Incompatible with generation mode (like fault injection).
    degrade:
        Optional :class:`~repro.serving.degrade.DegradeConfig` enabling
        the graceful-degradation stack on top of the fault layer: a
        cold-start retry policy (capacity-denied dispatches back off with
        capped exponential delays instead of parking in the queue) and
        request hedging (a batch in flight past a percentile of recent
        batch durations gets a duplicate dispatch; first completion wins
        the latency, both bill). ``None`` changes nothing.
    metrics_prefix:
        Namespace for the engine's telemetry (counters/histograms). The
        default ``"serving"`` keeps the historical names; the fleet runs
        each endpoint under ``serving.<endpoint>`` so two endpoints never
        share a counter.
    """

    #: Fleet-failover wiring, set per lane by ``FleetEngine.run`` (the
    #: donor pools a foreign completion releases into). The base engine
    #: never fails over.
    _failover_enabled = False
    _donor_pools: list | None = None

    def __init__(
        self,
        config: BatchConfig,
        platform: ServerlessPlatform | None = None,
        chooser: Chooser | None = None,
        slo: float = 0.1,
        pool: WarmPoolConfig | None = None,
        deploy_delay_s: float = 0.0,
        decision_interval_s: float | None = None,
        history_tail: int = 4096,
        min_history: int = 32,
        drift: DriftConfig | None = None,
        prediction: PredictionDriftConfig | None = None,
        sequence_length: int | None = None,
        guardrail: GuardrailConfig | None = None,
        prewarm: PrewarmConfig | None = None,
        generation: GenerationConfig | None = None,
        outages: OutageModel | None = None,
        degrade: DegradeConfig | None = None,
        metrics_prefix: str = "serving",
    ) -> None:
        if slo <= 0:
            raise ValueError(f"slo must be > 0, got {slo}")
        if deploy_delay_s < 0:
            raise ValueError(f"deploy_delay_s must be >= 0, got {deploy_delay_s}")
        if decision_interval_s is not None and decision_interval_s <= 0:
            raise ValueError("decision_interval_s must be > 0 or None")
        if history_tail < 1:
            raise ValueError(f"history_tail must be >= 1, got {history_tail}")
        if not metrics_prefix:
            raise ValueError("metrics_prefix must be non-empty")
        self.initial_config = config
        self.platform = platform if platform is not None else ServerlessPlatform()
        self.chooser = chooser
        self.slo = slo
        self.pool_config = (
            pool
            if pool is not None
            else WarmPoolConfig(max_containers=self.platform.concurrency_limit)
        )
        self.deploy_delay_s = deploy_delay_s
        self.decision_interval_s = decision_interval_s
        self.history_tail = history_tail
        self.min_history = min_history
        self.drift_config = drift if drift is not None else DriftConfig()
        self.prediction_config = prediction
        self.sequence_length = _resolve_sequence_length(chooser, sequence_length)
        self.guardrail_config = guardrail
        self.prewarm_config = prewarm
        self._prewarm_policy = (
            PrewarmPolicy(prewarm) if prewarm is not None else None
        )
        self.generation_config = generation
        # Disabled configs are normalized to None — "disabled" and "absent"
        # are one state, so fingerprints, state layout, and the defaults-off
        # bit-identity contract all collapse to the None checks below.
        self.outage_config = (
            outages if outages is not None and outages.enabled else None
        )
        self.degrade_config = (
            degrade if degrade is not None and degrade.enabled else None
        )
        if generation is not None and (
            self.outage_config is not None or self.degrade_config is not None
        ):
            # Crash/hedge draws are a function of the *batch index* with a
            # fixed draw count per batch; token-level sessions have no such
            # index discipline (same reasoning as fault injection below).
            raise ValueError(
                "generation mode does not support outages or degradation; "
                "drop the outages/degrade configs"
            )
        if generation is not None and self.platform.faults_active:
            # Fault draws are a function of the *batch index* with a fixed
            # draw count per batch; token-level sessions have no such index
            # discipline, so combining the two would silently break the
            # seeded-fault determinism contract. Refuse loudly instead.
            raise ValueError(
                "generation mode does not support fault injection; "
                "use a platform without active faults"
            )
        # Hoisted mode flags: the hot loops branch once on these instead of
        # re-deriving the dispatcher per event.
        self._gen_continuous = (
            generation is not None and generation.dispatcher == "continuous"
        )
        self._gen_buffer = (
            generation is not None and generation.dispatcher == "buffer"
        )
        # The SLO that defines goodput (and feeds the guardrail) in
        # generation mode is time-to-first-token, not end-to-end latency.
        self._gen_ttft_slo = (
            (generation.ttft_slo if generation.ttft_slo is not None else slo)
            if generation is not None else None
        )
        # Hoisted outage/degrade flags: the data plane branches once on
        # these per batch instead of unpacking the configs per event.
        oc = self.outage_config
        dc = self.degrade_config
        self._crash_hazard = (
            oc is not None and oc.crash is not None and oc.crash.enabled
        )
        self._straggler = (
            oc is not None and oc.straggler is not None
            and oc.straggler.enabled
        )
        self._outage_windows = oc is not None and bool(oc.windows)
        self._hedge = dc.hedge if dc is not None else None
        self._backoff = dc.backoff if dc is not None else None
        self.metrics_prefix = metrics_prefix
        # Hot-path flags hoisted out of the event loop: with neither drift
        # trigger configured the cadence check never fires (output-identical
        # — an unconfigured _check_drift is a no-op), and completion
        # latencies only accumulate when the prediction trigger reads them.
        self._drift_enabled = (
            self.drift_config.detector is not None or prediction is not None
        )
        self._track_latencies = prediction is not None

    @cached_property
    def _handlers(self) -> dict:
        """``kind -> handler`` for every event kind, built once per engine.

        Every handler takes ``(st, ctx, now, payload)``. :func:`_run_lanes`
        dispatches every heap event here; arrivals are not heap entries
        and it consumes them inline.
        """
        return {
            _K_COMPLETION: self._on_completion,
            _K_TIMER: self._on_timer,
            _K_RECONFIGURE: self._on_reconfigure,
            _K_DECISION: self._on_decision,
            _K_RETRAIN: self._on_retrain,
            _K_PREWARM: self._on_prewarm,
            _K_GENSTEP: self._on_gen_step,
            _K_CRASH: self._on_crash,
            _K_COLD_RETRY: self._on_cold_retry,
            _K_HEDGE: self._on_hedge,
        }

    # ------------------------------------------------------------------- run
    def run(
        self,
        timestamps: np.ndarray,
        name: str = "serving",
        trace_name: str = "trace",
        history: np.ndarray | None = None,
        record_trace: bool = False,
        checkpoint_path: str | os.PathLike | None = None,
        checkpoint_every: int = 256,
        crash_after_events: int | None = None,
    ) -> ServingLog:
        """Serve ``timestamps`` (absolute, sorted) and return the log.

        ``history`` optionally supplies earlier arrival timestamps that seed
        the controller's observation window and the drift detector's live
        window without being served themselves.

        With ``checkpoint_path`` set, the run becomes crash-safe: the full
        state is snapshotted atomically every ``checkpoint_every`` processed
        events (plus once at the start), and every emitted event is appended
        to ``<checkpoint_path>.journal``. :meth:`restore` continues a killed
        run from those files, bit-identically. ``crash_after_events`` is the
        chaos-testing hook: the engine raises :class:`SimulatedCrash` after
        processing that many events, exactly as a process death at an event
        boundary would.
        """
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if crash_after_events is not None and crash_after_events < 1:
            raise ValueError("crash_after_events must be >= 1 or None")
        ts = check_sorted(np.asarray(timestamps, dtype=float), "timestamps")
        st = self._init_state(ts, name, trace_name, history, record_trace)
        ctx = _RunContext(
            registry=get_registry(),
            snapshot_path=(
                os.fspath(checkpoint_path) if checkpoint_path is not None else None
            ),
            checkpoint_every=checkpoint_every,
            crash_after=crash_after_events,
        )
        if ctx.snapshot_path is not None:
            ctx.journal = Journal(journal_path(ctx.snapshot_path)).open()
            # Event-0 snapshot: a crash before the first cadence boundary
            # must still be restorable.
            self._write_snapshot(st, ctx)
        try:
            return self._drive(st, ctx)
        finally:
            if ctx.journal is not None:
                ctx.journal.close()

    def _init_state(
        self,
        ts: np.ndarray,
        name: str,
        trace_name: str,
        history: np.ndarray | None,
        record_trace: bool,
        heap: list | None = None,
        lane: int = 0,
    ) -> _RunState:
        """The state of a fresh run; a fleet passes its shared ``heap``
        and the lane's index, which prefixes the lane's tie keys."""
        n = ts.size
        recent_ts: deque = deque(maxlen=self.history_tail + 1)
        if history is not None:
            for t in np.asarray(history, dtype=float)[-(self.history_tail + 1):]:
                recent_ts.append(float(t))
        st = _RunState(
            name=name,
            trace_name=trace_name,
            ts=ts,
            n=n,
            buffer=BatchingBuffer(self.initial_config),
            pool=self._make_pool(),
            heap=heap if heap is not None else [],
            seq=lane << _LANE_SHIFT,
            queue=deque(),
            timers=set(),
            recent_ts=recent_ts,
            active=self.initial_config,
            target=self.initial_config,
            latencies=np.full(n, np.nan),
            shed=np.zeros(n, dtype=bool),
            failed=np.zeros(n, dtype=bool),
            trace=[] if record_trace else None,
            counters=dict(_COUNTERS),
        )
        if self.guardrail_config is not None:
            # In generation mode the breaker watches TTFT windows: the
            # user-facing promise for streaming is first-token time, not
            # end-of-decode latency.
            st.guardrail = SLOGuardrail(
                config=self.guardrail_config,
                slo=(self._gen_ttft_slo if self.generation_config is not None
                     else self.slo),
            )
        gen = self.generation_config
        if gen is not None:
            st.prompt_tokens, st.output_tokens = gen.length_model.sample(
                n, gen.seed
            )
            st.ttft = np.full(n, np.nan)
            st.tpot = np.full(n, np.nan)
            if self._gen_continuous:
                st.gen_queue = deque()
                st.gen_sessions = {}
                st.gen_session_meta = {}
        if self._crash_hazard or self._hedge is not None:
            # container_id -> (expected completion, Batch) of the primary
            # dispatch; a crash or hedge check looks its victim up here.
            st.inflight = {}
        if self._hedge is not None:
            st.hedge_obs = HedgeWindow(self._hedge.window)
            st.hedged = np.zeros(n, dtype=bool)
        if self._failover_enabled:
            st.failed_over = np.zeros(n, dtype=bool)
        if n and self.chooser is not None and self.decision_interval_s:
            self._push(st, float(ts[0]) + self.decision_interval_s, _P_DECISION,
                       _K_DECISION, "interval")
        if n and self.prewarm_config is not None:
            # First tick at the trace start: with warmup ``history`` seeding
            # recent_ts the forecaster can cover the opening burst front.
            self._push(st, float(ts[0]), _P_PREWARM, _K_PREWARM, None)
        return st

    def _make_pool(self) -> WarmPool:
        """Pool factory; the fleet overrides it to share a container budget."""
        return WarmPool(self.pool_config, self.platform.cold_start,
                        outage=self.outage_config)

    # --------------------------------------------------------------- restore
    def restore(
        self,
        path: str | os.PathLike,
        verify_journal: bool = True,
        crash_after_events: int | None = None,
    ) -> ServingLog:
        """Resume a checkpointed run and drive it to completion.

        The engine must be constructed with the same parameters as the one
        that wrote the checkpoint (a fingerprint mismatch raises
        :class:`CheckpointError`). The snapshot restores the run state, the
        chooser's internal state, the drift detector's envelope, and the
        platform's bit-generator state; the journal is truncated back to
        the snapshot boundary and — with ``verify_journal`` — the entries
        beyond it (events the crashed run emitted after its last snapshot)
        become a replay assertion: the resumed run must regenerate them
        verbatim, or :class:`JournalReplayError` is raised. Checkpointing
        continues to the same files at the cadence of the original run, so
        a restore can itself be crashed and restored (the chaos harness
        does exactly that via ``crash_after_events``).

        Because the engine is deterministic, the returned
        :class:`ServingLog` is bit-identical to the log of an uninterrupted
        run — that equivalence is this subsystem's keystone property.
        """
        payload = read_snapshot(path)
        theirs = payload.get("fingerprint", {})
        ours = self._fingerprint()
        mismatched = sorted(
            k for k in set(theirs) | set(ours) if theirs.get(k) != ours.get(k)
        )
        if mismatched:
            raise CheckpointError(
                f"checkpoint {os.fspath(path)!r} was written by a differently-"
                f"configured engine; mismatched parameters: {mismatched}"
            )
        st: _RunState = payload["state"]
        if payload.get("chooser") is not None:
            self.chooser = pickle.loads(payload["chooser"])
        detector = self.drift_config.detector
        if payload.get("detector") is not None and detector is not None:
            detector.set_state(payload["detector"])
        if payload.get("rng_state") is not None:
            self.platform._rng.bit_generator.state = payload["rng_state"]

        journal = Journal(journal_path(path))
        entries_on_disk = journal.read()
        keep = int(payload["journal_entries"])
        replay_expect = entries_on_disk[keep:] if verify_journal else None
        journal.open(truncate_to=keep)

        registry = get_registry()
        ctx = _RunContext(
            registry=registry,
            journal=journal,
            snapshot_path=os.fspath(path),
            checkpoint_every=int(payload["checkpoint_every"]),
            crash_after=crash_after_events,
            replay_expect=replay_expect,
        )
        if registry.enabled:
            registry.counter("checkpoint.restores").inc()
            if replay_expect:
                registry.counter("checkpoint.replayed_events").inc(
                    len(replay_expect)
                )
        try:
            return self._drive(st, ctx)
        finally:
            ctx.journal.close()

    def _fingerprint(self) -> dict:
        """What a checkpoint must agree on to be resumable, keyed by
        constructor parameter. Configs compare by value; the chooser
        travels in the snapshot itself."""
        return {
            "config": self.initial_config,
            "platform": self.platform,
            "slo": self.slo,
            "pool": self.pool_config,
            "deploy_delay_s": self.deploy_delay_s,
            "decision_interval_s": self.decision_interval_s,
            "history_tail": self.history_tail,
            "min_history": self.min_history,
            # The detector's state travels in the snapshot, and the retrain
            # hook is code: only the policy scalars compare.
            "drift": replace(self.drift_config, detector=None,
                             on_retrain=None),
            "prediction": self.prediction_config,
            "sequence_length": self.sequence_length,
            "guardrail": self.guardrail_config,
            "prewarm": (
                self.prewarm_config.fingerprint()
                if self.prewarm_config is not None else None
            ),
            "generation": self.generation_config,
            "outages": self.outage_config,
            "degrade": self.degrade_config,
        }

    def _write_snapshot(self, st: _RunState, ctx: _RunContext) -> None:
        try:
            chooser_blob = (
                pickle.dumps(self.chooser, protocol=pickle.HIGHEST_PROTOCOL)
                if self.chooser is not None else None
            )
        except Exception:
            # An unpicklable chooser degrades gracefully: the restore keeps
            # the engine's own chooser instance instead.
            chooser_blob = None
        ctx.journal.sync()  # the snapshot must never reference journal
        # entries the disk does not have
        write_snapshot(ctx.snapshot_path, {
            "fingerprint": self._fingerprint(),
            "state": st,
            "chooser": chooser_blob,
            "detector": (
                self.drift_config.detector.get_state()
                if self.drift_config.detector is not None else None
            ),
            "rng_state": self.platform._rng.bit_generator.state,
            "journal_entries": ctx.journal.entries,
            "checkpoint_every": ctx.checkpoint_every,
        })
        st.counters["checkpoints"] += 1
        registry = ctx.registry
        if registry.enabled:
            registry.counter("checkpoint.snapshots").inc()
            registry.record_event(CheckpointEvent(
                time=float(st.clock),
                events_processed=st.events_processed,
                journal_entries=ctx.journal.entries,
            ))

    # ------------------------------------------------------------ event loop
    def _drive(self, st: _RunState, ctx: _RunContext) -> ServingLog:
        """Run to completion and build the log.

        Every single-engine run drives :meth:`_advance`, the one-lane
        :func:`_run_lanes`. A plain run makes one call with no stop. A
        checkpointed run stops at every
        ``checkpoint_every``-th event to write a snapshot, and the chaos
        hook stops at ``crash_after`` to raise :class:`SimulatedCrash`;
        telemetry adds no stop.
        """
        every = ctx.checkpoint_every if ctx.snapshot_path is not None else None
        crash_after = ctx.crash_after
        while True:
            stop = _NO_STOP
            if every is not None:
                stop = (st.events_processed // every + 1) * every
            if crash_after is not None:
                stop = min(stop, crash_after)
            if not self._advance(st, ctx, stop):
                return self._finish(st, ctx)
            if every is not None and st.events_processed % every == 0:
                self._write_snapshot(st, ctx)
            if crash_after is not None and st.events_processed >= crash_after:
                raise SimulatedCrash(
                    f"chaos hook: killed after {st.events_processed} events"
                )

    def _advance(self, st: _RunState, ctx: _RunContext, stop: int) -> bool:
        """Process this run's events until ``st.events_processed`` reaches
        ``stop`` (True) or none is left (False): :func:`_run_lanes` with
        one lane. At least one event is processed if any is left, so a
        ``stop`` at or below the current count processes exactly one."""
        return _run_lanes(((self, st, ctx),), stop)

    def _on_timer(self, st: _RunState, ctx: _RunContext, now: float,
                  deadline: float) -> None:
        """A buffer timeout fired: release the batches it expired."""
        st.timers.discard(deadline)
        for batch in st.buffer.poll(now):
            self._dispatch(st, ctx, batch, now)
        self._arm_timer(st, ctx)

    # ------------------------------------------------------------- plumbing
    def _push(self, st: _RunState, time: float, priority: int, kind: str,
              payload) -> None:
        heappush(st.heap, (time, priority, st.seq, kind, payload))
        st.seq += 1

    def _emit(self, st: _RunState, ctx: _RunContext, event: tuple) -> None:
        """Record one event in the trace (opt-in) and the journal (when
        checkpointing), verifying journal replay on a restore."""
        if st.trace is not None:
            st.trace.append(event)
        if ctx.journal is not None:
            if (
                ctx.replay_expect is not None
                and ctx.replay_pos < len(ctx.replay_expect)
            ):
                expected = ctx.replay_expect[ctx.replay_pos]
                got = jsonable(event)
                if got != expected:
                    raise JournalReplayError(
                        f"resumed run diverged from the journal at entry "
                        f"{ctx.journal.entries}: expected {expected!r}, "
                        f"regenerated {got!r}"
                    )
                ctx.replay_pos += 1
            ctx.journal.append(event)

    def _arm_timer(self, st: _RunState, ctx: _RunContext) -> None:
        # After any observe/poll/reconfigure the head deadline is
        # strictly in the future, so a timer armed here never fires
        # late; the set dedupes repeat arming of the same deadline. It
        # is armed only if the head batch will not close first, and
        # judged again on every reconfigure.
        deadline = st.buffer.next_deadline()
        if (
            deadline is not None and deadline not in st.timers
            and not _fills_by(st.buffer, ctx.arrivals, st.arrival_ptr,
                              deadline)
        ):
            st.timers.add(deadline)
            self._push(st, deadline, _P_TIMER, _K_TIMER, deadline)

    def _trigger_decision(self, st: _RunState, now: float, reason: str) -> None:
        self._push(st, now, _P_DECISION, _K_DECISION, reason)

    # ----------------------------------------------------------- data plane
    def _service_cost(self, ctx: _RunContext, memory_mb: float, size: int,
                      cold_delay: float,
                      slowdown: float = 1.0) -> tuple[float, float]:
        """``(service time, cost)`` of one fault-free invocation, memoized.

        The service time is stretched by the container's straggler
        ``slowdown``; the cost bills the cold start plus that time. Both
        are pure functions of the key, so the memoized floats are the
        exact values a fresh call would produce — bit-identity is free.
        """
        key = (memory_mb, size, cold_delay, slowdown)
        hit = ctx.cost_cache.get(key)
        if hit is None:
            service = float(
                self.platform.profile.service_time(memory_mb, size)
            ) * slowdown
            hit = ctx.cost_cache[key] = (
                service,
                float(self.platform.pricing.invocation_cost(
                    memory_mb, cold_delay + service
                )),
            )
        return hit

    def _straggler_factor(self, ctx: _RunContext, container_id: int) -> float:
        """Memoized per-container slowdown (1.0 when stragglers are off)."""
        if not self._straggler:
            return 1.0
        factor = ctx.straggler_cache.get(container_id)
        if factor is None:
            factor = self.outage_config.straggler_factor(container_id)
            ctx.straggler_cache[container_id] = factor
        return factor

    def _batch_rng(self, ctx: _RunContext, row: int,
                   *tail: int) -> np.random.Generator:
        """A generator drawing as ``platform.spawn_rng(row, *tail)`` does,
        valid until the next call: the states of 256 consecutive rows come
        from one vectorized pass and are set in turn on one generator."""
        block = row >> 8
        cached = ctx.batch_states.get(tail)
        if cached is None or cached[0] != block:
            seed = self.platform.seed if self.platform.seed is not None else 0
            first = block << 8
            cached = ctx.batch_states[tail] = (block, list(spawned_pcg64_states(
                seed, [(r, *tail) for r in range(first, first + 256)]
            )))
        state, inc = cached[1][row & 255]
        rng = ctx.batch_rng
        if rng is None:
            rng = ctx.batch_rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        return rng

    def _start_batch(self, st: _RunState, ctx: _RunContext, batch: Batch,
                     memory_mb: float, cold_delay: float, cold: bool,
                     container_id: int, start: float,
                     donor: int | None = None, slowdown: float = 1.0) -> None:
        """Start one batch on a leased container: the whole data plane.

        Every request-level batch takes this one path: look up the
        service time, draw the platform faults, bill the invocation,
        write the latencies and failures, push the completion. (A primary
        batch on a token-timed lane goes to :meth:`_start_batch_gen`.)
        Two kinds of dispatch differ only where the fault layer is
        concerned:

        * a *primary* dispatch (``donor is None``) runs on this lane's own
          container. The container's straggler factor stretches the
          service time; the crash hazard may kill it partway (the batch
          bills its partial run, its requests re-enter the queue at the
          crash, and no completion is pushed); a surviving dispatch
          registers in ``st.inflight`` and, with hedging on, schedules a
          hedge check at the percentile delay;
        * a *failed-over* dispatch runs on lane ``donor``'s container,
          whose straggler ``slowdown`` the fleet passes in. The owner
          keeps the accounting (latencies, fault draws, the bill); the
          completion carries the donor index so the release goes back to
          the right pool. It is never crash-checked or hedged (it is
          already the recovery path) and always takes request-level
          timing, also on a token-timed lane.

        Draws use fixed counts from per-batch generator children — faults
        from ``spawn_rng(row)``, the crash coin and point from
        ``spawn_rng(row, 1)``, both through :meth:`_batch_rng` — so
        outcomes are a function of the batch row index, never of event
        order.
        """
        primary = donor is None
        if self._gen_buffer and primary:
            self._start_batch_gen(st, ctx, batch, memory_mb, cold_delay,
                                  cold, container_id, start)
            return
        size = batch.size
        row = len(st.batches)
        if primary and self._straggler:
            slowdown = self._straggler_factor(ctx, container_id)
            if slowdown != 1.0:
                st.counters["straggler_batches"] += 1
        service, cost = self._service_cost(ctx, memory_mb, size, cold_delay,
                                           slowdown)
        platform = self.platform
        if platform.faults_active:
            outcome = inject_faults(
                np.asarray([cold_delay + service]), memory_mb,
                platform.pricing, platform.faults, platform.retry_policy,
                self._batch_rng(ctx, row),
            )
            fault_delay = float(outcome.fault_delays[0])
            cost = float(outcome.costs[0])
            retries = int(outcome.attempts[0]) - 1
            batch_failed = bool(outcome.failed[0])
        else:
            fault_delay = 0.0
            retries = 0
            batch_failed = False
        hedge = self._hedge if primary else None
        crash_time = None
        if primary and (self._straggler or self._crash_hazard
                        or hedge is not None):
            # The fault layer times a primary dispatch by its duration,
            # which the crash point and the hedge window both read.
            duration = cold_delay + service + fault_delay
            completion = start + duration
            if self._crash_hazard:
                u = self._batch_rng(ctx, row, 1).random(2)
                if float(u[0]) < self.outage_config.crash_probability(start):
                    crash_time = start + float(u[1]) * duration
        else:
            # The simulator's association (BatchExecution.completion_times),
            # so the static-config equivalence is bitwise, not merely close.
            completion = start + cold_delay + service + fault_delay
        if crash_time is not None:
            partial = float(platform.pricing.invocation_cost(
                memory_mb, crash_time - start
            ))
            st.batches.append(batch.dispatch_time, start, size, partial,
                              cold, memory_mb, 0, cold_delay, np.nan)
            self._push(st, crash_time, _P_CRASH, _K_CRASH,
                       (container_id, batch))
        else:
            st.batches.append(batch.dispatch_time, start, size, cost, cold,
                              memory_mb, retries, cold_delay, service)
            if retries:
                st.counters["n_retries"] += retries
            i0 = batch.first_index
            stop = i0 + size
            st.latencies[i0:stop] = completion - st.ts[i0:stop]
            if batch_failed:
                st.failed[i0:stop] = True
            if primary:
                if st.inflight is not None:
                    st.inflight[container_id] = (completion, batch)
                if hedge is not None:
                    obs = st.hedge_obs
                    if len(obs) >= hedge.min_observations:
                        hedge_at = start + hedge.multiplier * obs.percentile(
                            hedge.percentile
                        )
                        if hedge_at < completion:
                            self._push(st, hedge_at, _P_HEDGE, _K_HEDGE,
                                       container_id)
                    # The current batch joins the window only after the
                    # delay is computed: a hedge judges against *previous*
                    # dispatches.
                    obs.append(duration)
                payload = (container_id, i0, size)
            else:
                # Only a fleet with failover armed dispatches here, and it
                # arms the lane before _init_state allocates these.
                st.failed_over[i0:stop] = True
                if st.ttft is not None:
                    # Request-level timing on a token-timed lane is the
                    # one-token case: the first token is the response.
                    st.ttft[i0:stop] = st.latencies[i0:stop]
                st.counters["failover_batches"] += 1
                payload = (container_id, i0, size, donor)
            self._push(st, completion, _P_COMPLETION, _K_COMPLETION, payload)
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, (
                ("start", start, container_id, size, cold, memory_mb,
                 completion)
                if primary else ("failover", start, donor, container_id, size)
            ))

    def _on_crash(self, st: _RunState, ctx: _RunContext, now: float,
                  payload) -> None:
        """A container died mid-batch: it leaves the pool immediately
        (freeing any fleet-shared budget), and the batch re-enters the
        dispatch path — a fresh batch row, hence fresh fault/crash draws."""
        container_id, batch = payload
        st.inflight.pop(container_id, None)
        st.pool.kill(container_id)
        st.counters["crashed_containers"] += 1
        st.counters["crash_requeued"] += batch.size
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("crash", now, container_id, batch.size))
        self._dispatch(st, ctx, batch, now)

    def _on_cold_retry(self, st: _RunState, ctx: _RunContext, now: float,
                       payload) -> None:
        """One fired cold-start backoff: retry the acquire; on another
        denial take the next scheduled backoff, and after the last one
        fall back to the ordinary queue-or-shed admission path."""
        batch, attempt, sched = payload
        if self._try_start(st, ctx, batch, now):
            return
        if attempt < len(sched):
            self._schedule_cold_retry(st, ctx, batch, now, attempt, sched)
            return
        st.counters["cold_retry_exhausted"] += 1
        self._enqueue_or_shed(st, ctx, batch, now)

    def _schedule_cold_retry(self, st: _RunState, ctx: _RunContext,
                             batch: Batch, now: float, attempt: int,
                             sched: tuple) -> None:
        """Count one cold-start retry and fire it ``sched[attempt]`` later."""
        st.counters["cold_retries"] += 1
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("cold_retry", now, batch.size, attempt + 1))
        self._push(st, now + sched[attempt], _P_COLD_RETRY, _K_COLD_RETRY,
                   (batch, attempt + 1, sched))

    def _on_hedge(self, st: _RunState, ctx: _RunContext, now: float,
                  container_id: int) -> None:
        """The hedge delay elapsed and the primary is still in flight:
        dispatch a duplicate to a fresh container. The first completion
        wins the latency; both invocations bill (the hedging economics).
        The duplicate is never crash-checked, fault-injected, or itself
        hedged — it is the recovery path — but its own container's
        straggler factor applies.
        """
        rec = st.inflight.get(container_id)
        if rec is None:
            return  # completed (or crashed) before the hedge fired
        completion, batch = rec
        memory_mb = st.active.memory_mb
        lease = st.pool.acquire(now, memory_mb)
        if lease is None:
            # No capacity for speculation — the primary keeps running.
            st.counters["hedge_denied"] += 1
            return
        size = batch.size
        service, cost = self._service_cost(
            ctx, memory_mb, size, lease.cold_delay,
            self._straggler_factor(ctx, lease.container_id),
        )
        dup_completion = now + (lease.cold_delay + service)
        st.batches.append(batch.dispatch_time, now, size, cost, lease.cold,
                          memory_mb, 0, lease.cold_delay, service)
        st.counters["hedges"] += 1
        st.counters["hedge_cost"] += cost
        i0 = batch.first_index
        stop = i0 + size
        st.hedged[i0:stop] = True
        if dup_completion < completion:
            # The duplicate wins: overwrite the primary's latencies (and
            # clear any fault verdict — the winning attempt is clean).
            st.latencies[i0:stop] = dup_completion - st.ts[i0:stop]
            st.failed[i0:stop] = False
            st.counters["hedge_wins"] += 1
        # Size-0 completion payload: release the duplicate's container at
        # its own finish time without re-touching any request slice.
        self._push(st, dup_completion, _P_COMPLETION, _K_COMPLETION,
                   (lease.container_id, i0, 0))
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("hedge", now, container_id,
                                 lease.container_id, size))

    def _start_batch_gen(self, st: _RunState, ctx: _RunContext, batch: Batch,
                         memory_mb: float, cold_delay: float, cold: bool,
                         container_id: int, start: float) -> None:
        """Size/timeout batch under generation timing.

        The batch prefills together (``ttft(M, B)``) and then decodes in
        lockstep; each member's own completion lands after its output
        length, but the container is held — and billed — until the
        *longest* decode in the batch finishes. With every
        ``output_tokens == 1`` this is exactly the request-level
        :meth:`_start_batch`: same service time, same cost, same events.
        """
        gen = self.generation_config
        size = batch.size
        # ttft/tpot are pure functions of (M, B); reuse the service memo.
        key = (memory_mb, size)
        pair = ctx.service_cache.get(key)
        if pair is None:
            pair = (
                float(gen.token_profile.ttft(memory_mb, size)),
                float(gen.token_profile.tpot(memory_mb, size)),
            )
            ctx.service_cache[key] = pair
        ttft, tpot = pair
        i0 = batch.first_index
        stop = i0 + size
        out = st.output_tokens[i0:stop]
        max_out = int(out.max())
        decode = (max_out - 1) * tpot
        duration = cold_delay + ttft + decode
        completion = start + duration
        cost = float(self.platform.pricing.invocation_cost(memory_mb, duration))
        st.batches.append(batch.dispatch_time, start, size, cost, cold,
                          memory_mb, 0, cold_delay, ttft + decode)
        first_token = start + cold_delay + ttft
        arrivals = st.ts[i0:stop]
        st.ttft[i0:stop] = first_token - arrivals
        st.latencies[i0:stop] = first_token + (out - 1) * tpot - arrivals
        st.tpot[i0:stop] = np.where(out > 1, tpot, np.nan)
        st.counters["gen_prefill_iterations"] += 1
        st.counters["gen_decode_iterations"] += max_out - 1
        st.counters["gen_tokens"] += int(out.sum())
        self._push(st, completion, _P_COMPLETION, _K_COMPLETION,
                   (container_id, i0, size))
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("start", start, container_id, size, cold,
                                 memory_mb, completion))

    # ------------------------------------------------- continuous batching
    def _gen_arrival(self, st: _RunState, ctx: _RunContext, now: float,
                     i: int) -> None:
        """A token-streaming arrival: queue it, and open a new session when
        no running session could take it at its next boundary."""
        gen = self.generation_config
        prompt, output = ctx.token_lengths
        req = GenRequest(i, now, prompt[i], output[i])
        # Whether some session could take it: a free slot, and room in the
        # token budget when there is one.
        budget = gen.max_batch_tokens
        footprint = prompt[i] + output[i]
        for sess in st.gen_sessions.values():
            if sess.slots < sess.batch_size and (
                budget is None or sess.tokens + footprint <= budget
            ):
                st.gen_queue.append(req)
                return
        lease = st.pool.acquire(now, st.active.memory_mb)
        if lease is None:
            if (
                gen.max_waiting is not None
                and len(st.gen_queue) >= gen.max_waiting
            ):
                # Admission control: a full pool plus a full wait queue
                # sheds the arrival; it counts against goodput as a miss.
                st.shed[i] = True
                st.counters["gen_shed"] += 1
                if st.trace is not None or ctx.journal is not None:
                    self._emit(st, ctx, ("shed", now, 1))
                return
            st.gen_queue.append(req)
            return
        st.gen_queue.append(req)
        self._open_session(st, ctx, lease, now)

    def _open_session(self, st: _RunState, ctx: _RunContext, lease,
                      now: float) -> None:
        gen = self.generation_config
        cid = lease.container_id
        memory_mb = st.active.memory_mb
        sess = ContinuousSession(
            profile=gen.token_profile,
            memory_mb=memory_mb,
            batch_size=st.active.batch_size,
            max_batch_tokens=gen.max_batch_tokens,
            durations=ctx.service_cache.setdefault(memory_mb, {}),
        )
        # The opening step admits from the (non-empty) queue and plans the
        # first prefill; the cold start delays its boundary.
        duration = sess.step(st.gen_queue)
        st.gen_sessions[cid] = sess
        st.gen_session_meta[cid] = (now, lease.cold, lease.cold_delay)
        st.counters["gen_sessions"] += 1
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("gen_session", now, cid, lease.cold,
                                 sess.memory_mb))
        self._push(st, now + lease.cold_delay + duration,
                   _P_GENSTEP, _K_GENSTEP, cid)

    def _on_gen_step(self, st: _RunState, ctx: _RunContext, now: float,
                     cid: int) -> None:
        """One iteration boundary of a continuous-batching session."""
        sess = st.gen_sessions[cid]
        duration = sess.step(st.gen_queue)
        prefilled = sess.prefilled
        if prefilled:
            ttft = st.ttft
            for req in prefilled:
                ttft[req.index] = now - req.arrival
        finished = sess.finished
        if finished:
            tokens = 0
            for req in finished:
                latency = now - req.arrival
                st.latencies[req.index] = latency
                if req.output_tokens > 1:
                    st.tpot[req.index] = (
                        (latency - st.ttft[req.index]) / (req.output_tokens - 1)
                    )
                tokens += req.output_tokens
            st.counters["gen_tokens"] += tokens
        if st.guardrail is not None and prefilled:
            ttfts = st.ttft[[r.index for r in prefilled]]
            for action, observed in st.guardrail.observe(ttfts, now,
                                                         st.active):
                self._on_guardrail_action(st, ctx, now, action, observed)
        if duration is not None:
            heappush(st.heap, (now + duration, _P_GENSTEP, st.seq, _K_GENSTEP,
                               cid))
            st.seq += 1
        else:
            self._close_session(st, ctx, cid, now)

    def _close_session(self, st: _RunState, ctx: _RunContext, cid: int,
                       now: float) -> None:
        """The session drained: bill the container hold, release it."""
        sess = st.gen_sessions.pop(cid)
        start, cold, cold_delay = st.gen_session_meta.pop(cid)
        duration = now - start
        cost = float(
            self.platform.pricing.invocation_cost(sess.memory_mb, duration)
        )
        # One batch row per session: the whole container hold, all the
        # requests it served, one invocation fee — the continuous win the
        # cost model surfaces.
        st.batches.append(start, start, sess.n_served, cost, cold,
                          sess.memory_mb, 0, cold_delay, duration - cold_delay)
        st.counters["gen_prefill_iterations"] += sess.n_prefills
        st.counters["gen_decode_iterations"] += sess.n_decodes
        st.pool.release(cid, now)
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("gen_release", now, cid, sess.n_served))

    def _try_start(self, st: _RunState, ctx: _RunContext, batch: Batch,
                   now: float) -> bool:
        """Lease a container at the active tier and start ``batch`` on it;
        False when the pool denies the lease."""
        memory_mb = st.active.memory_mb
        lease = st.pool.acquire(now, memory_mb)
        if lease is None:
            return False
        self._start_batch(st, ctx, batch, memory_mb, lease.cold_delay,
                          lease.cold, lease.container_id, start=now)
        return True

    def _fail_unserved(self, st: _RunState, ctx: _RunContext) -> None:
        """The run ended with batches still queued behind a denied pool
        (an outage window outlasting the run): they never start, so
        their requests fail, with NaN latency, and the batches count as
        ``unserved_batches``."""
        emit = st.trace is not None or ctx.journal is not None
        for batch in st.queue:
            st.failed[batch.first_index:batch.first_index + batch.size] = True
            st.counters["unserved_batches"] += 1
            if emit:
                self._emit(st, ctx, ("unserved", st.clock, batch.size))
        st.queue.clear()

    def _dispatch(self, st: _RunState, ctx: _RunContext, batch: Batch,
                  now: float) -> None:
        if self._try_start(st, ctx, batch, now):
            return
        # The pool grants a warm container before it checks the window, so
        # a denial while one is open is the outage's: count the batch once
        # here, never its retries.
        outage = st.pool.outage
        in_outage = outage is not None and outage.active(now)
        if in_outage:
            st.counters["outage_denied"] += 1
        backoff = self._backoff
        if backoff is not None and in_outage:
            # Capacity-unavailable during an outage window: retry the cold
            # start on a capped exponential backoff schedule instead of
            # parking in the queue. The whole jittered schedule is drawn
            # up front from a per-batch generator child (key: first request
            # index) so draws are order-independent and checkpoint-safe.
            rng = self.platform.spawn_rng(batch.first_index, 2)
            sched = backoff.backoff_matrix(1, rng)[:, 0]
            if backoff.max_total_delay_s is not None:
                keep = int(
                    (np.cumsum(sched) <= backoff.max_total_delay_s).sum()
                )
                sched = sched[:keep]
            if sched.size:
                self._schedule_cold_retry(st, ctx, batch, now, 0,
                                          tuple(float(x) for x in sched))
                return
        self._enqueue_or_shed(st, ctx, batch, now)

    def _enqueue_or_shed(self, st: _RunState, ctx: _RunContext, batch: Batch,
                         now: float) -> None:
        """No capacity (and no retry budget left): queue, or shed at the
        queue cap. The tail of the historical ``_dispatch``, split out so
        the cold-retry path can fall back to it after exhaustion."""
        limit = self.pool_config.max_queued_batches
        if limit is not None and len(st.queue) >= limit:
            st.shed[batch.first_index:batch.first_index + batch.size] = True
            st.counters["shed_batches"] += 1
            if st.trace is not None or ctx.journal is not None:
                self._emit(st, ctx, ("shed", now, batch.size))
            return
        st.queue.append(batch)
        st.counters["queued_batches"] += 1
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("queued", now, batch.size))

    def _on_completion(self, st: _RunState, ctx: _RunContext, now: float,
                       payload) -> None:
        foreign = None
        if len(payload) == 3:
            container_id, i0, size = payload
            lat = st.latencies[i0:i0 + size]
            # Generation mode breaks on TTFT windows, not end-of-decode
            # latency — first-token time is the streaming SLO.
            guard_obs = st.ttft[i0:i0 + size] if self._gen_buffer else lat
        else:
            # Failed-over batch: the donor lane's pool hosted the
            # container, so release goes there, and this lane's own queue
            # is left to the fleet's drain pass (popping it here would
            # reorder admissions).
            container_id, i0, size, foreign = payload
            lat = st.latencies[i0:i0 + size]
            guard_obs = lat
        if st.inflight is not None:
            st.inflight.pop(container_id, None)
        if foreign is None:
            st.pool.release(container_id, now)
        else:
            self._donor_pools[foreign].release(container_id, now)
        if self._track_latencies:
            st.recent_latencies.extend(lat.tolist())
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("completion", now, container_id))
        if foreign is None and st.queue:
            self._dispatch(st, ctx, st.queue.popleft(), now)
        if st.guardrail is not None:
            for action, observed in st.guardrail.observe(
                guard_obs, now, st.active
            ):
                self._on_guardrail_action(st, ctx, now, action, observed)

    # --------------------------------------------------------- control plane
    @staticmethod
    def _extract_predicted_p95(decision: Decision) -> float | None:
        opt = getattr(decision, "optimization", None)
        pred = getattr(opt, "predicted_latency", None)
        if pred is None and decision.diagnostics:
            pred = decision.diagnostics.get("predicted_p95")
        return float(pred) if pred is not None else None

    def _inject_decision(self, st: _RunState, ctx: _RunContext, now: float,
                         config: BatchConfig, reason: str,
                         decision_time: float = 0.0,
                         predicted_p95: float | None = None,
                         degraded: bool = False) -> None:
        """Record an externally supplied decision and schedule its rollout.

        The fleet scheduler uses this to push an arbitrated ``(M, B, T)``
        into a lane; ``_on_decision`` funnels chooser output through the
        same path so both produce identical event sequences.
        """
        record = ServingDecision(
            time=now,
            reason=reason,
            config=config,
            decision_time=float(decision_time),
            degraded=degraded,
            predicted_p95=predicted_p95,
        )
        st.decisions.append(record)
        self._emit(st, ctx, ("decision", now, reason, str(config)))
        if config != st.target:
            st.target = config
            st.reconfig_gen += 1
            self._push(st, now + self.deploy_delay_s, _P_RECONFIGURE,
                       _K_RECONFIGURE, (st.reconfig_gen, record, now, reason))

    def _on_decision(self, st: _RunState, ctx: _RunContext, now: float,
                     reason: str) -> None:
        if self.chooser is None:
            return
        suppressed = st.guardrail is not None and st.guardrail.state == OPEN
        hist = np.diff(np.asarray(st.recent_ts, dtype=float))
        if suppressed:
            # The breaker is open: the fallback configuration stays pinned
            # and the learned controller does not get to reconfigure until
            # the half-open probe re-admits it.
            st.counters["guardrail_suppressed"] += 1
            self._emit(st, ctx, ("decision_suppressed", now, reason))
        elif hist.size >= self.min_history:
            try:
                decision = self.chooser.choose(hist, self.slo)
            except Exception:
                # Live serving must survive a controller crash with no
                # fallback decision; keep the active configuration.
                st.counters["decision_errors"] += 1
                self._emit(st, ctx, ("decision_error", now, reason))
                decision = None
            if decision is not None:
                self._inject_decision(
                    st, ctx, now, decision.config, reason,
                    decision_time=float(decision.decision_time),
                    predicted_p95=self._extract_predicted_p95(decision),
                    degraded=decision.degraded,
                )
        if (
            reason == "interval"
            and self.decision_interval_s is not None
            and st.arrival_ptr < st.n
        ):
            self._push(st, now + self.decision_interval_s, _P_DECISION,
                       _K_DECISION, "interval")

    def _on_reconfigure(self, st: _RunState, ctx: _RunContext, now: float,
                        payload) -> None:
        gen, record, decided_at, reason = payload
        if gen != st.reconfig_gen:  # superseded by a newer decision
            return
        old = st.active
        released = st.buffer.reconfigure(record.config, now=now)
        st.active = record.config
        record.applied_at = now
        st.counters["reconfigurations"] += 1
        st.pred_p95 = record.predicted_p95
        st.recent_latencies.clear()
        if ctx.registry.enabled:
            ctx.registry.record_event(ReconfigureEvent(
                time=now, reason=reason,
                memory_mb=st.active.memory_mb,
                batch_size=st.active.batch_size, timeout=st.active.timeout,
                old_memory_mb=old.memory_mb,
                old_batch_size=old.batch_size, old_timeout=old.timeout,
                lag=now - decided_at,
            ))
        self._emit(st, ctx, ("reconfigure", now, str(st.active), reason))
        for batch in released:
            self._dispatch(st, ctx, batch, now)
        self._arm_timer(st, ctx)

    def _on_guardrail_action(self, st: _RunState, ctx: _RunContext,
                             now: float, action: str, observed: float) -> None:
        guard = st.guardrail
        if action == "tripped":
            fallback = guard.fallback_config(st.active)
            st.counters["guardrail_trips"] += 1
            record = ServingDecision(
                time=now, reason="guardrail", config=fallback,
                decision_time=0.0,
            )
            st.decisions.append(record)
            if fallback != st.target:
                # The reactive path deploys immediately (no planner lag):
                # the breaker exists precisely because waiting is the
                # failure mode. A pending learned reconfiguration is
                # superseded by the generation bump.
                st.target = fallback
                st.reconfig_gen += 1
                self._push(st, now, _P_RECONFIGURE, _K_RECONFIGURE,
                           (st.reconfig_gen, record, now, "guardrail"))
            event_config = fallback
        elif action == "probe":
            st.counters["guardrail_probes"] += 1
            self._trigger_decision(st, now, "guardrail-probe")
            event_config = st.active
        else:  # "restored"
            st.counters["guardrail_restores"] += 1
            event_config = st.active
        if ctx.registry.enabled:
            ctx.registry.record_event(GuardrailEvent(
                time=now, action=action, state=guard.state,
                observed_p=float(observed), slo=self.slo,
                memory_mb=event_config.memory_mb,
                batch_size=event_config.batch_size,
                timeout=event_config.timeout,
            ))
        self._emit(st, ctx, ("guardrail", now, action, guard.state))

    def _check_drift(self, st: _RunState, ctx: _RunContext, now: float) -> None:
        if now < st.cooldown_until:
            return
        dc = self.drift_config
        pc = self.prediction_config
        detector = dc.detector
        if (
            detector is not None
            and detector.lo_ is not None
            and len(st.recent_ts) > dc.window
        ):
            window = np.diff(
                np.asarray(st.recent_ts, dtype=float)[-(dc.window + 1):]
            )
            score = detector.score(window)
            if score >= detector.threshold:
                st.counters["drift_triggers"] += 1
                st.cooldown_until = now + dc.cooldown_s
                self._emit(st, ctx, ("drift", now, "workload", round(score, 9)))
                self._trigger_decision(st, now, "drift")
                if dc.retrain_delay_s is not None and not st.retrain_pending:
                    st.retrain_pending = True
                    self._push(st, now + dc.retrain_delay_s, _P_RETRAIN,
                               _K_RETRAIN, None)
                return
        if (
            pc is not None
            and st.pred_p95 is not None
            and len(st.recent_latencies) >= pc.min_samples
        ):
            observed = float(np.percentile(st.recent_latencies, 95.0))
            if observed > 0:
                error = abs(st.pred_p95 - observed) / observed
                if prediction_drift(error, pc.baseline_error, pc.tolerance):
                    st.counters["prediction_drift_triggers"] += 1
                    st.cooldown_until = now + dc.cooldown_s
                    self._emit(st, ctx, ("drift", now, "prediction",
                                         round(error, 9)))
                    self._trigger_decision(st, now, "prediction-drift")

    def _on_retrain(self, st: _RunState, ctx: _RunContext, now: float,
                    _payload) -> None:
        st.retrain_pending = False
        st.counters["retrains"] += 1
        recent = np.diff(np.asarray(st.recent_ts, dtype=float))
        dc = self.drift_config
        if dc.detector is not None:
            try:
                dc.detector.fit(recent, dc.window)
            except ValueError:
                pass  # not enough recent traffic to refit the envelope
        if dc.on_retrain is not None:
            dc.on_retrain(recent)
            # The retrain hook may refit the platform's models in place;
            # drop the memoized service/cost values so later batches see it.
            ctx.service_cache.clear()
            ctx.cost_cache.clear()
        self._emit(st, ctx, ("retrain", now))

    def _on_prewarm(self, st: _RunState, ctx: _RunContext, now: float,
                    _payload) -> None:
        """One predictive-prewarm tick: forecast, size, provision/retire.

        Deterministic and checkpoint-safe by construction: the next tick
        is an ordinary heap event, the counters live in ``st.counters``,
        and the forecaster is stateless — so a restore resumes the tick
        cadence bit-identically without any dedicated policy state.
        """
        pw = self.prewarm_config
        st.counters["prewarm_ticks"] += 1
        tier = st.active.memory_mb
        cold_delay = st.pool.cold_delay(tier)
        # Default horizon: the next tick plus the spin-up the prewarm is
        # replacing — the window demand must be covered ahead of.
        horizon = (
            pw.horizon_s if pw.horizon_s is not None
            else pw.interval_s + cold_delay
        )
        recent = np.diff(
            np.asarray(st.recent_ts, dtype=float)[-(pw.window + 1):]
        )
        service = float(
            self.platform.profile.service_time(tier, st.active.batch_size)
        )
        plan = self._prewarm_policy.plan(
            recent, now, horizon,
            batch_size=st.active.batch_size,
            service_time=service,
            live=st.pool.live_containers(now, tier),
            idle=st.pool.warm_containers(now, tier),
        )
        provisioned = retired = 0
        if plan.provision:
            provisioned = st.pool.prewarm(now, tier, plan.provision)
            if provisioned:
                # Each speculative container bills its cold start off the
                # request path — the trade-off the telemetry surfaces.
                st.counters["prewarm_cost"] += provisioned * float(
                    self.platform.pricing.invocation_cost(tier, cold_delay)
                )
        if plan.retire:
            retired = st.pool.retire_idle(now, tier, plan.retire)
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("prewarm", now, round(plan.rate, 9),
                                 plan.target, provisioned, retired))
        if st.arrival_ptr < st.n:
            self._push(st, now + pw.interval_s, _P_PREWARM, _K_PREWARM, None)

    # ---------------------------------------------------------------- finish
    def _finish(self, st: _RunState, ctx: _RunContext) -> ServingLog:
        """Build the log and, with telemetry on, publish its counters and
        histograms and the buffer's: a crashed leg never gets here, so a
        restored run counts each event once."""
        stats = st.pool.stats
        (b_dispatch, b_start, b_sizes, b_costs, b_cold, b_memory,
         b_retries, b_cold_delay, b_service) = st.batches.arrays()
        log = ServingLog(
            name=st.name, trace=st.trace_name, slo=self.slo,
            arrival_times=st.ts,
            latencies=st.latencies,
            shed=st.shed,
            failed=st.failed,
            dispatch_times=b_dispatch,
            start_times=b_start,
            batch_sizes=b_sizes,
            batch_costs=b_costs,
            batch_cold=b_cold,
            batch_memory=b_memory,
            batch_retries=b_retries,
            batch_cold_delay=b_cold_delay,
            batch_service=b_service,
            decisions=st.decisions,
            cold_starts=stats.cold_starts,
            warm_starts=stats.warm_starts,
            expired_containers=stats.expired,
            evicted_containers=stats.evicted,
            prewarmed_containers=stats.prewarmed,
            prewarm_retired=stats.retired,
            # Counted from the mask: a winning hedge clears failures.
            n_failed=int(st.failed.sum()),
            sequence_length=self.sequence_length,
            event_trace=st.trace,
            n_events=st.events_processed,
            guardrail_state=(
                st.guardrail.state if st.guardrail is not None else None
            ),
            ttft=st.ttft,
            tpot=st.tpot,
            prompt_tokens=st.prompt_tokens,
            output_tokens=st.output_tokens,
            ttft_slo=self._gen_ttft_slo,
            tpot_slo=(
                self.generation_config.tpot_slo
                if self.generation_config is not None else None
            ),
            hedged=st.hedged,
            failed_over=st.failed_over,
            **st.counters,
        )
        if ctx.registry.enabled:
            log.publish(ctx.registry, self.metrics_prefix)
            st.buffer.publish(ctx.registry, st.ts)
        return log


# ------------------------------------------------------------- event loop
def _fills_by(buffer: BatchingBuffer, ts: list, ptr: int,
              deadline: float) -> bool:
    """Whether the arrivals ``ts[ptr:]`` still to come close the buffer's
    head batch by ``deadline``, so that its timer would find the batch
    gone: they fill it by then, or one lands exactly on the deadline. An
    arrival at the deadline goes before the timer and closes the batch
    at that instant, filled or timed out."""
    i = ptr + buffer.config.batch_size - buffer.pending - 1
    if i < len(ts) and ts[i] <= deadline:
        return True
    i = bisect_left(ts, deadline, ptr)
    return i < len(ts) and ts[i] == deadline


def _arrival_runs(lanes) -> list[tuple[int, int]]:
    """The arrivals still to come, merged by ``(time, lane)`` with one
    stable ``lexsort`` and cut into runs of one lane: ``(lane, stop)``
    serves that lane's arrivals up to its index ``stop``."""
    if len(lanes) == 1:
        return [(0, lanes[0][1].n)]
    times, lane, index = (np.concatenate(part) for part in zip(*(
        (st.ts[st.arrival_ptr:], np.full(st.n - st.arrival_ptr, j),
         np.arange(st.arrival_ptr, st.n))
        for j, (_eng, st, _ctx) in enumerate(lanes)
    )))
    if not lane.size:
        return []
    order = np.lexsort((lane, times))
    lane, index = lane[order], index[order]
    last = np.append(np.flatnonzero(np.diff(lane)), lane.size - 1)
    return list(zip(lane[last].tolist(), (index[last] + 1).tolist()))


def _run_lanes(lanes, stop: int = _NO_STOP, after=None, tick=None) -> bool:
    """The event loop of every run: one engine's, or a fleet's lanes.

    ``lanes`` lists ``(engine, st, ctx)``, sharing one heap (``st.heap``)
    ranked ``(time, priority, lane << 40 | seq)``. Arrivals are not heap
    entries: :func:`_arrival_runs` merges them, and one goes first unless
    the heap head is earlier, or at its instant with a lower priority.
    Each event reaches its lane's handlers with the lane's ``(st, ctx)``;
    the heap head is re-read only after a handler pushed. Every lane arms
    a buffer deadline only when its known arrivals will not close the
    head batch by then (:func:`_fills_by`).

    One lane with no hooks is a :class:`ServingEngine` run: it returns
    True when ``st.events_processed`` reaches ``stop``, False when no
    event is left. It feeds the buffer a run of arrivals per
    :meth:`BatchingBuffer.observe` call, cut so that only the run's last
    arrival can close a batch. Each arrival still counts as one event. A
    fleet runs to the end, one arrival per step, calling
    ``after(lane, st)`` after each lane event and ``tick(time)`` for each
    fleet entry (tie key ``-1``: first at equal ``(time, priority)``).
    Batches still queued at the end fail
    (:meth:`ServingEngine._fail_unserved`).
    """
    fleet = len(lanes) > 1 or after is not None or tick is not None
    heap = lanes[0][1].heap
    arrival_locals = []
    for eng, st, ctx in lanes:
        if ctx.arrivals is None:
            ctx.arrivals = st.ts.tolist()
        if eng._gen_continuous and ctx.token_lengths is None:
            ctx.token_lengths = (st.prompt_tokens.tolist(),
                                 st.output_tokens.tolist())
        arrival_locals.append((
            eng, st, ctx, ctx.arrivals, st.buffer, st.timers, st.recent_ts,
            st.trace is not None or ctx.journal is not None,
            eng._gen_continuous, eng._drift_enabled,
            eng.drift_config.check_every,
        ))
    lane_handlers = [(eng._handlers, st, ctx) for eng, st, ctx in lanes]
    runs = _arrival_runs(lanes)
    k = 0
    lane, seg_stop = runs[0] if runs else (0, 0)
    (eng, st, ctx, ts, buffer, timers, recent_ts, emit, continuous,
     check_drift, drift_every) = arrival_locals[lane]
    ptr = st.arrival_ptr
    handlers = eng._handlers
    events = st.events_processed
    # The event count that leaves the arrival loop: ``stop`` for one
    # engine, every event for a fleet (its per-lane bookkeeping).
    brk = events + 1 if fleet else stop
    while True:
        if heap:
            head = heap[0]
            head_time = head[0]
            head_prio = head[1]
        else:
            head_time = _INF
            head_prio = _P_ARRIVAL
        while ptr < seg_stop:
            t = ts[ptr]
            if t > head_time or (t == head_time and head_prio < _P_ARRIVAL):
                break
            end = ptr + 1
            if not (fleet or continuous):
                # A single engine serves a run of arrivals, cut so that
                # only its last one can close a batch: at most the ones
                # that fill it, and one at or after the head deadline only
                # alone. A run also ends before the heap head, at a drift
                # check and at ``stop``.
                lim = min(seg_stop, brk - events + ptr,
                          ptr + buffer.config.batch_size - buffer.pending)
                if check_drift:
                    lim = min(lim, ptr + drift_every - ptr % drift_every)
                if lim > end:
                    deadline = buffer.next_deadline()
                    if deadline is None:
                        deadline = t + buffer.config.timeout
                    lim = bisect_left(ts, deadline, end, lim)
                    end = (bisect_left if head_prio < _P_ARRIVAL
                           else bisect_right)(ts, head_time, end, lim)
            before = len(heap)
            if end > ptr + 1:
                run = ts[ptr:end]
                st.clock = t = run[-1]
                recent_ts.extend(run)
                if emit:
                    for i, t_i in enumerate(run, ptr):
                        eng._emit(st, ctx, ("arrival", t_i, i))
                batches = buffer.observe(*run)
            else:
                st.clock = t
                recent_ts.append(t)
                if emit:
                    eng._emit(st, ctx, ("arrival", t, ptr))
                batches = None if continuous else buffer.observe(t)
            events += end - ptr
            st.arrival_ptr = ptr = end
            if batches is None:
                # Token-streaming arrivals bypass the buffer: they wait in
                # the generation queue and join a running session at its
                # next iteration boundary.
                eng._gen_arrival(st, ctx, t, ptr - 1)
            else:
                for batch in batches:
                    eng._dispatch(st, ctx, batch, t)
                deadline = buffer.next_deadline()
                if (
                    deadline is not None and deadline not in timers
                    and not _fills_by(buffer, ts, ptr, deadline)
                ):
                    timers.add(deadline)
                    heappush(heap, (deadline, _P_TIMER, st.seq, _K_TIMER,
                                    deadline))
                    st.seq += 1
            if check_drift and ptr % drift_every == 0:
                eng._check_drift(st, ctx, t)
            if events >= brk:
                if not fleet:
                    st.events_processed = events
                    return True
                st.events_processed += 1
                if after is not None:
                    after(lane, st)
                brk = events + 1
                before = -1
            if len(heap) != before and heap:
                head = heap[0]
                head_time = head[0]
                head_prio = head[1]
        if ptr >= seg_stop and k + 1 < len(runs):
            k += 1
            lane, seg_stop = runs[k]
            (eng, st, ctx, ts, buffer, timers, recent_ts, emit, continuous,
             check_drift, drift_every) = arrival_locals[lane]
            ptr = st.arrival_ptr
            continue
        if not heap:
            for q_eng, q_st, q_ctx in lanes:
                if q_st.queue:
                    q_eng._fail_unserved(q_st, q_ctx)
            if not fleet:
                st.events_processed = events
            return False
        item = heappop(heap)
        now = item[0]
        if not fleet:
            st.clock = now
            handlers[item[3]](st, ctx, now, item[4])
            events += 1
            if events >= stop:
                st.events_processed = events
                return True
            continue
        tie = item[2]
        if tie < 0:
            tick(now)
            continue
        j = tie >> _LANE_SHIFT
        h, h_st, h_ctx = lane_handlers[j]
        h_st.clock = now
        h[item[3]](h_st, h_ctx, now, item[4])
        h_st.events_processed += 1
        if after is not None:
            after(j, h_st)
