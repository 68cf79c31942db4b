"""The benchmark's six workloads.

A workload builds its inputs from a seed (``setup``), runs a small
operation so imports and lazy set-up finish (``warmup``), then runs
operations ``op(state, i)`` for ``i`` in ``range(state.pass_ops)`` — one
*pass*. The runner repeats ops until the run's time is up; quality metrics
and the digest come from the first pass only, so they do not depend on how
fast the program is.

Load comes from this one process, one operation at a time. The serving
workloads replay an open-loop arrival schedule in simulated time: arrivals
never wait for the system, so queues can grow and shed. ``decide`` is
closed-loop: each ``choose`` is issued after the previous one returns.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.core as core
from repro.arrival import (
    azure_like, interarrivals, mmpp2_with_burstiness, sample_windows,
)
from repro.baseline import BATCHController
from repro.batching.config import BatchConfig, config_grid, grid_features
from repro.serverless.faults import RetryPolicy
from repro.serverless.outages import (
    CrashHazard, OutageModel, OutageWindow, StragglerModel,
)
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    BrownoutConfig, DegradeConfig, DriftConfig, EmpiricalRateForecaster,
    EndpointSpec, FailoverConfig, FleetEngine, GenerationConfig, HedgeConfig,
    PrewarmConfig, ServingEngine, WarmPoolConfig,
)
from tracing import instrument_surrogate

HERE = Path(__file__).resolve().parent
SLO = 0.1  # seconds: the latency objective of every workload


@dataclass
class State:
    """One set-up's inputs and system objects."""

    pass_ops: int
    inputs: list
    objects: dict = field(default_factory=dict)


@dataclass
class OpResult:
    """What one operation produced.

    ``items`` is the work the op completed (decisions, requests or
    windows); ``times`` are the latencies the op reports (the decision
    times inside it; the runner times ops that report none as a whole).
    """

    items: int
    times: list = field(default_factory=list)
    logs: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def load_surrogate():
    """The committed decision model and its SLO margin gamma."""
    meta = json.loads((HERE / "surrogate.json").read_text())
    return core.load_trained(HERE / "surrogate.npz"), float(meta["gamma"])


def poisson(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


#: (burstiness, MMPP cycle time in s) of successive segments of the shaped
#: trace, repeated.
SHAPE = ((1.4, 1.0), (1.9, 2.5), (1.6, 1.75), (1.75, 1.0), (1.5, 2.5))


def shaped_trace(seed: int, n_segments: int, duration: float,
                 base_rate: float = 120.0) -> np.ndarray:
    """Azure-like bursty arrivals whose shape is fixed and whose sampling
    comes from ``seed``.

    ``azure_like`` draws every segment's rate and burstiness from its seed,
    which moves the simulated p95 latency of a served trace by about 10%
    between seeds. Here the diurnal rate profile and the burstiness follow
    a fixed schedule, and each segment holds exactly ``rate x duration``
    arrivals (MMPP(2) gaps rescaled to fill it), so the work per run is the
    same for every seed and a seed moves only where the bursts land.
    """
    parts = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_segments)):
        rate = base_rate * (1.0 + 0.55 * np.sin(2 * np.pi * (i / n_segments - 0.25)))
        burst, cycle = SHAPE[i % len(SHAPE)]
        k = int(round(rate * duration))
        t = mmpp2_with_burstiness(rate, burst, cycle_time=cycle, duty=0.45).sample(
            n_arrivals=k + 1, seed=np.random.default_rng(child))
        parts.append(i * duration + t[:k] * (duration / t[k]))
    return np.concatenate(parts)


class TimedChooser:
    """Times each ``choose`` of a controller from outside and keeps the
    decisions; installed in untraced runs too, where it costs two clock
    reads per decision."""

    def __init__(self, controller) -> None:
        self.times: list[float] = []
        self.decisions: list = []
        self._choose = controller.choose
        controller.choose = self.choose

    def choose(self, history, slo):
        t0 = time.perf_counter()
        decision = self._choose(history, slo)
        self.times.append(time.perf_counter() - t0)
        self.decisions.append(decision)
        return decision

    def drain(self) -> tuple[list, list]:
        times, decisions = self.times, self.decisions
        self.times, self.decisions = [], []
        return times, decisions


# ------------------------------------------------------------------ checks
def check_logs(logs, sent: int) -> list[str]:
    """Every request sent is logged once, and is either shed (no latency)
    or served with a finite, non-negative latency; batch costs are finite
    and non-negative. ``logs`` holds one log per lane."""
    errors = []
    if sum(lg.n_requests for lg in logs) != sent:
        errors.append(f"{sent} requests sent, "
                      f"{sum(lg.n_requests for lg in logs)} logged")
    for lg in logs:
        served = lg.latencies[~lg.shed]
        if not np.all(np.isfinite(served)) or np.any(served < 0):
            errors.append(f"{lg.name}: a served latency is not finite and >= 0")
        if not np.all(np.isnan(lg.latencies[lg.shed])):
            errors.append(f"{lg.name}: a shed request has a latency")
        if not np.all(np.isfinite(lg.batch_costs)) or np.any(lg.batch_costs < 0):
            errors.append(f"{lg.name}: a batch cost is not finite and >= 0")
    return errors


def check_decisions(decisions) -> list[str]:
    for d in decisions:
        if d.degraded:
            return ["a DeepBAT decision was degraded"]
        if d.predictions is None or not np.all(np.isfinite(d.predictions)):
            return ["a DeepBAT prediction is not finite"]
    return []


# ----------------------------------------------------------------- quality
def serving_quality(logs, ttft: bool = False) -> dict:
    """Simulated p95 latency (or time to first token) of served requests,
    cost per 1M served requests with prewarm and hedge spend, share of
    requests *sent* that met the SLO (shed or failed counts as a miss), and
    share of requests sent that were served without failing."""
    lat = np.concatenate([lg.ttft if ttft else lg.latencies for lg in logs])
    shed = np.concatenate([lg.shed for lg in logs])
    failed = np.concatenate([lg.failed for lg in logs]) & ~shed
    served = int((~shed).sum())
    met = ~shed & ~failed & (np.nan_to_num(lat, nan=np.inf) <= SLO)
    cost = sum(lg.total_cost_with_prewarm for lg in logs)
    return {
        "p95_latency_ms": float(np.percentile(lat[~shed], 95.0)) * 1e3,
        "cost_per_mreq": cost / served * 1e6,
        "slo_attainment": float(met.sum()) / lat.size,
        "completed_ratio": float(served - failed.sum()) / lat.size,
    }


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else str(part).encode())
    return h.hexdigest()


# --------------------------------------------------------------- workloads
class Workload:
    name = ""
    why = ""
    #: The kind of code the workload's time goes to, which picks its host
    #: probe (``hostspeed.py``).
    probe = "interpreter"

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def size(self, full: int, smallest: int = 1) -> int:
        return max(smallest, int(round(full * self.scale)))

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def warmup(self, state: State) -> None:
        raise NotImplementedError

    def op(self, state: State, i: int) -> OpResult:
        raise NotImplementedError

    def quality(self, results: list[OpResult]) -> dict:
        return serving_quality([lg for r in results for lg in r.logs])

    def check(self, result: OpResult) -> list[str]:
        return check_logs(result.logs, result.extra["sent"])

    def digest(self, results: list[OpResult]) -> str:
        """sha256 of the first pass's latencies, batch costs and decided
        configs: equal digests mean bit-identical outputs."""
        return digest(p for r in results for lg in r.logs for p in (
            lg.latencies, lg.batch_costs, [str(d.config) for d in lg.decisions]))

    def instrument(self, state: State, tracer) -> None:
        """Wrap the instance-level entry points this workload owns."""

    def traced_extra(self, state: State) -> dict:
        """Work done once, traced, after the traced passes."""
        return {}


def instrument_controller(tracer, controller, nn_cost: dict) -> None:
    tracer.patch(controller, "choose", "core.choose")
    tracer.patch(controller.optimizer, "choose", "core.search")
    tracer.patch(controller.surrogate, "predict_scaled", "core.predict")
    instrument_surrogate(tracer, controller.surrogate.model, nn_cost)


class Decide(Workload):
    name = "decide"
    why = ("the paper's decision-time claim: surrogate forward and optimizer "
           "search alone on the critical path, closed loop, no serving code")

    WINDOW = 4096

    def setup(self, seed):
        calls = self.size(1024, 8)
        ia = interarrivals(azure_like(seed, self.size(25, 3), 60.0).timestamps)
        stride = (ia.size - self.WINDOW) // calls
        trained, gamma = load_surrogate()
        controller = core.DeepBATController(trained, configs=config_grid(),
                                            gamma=gamma)
        return State(
            pass_ops=calls,
            inputs=[ia[i * stride:i * stride + self.WINDOW] for i in range(calls)],
            objects={"controller": controller},
        )

    def warmup(self, state):
        state.objects["controller"].choose(state.inputs[-1], SLO)

    def op(self, state, i):
        t0 = time.perf_counter()
        d = state.objects["controller"].choose(state.inputs[i], SLO)
        return OpResult(items=1, times=[time.perf_counter() - t0], decisions=[d])

    def quality(self, results):
        """The surrogate's predicted p95 latency and cost of each chosen
        configuration (medians), the share predicted to meet the SLO, and
        the share of decisions that were not degraded."""
        opts = [r.decisions[0].optimization for r in results]
        return {
            "p95_latency_ms": float(np.median([o.predicted_latency for o in opts])) * 1e3,
            "cost_per_mreq": float(np.median([o.predicted_cost_per_million for o in opts])),
            "slo_attainment": float(np.mean([o.feasible for o in opts])),
            "completed_ratio": float(np.mean([not r.decisions[0].degraded
                                              for r in results])),
        }

    def check(self, result):
        return check_decisions(result.decisions)

    def digest(self, results):
        return digest(p for r in results for d in r.decisions
                      for p in (d.predictions, str(d.config)))

    def instrument(self, state, tracer):
        instrument_controller(tracer, state.objects["controller"],
                              state.objects.setdefault("nn_cost", {}))

    def traced_extra(self, state):
        """One BATCH-KPC decision (MAP fit + analytic solve) on the first
        slice, a 512-sample slice in smoke runs: the paper's comparison."""
        history = state.inputs[0] if self.scale == 1.0 else state.inputs[0][:512]
        batch = BATCHController(configs=config_grid(), fitting="kpc", fit_order=4)
        return {"batch_decide_s": batch.choose(history, SLO).decision_time}


class ServeDeepBAT(Workload):
    name = "serve-deepbat"
    why = ("DeepBAT re-deciding every simulated second while serving a bursty "
           "trace: decisions dominate wall time, the event loop is a small share")

    def setup(self, seed):
        """Op ``k`` serves segment ``k + 1`` of the trace with segment ``k``
        as its warmup history; the drift envelope comes from segment 0."""
        segment = 60.0 if self.scale == 1.0 else 12.0
        segments = self.size(6)
        trace = shaped_trace(seed, 1 + segments, segment)
        cuts = np.searchsorted(trace, segment * np.arange(segments + 2))
        parts = [trace[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        trained, gamma = load_surrogate()
        controller = core.DeepBATController(trained, configs=config_grid(),
                                            gamma=gamma)
        # Like ``repro serve``: deploy the pick for the warmup traffic.
        initial = [controller.choose(interarrivals(h), SLO).config
                   for h in parts[:-1]]
        return State(pass_ops=segments,
                     inputs=list(zip(parts[:-1], parts[1:], initial)), objects={
            "controller": controller,
            "timer": TimedChooser(controller),
            "detector": core.WorkloadDriftDetector().fit(interarrivals(parts[0]), 64),
        })

    def engine(self, state, initial):
        """``repro serve --chooser deepbat --drift --cold-starts
        --decision-interval 1`` with a 600 s keep-alive."""
        return ServingEngine(
            initial,
            platform=ServerlessPlatform(cold_start=ColdStartModel()),
            chooser=state.objects["controller"],
            slo=SLO,
            pool=WarmPoolConfig(keep_alive_s=600.0),
            deploy_delay_s=2.0,
            decision_interval_s=1.0,
            drift=DriftConfig(detector=state.objects["detector"], window=64),
        )

    def warmup(self, state):
        history, serve_ts, initial = state.inputs[0]
        self.engine(state, initial).run(serve_ts[:500], history=history)
        state.objects["timer"].drain()

    def op(self, state, i):
        history, serve_ts, initial = state.inputs[i]
        log = self.engine(state, initial).run(serve_ts, name=f"serve-deepbat-{i}",
                                              history=history)
        times, decisions = state.objects["timer"].drain()
        return OpResult(items=log.n_requests, times=times, logs=[log],
                        decisions=decisions, extra={"sent": serve_ts.size})

    def check(self, result):
        errors = check_logs(result.logs, result.extra["sent"])
        errors += check_decisions(result.decisions)
        log = result.logs[0]
        span = float(log.arrival_times[-1] - log.arrival_times[0])
        interval = sum(d.reason == "interval" for d in log.decisions)
        if abs(interval - int(span)) > 1:
            errors.append(f"{interval} interval decisions over {span:.1f} s "
                          "at a 1 s cadence")
        return errors

    def instrument(self, state, tracer):
        instrument_controller(tracer, state.objects["controller"],
                              state.objects.setdefault("nn_cost", {}))
        tracer.patch(state.objects["detector"], "score", "core.drift.score")


class ServeStatic(Workload):
    name = "serve-static"
    why = ("the engine data plane alone (event loop, buffer, pool, billing) "
           "at a static config with no chooser: the bypass for nn/core changes")

    RATE = 2000.0

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        chunks = self.size(10)
        n = self.size(40_000, 2_000)
        return State(pass_ops=chunks,
                     inputs=[poisson(rng, self.RATE, n) for _ in range(chunks)])

    def engine(self):
        return ServingEngine(
            BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05),
            platform=ServerlessPlatform(cold_start=ColdStartModel()),
            slo=SLO,
            pool=WarmPoolConfig(keep_alive_s=30.0, max_containers=64,
                                max_queued_batches=256),
        )

    def warmup(self, state):
        self.engine().run(state.inputs[0][:2000])

    def op(self, state, i):
        ts = state.inputs[i]
        log = self.engine().run(ts, name=f"static-{i}")
        return OpResult(items=ts.size, logs=[log], extra={"sent": ts.size})


class FleetOutage(Workload):
    name = "fleet-outage"
    why = ("the same engine under correlated faults: crash/requeue, hedging, "
           "cross-lane failover, brownout and the fleet's lane-key loop")

    RATE = 1600.0
    LANES = 8

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        duration = 7.5 if self.scale == 1.0 else 4.0
        chunks = self.size(16)
        n = int(self.RATE * duration)
        return State(pass_ops=chunks,
                     inputs=[poisson(rng, self.RATE, n) for _ in range(chunks)],
                     objects={"duration": duration, "seed": seed})

    def fleet(self, state, i):
        """Eight lanes; memory tiers alternate in pairs (1024, 1024, 2048,
        2048, ...), so every tier has a lane in outage and a healthy one.
        Even lanes carry an outage window over the middle half of the
        chunk, a crash hazard that drains their warm pools inside it, 10%
        stragglers, cold-start backoff and hedging. The healthy lanes 1 and
        5 prewarm, with headroom enough that they provision while failover
        loads them. Fleet budget 48 containers, brownout at 16 queued batches,
        failover from queues 2 deep: every degradation path engages in
        every pass, so their counts and the outcome metrics move little
        between seeds."""
        d = state.objects["duration"]
        base = state.objects["seed"] * 1000 + i * self.LANES
        endpoints = []
        for k in range(self.LANES):
            faulty = k % 2 == 0
            endpoints.append(EndpointSpec(
                name=f"ep{k}",
                config=BatchConfig(1024.0 if k % 4 < 2 else 2048.0, 8, 0.05),
                slo=SLO,
                share=1.0 / self.LANES,
                platform=ServerlessPlatform(seed=base + k,
                                            cold_start=ColdStartModel()),
                pool=WarmPoolConfig(keep_alive_s=30.0, max_containers=16,
                                    max_queued_batches=64),
                prewarm=(PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                                       interval_s=1.0, headroom=8.0)
                         if k % 4 == 1 else None),
                priority=k % 3,
                outages=OutageModel(
                    windows=(OutageWindow(d / 4.0, d * 3.0 / 4.0),),
                    crash=CrashHazard(rate=0.002, outage_rate=0.1),
                    straggler=StragglerModel(rate=0.1, slowdown=3.0),
                    seed=base + k,
                ) if faulty else None,
                degrade=DegradeConfig(
                    backoff=RetryPolicy(max_attempts=3, base_backoff_s=0.05,
                                        max_total_delay_s=2.0),
                    hedge=HedgeConfig(percentile=95.0, multiplier=1.5),
                ) if faulty else None,
            ))
        return FleetEngine(endpoints, max_containers=48, split_seed=base,
                           brownout=BrownoutConfig(max_total_queued=16),
                           failover=FailoverConfig(min_queue=2))

    def warmup(self, state):
        self.fleet(state, 0).run(state.inputs[0][:2000])

    def op(self, state, i):
        ts = state.inputs[i]
        flog = self.fleet(state, i).run(ts, name=f"fleet-{i}")
        return OpResult(items=ts.size, logs=[flog[e] for e in flog.endpoints],
                        extra={"sent": ts.size})


class GenContinuous(Workload):
    name = "gen-continuous"
    why = ("token streaming through continuous batching: about four events "
           "per request on the session path, no chooser")

    RATE = 2000.0

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        chunks = self.size(16)
        n = self.size(2_500, 2_000)
        return State(pass_ops=chunks,
                     inputs=[poisson(rng, self.RATE, n) for _ in range(chunks)],
                     objects={"seed": seed})

    def engine(self, state, i):
        return ServingEngine(
            BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05),
            slo=SLO,
            pool=WarmPoolConfig(keep_alive_s=30.0, max_containers=64),
            generation=GenerationConfig(dispatcher="continuous",
                                        seed=state.objects["seed"] * 1000 + i),
        )

    def warmup(self, state):
        self.engine(state, 0).run(state.inputs[0][:1000])

    def op(self, state, i):
        ts = state.inputs[i]
        log = self.engine(state, i).run(ts, name=f"gen-{i}")
        return OpResult(items=ts.size, logs=[log], extra={"sent": ts.size})

    def quality(self, results):
        return serving_quality([lg for r in results for lg in r.logs], ttft=True)

    def check(self, result):
        errors = check_logs(result.logs, result.extra["sent"])
        for lg in result.logs:
            if lg.gen_tokens < lg.n_served:
                errors.append(f"{lg.name}: {lg.gen_tokens} tokens generated for "
                              f"{lg.n_served} served requests")
            if not np.all(np.isfinite(lg.ttft[~lg.shed])):
                errors.append(f"{lg.name}: a served request has no first token")
        return errors


class OfflineTrain(Workload):
    name = "offline-train"
    why = ("the pipeline run before serving: labelling by simulation, the "
           "surrogate's backward pass and Adam, then gamma by coupled simulation")

    SEQ_LEN = 256
    probe = "array"

    def setup(self, seed):
        grid = config_grid()
        n = self.size(len(grid), 16)
        trace = shaped_trace(seed, 4, 60.0)
        windows = sample_windows(interarrivals(trace), self.SEQ_LEN, n,
                                 np.random.default_rng(seed))
        # One window per configuration, spread evenly over the grid, so the
        # label statistics do not hinge on a random configuration draw. Op
        # ``k`` takes every ``parts``-th pair from ``k``, a slice that spans
        # the whole grid.
        configs = [grid[k * len(grid) // n] for k in range(n)]
        parts = self.size(8)
        return State(pass_ops=parts, inputs=[
            (windows[k::parts], configs[k::parts]) for k in range(parts)
        ], objects={
            "seed": seed,
            "gamma_history": interarrivals(trace[trace < 60.0]),
            "gamma_samples": 2,
        })

    def warmup(self, state):
        windows, configs = state.inputs[0]
        core.label_windows(windows[:2], configs[:2], ServerlessPlatform(),
                           core.TargetSpec(), seed=state.objects["seed"])

    def op(self, state, i):
        """Label the op's windows by simulation, train a fresh paper-shaped
        surrogate on them for one epoch (batch 8, SLO-weighted loss), then
        estimate gamma on the trace's first segment."""
        seed = state.objects["seed"]
        windows, configs = state.inputs[i]
        spec = core.TargetSpec()
        targets = core.label_windows(windows, configs, ServerlessPlatform(), spec,
                                     seed=seed)
        model = core.DeepBATSurrogate(seq_len=self.SEQ_LEN, seed=seed)
        hook = state.objects.get("instrument_model")
        if hook is not None:
            hook(model)
        trained = core.train_surrogate(
            core.SurrogateDataset(windows, grid_features(configs), targets, spec),
            model=model,
            config=core.TrainConfig(epochs=1, batch_size=8, val_fraction=0.05,
                                    slo=SLO, seed=seed),
        )
        gamma = core.estimate_gamma(trained, state.objects["gamma_history"],
                                    config_grid(),
                                    n_samples=state.objects["gamma_samples"],
                                    seed=seed, slo=SLO)
        return OpResult(items=len(windows), extra={
            "targets": targets, "gamma": gamma,
            "train_loss": trained.history.train_loss[-1],
            "val_loss": trained.history.val_loss[-1],
        })

    def quality(self, results):
        """Statistics of the simulated labels: median p95 latency and cost,
        and the share of (window, config) pairs meeting the SLO."""
        targets = np.concatenate([r.extra["targets"] for r in results])
        p95 = targets[:, 1 + core.TargetSpec().percentile_index(95.0)]
        return {
            "p95_latency_ms": float(np.median(p95)) * 1e3,
            "cost_per_mreq": float(np.median(targets[:, 0])),
            "slo_attainment": float(np.mean(p95 <= SLO)),
            "completed_ratio": float(np.mean(np.all(np.isfinite(targets), axis=1))),
        }

    def check(self, result):
        e = result.extra
        errors = []
        if not np.all(np.isfinite(e["targets"])) or np.any(e["targets"] < 0):
            errors.append("a simulated label is not finite and >= 0")
        if not (np.isfinite(e["train_loss"]) and np.isfinite(e["val_loss"])):
            errors.append("the final training loss is not finite")
        if not (np.isfinite(e["gamma"]) and e["gamma"] >= 0):
            errors.append("gamma is not finite and >= 0")
        return errors

    def digest(self, results):
        return digest(p for r in results for p in (
            r.extra["targets"], repr(r.extra["train_loss"]), repr(r.extra["gamma"])))

    def instrument(self, state, tracer):
        def instrument_model(model):
            train = tracer.wrap("nn.train.forward", model.forward)
            infer = tracer.wrap("nn.eval.forward", model.forward)

            def forward(*args, **kwargs):
                return (train if model.training else infer)(*args, **kwargs)

            model.forward = forward

        state.objects["instrument_model"] = instrument_model


WORKLOADS = {w.name: w for w in (Decide, ServeDeepBAT, ServeStatic, FleetOutage,
                                 GenContinuous, OfflineTrain)}
