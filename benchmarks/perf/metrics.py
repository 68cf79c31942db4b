"""Metric definitions of the perf benchmark and the per-layer derivation.

``END_TO_END`` and ``PER_LAYER`` are the source of ``BENCHMARK.json``'s
metric lists (``python3 benchmarks/perf/metrics.py`` prints them). Each
per-layer metric names the end-to-end metrics and the workloads it should
move; the README renders that map.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from tracing import NN_MODULES

DECISION = ("decide", "serve-deepbat")
ENGINE = ("serve-static", "fleet-outage", "gen-continuous")
POOL = ("serve-static", "fleet-outage")
FLEET = ("fleet-outage",)
GEN = ("gen-continuous",)
OFFLINE = ("offline-train",)
LATENCY = ("op_ms_p50",)
SPEED = ("items_per_s", "op_ms_p50")
OUTCOME = ("slo_attainment", "completed_ratio", "cost_per_mreq")

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
#: The simulated outcomes' bounds are at least twice their spread
#: (interquartile range over the median) over ten seeds. Wall times are put
#: at a reference host speed (hostspeed.py), and still spread by up to 0.15
#: over ten runs while a shared two-core host was at its busiest, so their
#: bound is the widest, 0.25.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("p95_latency_ms", "ms", "lower", 0.15),
    ("cost_per_mreq", "usd/Mreq", "lower", 0.15),
    ("slo_attainment", "ratio", "higher", 0.1),
    ("completed_ratio", "ratio", "higher", 0.05),
)


def _layer(name, unit, better, moves=(), workloads=()):
    return (name, unit, better, tuple(moves), tuple(workloads))


#: (name, unit, better, end-to-end metrics it should move, on which workloads)
PER_LAYER = (
    *(_layer(f"nn.{m}.{k}", u, "lower", LATENCY + ("items_per_s",), DECISION)
      for m in NN_MODULES for k, u in (("ms", "ms"), ("mflop", "MFLOP"), ("kb", "KB"))),
    _layer("nn.predict.ms", "ms", "lower", LATENCY, DECISION),
    _layer("core.window.ms", "ms", "lower", LATENCY, DECISION),
    _layer("core.predict.ms", "ms", "lower", LATENCY, DECISION),
    _layer("core.search.ms", "ms", "lower", LATENCY, DECISION),
    _layer("core.choose.ms", "ms", "lower", LATENCY, DECISION),
    _layer("core.drift.score_us", "us", "lower", ("items_per_s",), ("serve-deepbat",)),
    _layer("core.drift.calls", "count", "lower", ("items_per_s",), ("serve-deepbat",)),
    # BATCH is the comparison, not the system: its layers move only the
    # comparison's own numbers.
    _layer("baseline.fit_kpc_s", "s", "lower",
           ("baseline.batch_decide_s", "baseline.speedup_x"), ("decide",)),
    _layer("baseline.solve_s", "s", "lower",
           ("baseline.batch_decide_s", "baseline.speedup_x"), ("decide",)),
    _layer("baseline.batch_decide_s", "s", "lower"),
    _layer("baseline.speedup_x", "x", "higher"),
    _layer("serving.engine.self_s", "s", "lower", SPEED, ENGINE),
    _layer("serving.engine.events_per_s", "1/s", "higher", SPEED, ENGINE),
    _layer("serving.engine.events_per_req", "count", "lower", SPEED, ENGINE),
    _layer("serving.decision_share", "ratio", "lower", ("items_per_s",), ("serve-deepbat",)),
    _layer("serving.queue_wait_ms_p95", "ms", "lower", ("p95_latency_ms",) + OUTCOME, POOL),
    _layer("batching.buffer.observe_us", "us", "lower", SPEED, POOL),
    _layer("batching.buffer.calls", "count", "lower", SPEED, POOL),
    _layer("serving.pool.acquire_us", "us", "lower", SPEED, POOL),
    _layer("serving.pool.release_us", "us", "lower", SPEED, POOL),
    _layer("serving.pool.acquires", "count", "lower", SPEED, POOL),
    _layer("serving.pool.warm_hit_ratio", "ratio", "higher",
           ("items_per_s", "p95_latency_ms", "cost_per_mreq"), POOL),
    _layer("serving.fleet.failover_batches", "count", "lower", OUTCOME, FLEET),
    _layer("serving.fleet.brownout_shed", "count", "lower", OUTCOME, FLEET),
    _layer("serverless.outage.crashes", "count", "lower", OUTCOME, FLEET),
    _layer("serverless.outage.requeued", "count", "lower", OUTCOME, FLEET),
    _layer("serverless.outage.denied", "count", "lower", OUTCOME, FLEET),
    _layer("serving.degrade.hedges", "count", "lower", OUTCOME, FLEET),
    _layer("serving.degrade.hedge_win_ratio", "ratio", "higher", OUTCOME, FLEET),
    _layer("serving.degrade.cold_retries", "count", "lower", OUTCOME, FLEET),
    _layer("serving.degrade.retry_exhausted_ratio", "ratio", "lower", OUTCOME, FLEET),
    _layer("serving.prewarm.plan_us", "us", "lower", ("items_per_s",), FLEET),
    _layer("serving.prewarm.ticks", "count", "lower", ("items_per_s",), FLEET),
    _layer("serving.prewarm.provisioned", "count", "lower", ("cost_per_mreq",), FLEET),
    _layer("batching.continuous.step_us", "us", "lower", SPEED, GEN),
    _layer("batching.continuous.sessions", "count", "lower", SPEED, GEN),
    _layer("batching.continuous.iterations", "count", "lower", SPEED, GEN),
    _layer("batching.continuous.tokens_per_iter", "count", "higher",
           SPEED + ("p95_latency_ms",), GEN),
    _layer("core.label_s", "s", "lower", SPEED, OFFLINE),
    _layer("batching.simulate_s", "s", "lower", SPEED, OFFLINE),
    _layer("batching.simulate.calls", "count", "lower", SPEED, OFFLINE),
    _layer("core.train_s", "s", "lower", SPEED, OFFLINE),
    _layer("nn.train.steps", "count", "lower", SPEED, OFFLINE),
    _layer("nn.train.forward_ms", "ms", "lower", SPEED, OFFLINE),
    _layer("nn.train.backward_ms", "ms", "lower", SPEED, OFFLINE),
    _layer("nn.train.optim_ms", "ms", "lower", SPEED, OFFLINE),
    _layer("nn.eval.forward_s", "s", "lower", SPEED, OFFLINE),
    _layer("core.gamma_s", "s", "lower", SPEED, OFFLINE),
    _layer("trace.overhead_x", "x", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json(workloads) -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": 12,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER
        ],
    }


# --------------------------------------------------------------------------
# Per-layer derivation
# --------------------------------------------------------------------------
def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, logs, passes: int, untraced_wall: float,
              traced_wall: float, nn_cost: dict, extra: dict,
              decision_s_p50: float) -> dict:
    """Per-layer metrics of one traced run.

    ``logs`` are the serving logs of the first traced pass; tracer totals
    cover ``passes`` identical traced passes, so counts are divided by it.
    Times named ``.ms`` under ``nn``/``core`` are self time per DeepBAT
    decision; ``_us`` times are per call; ``_s`` times are per pass.
    """
    self_s, calls = tracer.self_s, tracer.calls
    m = {name: 0.0 for name, *_ in PER_LAYER}

    def per_call_us(name):
        return _per(self_s[name], calls[name]) * 1e6

    decisions = calls["nn.predict"]
    if decisions:
        for mod in NN_MODULES:
            flops, moved = nn_cost.get(mod, (0, 0))
            m[f"nn.{mod}.ms"] = self_s[f"nn.{mod}"] / decisions * 1e3
            m[f"nn.{mod}.mflop"] = flops / decisions / 1e6
            m[f"nn.{mod}.kb"] = moved / decisions / 1e3
        m["nn.predict.ms"] = self_s["nn.predict"] / decisions * 1e3
        for k in ("window", "predict", "search", "choose"):
            m[f"core.{k}.ms"] = self_s[f"core.{k}"] / decisions * 1e3
    m["core.drift.score_us"] = per_call_us("core.drift.score")
    m["core.drift.calls"] = calls["core.drift.score"] / passes

    if "batch_decide_s" in extra:
        m["baseline.fit_kpc_s"] = self_s["baseline.fit_kpc"]
        m["baseline.solve_s"] = self_s["baseline.solve"]
        m["baseline.batch_decide_s"] = extra["batch_decide_s"]
        m["baseline.speedup_x"] = _per(extra["batch_decide_s"], decision_s_p50)

    if logs:
        requests = sum(lg.n_requests for lg in logs)
        events = sum(lg.n_events for lg in logs)
        m["serving.engine.self_s"] = self_s["serving.engine.run"] / passes
        m["serving.engine.events_per_s"] = _per(events, untraced_wall)
        m["serving.engine.events_per_req"] = _per(events, requests)
        m["serving.decision_share"] = _per(tracer.total_s["core.choose"],
                                           tracer.total_s["serving.engine.run"])
        waits = np.concatenate([lg.start_times - lg.dispatch_times for lg in logs])
        m["serving.queue_wait_ms_p95"] = (
            float(np.percentile(waits, 95.0)) * 1e3 if waits.size else 0.0)
        m["batching.buffer.observe_us"] = per_call_us("batching.buffer.observe")
        m["batching.buffer.calls"] = calls["batching.buffer.observe"] / passes
        m["serving.pool.acquire_us"] = per_call_us("serving.pool.acquire")
        m["serving.pool.release_us"] = per_call_us("serving.pool.release")
        acquires = calls["serving.pool.acquire"] / passes
        m["serving.pool.acquires"] = acquires
        m["serving.pool.warm_hit_ratio"] = _per(
            sum(lg.warm_starts for lg in logs), acquires)

        def total(field):
            return sum(getattr(lg, field) for lg in logs)

        m["serving.fleet.failover_batches"] = total("failover_batches")
        m["serving.fleet.brownout_shed"] = total("brownout_shed")
        m["serverless.outage.crashes"] = total("crashed_containers")
        m["serverless.outage.requeued"] = total("crash_requeued")
        m["serverless.outage.denied"] = total("outage_denied")
        m["serving.degrade.hedges"] = total("hedges")
        m["serving.degrade.hedge_win_ratio"] = _per(total("hedge_wins"), total("hedges"))
        m["serving.degrade.cold_retries"] = total("cold_retries")
        m["serving.degrade.retry_exhausted_ratio"] = _per(
            total("cold_retry_exhausted"), total("cold_retries"))
        m["serving.prewarm.plan_us"] = per_call_us("serving.prewarm.plan")
        m["serving.prewarm.ticks"] = total("prewarm_ticks")
        m["serving.prewarm.provisioned"] = total("prewarmed_containers")
        iterations = total("gen_prefill_iterations") + total("gen_decode_iterations")
        m["batching.continuous.step_us"] = per_call_us("batching.continuous.step")
        m["batching.continuous.sessions"] = total("gen_sessions")
        m["batching.continuous.iterations"] = iterations
        m["batching.continuous.tokens_per_iter"] = _per(total("gen_tokens"), iterations)

    steps = calls["nn.train.optim"]
    m["core.label_s"] = self_s["core.label"] / passes
    m["batching.simulate_s"] = self_s["batching.simulate"] / passes
    m["batching.simulate.calls"] = calls["batching.simulate"] / passes
    m["core.train_s"] = self_s["core.train"] / passes
    m["nn.train.steps"] = steps / passes
    m["nn.train.forward_ms"] = _per(self_s["nn.train.forward"], steps) * 1e3
    m["nn.train.backward_ms"] = _per(self_s["nn.train.backward"], steps) * 1e3
    m["nn.train.optim_ms"] = _per(self_s["nn.train.optim"], steps) * 1e3
    m["nn.eval.forward_s"] = self_s["nn.eval.forward"] / passes
    m["core.gamma_s"] = self_s["core.gamma"] / passes
    m["trace.overhead_x"] = _per(traced_wall, untraced_wall)
    return {k: float(v) for k, v in m.items()}


if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from workloads import WORKLOADS

    json.dump(benchmark_json([w() for w in WORKLOADS.values()]), sys.stdout,
              indent=2)
    print()
