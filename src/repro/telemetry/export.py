"""JSONL persistence and the ASCII dashboard for telemetry dumps.

A dump is one JSON object per line — counters, gauges, histogram summaries,
spans, and events exactly as :meth:`MetricsRegistry.records` yields them —
so it streams, appends, and greps. :func:`render_dashboard` turns a dump
(or a live registry) back into the fixed-width tables the rest of the
reproduction prints, including the per-segment scorecard (p95 latency,
cost/request, VCR, decision time) the ``repro report`` subcommand shows.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.telemetry.metrics import MetricsRegistry


def _as_records(source: MetricsRegistry | Iterable[dict]) -> list[dict]:
    if isinstance(source, MetricsRegistry):
        return list(source.records())
    return list(source)


def write_jsonl(source: MetricsRegistry | Iterable[dict], path) -> int:
    """Write a registry (or record iterable) as JSONL; returns #records."""
    records = _as_records(source)
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, default=_json_default) + "\n")
    return len(records)


def read_jsonl(path) -> list[dict]:
    """Read a JSONL dump back into a list of record dicts."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


# ------------------------------------------------------------------ dashboard
def render_dashboard(
    source: MetricsRegistry | Iterable[dict], title: str = "telemetry dashboard"
) -> str:
    """Render every section of a dump as stacked ASCII tables."""
    from repro.evaluation.reporting import format_table  # avoid import cycle

    records = _as_records(source)
    by_type = defaultdict(list)
    for record in records:
        by_type[record.get("type", "?")].append(record)
    events = by_type.get("event", [])
    by_kind = defaultdict(list)
    for event in events:
        by_kind[event.get("kind", "?")].append(event)

    sections = [title]

    segments = by_kind.get("segment", [])
    if segments:
        rows = [
            [
                e.get("controller", ""),
                e["segment"],
                e["n_requests"],
                f"{e['p95'] * 1e3:.1f}",
                f"{e['cost_per_request'] * 1e6:.4f}",
                f"{e['vcr']:.1f}",
                f"{e['mean_decision_time'] * 1e3:.2f}",
            ]
            for e in sorted(
                segments,
                key=lambda e: (e.get("controller", ""), e["segment"]),
            )
        ]
        rows.append([
            "mean",
            "",
            int(np.mean([e["n_requests"] for e in segments])),
            f"{np.mean([e['p95'] for e in segments]) * 1e3:.1f}",
            f"{np.mean([e['cost_per_request'] for e in segments]) * 1e6:.4f}",
            f"{np.mean([e['vcr'] for e in segments]):.1f}",
            f"{np.mean([e['mean_decision_time'] for e in segments]) * 1e3:.2f}",
        ])
        sections.append(format_table(
            ["controller", "segment", "requests", "p95 ms", "cost $/1M",
             "VCR %", "decision ms"],
            rows,
            title="segments",
        ))

    decisions = by_kind.get("decision", [])
    if decisions:
        per_controller = defaultdict(list)
        for event in decisions:
            per_controller[event.get("controller", "?")].append(event)
        rows = []
        for name, evts in sorted(per_controller.items()):
            times = [e["decision_time"] for e in evts]
            feasible = [e for e in evts if e.get("feasible")]
            configs = defaultdict(int)
            for e in evts:
                configs[(e["memory_mb"], e["batch_size"], e["timeout"])] += 1
            (mem, bsz, tout), _ = max(configs.items(), key=lambda kv: kv[1])
            rows.append([
                name,
                len(evts),
                f"{np.mean(times) * 1e3:.2f}",
                f"{np.max(times) * 1e3:.2f}",
                f"{100.0 * len(feasible) / len(evts):.0f}",
                f"({mem:g} MB, B={bsz}, T={tout:g}s)",
            ])
        sections.append(format_table(
            ["controller", "decisions", "mean ms", "max ms", "feasible %",
             "modal config"],
            rows,
            title="decisions",
        ))

    violations = by_kind.get("violation", [])
    if violations:
        rows = [
            [e["segment"], f"{e['observed_p95'] * 1e3:.1f}", f"{e['slo'] * 1e3:.1f}"]
            for e in violations
        ]
        sections.append(format_table(
            ["segment", "observed p95 ms", "SLO ms"], rows, title="SLO violations"
        ))

    resilience = _resilience_rows(by_type, by_kind)
    if resilience:
        sections.append(format_table(
            ["fault metric", "value"], resilience, title="resilience"
        ))

    serving = _serving_rows(by_type, by_kind)
    if serving:
        sections.append(format_table(
            ["serving metric", "value"], serving, title="serving"
        ))

    fleet = _fleet_rows(by_type)
    if fleet:
        sections.append(format_table(
            ["endpoint", "requests", "batches", "cold", "warm", "queued",
             "shed", "decisions", "reconfigs"],
            fleet,
            title="fleet",
        ))

    for title, namespaces, known, columns in _SCOPED_SECTIONS:
        rows = _scoped_rows(by_type, namespaces, known, columns)
        if rows:
            sections.append(format_table(
                ["scope", *(header for header, _m, _f in columns)],
                rows,
                title=title,
            ))

    reliability = _reliability_rows(by_type, by_kind)
    if reliability:
        sections.append(format_table(
            ["reliability metric", "value"], reliability, title="reliability"
        ))

    perf = _performance_rows(by_type)
    if perf:
        sections.append(format_table(
            ["pipeline stage", "runs", "items", "total s", "items/s"],
            perf,
            title="performance (simulation core)",
        ))

    spans = by_type.get("span", [])
    if spans:
        agg = defaultdict(list)
        parents = {}
        for span in spans:
            agg[span["name"]].append(span["duration"])
            parents.setdefault(span["name"], span.get("parent") or "")
        rows = [
            [
                name,
                parents[name],
                len(durs),
                f"{np.mean(durs) * 1e3:.3f}",
                f"{np.max(durs) * 1e3:.3f}",
                f"{np.sum(durs):.4f}",
            ]
            for name, durs in sorted(agg.items())
        ]
        sections.append(format_table(
            ["span", "parent", "count", "mean ms", "max ms", "total s"],
            rows,
            title="spans",
        ))

    histograms = by_type.get("histogram", [])
    if histograms:
        rows = [
            [
                h["name"],
                h["count"],
                _g(h.get("mean")),
                _g(h.get("percentiles", {}).get("50")),
                _g(h.get("percentiles", {}).get("95")),
                _g(h.get("max")),
            ]
            for h in sorted(histograms, key=lambda h: h["name"])
        ]
        sections.append(format_table(
            ["histogram", "count", "mean", "p50", "p95", "max"],
            rows,
            title="histograms",
        ))

    counters = by_type.get("counter", [])
    gauges = by_type.get("gauge", [])
    if counters or gauges:
        rows = [[c["name"], "counter", _g(c["value"])] for c in sorted(
            counters, key=lambda c: c["name"])]
        rows += [[g["name"], "gauge", _g(g["value"])] for g in sorted(
            gauges, key=lambda g: g["name"])]
        sections.append(format_table(
            ["metric", "type", "value"], rows, title="scalars"
        ))

    if len(sections) == 1:
        sections.append("(no telemetry records)")
    return "\n\n".join(sections)


def _resilience_rows(by_type: dict, by_kind: dict) -> list[list]:
    """Fault-injection scorecard: retry/failure counters plus degraded-mode
    serving stats. Rows appear only when the fault layer actually ran."""
    counters = {c["name"]: c["value"] for c in by_type.get("counter", [])}
    fault = {
        name: value for name, value in counters.items()
        if name.startswith("fault.")
    }
    if not fault and "retry" not in by_kind:
        return []
    labels = [
        ("fault.attempts", "invocation attempts"),
        ("fault.retries", "invocation retries"),
        ("fault.timeouts", "timed-out batches"),
        ("fault.failed_batches", "failed batches"),
        ("fault.failed_requests", "failed requests"),
        ("fault.throttle_retries", "throttle rejections"),
        ("fault.degraded_decisions", "degraded decisions"),
    ]
    rows = [
        [label, int(fault[name])] for name, label in labels if name in fault
    ]
    retries = by_kind.get("retry", [])
    if retries:
        rows.append(["fault-injected executions", len(retries)])
    segments = by_kind.get("segment", [])
    degraded = sum(e.get("degraded_decisions", 0) for e in segments)
    if degraded and "fault.degraded_decisions" not in fault:
        rows.append(["degraded decisions", int(degraded)])
    return rows


def _serving_rows(by_type: dict, by_kind: dict) -> list[list]:
    """Live-serving scorecard: warm-pool behaviour, admission control, and
    the control plane (reconfigurations, drift triggers, retrains). Rows
    appear only when the serving runtime actually ran."""
    counters = {c["name"]: c["value"] for c in by_type.get("counter", [])}
    serving = {
        name: value for name, value in counters.items()
        # Exactly two dot-parts: the single-endpoint engine. Fleet lanes
        # namespace as serving.<endpoint>.<metric> and get their own
        # section (_fleet_rows) instead of polluting this one.
        if name.startswith("serving.") and name.count(".") == 1
    }
    if not serving:
        return []
    labels = [
        ("serving.requests", "requests"),
        ("serving.batches", "batches executed"),
        ("serving.cold_starts", "cold starts"),
        ("serving.warm_starts", "warm starts"),
        ("serving.queued_batches", "batches queued"),
        ("serving.shed_requests", "shed requests"),
        ("serving.shed_batches", "shed batches"),
        ("serving.unserved_batches", "unserved batches"),
        ("serving.decisions", "controller decisions"),
        ("serving.decision_errors", "controller errors"),
        ("serving.reconfigurations", "reconfigurations"),
        ("serving.drift_triggers", "workload-drift triggers"),
        ("serving.prediction_drift_triggers", "prediction-drift triggers"),
        ("serving.retrains", "retrains completed"),
    ]
    rows: list[list] = [
        [label, int(serving[name])] for name, label in labels if name in serving
    ]
    starts = serving.get("serving.cold_starts", 0) + serving.get(
        "serving.warm_starts", 0
    )
    if starts:
        rate = serving.get("serving.cold_starts", 0) / starts
        rows.append(["cold-start rate", f"{100.0 * rate:.1f}%"])
    reconfigures = by_kind.get("reconfigure", [])
    if reconfigures:
        lags = [e["lag"] for e in reconfigures]
        rows.append(["mean reconfigure lag s", f"{np.mean(lags):.3f}"])
    return rows


def _fleet_rows(by_type: dict) -> list[list]:
    """Per-endpoint fleet scorecard from ``serving.<endpoint>.<metric>``
    counters (the fleet engine's telemetry namespacing). One row per
    endpoint; rows appear only when a fleet actually ran."""
    counters = {c["name"]: c["value"] for c in by_type.get("counter", [])}
    per_endpoint: dict[str, dict[str, float]] = defaultdict(dict)
    for name, value in counters.items():
        parts = name.split(".")
        # The scoped sections' namespaces are single-engine namespaces
        # (serving.prewarm.ticks, serving.gen.requests, ...), not
        # endpoints — without the exclusion they would show up here as
        # phantom endpoint rows.
        if (len(parts) == 3 and parts[0] == "serving"
                and parts[1] not in ENGINE_NAMESPACES):
            per_endpoint[parts[1]][parts[2]] = value
    if not per_endpoint:
        return []
    return [
        [
            endpoint,
            int(metrics.get("requests", 0)),
            int(metrics.get("batches", 0)),
            int(metrics.get("cold_starts", 0)),
            int(metrics.get("warm_starts", 0)),
            int(metrics.get("queued_batches", 0)),
            int(metrics.get("shed_requests", 0)),
            int(metrics.get("decisions", 0)),
            int(metrics.get("reconfigurations", 0)),
        ]
        for endpoint, metrics in sorted(per_endpoint.items())
    ]


#: The per-scope sections over ``serving.[<endpoint>.]<namespace>.<metric>``
#: counters: title, namespaces, the metrics an endpoint scope may carry,
#: and the ``(header, metric, format)`` columns.
_SCOPED_SECTIONS = (
    ("prewarming", ("prewarm",),
     {"ticks", "provisioned", "retired", "cost"},
     (("ticks", "ticks", int), ("provisioned", "provisioned", int),
      ("retired", "retired", int),
      ("prewarm cost $", "cost", "{:.6f}".format))),
    ("generation", ("gen",),
     {"requests", "sessions", "prefill_iterations", "decode_iterations",
      "tokens", "shed"},
     (("requests", "requests", int), ("sessions", "sessions", int),
      ("prefills", "prefill_iterations", int),
      ("decodes", "decode_iterations", int), ("tokens", "tokens", int),
      ("shed", "shed", int))),
    ("degradation", ("outage", "degrade"),
     {"crashes", "crash_requeued", "straggler_batches", "cold_retries",
      "retry_exhausted", "hedges", "hedge_wins", "hedge_denied",
      "hedge_cost", "brownout_shed", "failover"},
     (("crashes", "crashes", int), ("requeued", "crash_requeued", int),
      ("stragglers", "straggler_batches", int),
      ("retries", "cold_retries", int), ("hedges", "hedges", int),
      ("wins", "hedge_wins", int), ("brownout", "brownout_shed", int),
      ("failover", "failover", int))),
)
#: The single engine's counter namespaces, ``serving.<namespace>.<metric>``;
#: fleet endpoints may not take these names (see ``EndpointSpec``).
ENGINE_NAMESPACES = frozenset(ns for _t, namespaces, _k, _c in _SCOPED_SECTIONS
                              for ns in namespaces)


def _scoped_rows(by_type: dict, namespaces: tuple, known: set,
                 columns: tuple) -> list[list]:
    """One row per scope: the single engine emits
    ``serving.<namespace>.<metric>`` (scope ``engine``), fleet lanes emit
    ``serving.<endpoint>.<namespace>.<metric>``. Rows appear only when the
    feature published a counter."""
    per_scope: dict[str, dict[str, float]] = defaultdict(dict)
    for counter in by_type.get("counter", []):
        parts = counter["name"].split(".")
        if parts[0] != "serving":
            continue
        if len(parts) == 3 and parts[1] in namespaces:
            per_scope["engine"][parts[2]] = counter["value"]
        elif (len(parts) == 4 and parts[2] in namespaces
              and parts[3] in known):
            per_scope[parts[1]][parts[3]] = counter["value"]
    return [
        [scope, *(fmt(metrics.get(metric, 0)) for _h, metric, fmt in columns)]
        for scope, metrics in sorted(per_scope.items())
    ]


def _reliability_rows(by_type: dict, by_kind: dict) -> list[list]:
    """Crash-safety and guardrail scorecard: checkpoint/restore activity and
    the SLO circuit breaker's history. Rows appear only when either
    subsystem was actually enabled (``guardrail.*``/``checkpoint.*``
    counters or their events)."""
    counters = {c["name"]: c["value"] for c in by_type.get("counter", [])}
    relevant = {
        name: value for name, value in counters.items()
        if name.startswith(("guardrail.", "checkpoint."))
    }
    guard_events = by_kind.get("guardrail", [])
    ckpt_events = by_kind.get("checkpoint", [])
    if not relevant and not guard_events and not ckpt_events:
        return []
    labels = [
        ("checkpoint.snapshots", "snapshots written"),
        ("checkpoint.restores", "restores"),
        ("checkpoint.replayed_events", "journal events replayed"),
        ("guardrail.tripped", "breaker trips"),
        ("guardrail.probe", "half-open probes"),
        ("guardrail.restored", "breaker restores"),
        ("guardrail.suppressed_decisions", "suppressed decisions"),
    ]
    rows: list[list] = [
        [label, int(relevant[name])] for name, label in labels
        if name in relevant
    ]
    trips = [e for e in guard_events if e.get("action") == "tripped"]
    if trips:
        worst = max(e.get("observed_p", 0.0) for e in trips)
        slo = trips[0].get("slo")
        rows.append(["worst tripped percentile ms", f"{worst * 1e3:.1f}"])
        if slo is not None:
            rows.append(["SLO ms", f"{slo * 1e3:.1f}"])
        last = trips[-1]
        rows.append([
            "last fallback config",
            f"({last['memory_mb']:g} MB, B={last['batch_size']}, "
            f"T={last['timeout']:g}s)",
        ])
    if guard_events:
        rows.append(["final breaker state", guard_events[-1].get("state", "?")])
    if ckpt_events:
        last = ckpt_events[-1]
        rows.append([
            "last snapshot",
            f"event {int(last['events_processed'])} "
            f"(journal {int(last['journal_entries'])} entries)",
        ])
    return rows


def _performance_rows(by_type: dict) -> list[list]:
    """Throughput of the fast simulation core (grid sweeps, labeling).

    Built from ``simulator.grid_time``/``dataset.label_time`` histograms and
    their companion counters; rows appear only for stages that actually ran.
    """
    counters = {c["name"]: c["value"] for c in by_type.get("counter", [])}
    gauges = {g["name"]: g["value"] for g in by_type.get("gauge", [])}
    hists = {h["name"]: h for h in by_type.get("histogram", [])}
    rows = []

    grid = hists.get("simulator.grid_time")
    if grid and grid.get("count"):
        total = grid["sum"]
        configs = counters.get("simulator.grid_configs", 0)
        rows.append([
            "grid simulation", int(grid["count"]), int(configs),
            f"{total:.3f}", f"{configs / total:.1f}" if total > 0 else "-",
        ])

    label = hists.get("dataset.label_time")
    if label and label.get("count"):
        total = label["sum"]
        labels = counters.get("dataset.labels", 0)
        workers = gauges.get("dataset.workers")
        stage = "dataset labeling"
        if workers and not np.isnan(workers):
            stage += f" (workers={int(workers)})"
        rows.append([
            stage, int(label["count"]), int(labels),
            f"{total:.3f}", f"{labels / total:.1f}" if total > 0 else "-",
        ])
    return rows


def _g(value) -> str:
    if value is None:
        return "-"
    return f"{float(value):.4g}"
