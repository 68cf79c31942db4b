"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the full workflow without writing Python:

* ``traces``   — generate/inspect workload traces (npz or csv);
* ``train``    — label windows with the simulator and train a surrogate;
* ``optimize`` — one DeepBAT decision for a trace segment;
* ``evaluate`` — closed-loop DeepBAT-vs-BATCH comparison over segments
  (``--telemetry PATH`` additionally dumps spans/metrics/events as JSONL;
  ``--fault-rate``/``--fault-timeout``/``--retries`` inject seeded
  platform faults and report retries/failures/degraded decisions);
* ``serve``    — live serving loop (:mod:`repro.serving`): warm-pool
  keep-alive, deploy lag, admission control, periodic and drift-triggered
  re-decisions; earlier segments warm up the controller history.
  ``--checkpoint PATH`` makes the run crash-safe (snapshots + event
  journal; ``--restore`` resumes it bit-identically) and ``--guardrail``
  arms the SLO circuit breaker. ``--fleet fleet.json`` switches to
  multi-endpoint fleet serving (:mod:`repro.serving.fleet`): the trace is
  split across the configured endpoints by share, each with its own SLO
  and pool, under an optional shared container budget and cross-tenant
  scheduler. ``--prewarm {empirical,map,oracle}`` arms predictive
  warm-pool prewarming (:mod:`repro.serving.prewarm`): forecast the
  near-future arrival rate and provision containers ahead of demand.
  ``--generation gen.json`` switches the workload to token-streaming
  generation (:mod:`repro.serving.generation` has the schema): each
  request carries sampled prompt/output token counts, batches run
  prefill/decode iterations, and the summary reports goodput under
  TTFT/TPOT SLOs. ``--outages outages.json`` arms the correlated
  infrastructure-fault layer (:mod:`repro.serving.degrade` has the
  schema): outage windows deny cold starts, containers crash mid-batch,
  stragglers stretch service times, and the configured degradation stack
  (cold-start backoff, request hedging) answers;
* ``report``   — render the ASCII telemetry dashboard from such a dump.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

import numpy as np

from repro.arrival.io import export_csv, load_trace, save_trace
from repro.arrival.stats import interarrivals
from repro.arrival.traces import STANDARD_TRACES
from repro.baseline.controller import BATCHController
from repro.batching.config import config_grid
from repro.core.controller import DeepBATController
from repro.core.dataset import generate_dataset
from repro.core.training import TrainConfig, load_trained, save_trained, train_surrogate
from repro.evaluation.harness import run_experiment
from repro.evaluation.reporting import format_table
from repro.serverless.faults import FaultModel, RetryPolicy
from repro.serverless.platform import ServerlessPlatform
from repro.telemetry import (
    MetricsRegistry,
    read_jsonl,
    render_dashboard,
    use_registry,
    write_jsonl,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepBAT reproduction: serverless inference batching optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("traces", help="generate or inspect workload traces")
    p_tr.add_argument("action", choices=["generate", "stats"])
    p_tr.add_argument("--kind", choices=sorted(STANDARD_TRACES), default="azure")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--segments", type=int, default=24)
    p_tr.add_argument("--segment-duration", type=float, default=60.0)
    p_tr.add_argument("--out", help="output path (.npz or .csv)")
    p_tr.add_argument("--path", help="trace to inspect (stats)")

    p_train = sub.add_parser("train", help="train a surrogate on a trace")
    p_train.add_argument("--trace", required=True, help="trace .npz path")
    p_train.add_argument("--train-segments", type=int, default=12)
    p_train.add_argument("--samples", type=int, default=2000)
    p_train.add_argument("--seq-len", type=int, default=64)
    p_train.add_argument("--epochs", type=int, default=40)
    p_train.add_argument("--batch-size", type=int, default=24)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--workers", type=int, default=1,
                         help="label windows with this many processes "
                              "(deterministic: results match --workers 1)")
    p_train.add_argument("--out", required=True, help="model checkpoint path (.npz)")

    p_opt = sub.add_parser("optimize", help="one DeepBAT decision")
    p_opt.add_argument("--model", required=True)
    p_opt.add_argument("--trace", required=True)
    p_opt.add_argument("--segment", type=int, default=1,
                       help="decide for this segment using the previous one")
    p_opt.add_argument("--slo", type=float, default=0.1)

    p_eval = sub.add_parser("evaluate", help="closed-loop comparison")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--trace", required=True)
    p_eval.add_argument("--slo", type=float, default=0.1)
    p_eval.add_argument("--segments", default="1:13", help="segment range a:b")
    p_eval.add_argument("--controllers", default="deepbat,batch")
    p_eval.add_argument("--update-every", type=int, default=512)
    p_eval.add_argument("--telemetry", metavar="PATH",
                        help="collect telemetry and dump it as JSONL here")
    p_eval.add_argument("--fault-rate", type=float, default=0.0,
                        help="per-attempt invocation failure probability "
                             "(0 disables fault injection; default 0)")
    p_eval.add_argument("--fault-timeout", type=float, default=None,
                        help="invocation timeout in seconds; batches whose "
                             "(M, B)-dependent run time exceeds it time out")
    p_eval.add_argument("--retries", type=int, default=3,
                        help="max invocation attempts under faults (>= 1)")
    p_eval.add_argument("--seed", type=int, default=0,
                        help="platform seed for deterministic fault draws")

    p_srv = sub.add_parser("serve", help="live serving loop over a trace")
    p_srv.add_argument("--trace", required=True, help="trace .npz path")
    p_srv.add_argument("--fleet", metavar="PATH",
                       help="fleet mode: serve the multi-endpoint fleet "
                            "described by this JSON config (endpoints split "
                            "the trace by their share weights); see "
                            "repro.serving.fleet_config for the schema")
    p_srv.add_argument("--generation", metavar="PATH",
                       help="token-streaming mode: serve the generation "
                            "workload described by this JSON config "
                            "(dispatcher, TTFT/TPOT SLOs, length model); "
                            "see repro.serving.generation for the schema")
    p_srv.add_argument("--outages", metavar="PATH",
                       help="infrastructure-fault mode: outage windows, "
                            "container crashes, stragglers, and the "
                            "graceful-degradation stack (cold-start "
                            "backoff, hedging) described by this JSON "
                            "config; see repro.serving.degrade for the "
                            "schema")
    p_srv.add_argument("--chooser", choices=["deepbat", "batch", "static"],
                       default="static")
    p_srv.add_argument("--model", help="surrogate checkpoint (deepbat only)")
    p_srv.add_argument("--slo", type=float, default=0.1)
    p_srv.add_argument("--start-segment", type=int, default=1,
                       help="serve from this segment on; earlier segments "
                            "seed the controller history and drift envelope")
    p_srv.add_argument("--memory", type=float, default=2048.0,
                       help="initial (and static-chooser) memory tier MB")
    p_srv.add_argument("--batch-size", type=int, default=8)
    p_srv.add_argument("--timeout", type=float, default=0.05)
    p_srv.add_argument("--keep-alive", type=float, default=600.0,
                       help="container keep-alive window in seconds")
    p_srv.add_argument("--max-containers", type=int, default=None,
                       help="warm-pool size cap (default: unbounded)")
    p_srv.add_argument("--queue-limit", type=int, default=None,
                       help="batches allowed to queue for a container; "
                            "beyond it requests are shed (default: unbounded)")
    p_srv.add_argument("--deploy-delay", type=float, default=2.0,
                       help="seconds before a new (M,B,T) takes effect")
    p_srv.add_argument("--decision-interval", type=float, default=None,
                       help="periodic re-decision interval (default: the "
                            "trace's segment duration)")
    p_srv.add_argument("--drift", action="store_true",
                       help="fit a workload-drift detector on the warmup "
                            "segments and trigger out-of-band decisions")
    p_srv.add_argument("--drift-window", type=int, default=64)
    p_srv.add_argument("--retrain-delay", type=float, default=None,
                       help="schedule a detector refit this long after each "
                            "drift trigger (default: no retraining)")
    p_srv.add_argument("--cold-starts", action="store_true",
                       help="attach the cold-start model (provisioning "
                            "delays on cold containers)")
    p_srv.add_argument("--fault-rate", type=float, default=0.0,
                       help="per-attempt invocation failure probability")
    p_srv.add_argument("--fault-timeout", type=float, default=None,
                       help="invocation timeout in seconds")
    p_srv.add_argument("--retries", type=int, default=3,
                       help="max invocation attempts under faults (>= 1)")
    p_srv.add_argument("--seed", type=int, default=0,
                       help="platform seed for deterministic fault draws")
    p_srv.add_argument("--telemetry", metavar="PATH",
                       help="collect telemetry and dump it as JSONL here")
    p_srv.add_argument("--checkpoint", metavar="PATH",
                       help="crash-safe mode: snapshot the engine state here "
                            "(plus an event journal at PATH.journal)")
    p_srv.add_argument("--checkpoint-every", type=int, default=256,
                       help="events between snapshots (default 256)")
    p_srv.add_argument("--restore", action="store_true",
                       help="resume the run from --checkpoint instead of "
                            "starting fresh (bit-identical continuation)")
    p_srv.add_argument("--guardrail", action="store_true",
                       help="enable the SLO circuit breaker: trip to a safe "
                            "config when observed tail latency breaks the SLO")
    p_srv.add_argument("--guardrail-window", type=int, default=64,
                       help="completed requests per violation window")
    p_srv.add_argument("--guardrail-percentile", type=float, default=95.0,
                       help="latency percentile compared against the SLO")
    p_srv.add_argument("--guardrail-k", type=int, default=3,
                       help="consecutive violating windows that trip")
    p_srv.add_argument("--guardrail-cooldown", type=float, default=30.0,
                       help="seconds open before probing the controller again")
    p_srv.add_argument("--prewarm", choices=["empirical", "map", "oracle"],
                       default=None,
                       help="predictive warm-pool prewarming: forecast the "
                            "near-future arrival rate and provision "
                            "containers ahead of demand (empirical windowed "
                            "rate, a MAP fitted on the warmup segments, or "
                            "the oracle that reads the future trace — the "
                            "upper bound, not a deployable policy)")
    p_srv.add_argument("--prewarm-interval", type=float, default=1.0,
                       help="seconds between prewarming ticks (default 1)")
    p_srv.add_argument("--prewarm-horizon", type=float, default=None,
                       help="forecast horizon in seconds (default: the tick "
                            "interval plus the active tier's cold-start "
                            "delay)")
    p_srv.add_argument("--prewarm-headroom", type=float, default=1.0,
                       help="multiplier on the forecast rate before sizing "
                            "the warm pool (default 1.0)")
    p_srv.add_argument("--prewarm-max", type=int, default=None,
                       help="containers provisioned per tick at most "
                            "(default: unbounded)")
    p_srv.add_argument("--prewarm-window", type=int, default=256,
                       help="recent inter-arrivals fed to the forecaster "
                            "(default 256)")
    p_srv.add_argument("--prewarm-retire", action="store_true",
                       help="also retire idle containers above the target "
                            "(off by default: idle containers bill nothing "
                            "and retiring strips the keep-alive slack)")

    p_rep = sub.add_parser("report", help="render a telemetry dashboard")
    p_rep.add_argument("path", help="JSONL dump written by evaluate --telemetry")
    return parser


def _cmd_traces(args) -> int:
    if args.action == "generate":
        if not args.out:
            print("error: --out is required for generate", file=sys.stderr)
            return 2
        trace = STANDARD_TRACES[args.kind](
            seed=args.seed, n_segments=args.segments,
            segment_duration=args.segment_duration,
        )
        if args.out.endswith(".csv"):
            export_csv(trace, args.out)
        else:
            save_trace(trace, args.out)
        print(f"wrote {trace.timestamps.size} arrivals "
              f"({trace.n_segments} segments) to {args.out}")
        return 0
    # stats
    if not args.path:
        print("error: --path is required for stats", file=sys.stderr)
        return 2
    trace = load_trace(args.path)
    rows = [
        [i, f"{trace.segment_rate(i):.1f}", f"{trace.segment_idc(i):.1f}"]
        for i in range(trace.n_segments)
    ]
    print(format_table(["segment", "rate req/s", "IDC"], rows,
                       title=f"trace {trace.name!r}"))
    return 0


def _cmd_train(args) -> int:
    trace = load_trace(args.trace)
    if not 0 < args.train_segments <= trace.n_segments:
        print("error: --train-segments out of range", file=sys.stderr)
        return 2
    head = (trace.split(args.train_segments)[0]
            if args.train_segments < trace.n_segments else trace)
    history = interarrivals(head.timestamps)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    print(f"labelling {args.samples} windows (seq_len={args.seq_len}, "
          f"workers={args.workers})...")
    dataset = generate_dataset(history, n_samples=args.samples,
                               seq_len=args.seq_len, seed=args.seed,
                               workers=args.workers)
    print(f"training for up to {args.epochs} epochs...")
    trained = train_surrogate(
        dataset,
        config=TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                           seed=args.seed),
    )
    save_trained(trained, args.out)
    best = trained.history.best_epoch
    print(f"saved {args.out} (best epoch {best}, "
          f"val MAPE {trained.history.val_mape[best]:.1f} %)")
    return 0


def _cmd_optimize(args) -> int:
    trained = load_trained(args.model)
    trace = load_trace(args.trace)
    controller = DeepBATController(trained)
    history = interarrivals(trace.segment(args.segment - 1))
    decision = controller.choose(history, args.slo)
    print(f"segment {args.segment}: {decision.config}")
    print(f"predicted p95 latency: {decision.optimization.predicted_latency * 1e3:.1f} ms")
    print(f"predicted cost       : ${decision.optimization.predicted_cost_per_million:.4f}/1M req")
    print(f"decision time        : {decision.decision_time * 1e3:.0f} ms")
    return 0


def _telemetry_unwritable(args) -> bool:
    """Report an unwritable ``--telemetry`` path before the (expensive)
    run, not when dumping afterwards."""
    if not args.telemetry:
        return False
    try:
        with open(args.telemetry, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        print(f"error: cannot write {args.telemetry}: {exc}", file=sys.stderr)
        return True
    return False


def _platform(args, seed: int) -> ServerlessPlatform:
    """The platform the ``--cold-starts``, ``--fault-rate``,
    ``--fault-timeout`` and ``--retries`` flags describe (``evaluate`` has
    no ``--cold-starts``)."""
    from repro.serverless.service_profile import ColdStartModel

    faulty = args.fault_rate > 0.0 or args.fault_timeout is not None
    return ServerlessPlatform(
        seed=seed,
        cold_start=(ColdStartModel() if getattr(args, "cold_starts", False)
                    else None),
        faults=(FaultModel(failure_rate=args.fault_rate,
                           timeout_s=args.fault_timeout) if faulty else None),
        retry_policy=RetryPolicy(max_attempts=args.retries),
    )


def _cmd_evaluate(args) -> int:
    if _telemetry_unwritable(args):
        return 2
    lo, _, hi = args.segments.partition(":")
    segments = range(int(lo), int(hi))
    trained = load_trained(args.model)
    trace = load_trace(args.trace)
    if not 0.0 <= args.fault_rate < 1.0:
        print("error: --fault-rate must be in [0, 1)", file=sys.stderr)
        return 2
    if args.retries < 1:
        print("error: --retries must be >= 1", file=sys.stderr)
        return 2
    platform = _platform(args, args.seed)
    faulty = platform.faults_active
    grid = config_grid()
    registry = MetricsRegistry() if args.telemetry else None
    rows = []
    scope = use_registry(registry) if registry is not None else contextlib.nullcontext()
    with scope:
        for name in args.controllers.split(","):
            name = name.strip().lower()
            if name == "deepbat":
                chooser = DeepBATController(trained, configs=grid)
                log = run_experiment(trace, chooser, slo=args.slo, platform=platform,
                                     segments=segments, update_every=args.update_every,
                                     name="deepbat")
            elif name == "batch":
                chooser = BATCHController(configs=grid, profile=platform.profile,
                                          pricing=platform.pricing)
                log = run_experiment(trace, chooser, slo=args.slo, platform=platform,
                                     segments=segments, name="batch")
            else:
                print(f"error: unknown controller {name!r}", file=sys.stderr)
                return 2
            row = [
                name,
                f"{log.vcr_series().mean():.2f}",
                f"{np.nanmean(log.latency_series(95)) * 1e3:.1f}",
                f"{np.nanmean(log.cost_series()) * 1e6:.4f}",
                f"{log.mean_decision_time * 1e3:.0f}",
            ]
            if faulty:
                row += [log.total_retries, log.total_failed,
                        log.total_degraded_decisions]
            rows.append(row)
    headers = ["controller", "mean VCR %", "mean p95 ms", "cost $/1M",
               "decision ms"]
    if faulty:
        headers += ["retries", "failed", "degraded"]
    print(format_table(
        headers,
        rows,
        title=f"{trace.name}: segments {args.segments}, SLO {args.slo * 1e3:.0f} ms",
    ))
    if registry is not None:
        n = write_jsonl(registry, args.telemetry)
        print(f"wrote {n} telemetry records to {args.telemetry}")
    return 0


def _validate_serve_args(args) -> None:
    """Reject malformed ``repro serve`` inputs before any work happens.

    Raises ``ValueError`` with a message that names the flag and the fix —
    the CLI turns it into an exit-code-2 error line. The flags that build
    a config dataclass are checked by that dataclass (``_from_flags``).
    """
    from repro.utils.validation import check_positive

    check_positive(args.slo, "--slo (seconds)")
    check_positive(args.deploy_delay,
                   "--deploy-delay (seconds; 0 means instant reconfiguration)",
                   strict=False)
    check_positive(args.keep_alive,
                   "--keep-alive (seconds; containers need a positive window "
                   "to ever be reused)")
    if args.decision_interval is not None:
        check_positive(args.decision_interval, "--decision-interval (seconds)")
    if not 0.0 <= args.fault_rate < 1.0:
        raise ValueError(f"--fault-rate must be in [0, 1), got {args.fault_rate}")
    if args.retries < 1:
        raise ValueError(f"--retries must be >= 1, got {args.retries}")
    if args.checkpoint_every < 1:
        raise ValueError(
            f"--checkpoint-every must be >= 1 (events between snapshots), "
            f"got {args.checkpoint_every}"
        )
    if args.restore and not args.checkpoint:
        raise ValueError("--restore needs --checkpoint PATH (the snapshot "
                         "to resume from)")
    if args.fleet:
        for flag in ("checkpoint", "restore", "guardrail", "drift", "prewarm",
                     "generation", "outages"):
            if getattr(args, flag):
                raise ValueError(
                    f"--{flag} is not supported with --fleet (per-endpoint "
                    "reliability knobs belong in the fleet config file)"
                )
    if args.generation and (args.fault_rate > 0.0
                            or args.fault_timeout is not None):
        raise ValueError(
            "--generation does not support fault injection "
            "(--fault-rate/--fault-timeout): fault draws are keyed by "
            "request-level batch index"
        )
    if args.generation and args.outages:
        raise ValueError(
            "--outages is not supported with --generation: crash and "
            "straggler draws are keyed by request-level batch index"
        )


def _from_flags(args, cls, fixed: dict | None = None, **dests):
    """``cls`` built from the serve flags ``field=dest`` plus the ``fixed``
    fields. The dataclass validates its own fields; a ``ValueError`` is
    reported under the flag of the field its message names."""
    flags = {f: "--" + d.replace("_", "-") for f, d in dests.items()}
    try:
        return cls(**{f: getattr(args, d) for f, d in dests.items()},
                   **(fixed or {}))
    except ValueError as exc:
        field = str(exc).partition(" ")[0]
        where = flags.get(field, "/".join(flags.values()))
        raise ValueError(f"{where}: {exc}") from exc


def _load_config(kind: str, path: str | None):
    """The parsed ``--fleet``/``--generation``/``--outages`` document, or
    None without the flag; a schema violation becomes a ``ValueError``
    that names the document."""
    if not path:
        return None
    from repro.serving import (
        ConfigError,
        load_fleet_config,
        load_generation_config,
        load_outage_config,
    )

    loader = {"fleet": load_fleet_config,
              "generation": load_generation_config,
              "outage": load_outage_config}[kind]
    try:
        return loader(path)
    except ConfigError as exc:
        raise ValueError(f"invalid {kind} config: {exc}") from exc


def _split_at_segment(trace, start_segment: int):
    """``(history, serve_ts)``: the arrivals before ``--start-segment``
    seed the controllers, the rest are served."""
    if not 0 <= start_segment < trace.n_segments:
        raise ValueError("--start-segment out of range")
    cut = start_segment * trace.segment_duration
    at = int(np.searchsorted(trace.timestamps, cut))
    history, serve_ts = trace.timestamps[:at], trace.timestamps[at:]
    if serve_ts.size == 0:
        raise ValueError("nothing to serve after --start-segment")
    return history, serve_ts


def _cmd_serve(args) -> int:
    from repro.batching.config import BatchConfig
    from repro.core.drift import WorkloadDriftDetector
    from repro.serving import (
        CheckpointError,
        DriftConfig,
        EmpiricalRateForecaster,
        GuardrailConfig,
        PrewarmConfig,
        ServingEngine,
        WarmPoolConfig,
    )

    try:
        _validate_serve_args(args)
        fleet_cfg = _load_config("fleet", args.fleet)
        generation_cfg = _load_config("generation", args.generation)
        outage_cfg, degrade_cfg = (_load_config("outage", args.outages)
                                   or (None, None))
        config = _from_flags(args, BatchConfig, memory_mb="memory",
                             batch_size="batch_size", timeout="timeout")
        pool_cfg = _from_flags(args, WarmPoolConfig, keep_alive_s="keep_alive",
                               max_containers="max_containers",
                               max_queued_batches="queue_limit")
        # The detector is fitted on the warmup traffic below.
        drift_cfg = _from_flags(args, DriftConfig, window="drift_window",
                                retrain_delay_s="retrain_delay")
        guardrail_cfg = _from_flags(
            args, GuardrailConfig, window="guardrail_window",
            percentile="guardrail_percentile", k="guardrail_k",
            cooldown_s="guardrail_cooldown",
        ) if args.guardrail else None
        # The forecaster is replaced once the warmup traffic is known.
        prewarm_cfg = _from_flags(
            args, PrewarmConfig,
            fixed={"forecaster": EmpiricalRateForecaster(),
                   "retire": args.prewarm_retire},
            interval_s="prewarm_interval", horizon_s="prewarm_horizon",
            headroom="prewarm_headroom", max_per_tick="prewarm_max",
            window="prewarm_window",
        ) if args.prewarm else None
        trace = load_trace(args.trace)
        history, serve_ts = _split_at_segment(trace, args.start_segment)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if _telemetry_unwritable(args):
        return 2
    if fleet_cfg is not None:
        return _cmd_serve_fleet(args, fleet_cfg, trace, history, serve_ts)

    platform = _platform(args, args.seed)
    faulty = platform.faults_active
    chooser = None
    if args.chooser == "deepbat":
        if not args.model:
            print("error: --model is required for --chooser deepbat",
                  file=sys.stderr)
            return 2
        chooser = DeepBATController(load_trained(args.model),
                                    configs=config_grid())
    elif args.chooser == "batch":
        chooser = BATCHController(configs=config_grid(),
                                  profile=platform.profile,
                                  pricing=platform.pricing)
    warmup = interarrivals(history)
    if chooser is not None and warmup.size >= 32:
        # Deploy the controller's pick for the warmup traffic, so the run
        # starts from a considered configuration rather than the defaults.
        config = chooser.choose(warmup, args.slo).config
    if args.drift:
        detector = WorkloadDriftDetector()
        try:
            detector.fit(warmup, args.drift_window)
        except ValueError as exc:
            print(f"warning: drift detector disabled ({exc})", file=sys.stderr)
        else:
            drift_cfg = replace(drift_cfg, detector=detector)
    if args.prewarm == "map":
        from repro.arrival.fitting import fit_map
        from repro.serving import MAPRateForecaster

        try:
            process, report = fit_map(warmup)
        except ValueError as exc:
            print(f"warning: MAP prewarming fell back to the empirical "
                  f"forecaster ({exc})", file=sys.stderr)
        else:
            print(f"prewarm: fitted {report.kind} MAP on {warmup.size} "
                  f"warmup inter-arrivals")
            prewarm_cfg = replace(prewarm_cfg,
                                  forecaster=MAPRateForecaster(process))
    elif args.prewarm == "oracle":
        from repro.serving import OracleForecaster

        prewarm_cfg = replace(prewarm_cfg, forecaster=OracleForecaster(
            timestamps=serve_ts))

    engine = ServingEngine(
        config,
        platform=platform,
        chooser=chooser,
        slo=args.slo,
        pool=pool_cfg,
        deploy_delay_s=args.deploy_delay,
        decision_interval_s=(
            (args.decision_interval or trace.segment_duration)
            if chooser is not None else None
        ),
        drift=drift_cfg,
        guardrail=guardrail_cfg,
        prewarm=prewarm_cfg,
        generation=generation_cfg,
        outages=outage_cfg,
        degrade=degrade_cfg,
    )
    registry = MetricsRegistry() if args.telemetry else None
    scope = use_registry(registry) if registry is not None else contextlib.nullcontext()
    with scope:
        try:
            if args.restore:
                log = engine.restore(args.checkpoint)
            else:
                log = engine.run(serve_ts, name=f"serve-{args.chooser}",
                                 trace_name=trace.name, history=history,
                                 checkpoint_path=args.checkpoint,
                                 checkpoint_every=args.checkpoint_every)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    rows = [
        ["initial config", f"({config.memory_mb:g} MB, B={config.batch_size}, "
                           f"T={config.timeout:g}s)"],
        ["requests", log.n_requests],
        ["served", log.n_served],
        ["shed", f"{log.n_shed} ({100.0 * log.shed_rate:.1f}%)"],
        ["batches", log.batch_sizes.size],
        ["p95 latency ms", f"{log.p(95.0) * 1e3:.1f}"],
        ["VCR %", f"{log.vcr():.1f}"],
        ["cost $/1M req", f"{log.cost_per_request * 1e6:.4f}"],
        ["cold-start rate", f"{100.0 * log.cold_start_rate:.1f}%"],
        ["decisions", f"{len(log.decisions)} "
                      f"({log.degraded_decisions} degraded)"],
        ["reconfigurations", log.reconfigurations],
        ["drift triggers", f"{log.drift_triggers} workload, "
                           f"{log.prediction_drift_triggers} prediction"],
        ["retrains", log.retrains],
    ]
    if faulty:
        rows += [["invocation retries", log.n_retries],
                 ["failed requests", log.n_failed]]
    if args.guardrail:
        rows += [["guardrail trips", log.guardrail_trips],
                 ["guardrail restores", log.guardrail_restores],
                 ["suppressed decisions", log.guardrail_suppressed],
                 ["breaker state", log.guardrail_state]]
    if args.generation:
        ttft_slo = generation_cfg.ttft_slo or args.slo
        rows += [
            ["dispatcher", generation_cfg.dispatcher],
            ["goodput req/s", f"{log.goodput():.2f}"],
            ["TTFT attainment", f"{100.0 * log.ttft_attainment():.1f}% "
                                f"(SLO {ttft_slo * 1e3:.0f} ms)"],
            ["p95 TTFT ms", f"{log.p_ttft(95.0) * 1e3:.1f}"],
            ["p95 TPOT ms", f"{log.p_tpot(95.0) * 1e3:.2f}"],
            ["sessions", log.gen_sessions],
            ["iterations", f"{log.gen_prefill_iterations} prefill, "
                           f"{log.gen_decode_iterations} decode"],
            ["tokens generated", log.gen_tokens],
        ]
    if args.prewarm:
        rows += [
            ["prewarm ticks", log.prewarm_ticks],
            ["prewarmed containers", f"{log.prewarmed_containers} "
                                     f"({log.prewarm_retired} retired)"],
            ["all-in cost $/1M req",
             f"{log.total_cost_with_prewarm / max(log.n_served, 1) * 1e6:.4f}"],
        ]
    if args.outages:
        rows += [
            ["outage windows", len(outage_cfg.windows)],
            ["batches denied by outage", log.outage_denied],
            ["container crashes", f"{log.crashed_containers} "
                                  f"({log.crash_requeued} requests requeued)"],
            ["straggler batches", log.straggler_batches],
            ["cold-start retries", f"{log.cold_retries} "
                                   f"({log.cold_retry_exhausted} exhausted)"],
            ["hedges", f"{log.hedges} ({log.hedge_wins} won, "
                       f"{log.hedge_denied} denied)"],
            ["hedge cost $", f"{log.hedge_cost:.6f}"],
        ]
    if args.checkpoint:
        rows += [["checkpoints written", log.checkpoints]]
    print(format_table(
        ["serving metric", "value"],
        rows,
        title=f"{trace.name}: served segments {args.start_segment}:"
              f"{trace.n_segments}, SLO {args.slo * 1e3:.0f} ms "
              f"({args.chooser})",
    ))
    if registry is not None:
        n = write_jsonl(registry, args.telemetry)
        print(f"wrote {n} telemetry records to {args.telemetry}")
    return 0


def _cmd_serve_fleet(args, fleet_cfg, trace, history, serve_ts) -> int:
    """``repro serve --fleet fleet.json``: multi-endpoint fleet serving.

    The trace is split across the endpoints by their ``share`` weights;
    warmup segments (before ``--start-segment``) seed each lane's
    controller history. Platform-level flags (``--seed``,
    ``--cold-starts``, ``--fault-rate``/``--fault-timeout``/``--retries``)
    apply to every endpoint; per-endpoint knobs live in the config file.
    """
    from repro.serving import split_by_shares

    missing = [ep.name for ep in fleet_cfg.endpoints if ep.share is None]
    if missing:
        print(f"error: invalid fleet config: endpoints need a 'share' to "
              f"split --trace traffic; missing on: {missing}", file=sys.stderr)
        return 2
    needs_model = [ep.name for ep, chooser in zip(fleet_cfg.endpoints,
                                                  fleet_cfg.choosers)
                   if chooser == "deepbat"]
    if needs_model and not args.model:
        print(f"error: --model is required for deepbat endpoints: "
              f"{needs_model}", file=sys.stderr)
        return 2
    trained = load_trained(args.model) if needs_model else None

    def platform_factory(ep):
        # Distinct seeds decorrelate per-endpoint fault/cold draws while
        # keeping the whole fleet a function of --seed.
        index = [e.name for e in fleet_cfg.endpoints].index(ep.name)
        return _platform(args, args.seed + index)

    def chooser_factory(ep, platform):
        if ep.chooser == "deepbat":
            return DeepBATController(trained, configs=config_grid())
        if ep.chooser == "batch":
            return BATCHController(configs=config_grid(),
                                   profile=platform.profile,
                                   pricing=platform.pricing)
        return None

    engine = fleet_cfg.build(platform_factory=platform_factory,
                             chooser_factory=chooser_factory)
    traffic = split_by_shares(serve_ts, engine.endpoints, fleet_cfg.split_seed)
    histories = (
        split_by_shares(history, engine.endpoints, fleet_cfg.split_seed)
        if history.size else None
    )

    registry = MetricsRegistry() if args.telemetry else None
    scope = use_registry(registry) if registry is not None else contextlib.nullcontext()
    with scope:
        log = engine.run(traffic, name=f"fleet-{trace.name}",
                         trace_name=trace.name, histories=histories)

    rows = []
    for ep in fleet_cfg.endpoints:
        ep_log = log[ep.name]
        rows.append([
            ep.name,
            ep_log.n_requests,
            f"{100.0 * ep_log.shed_rate:.1f}%",
            f"{ep_log.p(ep.percentile) * 1e3:.1f}",
            f"{ep.slo * 1e3:.0f}",
            "yes" if ep_log.p(ep.percentile) <= ep.slo else "NO",
            f"{ep_log.cost_per_request * 1e6:.4f}",
            ep_log.reconfigurations,
        ])
    rows.append([
        "fleet", log.n_requests, f"{100.0 * log.n_shed / log.n_requests:.1f}%"
        if log.n_requests else "0.0%", "-", "-", "-",
        f"{log.cost_per_request * 1e6:.4f}", log.fleet_decisions,
    ])
    budget = (f"budget {fleet_cfg.max_containers} containers"
              if fleet_cfg.max_containers is not None else "unbounded budget")
    print(format_table(
        ["endpoint", "requests", "shed", "p-lat ms", "SLO ms", "met",
         "cost $/1M", "reconfigs"],
        rows,
        title=f"{trace.name}: fleet of {len(fleet_cfg.endpoints)} endpoints, "
              f"{budget}, segments {args.start_segment}:{trace.n_segments}",
    ))
    degraded = [ep.name for ep in fleet_cfg.endpoints
                if ep.outages is not None or ep.degrade is not None]
    if degraded or fleet_cfg.brownout or fleet_cfg.failover:
        deg_rows = [
            [ep.name, log[ep.name].outage_denied,
             log[ep.name].crashed_containers, log[ep.name].cold_retries,
             log[ep.name].hedges, log[ep.name].brownout_shed,
             log[ep.name].failover_batches]
            for ep in fleet_cfg.endpoints
        ]
        print(format_table(
            ["endpoint", "denied", "crashes", "retries", "hedges",
             "brownout", "failover"],
            deg_rows,
            title="graceful degradation",
        ))
    if registry is not None:
        n = write_jsonl(registry, args.telemetry)
        print(f"wrote {n} telemetry records to {args.telemetry}")
    return 0


def _cmd_report(args) -> int:
    try:
        records = read_jsonl(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    print(render_dashboard(records, title=f"telemetry dashboard — {args.path}"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return {
            "traces": _cmd_traces,
            "train": _cmd_train,
            "optimize": _cmd_optimize,
            "evaluate": _cmd_evaluate,
            "serve": _cmd_serve,
            "report": _cmd_report,
        }[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
