"""Run one workload of the perf benchmark once and print its metrics.

Usage, from the repository root::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The run builds its inputs from ``--seed``, sets up 5-25 times (setup time is
their median; once when traced), then repeats passes of the workload until
``--seconds`` have been measured. With ``--trace 0`` it reports the
end-to-end metrics, its wall times at a reference host speed
(``hostspeed.py``); with ``--trace 1`` it times one untraced pass, then
wraps every layer's public entry points and reports per-layer metrics,
writing the spans to ``benchmarks/perf/out/spans-<workload>.json``. Outputs
are checked on every operation; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. ``--smoke``
runs every workload at about 1/50 of its size.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: load comes from this process running one op at a time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: Set up at least MIN_SETUPS times, and on until SETUP_BUDGET_S of set-up
#: time or MAX_SETUPS: the short set-ups are many, so their median is steady.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 25, 2.0


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"error: cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not this checkout")


def set_up(wl, seed: int, host: HostSpeed):
    """Set up several times (inputs, system objects, one warm-up op),
    probing the host after each. Returns the last state and the set-up
    times as ``(midpoint, seconds)``."""
    spans = []
    while len(spans) < MIN_SETUPS or (
            len(spans) < MAX_SETUPS and sum(s for _, s in spans) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        wl.warmup(state)
        t1 = time.perf_counter()
        spans.append(((t0 + t1) / 2, t1 - t0))
        host.probe()
    return state, spans


class Runner:
    """Runs ops of one workload, checking each one's outputs."""

    def __init__(self, wl, state) -> None:
        self.wl = wl
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, i: int):
        """Run op ``i`` of the pass, check it; return (result, wall time).
        An op that reports no latencies of its own is timed as a whole."""
        t0 = time.perf_counter()
        result = self.wl.op(self.state, i % self.state.pass_ops)
        wall = time.perf_counter() - t0
        result.times = result.times or [wall]
        self.attempted += 1
        errors = self.wl.check(result)
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return result, wall

    def one_pass(self):
        """Run every op of a pass; return (results, summed op wall time)."""
        results, wall = [], 0.0
        for i in range(self.state.pass_ops):
            result, elapsed = self.op(i)
            results.append(result)
            wall += elapsed
        return results, wall

    def passes_until(self, seconds: float):
        """Run whole passes until ``seconds`` of op time (at least one).
        Returns (first pass results, per-pass wall times)."""
        first, walls = None, []
        while not walls or sum(walls) < seconds:
            results, wall = self.one_pass()
            first = results if first is None else first
            walls.append(wall)
        return first, walls


def measure(wl, runner: Runner, seconds: float, setups: list,
            host: HostSpeed) -> dict:
    """Ops until ``seconds`` of op time, and at least one whole pass,
    with host probes between them.

    Speeds are medians over the run's ops: load from elsewhere on a shared
    host slows some ops, and moves a median less than a mean. Every
    workload's op is short enough that a run holds tens of them. Each time
    is put at the reference host speed by the probes near it before the
    median is taken. Only the first pass's results are kept, so memory does
    not grow with speed."""
    first, ops, elapsed = [], [], 0.0
    while len(ops) < runner.state.pass_ops or elapsed < seconds:
        t0 = time.perf_counter()
        result, wall = runner.op(len(ops))
        ops.append((t0 + wall / 2, wall, result.items, result.times))
        host.after(wall)
        if len(first) < runner.state.pass_ops:
            first.append(result)
        elapsed += wall
    factors = [host.factor_at(mid) for mid, *_ in ops]
    setup_factors = [host.factor_at(mid) for mid, _ in setups]
    measured = {
        "setup_s": statistics.median(s for _, s in setups),
        "items_per_s": statistics.median(n / w for _, w, n, _ in ops),
        "op_ms_p50": statistics.median(t for *_, ts in ops for t in ts) * 1e3,
    }
    metrics = {
        "setup_s": statistics.median(
            s * f for (_, s), f in zip(setups, setup_factors)),
        "items_per_s": statistics.median(
            n / (w * f) for (_, w, n, _), f in zip(ops, factors)),
        "op_ms_p50": statistics.median(
            t * f for (*_, ts), f in zip(ops, factors) for t in ts) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(wl.quality(first))
    samples = sum(len(ts) for *_, ts in ops)
    print(f"{wl.name}: {len(setups)} set-ups, {len(ops)} ops, {samples} timed "
          f"samples, digest sha256={wl.digest(first)}")
    print(f"{wl.name}: {len(host.times)} {host.kind} host probes, factor "
          f"{min(factors):.3f}-{max(factors):.3f}; as measured: " + ", ".join(
              f"{k} {v:.6g}" for k, v in measured.items()))
    return metrics


def trace(wl, runner: Runner, seconds: float) -> dict:
    from metrics import per_layer
    from tracing import Tracer, install_layers

    untraced, untraced_wall = runner.one_pass()
    decision_times = [t for r in untraced for t in r.times if r.decisions]
    print(f"{wl.name}: untraced pass {untraced_wall:.3f} s, "
          f"digest sha256={wl.digest(untraced)}")
    tracer = Tracer()
    install_layers(tracer)
    try:
        wl.instrument(runner.state, tracer)
        first, walls = runner.passes_until(seconds)
        extra = wl.traced_extra(runner.state)
    finally:
        tracer.restore()
    path = OUT / f"spans-{wl.name}.json"
    tracer.write_spans(path)
    print(f"{wl.name}: {len(walls)} traced passes, {len(tracer.spans)} spans "
          f"written to {path.relative_to(ROOT)}")
    return per_layer(
        tracer,
        logs=[lg for r in first for lg in r.logs],
        passes=len(walls),
        untraced_wall=untraced_wall,
        traced_wall=sum(walls) / len(walls),
        nn_cost=runner.state.objects.get("nn_cost", {}),
        extra=extra,
        decision_s_p50=statistics.median(decision_times) if decision_times else 0.0,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at about 1/50 of the workload's size")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    import_program()
    from hostspeed import HostSpeed
    from metrics import END_TO_END, PER_LAYER, UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](scale=0.02 if args.smoke else 1.0)
    if args.trace:
        # A traced run reports no set-up time: one set-up is enough.
        state = wl.setup(args.seed)
        wl.warmup(state)
        runner = Runner(wl, state)
        values = trace(wl, runner, args.seconds)
        expected = [name for name, *_ in PER_LAYER]
    else:
        host = HostSpeed(wl.probe)
        state, setups = set_up(wl, args.seed, host)
        runner = Runner(wl, state)
        values = measure(wl, runner, args.seconds, setups, host)
        expected = [name for name, *_ in END_TO_END]
    if sorted(values) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(expected))} "
                           "are missing or not declared")
    for error in runner.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not runner.errors
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": UNITS[k]} for k in expected},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
