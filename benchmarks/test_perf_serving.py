"""Overhead floors of the live serving loop.

Three guards, each a ratio of two runs of the current engine on the same
arrivals (60k Poisson arrivals through a finite keep-alive pool):

* **Prewarm** — the predictive prewarmer ticking at 4 Hz vs prewarm-off.
  Acceptance bar: **≤ 50% overhead**; the forecaster and pool
  provisioning must stay a fraction of the baseline.
* **Generation** — continuous batching (token-streaming, every
  prefill/decode iteration a heap event) vs the request-level engine on
  the same arrivals. Acceptance bar: the *event-processing* rate stays
  **≥ 0.15×** the request-level engine's — a collapse means the genstep
  path fell off the fast drive loop.
* **Outage** — a run passing disabled outage/degradation configs vs one
  passing none. Acceptance bar: bit-identical outputs and **≤ 10%
  overhead**, the median of per-pair time ratios over nine interleaved
  pairs — the defaults-off fault layer must stay free.

Run via ``make bench-serving`` (or ``make bench-perf`` for every floor);
each test prints its measurements as one JSON line. Performance claims
are measured by ``benchmarks/perf/`` (``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.serverless.platform import ServerlessPlatform
from repro.serving.chaos import assert_serving_logs_equal
from repro.serving.engine import ServingEngine
from repro.serving.pool import WarmPoolConfig

pytestmark = pytest.mark.perf

REFERENCE_CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
REFERENCE_POOL = WarmPoolConfig(keep_alive_s=30.0, max_containers=64)


def _reference_trace(n: int = 60_000, rate: float = 2000.0,
                     seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def _timed_pairs(before_fn, after_fn, pairs: int):
    """Wall-clock of each side over ``pairs`` interleaved pairs.

    Each pair runs both sides back to back, alternating which goes first,
    and collects garbage outside the timed region, so both sides are
    exposed to the same ambient noise — this file runs after other
    benchmarks inside one pytest process, so allocator and GC state are
    anything but pristine. Returns ``(before_seconds, after_seconds,
    before_result, after_result)``: the per-pair times, index-aligned,
    and each side's last result.
    """
    seconds = {"before": [], "after": []}
    results = {}
    order = (("before", before_fn), ("after", after_fn))
    for _side, fn in order:
        fn()  # warm-up: the first run pays lazy set-up for both sides
    was_enabled = gc.isenabled()
    try:
        for k in range(pairs):
            for side, fn in order[::-1] if k % 2 else order:
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                results[side] = fn()
                seconds[side].append(time.perf_counter() - t0)
                if was_enabled:
                    gc.enable()
    finally:
        if was_enabled:
            gc.enable()
    return (seconds["before"], seconds["after"],
            results["before"], results["after"])


def _best_of_pair(before_fn, after_fn, repeats: int = 3):
    """Best wall-clock for each side over interleaved runs, with the
    side's result: ``(before_s, before), (after_s, after)``."""
    before_s, after_s, before, after = _timed_pairs(before_fn, after_fn,
                                                    repeats)
    return (min(before_s), before), (min(after_s), after)


def test_prewarm_overhead_bounded():
    """PR 8 guard: the predictive prewarmer must not give back the PR 7
    speed pass. A prewarm-on run (empirical forecaster, 4 Hz ticks) pays
    for periodic forecasts and pool provisioning on top of the fast drive
    loop; that overhead has to stay a fraction of the baseline, not a
    multiple of it."""
    from repro.serving.config import PrewarmConfig
    from repro.serving.prewarm import EmpiricalRateForecaster

    ts = _reference_trace()
    prewarm = PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                            interval_s=0.25, headroom=2.0, window=256)

    def run(cfg):
        return ServingEngine(
            REFERENCE_CONFIG, platform=ServerlessPlatform(),
            pool=REFERENCE_POOL, prewarm=cfg,
        ).run(ts)

    (off_s, off), (on_s, on) = _best_of_pair(
        lambda: run(None), lambda: run(prewarm)
    )

    assert on.prewarm_ticks > 0  # the policy genuinely ran
    overhead = on_s / off_s - 1.0
    payload = {
        "n_requests": int(ts.size),
        "interval_s": prewarm.interval_s,
        "ticks": int(on.prewarm_ticks),
        "prewarmed_containers": int(on.prewarmed_containers),
        "off_seconds": round(off_s, 4),
        "on_seconds": round(on_s, 4),
        "overhead_pct": round(100.0 * overhead, 1),
        "requests_per_sec_off": round(ts.size / off_s),
        "requests_per_sec_on": round(ts.size / on_s),
    }
    print(f"\nprewarm: {json.dumps(payload)}")
    assert overhead <= 0.5, (
        f"prewarming costs {100 * overhead:.0f}% of engine throughput"
    )


def test_generation_throughput_floor():
    """PR 9 guard: continuous batching must stay in the fast lane.

    Token streaming multiplies the event count — every prefill/decode
    iteration is a heap event — so requests/sec inevitably drops, but the
    *event-processing* rate must remain within a constant factor of the
    request-level engine's. A collapse here would mean the genstep path
    fell off the fast drive loop (e.g. per-iteration allocation or a
    missed memoization), which is invisible to correctness tests."""
    from repro.serving.config import GenerationConfig

    ts = _reference_trace(n=20_000)
    generation = GenerationConfig(dispatcher="continuous")

    def run(gen):
        return ServingEngine(
            REFERENCE_CONFIG, platform=ServerlessPlatform(),
            pool=REFERENCE_POOL, generation=gen,
        ).run(ts)

    (plain_s, plain), (gen_s, gen) = _best_of_pair(
        lambda: run(None), lambda: run(generation)
    )

    assert gen.gen_decode_iterations > 0  # token streaming genuinely ran
    plain_eps = plain.n_events / plain_s
    gen_eps = gen.n_events / gen_s
    ratio = gen_eps / plain_eps
    payload = {
        "n_requests": int(ts.size),
        "plain_events": int(plain.n_events),
        "gen_events": int(gen.n_events),
        "gen_sessions": int(gen.gen_sessions),
        "gen_tokens": int(gen.gen_tokens),
        "plain_seconds": round(plain_s, 4),
        "gen_seconds": round(gen_s, 4),
        "events_per_sec_plain": round(plain_eps),
        "events_per_sec_gen": round(gen_eps),
        "events_per_sec_ratio": round(ratio, 2),
    }
    print(f"\ngeneration: {json.dumps(payload)}")
    assert ratio >= 0.15, (
        f"continuous-batching loop processes events at only {ratio:.2f}x "
        "the request-level engine's rate"
    )


def test_outage_disabled_overhead_bounded():
    """PR 10 guard: the defaults-off fault layer must cost nothing.

    Disabled outage/degradation configs are normalized to ``None`` at
    construction, so a run that passes them must stay on the exact same
    data plane as one that never heard of the feature — bit-identical
    outputs and at most measurement noise in wall-clock. A regression here
    means a hot-path branch started keying off non-``None`` state. An
    enabled full-stack run is also timed, informationally."""
    from repro.serverless.faults import RetryPolicy
    from repro.serverless.outages import (
        CrashHazard, OutageModel, OutageWindow, StragglerModel,
    )
    from repro.serving.degrade import DegradeConfig, HedgeConfig

    ts = _reference_trace()

    def run(outages, degrade):
        return ServingEngine(
            REFERENCE_CONFIG, platform=ServerlessPlatform(),
            pool=REFERENCE_POOL, outages=outages, degrade=degrade,
        ).run(ts)

    # The judged overhead is the median of per-pair ratios: a pair's two
    # runs share the host's state of the moment, so a slow spell moves
    # both sides of a pair, not one side's best-of.
    off_runs, disabled_runs, off, disabled = _timed_pairs(
        lambda: run(None, None),
        lambda: run(OutageModel(), DegradeConfig()),
        pairs=9,
    )
    assert_serving_logs_equal(off, disabled)
    ratios = [d / o for o, d in zip(off_runs, disabled_runs)]
    off_s = float(np.median(off_runs))
    disabled_s = float(np.median(disabled_runs))

    horizon = float(ts[-1])
    enabled = OutageModel(
        windows=(OutageWindow(horizon / 3, horizon / 2),),
        crash=CrashHazard(rate=0.002, outage_rate=0.02),
        straggler=StragglerModel(rate=0.1, slowdown=3.0),
        seed=5,
    )
    stack = DegradeConfig(
        backoff=RetryPolicy(max_attempts=3, base_backoff_s=0.05,
                            max_total_delay_s=2.0),
        hedge=HedgeConfig(percentile=95.0, multiplier=1.5),
    )
    t0 = time.perf_counter()
    full = run(enabled, stack)
    enabled_s = time.perf_counter() - t0

    overhead = float(np.median(ratios)) - 1.0
    payload = {
        "n_requests": int(ts.size),
        "pairs": len(ratios),
        "off_seconds_median": round(off_s, 4),
        "disabled_seconds_median": round(disabled_s, 4),
        "disabled_overhead_pct": round(100.0 * overhead, 1),
        "pair_overhead_pct": [round(100.0 * (r - 1.0), 1) for r in ratios],
        "requests_per_sec_off": round(ts.size / off_s),
        "requests_per_sec_disabled": round(ts.size / disabled_s),
        "enabled_seconds": round(enabled_s, 4),
        "enabled_events_per_sec": round(full.n_events / enabled_s),
        "enabled_crashes": int(full.crashed_containers),
        "enabled_hedges": int(full.hedges),
        "enabled_cold_retries": int(full.cold_retries),
    }
    print(f"\noutage: {json.dumps(payload)}")
    assert overhead <= 0.1, (
        f"disabled outage/degrade configs cost {100 * overhead:.0f}% of "
        "engine throughput — the defaults-off path is no longer free"
    )
