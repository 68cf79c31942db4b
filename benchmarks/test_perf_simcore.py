"""Speedup floors of the fast simulation core.

* **Grid sweep** — ``simulate_grid`` groups the candidate grid by (B, T),
  forms batches once per group, and evaluates all memory tiers over the
  shared formation. Benchmarked against the naive per-config path
  (``simulate`` in a loop, one formation per config); the acceptance bar
  is ≥ 3× on the default 285-config grid, with bit-identical outputs.
* **Dataset labeling** — ``label_windows`` / ``generate_dataset`` with the
  batched path and the opt-in ``workers=N`` process pool. The pool's win
  depends on the host's CPU count, so the only bound is that the batched
  path stays within 1.5× of the per-sample loop; parallel labels are
  asserted bit-identical to serial either way.
* **Fused attention** — ``scaled_dot_product_attention`` forward plus
  ``Tensor.backward`` at the training shape (batch 8 × 4 heads × 256 × 256,
  head width 4), against the composed five-op chain of the attention tests;
  the bar is ≥ 1.8×.
* **MAP sampling** — ``MAP.sample``'s block walk against the per-event
  reference walk of the arrival tests, on one Azure-like 60 s MMPP(2)
  segment (120 req/s, burstiness 1.6); outputs bit-identical, the bar is
  ≥ 5×.

Run via ``make bench-perf``; each test prints its measurements (requests/sec
and labels/sec, naive vs fast) as one JSON line.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.arrival.map_process import poisson_map
from repro.arrival.mmpp import mmpp2_with_burstiness
from repro.batching.config import config_grid
from repro.batching.simulator import simulate, simulate_grid
from repro.core.dataset import generate_dataset, label_window
from repro.core.features import TargetSpec
from repro.nn.attention import scaled_dot_product_attention
from repro.nn.tensor import Tensor
from repro.serverless.platform import ServerlessPlatform
from tests.arrival.test_map_process import per_event_sample
from tests.nn.test_attention import composed_attention

pytestmark = pytest.mark.perf


def _best_of(fn, repeats: int = 2) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs (guards against scheduler noise)."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, out = elapsed, result
    return best, out


def test_grid_sweep_speedup():
    """Full-grid sweep: (B, T)-grouped fast path vs naive per-config."""
    ts = poisson_map(100.0).sample(duration=30.0, seed=0)
    grid = config_grid()
    platform = ServerlessPlatform()

    naive_s, naive = _best_of(lambda: [simulate(ts, c, platform) for c in grid])
    fast_s, fast = _best_of(lambda: simulate_grid(ts, grid, platform))

    # Equivalence first — a fast wrong answer is no speedup.
    for a, b in zip(naive, fast):
        np.testing.assert_array_equal(a.latencies, b.latencies)
        np.testing.assert_array_equal(a.batch_costs, b.batch_costs)

    speedup = naive_s / fast_s
    sweep_requests = ts.size * len(grid)
    payload = {
        "n_requests": int(ts.size),
        "n_configs": len(grid),
        "n_bt_groups": len({(c.batch_size, c.timeout) for c in grid}),
        "naive_seconds": round(naive_s, 4),
        "fast_seconds": round(fast_s, 4),
        "speedup": round(speedup, 2),
        "requests_per_sec_naive": round(sweep_requests / naive_s),
        "requests_per_sec_fast": round(sweep_requests / fast_s),
    }
    print(f"\ngrid sweep: {json.dumps(payload)}")
    assert speedup >= 3.0, f"grid fast path only {speedup:.2f}x over naive"


def test_labeling_throughput():
    """Dataset labeling: per-sample loop vs batched path vs process pool."""
    hist = np.diff(poisson_map(150.0).sample(duration=120.0, seed=1))
    grid = config_grid()
    platform = ServerlessPlatform()
    spec = TargetSpec()
    n_samples, seq_len, workers = 300, 64, max(2, os.cpu_count() or 1)

    def naive():
        # The pre-perf-layer path: one label_window call per sample.
        rng = np.random.default_rng(0)
        from repro.arrival.window import sample_windows
        from repro.batching.config import grid_features

        windows = sample_windows(hist, seq_len, n_samples, rng)
        chosen = rng.integers(0, len(grid), size=n_samples)
        targets = np.empty((n_samples, spec.n_outputs))
        for i in range(n_samples):
            targets[i] = label_window(windows[i], grid[chosen[i]], platform, spec)
        return grid_features(grid)[chosen], targets

    serial_s, (_, naive_targets) = _best_of(naive, repeats=1)
    batched_s, batched = _best_of(
        lambda: generate_dataset(hist, n_samples, seq_len=seq_len, configs=grid,
                                 platform=platform, spec=spec, seed=0),
        repeats=1,
    )
    parallel_s, parallel = _best_of(
        lambda: generate_dataset(hist, n_samples, seq_len=seq_len, configs=grid,
                                 platform=platform, spec=spec, seed=0,
                                 workers=workers),
        repeats=1,
    )

    np.testing.assert_array_equal(naive_targets, batched.targets)
    np.testing.assert_array_equal(batched.targets, parallel.targets)

    payload = {
        "n_samples": n_samples,
        "seq_len": seq_len,
        "workers": workers,
        "naive_seconds": round(serial_s, 4),
        "batched_seconds": round(batched_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "labels_per_sec_naive": round(n_samples / serial_s, 1),
        "labels_per_sec_batched": round(n_samples / batched_s, 1),
        "labels_per_sec_parallel": round(n_samples / parallel_s, 1),
    }
    print(f"\nlabeling: {json.dumps(payload)}")
    # The pool's win is host-dependent (CPU count); correctness — parallel
    # labels bit-identical to serial — is the invariant asserted above.
    # Guard only against a pathological slowdown of the batched path.
    assert batched_s <= serial_s * 1.5


def test_fused_attention_speedup():
    """Training-shape attention step: fused kernel vs the composed chain."""
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(8, 4, 256, 4)) for _ in range(3)]

    def step(sdpa):
        def run():
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            out, _ = sdpa(q, k, v)
            out.backward(np.ones_like(out.data))
        return run

    fused, composed = step(scaled_dot_product_attention), step(composed_attention)
    fused_s = composed_s = float("inf")
    for _ in range(5):  # alternate, so a slow spell of the host hits both
        fused_s = min(fused_s, _best_of(fused)[0])
        composed_s = min(composed_s, _best_of(composed)[0])

    speedup = composed_s / fused_s
    payload = {
        "shape": [8, 4, 256, 4],
        "fused_ms": round(fused_s * 1e3, 2),
        "composed_ms": round(composed_s * 1e3, 2),
        "speedup": round(speedup, 2),
    }
    print(f"\nfused attention: {json.dumps(payload)}")
    assert speedup >= 1.8, f"fused attention only {speedup:.2f}x over composed"


def test_map_sampling_speedup():
    """One Azure-like MMPP(2) segment: block walk vs the per-event walk."""
    proc = mmpp2_with_burstiness(120.0, 1.6, cycle_time=1.75, duty=0.45)

    def block():
        return proc.sample(duration=60.0, seed=0)

    def per_event():
        return per_event_sample(proc, duration=60.0, seed=0)

    np.testing.assert_array_equal(block(), per_event())
    block_s = per_event_s = float("inf")
    for _ in range(3):  # alternate, so a slow spell of the host hits both
        block_s = min(block_s, _best_of(block)[0])
        per_event_s = min(per_event_s, _best_of(per_event)[0])

    speedup = per_event_s / block_s
    payload = {
        "n_arrivals": int(block().size),
        "block_ms": round(block_s * 1e3, 2),
        "per_event_ms": round(per_event_s * 1e3, 2),
        "speedup": round(speedup, 2),
    }
    print(f"\nMAP sampling: {json.dumps(payload)}")
    assert speedup >= 5.0, f"block walk only {speedup:.2f}x over per-event"
