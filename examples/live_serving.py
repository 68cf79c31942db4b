#!/usr/bin/env python
"""Live serving loop (Fig. 2 request flow).

Serves a bursty stream request by request through the serving engine
(batching buffer, warm container pool, per-batch billing) with the online
DeepBAT controller re-optimizing ``(M, B, T)`` every few simulated
seconds, then reports achieved latency, cost, and the configuration
trajectory. Each batch is billed at the memory it actually ran with. This
is the deployment-shaped code path (the evaluation harness uses the
vectorized equivalent).

Run:  python examples/live_serving.py
"""

import numpy as np

from repro.arrival import mmpp2_with_burstiness
from repro.core import DeepBATController
from repro.evaluation import format_series, get_workbench
from repro.serverless import cost_per_million
from repro.serving import ServingEngine

SLO = 0.1
DECISION_INTERVAL_S = 10.0


def main() -> None:
    wb = get_workbench()
    controller = DeepBATController(wb.base_model(), configs=wb.grid)

    print("Generating a 2-minute bursty stream (rate ~150 req/s)...")
    proc = mmpp2_with_burstiness(150.0, 1.7, cycle_time=2.0, duty=0.4)
    arrivals = proc.sample(duration=120.0, seed=11)
    print(f"   {arrivals.size} requests")

    print(f"Serving with online re-optimization every "
          f"{DECISION_INTERVAL_S:g} s...")
    engine = ServingEngine(wb.grid[0], platform=wb.platform,
                           chooser=controller, slo=SLO,
                           decision_interval_s=DECISION_INTERVAL_S)
    log = engine.run(arrivals, name="live-deepbat")
    decisions = log.decisions

    print(f"\n   dispatched {log.batch_sizes.size} batches, mean size "
          f"{np.mean(log.batch_sizes):.1f}")
    print(f"   p95 latency : {log.p(95.0) * 1e3:.1f} ms "
          f"(SLO {SLO * 1e3:.0f} ms)")
    print(f"   cost        : ${cost_per_million(log.cost_per_request):.3f}/1M req")
    print(f"   decisions   : {len(decisions)} re-optimizations, mean "
          f"{log.mean_decision_time * 1e3:.0f} ms each")
    print()
    print(format_series("B trajectory", np.array([d.config.batch_size for d in decisions]), "{:.0f}"))
    print(format_series("T trajectory (ms)", np.array([d.config.timeout * 1e3 for d in decisions]), "{:.0f}"))
    print(format_series("M trajectory (MB)", np.array([d.config.memory_mb for d in decisions]), "{:.0f}"))


if __name__ == "__main__":
    main()
