"""Train the committed decision model the perf benchmark loads.

``decide`` and ``serve-deepbat`` load ``surrogate.npz`` from this directory
instead of training, so they never pay for training and a change to the
training code cannot change their inputs. Re-run this script only to change
the model on purpose; it rewrites ``surrogate.npz`` and ``surrogate.json``
(the recipe, the best epoch's validation MAPE and the SLO margin gamma).

Run from the repository root::

    python3 benchmarks/perf/make_model.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

#: The fixed recipe: the paper-shaped surrogate (seq_len 256, d=16, two
#: encoder layers) trained with the SLO-weighted loss on an Azure-like trace
#: whose seed no benchmark workload uses.
RECIPE = {
    "trace": "azure_like",
    "trace_seed": 100,
    "segments": 12,
    "segment_duration_s": 60.0,
    "windows": 1024,
    "seq_len": 256,
    "d_model": 16,
    "num_layers": 2,
    "epochs": 10,
    "batch_size": 16,
    "slo_s": 0.1,
    "seed": 100,
    "gamma_seed": 7,
}


def main() -> int:
    from repro.arrival import azure_like, interarrivals
    from repro.batching.config import config_grid
    from repro.core import (
        DeepBATSurrogate,
        TrainConfig,
        estimate_gamma,
        generate_dataset,
        save_trained,
        train_surrogate,
    )

    r = RECIPE
    trace = azure_like(r["trace_seed"], r["segments"], r["segment_duration_s"])
    history = interarrivals(trace.timestamps)
    dataset = generate_dataset(history, n_samples=r["windows"],
                               seq_len=r["seq_len"], seed=r["seed"])
    model = DeepBATSurrogate(seq_len=r["seq_len"], d_model=r["d_model"],
                             num_layers=r["num_layers"], seed=r["seed"])
    trained = train_surrogate(dataset, model=model, config=TrainConfig(
        epochs=r["epochs"], batch_size=r["batch_size"], slo=r["slo_s"],
        seed=r["seed"],
    ))
    gamma = estimate_gamma(trained, interarrivals(trace.segment(0)),
                           config_grid(), seed=r["gamma_seed"], slo=r["slo_s"])
    best = trained.history.best_epoch
    save_trained(trained, HERE / "surrogate.npz")
    meta = {
        "recipe": r,
        "best_epoch": best,
        "val_mape_pct": trained.history.val_mape[best],
        "gamma": gamma,
    }
    (HERE / "surrogate.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(json.dumps(meta, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
