"""Arrival-process machinery: MAPs/MMPPs, trace statistics, KPC-style
fitting, synthetic evaluation traces, and sequence windowing."""

from repro.arrival.fitting import FitReport, empirical_targets, fit_map
from repro.arrival.map_process import (
    MAP,
    erlang_map,
    hyperexp_map,
    poisson_map,
)
from repro.arrival.io import export_csv, load_trace, save_trace
from repro.arrival.mmpp import mmpp2, mmpp2_with_burstiness
from repro.arrival.nhpp import diurnal_rate, sample_nhpp, thin
from repro.arrival.stats import (
    autocorrelation,
    binned_rate,
    idc,
    interarrivals,
    mean_rate,
    scv,
)
from repro.arrival.traces import (
    STANDARD_TRACES,
    Trace,
    alibaba_like,
    azure_like,
    map_synthetic,
    twitter_like,
)
from repro.arrival.window import latest_window, sample_windows, sliding_windows

__all__ = [
    "MAP",
    "STANDARD_TRACES",
    "FitReport",
    "Trace",
    "alibaba_like",
    "autocorrelation",
    "azure_like",
    "binned_rate",
    "diurnal_rate",
    "empirical_targets",
    "erlang_map",
    "export_csv",
    "fit_map",
    "load_trace",
    "hyperexp_map",
    "idc",
    "interarrivals",
    "latest_window",
    "map_synthetic",
    "mean_rate",
    "mmpp2",
    "mmpp2_with_burstiness",
    "poisson_map",
    "sample_nhpp",
    "sample_windows",
    "save_trace",
    "scv",
    "sliding_windows",
    "thin",
    "twitter_like",
]
