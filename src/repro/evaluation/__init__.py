"""Evaluation: metrics (VCR Eq. 11), the closed-loop harness, reporting,
and the cached experiment workbench."""

from repro.evaluation.harness import (
    DEFAULT_SEQUENCE_LENGTH,
    Chooser,
    ExperimentLog,
    OracleChooser,
    SegmentOutcome,
    run_experiment,
    run_segment,
)
from repro.evaluation.metrics import (
    cdf_percentile_mape,
    empirical_cdf,
    generation_goodput,
    goodput,
    mape,
    nan_percentile,
    slo_attainment,
    vcr,
)
from repro.evaluation.plots import bar_chart, histogram, sparkline
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.workbench import Workbench, WorkbenchSettings, get_workbench

__all__ = [
    "Chooser",
    "DEFAULT_SEQUENCE_LENGTH",
    "ExperimentLog",
    "OracleChooser",
    "SegmentOutcome",
    "Workbench",
    "WorkbenchSettings",
    "bar_chart",
    "cdf_percentile_mape",
    "empirical_cdf",
    "format_series",
    "format_table",
    "generation_goodput",
    "get_workbench",
    "goodput",
    "histogram",
    "mape",
    "nan_percentile",
    "slo_attainment",
    "sparkline",
    "run_experiment",
    "run_segment",
    "vcr",
]
