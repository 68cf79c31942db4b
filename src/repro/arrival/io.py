"""Trace persistence: save/load :class:`repro.arrival.traces.Trace` objects.

``.npz`` is the library's native, lossless round-trip format.
:func:`export_csv` also writes a trace as text, one timestamp per line
after a small header, for external tools; CSV is export-only.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.arrival.traces import Trace
from repro.utils.io import atomic_write


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write a trace to ``.npz`` (timestamps + segmentation + metadata).

    The archive is written to exactly ``path`` (no ``.npz`` is appended)
    through :func:`repro.utils.io.atomic_write`.
    """
    with atomic_write(path) as handle:
        np.savez_compressed(
            handle,
            timestamps=trace.timestamps,
            segment_duration=np.array([trace.segment_duration]),
            n_segments=np.array([trace.n_segments]),
            name=np.array([trace.name]),
            metadata=np.array([json.dumps(trace.metadata, default=str)]),
        )


def load_trace(path: str | os.PathLike) -> Trace:
    """Load a trace saved by :func:`save_trace`."""
    with np.load(path, allow_pickle=False) as archive:
        return Trace(
            name=str(archive["name"][0]),
            timestamps=archive["timestamps"],
            segment_duration=float(archive["segment_duration"][0]),
            n_segments=int(archive["n_segments"][0]),
            metadata=json.loads(str(archive["metadata"][0])),
        )


def export_csv(trace: Trace, path: str | os.PathLike) -> None:
    """Write ``# name,segment_duration,n_segments`` then one timestamp/line."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# {trace.name},{trace.segment_duration},{trace.n_segments}\n")
        for t in trace.timestamps:
            fh.write(f"{t:.9f}\n")
