"""Chaos harness: kill the engine at event boundaries, restore, compare.

The checkpoint subsystem's keystone claim is an *equivalence*: a run that is
killed at an arbitrary event boundary and resumed from its latest snapshot
(+ journal replay) produces a :class:`ServingLog` bit-identical to a run
that was never interrupted. This module turns that claim into an executable
oracle:

* :func:`run_with_crashes` drives a run to completion through a seeded
  sequence of simulated crashes — each leg runs until
  :class:`SimulatedCrash` fires at a random event boundary, then the next
  leg restores from the snapshot on disk. The crash points come from a
  dedicated ``numpy`` Generator seeded by the caller, so a failing sequence
  is reproducible from its seed.
* :func:`assert_serving_logs_equal` is the strict comparison every
  equivalence suite uses: every field of the log — arrays bitwise-equal
  (NaNs aligned), decisions, counters — except ``checkpoints``, and
  ``decision_time`` by default because learned controllers measure it
  with a wall clock.

Both are plain library code (no pytest dependency) so the CLI and notebooks
can run the same drill; ``tests/serving/test_chaos.py`` wires them to the
``chaos`` marker.
"""

from __future__ import annotations

import os
from dataclasses import fields
from typing import Callable

import numpy as np

from repro.serving.checkpoint import SimulatedCrash
from repro.serving.engine import ServingEngine
from repro.serving.log import ServingDecision, ServingLog

__all__ = [
    "SimulatedCrash",
    "assert_serving_logs_equal",
    "run_with_crashes",
]


def run_with_crashes(
    engine_factory: Callable[[], ServingEngine],
    timestamps: np.ndarray,
    checkpoint_path: str | os.PathLike,
    n_crashes: int = 3,
    seed: int = 0,
    checkpoint_every: int = 64,
    max_events: int | None = None,
    record_trace: bool = False,
    **run_kwargs,
) -> tuple[ServingLog, list[int]]:
    """Serve ``timestamps`` to completion through ``n_crashes`` kill points.

    ``engine_factory`` must build a *fresh*, identically-configured engine
    per leg — exactly what a restarted process would do. The first leg is a
    normal :meth:`ServingEngine.run` with checkpointing on; each subsequent
    leg is a :meth:`ServingEngine.restore` from the snapshot the previous
    leg left behind. Crash points are drawn uniformly over the whole run's
    event count (estimated from an uninterrupted probe when ``max_events``
    is not given), sorted, deduplicated, and injected via the engine's
    ``crash_after_events`` hook; draws that fall after the run ends simply
    never fire and that leg completes.

    Returns the final (completed) log and the list of event counts at which
    the run was actually killed.
    """
    if n_crashes < 0:
        raise ValueError(f"n_crashes must be >= 0, got {n_crashes}")
    if max_events is None:
        # Probe leg: same engine config, no checkpointing, just to learn how
        # many events the run processes so crash draws span all of it.
        max_events = engine_factory().run(
            timestamps, record_trace=False, **run_kwargs
        ).n_events
    rng = np.random.default_rng(seed)
    crash_points = sorted(
        set(int(v) for v in rng.integers(1, max(2, max_events), n_crashes))
    )
    crashes_hit: list[int] = []
    remaining = list(crash_points)
    crash_after = remaining.pop(0) if remaining else None
    try:
        log = engine_factory().run(
            timestamps,
            record_trace=record_trace,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            crash_after_events=crash_after,
            **run_kwargs,
        )
    except SimulatedCrash:
        crashes_hit.append(crash_after)
        log = None
    while log is None:
        # Crash points are absolute event counts; the restored state resumes
        # its events_processed counter from the snapshot, so the next (larger)
        # point fires on the resumed leg without any re-basing.
        next_point = remaining.pop(0) if remaining else None
        try:
            log = engine_factory().restore(
                checkpoint_path, crash_after_events=next_point
            )
        except SimulatedCrash:
            crashes_hit.append(next_point)
            log = None
    return log, crashes_hit


def assert_serving_logs_equal(
    a: ServingLog,
    b: ServingLog,
    compare_decision_times: bool = False,
) -> None:
    """Assert two :class:`ServingLog`\\ s are bit-identical.

    Every dataclass field is compared, so a field added to the log is
    covered by default, except ``checkpoints``: a killed and restored run
    writes more snapshots than one that never crashed. ``decision_time``
    is skipped unless ``compare_decision_times`` — it is measured with a
    wall clock, the single legitimately non-deterministic value in a log.
    Raises :class:`AssertionError` naming the first differing field.
    """
    for name in (f.name for f in fields(ServingLog)):
        if name == "checkpoints":
            continue
        x, y = getattr(a, name), getattr(b, name)
        if name == "decisions":
            _assert_decisions_equal(x, y, compare_decision_times)
        elif name == "event_trace" and x != y:
            first = next((i for i, (ea, eb) in enumerate(zip(x or [], y or []))
                          if ea != eb), None)
            if first is None:
                raise AssertionError(
                    f"ServingLog.{name} lengths differ: "
                    f"{x if x is None else len(x)} != "
                    f"{y if y is None else len(y)}"
                )
            raise AssertionError(f"ServingLog.{name}[{first}] differs: "
                                 f"{x[first]!r} != {y[first]!r}")
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x is None or y is None or not np.array_equal(x, y,
                                                            equal_nan=True):
                raise AssertionError(
                    f"ServingLog.{name} differs: {x!r} != {y!r}"
                )
        elif x != y:
            raise AssertionError(f"ServingLog.{name} differs: {x!r} != {y!r}")


def _assert_decisions_equal(a: list, b: list, with_times: bool) -> None:
    if len(a) != len(b):
        raise AssertionError(
            f"ServingLog.decisions counts differ: {len(a)} != {len(b)}"
        )
    names = [f.name for f in fields(ServingDecision)
             if with_times or f.name != "decision_time"]
    for i, (da, db) in enumerate(zip(a, b)):
        for name in names:
            x, y = getattr(da, name), getattr(db, name)
            if x != y:
                raise AssertionError(
                    f"ServingLog.decisions[{i}].{name} differs: "
                    f"{x!r} != {y!r}"
                )
