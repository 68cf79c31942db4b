"""Host speed, from a fixed kernel timed between a run's operations.

On a shared host the speed of the same code drifts by up to 2x over
minutes with other tenants' load, and whole runs are slow: a median over
one run's operations cannot remove that. A probe is a fixed kernel that
uses none of the program's code, timed between operations all through the
run. The host's speed moves within a run too, so each time is put at the
reference host speed by the probes near it: ``measured * NOMINAL_S[kind] /
median of the probes within WINDOW_S``. A change to the program moves the
workload's times and not the probe's.

Contention slows code that chases Python objects more than code that
streams arrays, so there are two kernels, and a workload names the kind of
code its time goes to (``Workload.probe``):

- ``interpreter``: dict lookups and a sort, then the matrix products and
  softmax of one attention layer — the event loop, the chooser;
- ``array``: a reduction and an elementwise pass over a 16 MB array —
  training on batches.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

_rng = np.random.default_rng(20240917)
_KEYS = _rng.integers(0, 1 << 40, size=10_000).tolist()
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_SEQ = _rng.random((256, 16))
_WEIGHT = _rng.standard_normal((16, 16)) * 0.05
_ARRAY = _rng.random(2_000_000)


def _interpreter() -> None:
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    sorted(_KEYS)
    # Values stay well inside the normal float range: no subnormals.
    x = _SEQ
    for _ in range(2):
        scores = (x @ _WEIGHT) @ x.T
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        x = (scores / scores.sum(axis=1, keepdims=True)) @ x


def _array() -> None:
    _ARRAY.sum()
    (_ARRAY * 1.0001).max()


KERNELS = {"interpreter": _interpreter, "array": _array}
#: Reference time of each kernel, about its median on a calm two-core Xeon
#: host (Python 3.11, NumPy 2.4, one BLAS thread). Only the ratio to it
#: matters; it is fixed.
NOMINAL_S = {"interpreter": 0.0045, "array": 0.004}
#: Probe once per this many seconds of operation time.
PROBE_EVERY_S = 0.15
#: A time is put at the reference speed by the probes this close to it.
WINDOW_S = 1.5


class HostSpeed:
    """The probes of one run, all of one kind."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.stamps: list[float] = []  # perf_counter() at each probe's end
        self.times: list[float] = []
        self._owed = 0.0

    def probe(self) -> None:
        """Run the kernel twice and time the second run, with the collector
        off. The first run brings the kernel's data back into the caches
        the program's operation evicted, and a collection's cost depends on
        the program's heap: neither is the host's speed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.kernel()
            t0 = time.perf_counter()
            self.kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.stamps.append(t1)
        self.times.append(t1 - t0)

    def after(self, seconds: float) -> None:
        """Probe once per ``PROBE_EVERY_S`` of the ``seconds`` just timed."""
        self._owed += seconds
        while self._owed >= PROBE_EVERY_S:
            self.probe()
            self._owed -= PROBE_EVERY_S

    def factor_at(self, t: float) -> float:
        """Calm-host probe time over the probes' median near ``t`` (a
        ``perf_counter()`` reading): a wall time then multiplies by it.
        With no probe that close, the first one after ``t`` (or the last)
        stands in."""
        lo = bisect_left(self.stamps, t - WINDOW_S)
        hi = bisect_right(self.stamps, t + WINDOW_S)
        near = self.times[lo:hi] or [self.times[min(lo, len(self.times) - 1)]]
        return NOMINAL_S[self.kind] / statistics.median(near)
