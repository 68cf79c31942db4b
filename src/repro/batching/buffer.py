"""The online batching buffer (Fig. 2's Buffer component).

Holds incoming requests and dispatches a batch when either the batch-size
limit ``B`` is reached or the oldest waiting request has been held for the
timeout ``T``. This is the *live* (request-at-a-time) counterpart of the
vectorized simulator in :mod:`repro.batching.simulator`; both implement the
same policy, and tests cross-check them against each other.

A dispatched :class:`Batch` is an index range and a dispatch time: the
buffer numbers arrivals in order and only ever dispatches a prefix of its
pending requests, so the caller's own arrival times say who is in it. After
every public call fewer than ``B`` requests are pending; ``poll(math.inf)``
drains them at the end of a stream, each batch at its own deadline.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from repro.batching.config import BatchConfig


class Batch(NamedTuple):
    """A dispatched batch: requests ``[first_index, first_index + size)``
    and the moment they left the buffer.

    A batch is always such a range: the buffer numbers arrivals
    sequentially and only ever dispatches a prefix of its pending list.
    The serving engine relies on this, assigning per-request results by
    slice and reading the arrival times from its own trace at that slice.
    """

    first_index: int
    size: int
    dispatch_time: float


class BatchingBuffer:
    """Online buffer driven by ``observe``/``poll`` calls.

    Usage: feed arrivals with :meth:`observe` (monotone non-decreasing
    times); call :meth:`poll` to collect batches that became due by ``now``
    (``poll(math.inf)`` at stream end).

    Pending requests are the index range ending before ``_next_index``,
    so the first one is ``_next_index - len(_pending_times)``. Of the
    dispatched batches only each one's dispatch time and size are kept,
    for :meth:`publish`.
    """

    def __init__(self, config: BatchConfig) -> None:
        self.config = config
        self._pending_times: list[float] = []
        self._next_index = 0
        self._dispatch_times: list[float] = []
        self._sizes: list[int] = []
        self._last_time = -np.inf

    # ------------------------------------------------------------- plumbing
    def reconfigure(self, config: BatchConfig, now: float) -> list[Batch]:
        """Switch (M, B, T) online — the controller's step ③ in Fig. 2.

        Batches that are due *under the new parameters* dispatch
        immediately and are returned: shrinking ``B`` below the pending
        count releases full batches of the new size (stamped ``now`` —
        they leave the moment the reconfiguration lands), and shortening
        ``T`` past an already-elapsed wait fires the timeout (stamped at
        the new deadline, capped below by no request's own arrival).
        """
        self.config = config
        out = self.poll(now)
        while len(self._pending_times) >= config.batch_size:
            out.append(self._dispatch(now, config.batch_size))
        return out

    @property
    def pending(self) -> int:
        return len(self._pending_times)

    def next_deadline(self) -> float | None:
        """When the oldest pending request times out (``None`` if empty)."""
        if not self._pending_times:
            return None
        return self._pending_times[0] + self.config.timeout

    # ----------------------------------------------------------------- flow
    def observe(self, *arrival_times: float) -> list[Batch]:
        """Register arrivals in order; returns any batches dispatched up to
        the last one. One call with several arrivals does exactly what one
        call per arrival does; the serving engine passes a run of arrivals
        of which only the last can close a batch. A backwards arrival
        raises, leaving the buffer as if the call had ended before it."""
        out = []
        times = self._pending_times
        batch_size = self.config.batch_size
        timeout = self.config.timeout
        last = self._last_time
        for t in arrival_times:
            if t < last:
                self._last_time = last
                raise ValueError(
                    f"arrival times must be non-decreasing: {t} < {last}"
                )
            last = t
            # Append before polling so an arrival landing exactly on a
            # pending batch's deadline joins that batch (matching the
            # simulator's closed-interval deadline semantics).
            times.append(t)
            self._next_index += 1
            if t >= times[0] + timeout:
                out += self.poll(t)
            if len(times) >= batch_size:
                out.append(self._dispatch(t, batch_size))
        self._last_time = last
        return out

    def poll(self, now: float) -> list[Batch]:
        """Dispatch batches whose timeout expired by ``now``."""
        out = []
        times = self._pending_times
        while times and now >= times[0] + self.config.timeout:
            due = times[0] + self.config.timeout
            # Only requests that had arrived by the deadline belong to it
            # (a prefix: pending times never decrease).
            k = bisect_right(times, due)
            out.append(self._dispatch(due, min(k, self.config.batch_size)))
        return out

    def _dispatch(self, dispatch_time: float, count: int) -> Batch:
        """Release the first ``count`` (≤ pending) requests as one batch."""
        times = self._pending_times
        first = self._next_index - len(times)
        del times[:count]
        dispatch_time = float(dispatch_time)
        self._dispatch_times.append(dispatch_time)
        self._sizes.append(count)
        return Batch(first, count, dispatch_time)

    def publish(self, registry, arrival_times: Sequence[float]) -> None:
        """Add every batch dispatched so far to the ``buffer.batch_size``
        and ``buffer.wait`` histograms; ``arrival_times`` are the observed
        arrivals, indexed as the batches number them. Call it once, when
        the stream is done: the record is kept, not drained."""
        sizes = self._sizes
        if not sizes:
            return
        registry.histogram("buffer.batch_size").observe_many(sizes)
        # Batches are consecutive prefixes: the k-th dispatched request is
        # arrival k.
        registry.histogram("buffer.wait").observe_many(
            np.repeat(self._dispatch_times, sizes)
            - np.asarray(arrival_times[:sum(sizes)], dtype=float)
        )
