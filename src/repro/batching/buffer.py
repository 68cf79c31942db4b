"""The online batching buffer (Fig. 2's Buffer component).

Holds incoming requests and dispatches a batch when either the batch-size
limit ``B`` is reached or the oldest waiting request has been held for the
timeout ``T``. This is the *live* (request-at-a-time) counterpart of the
vectorized simulator in :mod:`repro.batching.simulator`; both implement the
same policy, and tests cross-check them against each other.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from repro.batching.config import BatchConfig


class Batch(NamedTuple):
    """A dispatched batch: requests ``[first_index, first_index + size)``,
    their dispatch time, and their arrival times as the plain float list
    the buffer held (no array is built per batch).

    A batch is always such a range: the buffer numbers arrivals
    sequentially and only ever dispatches a prefix of its pending list.
    The serving engine relies on this, assigning per-request results by
    slice and reading the arrival times from its own trace at that slice.
    """

    first_index: int
    size: int
    dispatch_time: float
    arrival_times: Sequence[float]


class BatchingBuffer:
    """Online buffer driven by ``observe``/``poll`` calls.

    Usage: feed arrivals with :meth:`observe` (monotone non-decreasing
    times); call :meth:`poll` to collect batches that became due by ``now``;
    call :meth:`flush` at stream end.

    Pending requests are the index range ending before ``_next_index``,
    so the first one is ``_next_index - len(_pending_times)``.
    """

    def __init__(self, config: BatchConfig) -> None:
        self.config = config
        self._pending_times: list[float] = []
        self._next_index = 0
        self._dispatched: list[Batch] = []
        self._last_time = -np.inf

    # ------------------------------------------------------------- plumbing
    def reconfigure(self, config: BatchConfig, now: float | None = None) -> list[Batch]:
        """Switch (M, B, T) online — the controller's step ③ in Fig. 2.

        With ``now`` given, batches that are due *under the new parameters*
        dispatch immediately and are returned: shrinking ``B`` below the
        pending count releases full batches of the new size (stamped
        ``now`` — they leave the moment the reconfiguration lands), and
        shortening ``T`` past an already-elapsed wait fires the timeout
        (stamped at the new deadline, capped below by no request's own
        arrival). Without ``now`` (the historical signature) pending
        requests stay buffered and are judged at the next poll.
        """
        self.config = config
        if now is None:
            return []
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

    def flush(self, now: float | None = None) -> list[Batch]:
        """Dispatch all remaining requests (stream end).

        Each drained batch is stamped with *its own* dispatch time, never
        the whole buffer's newest arrival:

        * a full batch (only possible after a ``reconfigure`` to a smaller
          ``B``) dispatches the moment its B-th member arrived — it would
          have left the buffer then;
        * a partial batch dispatches at its first member's deadline
          (``first + timeout``), matching the vectorized simulator's
          end-of-stream behaviour; passing ``now`` force-flushes earlier,
          capping the dispatch at ``now``;
        * no batch ever dispatches before its own newest member arrived.
        """
        out = []
        while self._pending_times:
            count = min(len(self._pending_times), self.config.batch_size)
            newest = self._pending_times[count - 1]
            if count == self.config.batch_size:
                due = newest
            else:
                due = self._pending_times[0] + self.config.timeout
                if now is not None:
                    due = min(due, now)
            out.append(self._dispatch(max(due, newest), count))
        return out

    def _dispatch(self, dispatch_time: float, count: int) -> Batch:
        """Release the first ``count`` (≤ pending) requests as one batch."""
        times = self._pending_times
        batch = Batch(self._next_index - len(times), count,
                      float(dispatch_time), times[:count])
        del times[:count]
        self._dispatched.append(batch)
        return batch

    def publish(self, registry) -> None:
        """Add every batch dispatched so far to the ``buffer.batch_size``
        and ``buffer.wait`` histograms. Call it once, when the stream is
        done: the batches are kept, not drained."""
        batches = self._dispatched
        if not batches:
            return
        sizes = [batch.size for batch in batches]
        registry.histogram("buffer.batch_size").observe_many(sizes)
        registry.histogram("buffer.wait").observe_many(
            np.repeat([batch.dispatch_time for batch in batches], sizes)
            - np.fromiter(chain.from_iterable(
                batch.arrival_times for batch in batches), float)
        )
