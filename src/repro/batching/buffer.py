"""The online batching buffer (Fig. 2's Buffer component).

Holds incoming requests and dispatches a batch when either the batch-size
limit ``B`` is reached or the oldest waiting request has been held for the
timeout ``T``. This is the *live* (request-at-a-time) counterpart of the
vectorized simulator in :mod:`repro.batching.simulator`; both implement the
same policy, and tests cross-check them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batching.config import BatchConfig


@dataclass(frozen=True)
class Batch:
    """A dispatched batch: request indices, their arrival times, dispatch.

    ``indices`` is always a contiguous ascending run: the buffer numbers
    arrivals sequentially and only ever dispatches a prefix of its pending
    list. Consumers may rely on this — the serving engine assigns
    per-request results with ``[first_index : first_index + size]`` slices
    instead of fancy indexing.
    """

    indices: np.ndarray
    arrival_times: np.ndarray
    dispatch_time: float

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def first_index(self) -> int:
        """First request index of the (contiguous) batch."""
        return int(self.indices[0])

    def waits(self) -> np.ndarray:
        """Buffer wait of each request in the batch."""
        return self.dispatch_time - self.arrival_times


class BatchingBuffer:
    """Online buffer driven by ``observe``/``poll`` calls.

    Usage: feed arrivals with :meth:`observe` (monotone non-decreasing
    times); call :meth:`poll` to collect batches that became due by ``now``;
    call :meth:`flush` at stream end.
    """

    def __init__(self, config: BatchConfig) -> None:
        self.config = config
        self._pending_idx: list[int] = []
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
        while len(self._pending_idx) >= self.config.batch_size:
            out.append(self._dispatch(now))
        return out

    @property
    def pending(self) -> int:
        return len(self._pending_idx)

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
        of which only the last can close a batch."""
        out = []
        idx, times = self._pending_idx, self._pending_times
        for t in arrival_times:
            if t < self._last_time:
                raise ValueError(
                    f"arrival times must be non-decreasing: {t} < {self._last_time}"
                )
            self._last_time = t
            # Append before polling so an arrival landing exactly on a
            # pending batch's deadline joins that batch (matching the
            # simulator's closed-interval deadline semantics).
            idx.append(self._next_index)
            times.append(t)
            self._next_index += 1
            if t >= times[0] + self.config.timeout:
                out += self.poll(t)
            if len(idx) >= self.config.batch_size:
                out.append(self._dispatch(t))
        return out

    def poll(self, now: float) -> list[Batch]:
        """Dispatch batches whose timeout expired by ``now``."""
        out = []
        while self._pending_times and now >= self._pending_times[0] + self.config.timeout:
            due = self._pending_times[0] + self.config.timeout
            # Only requests that had arrived by the deadline belong to it.
            k = sum(1 for t in self._pending_times if t <= due)
            out.append(self._dispatch(due, count=min(k, self.config.batch_size)))
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
        while self._pending_idx:
            count = min(len(self._pending_idx), self.config.batch_size)
            newest = self._pending_times[count - 1]
            if count == self.config.batch_size:
                due = newest
            else:
                due = self._pending_times[0] + self.config.timeout
                if now is not None:
                    due = min(due, now)
            out.append(self._dispatch(max(due, newest), count=count))
        return out

    def _dispatch(self, dispatch_time: float, count: int | None = None) -> Batch:
        count = len(self._pending_idx) if count is None else count
        count = min(count, self.config.batch_size, len(self._pending_idx))
        batch = Batch(
            indices=np.array(self._pending_idx[:count], dtype=int),
            arrival_times=np.array(self._pending_times[:count], dtype=float),
            dispatch_time=float(dispatch_time),
        )
        del self._pending_idx[:count]
        del self._pending_times[:count]
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
            - np.concatenate([batch.arrival_times for batch in batches])
        )
