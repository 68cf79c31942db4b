"""Tests for the online batching buffer, including cross-checks against
the vectorized simulator (they implement the same (B, T) policy)."""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batching.buffer import BatchingBuffer
from repro.batching.config import BatchConfig
from repro.batching.simulator import form_batches
from repro.telemetry.metrics import MetricsRegistry


def drive(ts, config):
    """Feed a full trace through the online buffer; return (ends, dispatches)."""
    buf = BatchingBuffer(config)
    batches = []
    for t in ts:
        batches.extend(buf.observe(t))
    batches.extend(buf.poll(math.inf))
    ends = np.cumsum([b.size for b in batches])
    disp = np.array([b.dispatch_time for b in batches])
    return ends, disp


class TestOnlineBuffer:
    def test_size_triggered_dispatch(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 2, 10.0))
        assert buf.observe(0.0) == []
        out = buf.observe(0.5)
        assert len(out) == 1
        assert out[0].size == 2
        assert out[0].dispatch_time == 0.5

    def test_timeout_triggered_dispatch(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 10, 0.1))
        buf.observe(0.0)
        out = buf.poll(0.2)
        assert len(out) == 1
        assert out[0].dispatch_time == pytest.approx(0.1)

    def test_waits_never_exceed_timeout(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 4, 0.05))
        rng = np.random.default_rng(0)
        ts = np.sort(rng.uniform(0, 5, 200))
        batches = []
        for t in ts:
            batches.extend(buf.observe(t))
        batches.extend(buf.poll(math.inf))
        for b in batches:
            waits = b.dispatch_time - ts[b.first_index:b.first_index + b.size]
            assert np.all(waits <= 0.05 + 1e-12)
            assert np.all(waits >= -1e-12)

    def test_rejects_time_travel(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 2, 1.0))
        buf.observe(1.0)
        with pytest.raises(ValueError):
            buf.observe(0.5)

    def test_reconfigure_applies_to_future_batches(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 4, 10.0))
        buf.observe(0.0)
        assert buf.reconfigure(BatchConfig(1024.0, 2, 10.0), now=0.0) == []
        out = buf.observe(0.1)
        assert len(out) == 1 and out[0].size == 2

    def test_flush_empties_buffer(self):
        # The end of a stream: every pending request leaves.
        buf = BatchingBuffer(BatchConfig(1024.0, 100, 50.0))
        for t in [0.0, 0.1, 0.2]:
            buf.observe(t)
        assert buf.pending == 3
        out = buf.poll(math.inf)
        assert buf.pending == 0
        assert sum(b.size for b in out) == 3

    def test_publish_waits_from_the_callers_arrivals(self):
        ts = np.sort(np.random.default_rng(3).uniform(0, 2, 50))
        buf = BatchingBuffer(BatchConfig(1024.0, 4, 0.1))
        batches = [b for t in ts for b in buf.observe(t)]
        batches += buf.poll(math.inf)
        registry = MetricsRegistry()
        buf.publish(registry, ts)
        waits = np.concatenate([
            b.dispatch_time - ts[b.first_index:b.first_index + b.size]
            for b in batches])
        hist = registry.histogram("buffer.wait")
        assert hist._samples == waits.tolist()
        assert registry.histogram("buffer.batch_size")._samples == [
            float(b.size) for b in batches]

    def test_indices_are_sequential(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 2, 1.0))
        all_batches = []
        for t in [0.0, 0.1, 0.2, 0.3]:
            all_batches.extend(buf.observe(t))
        idx = [i for b in all_batches for i in indices(b)]
        assert idx == [0, 1, 2, 3]


def indices(batch):
    return list(range(batch.first_index, batch.first_index + batch.size))


def as_tuples(batches):
    return [(indices(b), b.dispatch_time) for b in batches]


def state(buf):
    return (buf._pending_times, buf._next_index, buf._dispatch_times,
            buf._sizes)


def engine_cut(ts, ptr, buf, other):
    """The end of the run from ``ptr`` that the serving engine feeds
    ``buf``: at most the arrivals that fill the head batch, and none at or
    after its deadline but the first, alone. ``other`` stands in for the
    engine's other bounds (heap head, drift check, stop)."""
    lim = min(len(ts), ptr + buf.config.batch_size - buf.pending, ptr + other)
    deadline = buf.next_deadline()
    if deadline is None:
        deadline = ts[ptr] + buf.config.timeout
    return bisect_left(ts, deadline, ptr + 1, max(lim, ptr + 1))


#: Arrivals on a 1/8 grid with ties, and timeouts on it too (``T = 0``
#: included): arrivals land exactly on deadlines.
grid_arrivals = st.lists(st.integers(0, 3), min_size=1, max_size=60).map(
    lambda gaps: (np.cumsum(gaps) / 8.0).tolist())
grid_configs = st.builds(BatchConfig, st.just(1024.0), st.integers(1, 6),
                         st.sampled_from([0.0, 0.125, 0.25, 0.5]))


class TestObserveRuns:
    """``observe(*run)`` does what one ``observe`` per arrival does."""

    @given(grid_arrivals, grid_configs, st.data())
    @settings(max_examples=200, deadline=None)
    def test_engine_runs_match_one_at_a_time(self, ts, config, data):
        runs, single = BatchingBuffer(config), BatchingBuffer(config)
        ptr = 0
        while ptr < len(ts):
            end = engine_cut(ts, ptr, runs, data.draw(st.integers(1, 8)))
            got = runs.observe(*ts[ptr:end])
            want = [single.observe(t) for t in ts[ptr:end]]
            # Only the run's last arrival closes a batch.
            assert not any(want[:-1])
            assert as_tuples(got) == as_tuples(want[-1])
            assert state(runs) == state(single)
            ptr = end
        assert as_tuples(runs.poll(math.inf)) == as_tuples(single.poll(math.inf))

    @given(grid_arrivals, grid_configs, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_runs_match_one_at_a_time(self, ts, config, data):
        runs, single = BatchingBuffer(config), BatchingBuffer(config)
        ptr = 0
        while ptr < len(ts):
            end = ptr + data.draw(st.integers(1, 10))
            got = runs.observe(*ts[ptr:end])
            want = [b for t in ts[ptr:end] for b in single.observe(t)]
            assert as_tuples(got) == as_tuples(want)
            assert state(runs) == state(single)
            ptr = end

    def test_arrivals_tied_at_the_deadline(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 8, 0.25))
        assert buf.observe(0.0, 0.125) == []
        # Both land on the head deadline: the first closes the batch with
        # itself in it, the second opens the next one.
        out = buf.observe(0.25, 0.25)
        assert as_tuples(out) == [([0, 1, 2], 0.25)]
        assert buf.pending == 1 and buf.next_deadline() == 0.5

    def test_batch_filled_on_the_last_arrival(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 4, 1.0))
        assert buf.observe(0.0) == []
        out = buf.observe(0.1, 0.2, 0.3)
        assert as_tuples(out) == [([0, 1, 2, 3], 0.3)]
        assert buf.pending == 0 and buf.next_deadline() is None

    def test_zero_timeout(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 4, 0.0))
        # Every arrival is due the moment it arrives and leaves alone.
        out = buf.observe(0.0, 0.0, 0.5)
        assert as_tuples(out) == [([0], 0.0), ([1], 0.0), ([2], 0.5)]

    def test_run_going_backwards_names_the_time(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 8, 1.0))
        with pytest.raises(ValueError, match="0.25 < 0.5"):
            buf.observe(0.0, 0.5, 0.25)
        with pytest.raises(ValueError, match="0.125 < 0.5"):
            buf.observe(0.125)


class TestBatchesAreRanges:
    """A batch is an index range and a dispatch time, as plain Python
    numbers: no dispatch path builds an array per batch."""

    @staticmethod
    def assert_plain(batch):
        assert batch._fields == ("first_index", "size", "dispatch_time")
        assert type(batch.first_index) is int and type(batch.size) is int
        assert type(batch.dispatch_time) is float

    def test_every_dispatch_path(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 3, 0.5))
        made = {"observe": buf.observe(0.0, 0.1, 0.2)}
        buf.observe(1.0)
        made["poll"] = buf.poll(2.0)
        buf.observe(3.0, 3.1)
        made["reconfigure"] = buf.reconfigure(BatchConfig(1024.0, 1, 0.5),
                                              now=3.2)
        buf.reconfigure(BatchConfig(1024.0, 4, 0.5), now=3.2)
        buf.observe(4.0, 4.1)
        made["end"] = buf.poll(math.inf)
        assert {path: [(b.first_index, b.size) for b in out]
                for path, out in made.items()} == {
            "observe": [(0, 3)], "poll": [(3, 1)],
            "reconfigure": [(4, 1), (5, 1)], "end": [(6, 2)],
        }
        for out in made.values():
            for batch in out:
                self.assert_plain(batch)

    @given(grid_arrivals, grid_configs, st.data())
    @settings(max_examples=100, deadline=None)
    def test_backwards_arrival_keeps_the_prefix(self, ts, config, data):
        # A run that goes backwards raises at its bad arrival and leaves
        # the buffer where one-at-a-time observation of the arrivals
        # before it leaves it; both then go on alike.
        start = data.draw(st.integers(0, len(ts) - 1))
        cut = data.draw(st.integers(start + 1, len(ts)))
        runs, single = BatchingBuffer(config), BatchingBuffer(config)
        for t in ts[:start]:
            runs.observe(t)
            single.observe(t)
        with pytest.raises(ValueError, match="non-decreasing"):
            runs.observe(*ts[start:cut], ts[cut - 1] - 0.125, *ts[cut:])
        for t in ts[start:cut]:
            single.observe(t)
        assert runs.pending == single.pending
        assert runs._next_index == single._next_index
        assert runs.next_deadline() == single.next_deadline()
        assert state(runs) == state(single)
        with pytest.raises(ValueError, match="non-decreasing"):
            runs.observe(ts[cut - 1] - 0.125)
        assert as_tuples(runs.observe(*ts[cut:])) == as_tuples(
            [b for t in ts[cut:] for b in single.observe(t)])
        assert as_tuples(runs.poll(math.inf)) == as_tuples(single.poll(math.inf))


class TestBufferMatchesSimulator:
    """The online buffer and the vectorized batch former must agree."""

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=100, unique=True),
        st.integers(1, 8),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_partition_and_dispatches(self, raw, b, t):
        ts = np.sort(np.asarray(raw))
        cfg = BatchConfig(1024.0, b, t)
        sim_ends, sim_disp = form_batches(ts, b, t)
        buf_ends, buf_disp = drive(ts, cfg)
        np.testing.assert_array_equal(buf_ends, sim_ends)
        np.testing.assert_allclose(buf_disp, sim_disp, atol=1e-12)

    def test_bursty_trace_agreement(self):
        rng = np.random.default_rng(42)
        # clustered arrivals stress the timeout-vs-size tie logic
        ts = np.sort(np.concatenate([rng.uniform(0, 0.01, 30), rng.uniform(5, 5.01, 30)]))
        sim_ends, sim_disp = form_batches(ts, 8, 0.05)
        buf_ends, buf_disp = drive(ts, BatchConfig(1024.0, 8, 0.05))
        np.testing.assert_array_equal(buf_ends, sim_ends)
        np.testing.assert_allclose(buf_disp, sim_disp, atol=1e-12)

    def test_bt_grid_agreement(self):
        """Exhaustive (B, T) sweep: for every grid point and several traces
        the online buffer's full schedule — including the end-of-stream
        drain — matches the vectorized batch former."""
        rng = np.random.default_rng(7)
        traces = [
            np.sort(rng.uniform(0.0, 3.0, 40)),
            np.cumsum(rng.exponential(0.02, size=60)),
            np.sort(np.concatenate([
                rng.uniform(0.0, 0.01, 10), rng.uniform(1.0, 1.01, 10),
            ])),
        ]
        for ts in traces:
            for b in (1, 2, 3, 8, 64):
                for t in (0.0, 0.005, 0.05, 0.5, 10.0):
                    sim_ends, sim_disp = form_batches(ts, b, t)
                    buf_ends, buf_disp = drive(ts, BatchConfig(1024.0, b, t))
                    np.testing.assert_array_equal(buf_ends, sim_ends)
                    np.testing.assert_allclose(buf_disp, sim_disp, atol=1e-12)


class TestMidStreamReconfigure:
    """reconfigure(config, now=...) with requests pending: the serving
    engine's live path, where a new (M, B, T) must immediately drain any
    batches the stricter policy makes due."""

    def test_shrinking_b_below_pending_dispatches_now(self):
        # 5 pending under B=8; switching to B=2 owes two full batches at
        # the switch instant and keeps the odd request buffered.
        buf = BatchingBuffer(BatchConfig(1024.0, 8, 10.0))
        for t in [0.0, 0.1, 0.2, 0.3, 0.4]:
            assert buf.observe(t) == []
        out = buf.reconfigure(BatchConfig(1024.0, 2, 10.0), now=0.5)
        assert [b.size for b in out] == [2, 2]
        assert [b.dispatch_time for b in out] == [0.5, 0.5]
        assert buf.pending == 1

    def test_shortening_t_past_elapsed_wait_dispatches_due(self):
        # The head has waited 0.4 when T drops to 0.1: its (new) deadline
        # 0.0 + 0.1 already passed, so the batch leaves at that deadline,
        # exactly like a timeout the buffer had missed.
        buf = BatchingBuffer(BatchConfig(1024.0, 8, 10.0))
        for t in [0.0, 0.05, 0.4]:
            assert buf.observe(t) == []
        out = buf.reconfigure(BatchConfig(1024.0, 8, 0.1), now=0.4)
        assert len(out) == 1
        # Only the arrivals by that deadline ride along; 0.4 stays buffered
        # with its own fresh deadline under the new T.
        assert out[0].size == 2
        assert out[0].dispatch_time == pytest.approx(0.1)
        assert buf.pending == 1
        assert buf.next_deadline() == pytest.approx(0.5)

    def test_loosening_keeps_pending(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 4, 0.2))
        buf.observe(0.0)
        out = buf.reconfigure(BatchConfig(1024.0, 8, 5.0), now=0.1)
        assert out == []
        assert buf.pending == 1
        assert buf.next_deadline() == pytest.approx(5.0)

    def test_next_deadline_tracks_head(self):
        buf = BatchingBuffer(BatchConfig(1024.0, 4, 0.5))
        assert buf.next_deadline() is None
        buf.observe(1.0)
        buf.observe(1.2)
        assert buf.next_deadline() == pytest.approx(1.5)
        buf.poll(2.0)
        assert buf.next_deadline() is None
