"""The event loop schedules only the buffer timeouts that can fire.

A buffer deadline is armed only when the known arrivals will not close the
head batch by then: fill it, or land exactly on the deadline. In a static
run nothing else moves the head, so every timer that fires finds its
deadline at the buffer head and dispatches. A reconfiguration judges the
head batch again under its new ``(B, T)``. Fleet lanes keep the same rule.
"""

import numpy as np
import pytest

from repro.batching.buffer import BatchingBuffer
from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import ServingEngine, WarmPoolConfig
from repro.serving.engine import _fills_by
from repro.serving.fleet import _LaneEngine
from tests.serving.test_golden_digests import run_fleet

pytestmark = pytest.mark.serving


class TimerCheckingEngine(ServingEngine):
    """Records, for each timer that fires, whether its deadline was the
    buffer head's and how many batches it dispatched."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired = []

    def _on_timer(self, st, ctx, now, deadline):
        at_head = st.buffer.next_deadline() == deadline
        before = len(st.buffer._sizes)
        super()._on_timer(st, ctx, now, deadline)
        self.fired.append((at_head, len(st.buffer._sizes) - before))


@pytest.mark.parametrize("rate", [2000.0, 150.0])
def test_every_timer_fires_on_the_head_batch(rate):
    # The perf benchmark's serve-static shape (2000 req/s fills batches by
    # size), and a rate at which batches fill and time out about evenly.
    # The trace's last three arrivals always wait out their timeout.
    ts = np.cumsum(np.random.default_rng(0).exponential(1.0 / rate, 4003))
    eng = TimerCheckingEngine(
        BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05),
        platform=ServerlessPlatform(cold_start=ColdStartModel()),
        pool=WarmPoolConfig(keep_alive_s=30.0, max_containers=64,
                            max_queued_batches=256),
    )
    log = eng.run(ts)
    assert eng.fired
    assert all(at_head and n > 0 for at_head, n in eng.fired)
    # Every batch short of B left on a timer, and the loop processed
    # nothing but the arrivals, one completion per batch and those timers.
    timed_out = int(np.sum(log.batch_sizes < 8))
    assert sum(n for _, n in eng.fired) == timed_out
    assert log.n_events == ts.size + log.batch_sizes.size + len(eng.fired)


def test_every_timer_fires_on_the_head_batch_of_a_grid_trace():
    # Arrivals on a 1/64 s grid with T = 4/64 s tie with each other and
    # land exactly on head deadlines, where they close the head batch
    # before its timer could.
    rng = np.random.default_rng(10)
    ts = np.ceil(np.cumsum(rng.exponential(1.0 / 100.0, 1500)) * 64.0) / 64.0
    eng = TimerCheckingEngine(BatchConfig(2048.0, 8, 0.0625),
                              platform=ServerlessPlatform(seed=10))
    log = eng.run(ts)
    timed_out = log.batch_sizes < 8
    # Some timeout batches left at the instant of an arrival.
    assert np.isin(log.dispatch_times[timed_out], ts).any()
    assert eng.fired
    assert all(at_head and n > 0 for at_head, n in eng.fired)
    assert log.n_events == ts.size + log.batch_sizes.size + len(eng.fired)


def test_every_fleet_timer_fires_on_the_head_batch(monkeypatch):
    # The golden fleet: four static lanes under a shared budget, with
    # outages, crashes, hedging, failover and brownout. None of them
    # moves a lane's buffer head, so no fired timer finds its batch gone.
    fired = []
    on_timer = _LaneEngine._on_timer

    def checking(self, st, ctx, now, deadline):
        at_head = st.buffer.next_deadline() == deadline
        before = len(st.buffer._sizes)
        on_timer(self, st, ctx, now, deadline)
        fired.append((at_head, len(st.buffer._sizes) - before))

    monkeypatch.setattr(_LaneEngine, "_on_timer", checking)
    run_fleet()
    assert fired
    assert all(at_head and n > 0 for at_head, n in fired)


def test_fill_arrival_on_the_deadline_needs_no_timer():
    buf = BatchingBuffer(BatchConfig(memory_mb=2048.0, batch_size=3,
                                     timeout=0.5))
    buf.observe(0.0)
    ts = [0.0, 0.25, 0.5, 0.75]
    # The third arrival lands on the head deadline: it goes before the
    # timer and closes the batch at that instant.
    assert _fills_by(buf, ts, 1, 0.5)
    assert not _fills_by(buf, ts, 1, 0.4999)
    # The trace ends before the batch fills.
    assert not _fills_by(buf, ts[:2], 1, 0.5)


def test_arrival_on_the_deadline_needs_no_timer():
    buf = BatchingBuffer(BatchConfig(memory_mb=2048.0, batch_size=8,
                                     timeout=0.5))
    buf.observe(0.0)
    # Far short of filling the batch, but an arrival lands exactly on the
    # deadline and times the batch out at that instant, before the timer.
    assert _fills_by(buf, [0.0, 0.25, 0.5, 0.75], 1, 0.5)
    assert not _fills_by(buf, [0.0, 0.25, 0.5 + 1e-9, 0.75], 1, 0.5)
    # Only the arrivals still to come count.
    assert not _fills_by(buf, [0.0, 0.5], 2, 0.5)


class ShortenTimeout:
    """Chooses ``T = 0.5`` s, ``B`` unchanged."""

    def choose(self, history, slo):
        return Decision(config=BatchConfig(2048.0, 2, 0.5), decision_time=0.0)


def test_reconfigure_judges_the_head_batch_again():
    # Under T = 1 s the arrival at 0.9 s fills the head batch in time, so
    # no timer is armed. T = 0.5 s lands at 0.2 s, with no arrival before
    # the new deadline: only the reconfiguration can arm its timer.
    log = ServingEngine(
        BatchConfig(2048.0, 2, 1.0), chooser=ShortenTimeout(),
        decision_interval_s=0.1, deploy_delay_s=0.1, min_history=0,
    ).run(np.array([0.0, 0.9]))
    assert log.decisions[0].applied_at == pytest.approx(0.2)
    assert log.dispatch_times.tolist() == [0.5, 1.4]
    assert log.start_times.tolist() == [0.5, 1.4]
