"""Unit tests for the warm-pool keep-alive model."""

import math

import pytest

from repro.serverless.service_profile import ColdStartModel
from repro.serving.pool import WarmPool, WarmPoolConfig

pytestmark = pytest.mark.serving


def full_state(pool):
    """Every internal observable: containers, both heaps, all counters."""
    return (
        {cid: (c.memory_mb, c.free_at) for cid, c in pool._containers.items()},
        list(pool._idle_heap),
        {tier: list(h) for tier, h in pool._warm_heaps.items()},
        (pool.stats.cold_starts, pool.stats.warm_starts, pool.stats.expired,
         pool.stats.evicted, pool.stats.prewarmed, pool.stats.retired),
    )


class TestWarmReuse:
    def test_first_acquire_is_cold(self):
        pool = WarmPool()
        lease = pool.acquire(0.0, 2048.0)
        assert lease.cold
        assert pool.stats.cold_starts == 1

    def test_released_container_is_reused_warm(self):
        pool = WarmPool()
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 1.0)
        b = pool.acquire(2.0, 2048.0)
        assert not b.cold
        assert b.container_id == a.container_id
        assert pool.stats.warm_starts == 1

    def test_busy_container_is_not_reused(self):
        pool = WarmPool()
        a = pool.acquire(0.0, 2048.0)
        b = pool.acquire(0.5, 2048.0)
        assert b.cold
        assert b.container_id != a.container_id

    def test_wrong_memory_tier_is_cold(self):
        pool = WarmPool()
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 1.0)
        b = pool.acquire(2.0, 4096.0)
        assert b.cold

    def test_mru_pick_among_warm(self):
        # The most-recently-freed matching container is reused first.
        pool = WarmPool()
        a = pool.acquire(0.0, 2048.0)
        b = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 1.0)
        pool.release(b.container_id, 2.0)
        c = pool.acquire(3.0, 2048.0)
        assert c.container_id == b.container_id

    def test_release_at_acquire_instant_counts_as_warm(self):
        # free_at <= now: a container freed exactly at the dispatch time is
        # available — the offline throttle's ``start = slot`` equality case.
        pool = WarmPool()
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 5.0)
        assert not pool.acquire(5.0, 2048.0).cold


class TestKeepAlive:
    def test_idle_past_keep_alive_expires(self):
        pool = WarmPool(WarmPoolConfig(keep_alive_s=10.0))
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 1.0)
        lease = pool.acquire(12.0, 2048.0)  # idle 11s > 10s
        assert lease.cold
        assert pool.stats.expired == 1

    def test_idle_exactly_keep_alive_survives(self):
        pool = WarmPool(WarmPoolConfig(keep_alive_s=10.0))
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 1.0)
        assert not pool.acquire(11.0, 2048.0).cold

    def test_infinite_keep_alive_never_expires(self):
        pool = WarmPool(WarmPoolConfig(keep_alive_s=math.inf))
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 0.0)
        assert not pool.acquire(1e12, 2048.0).cold
        assert pool.stats.expired == 0

    def test_live_and_warm_counts(self):
        pool = WarmPool(WarmPoolConfig(keep_alive_s=5.0))
        a = pool.acquire(0.0, 2048.0)
        pool.acquire(0.0, 2048.0)  # stays busy
        pool.release(a.container_id, 1.0)
        assert pool.live_containers(2.0) == 2
        assert pool.warm_containers(2.0) == 1
        assert pool.warm_containers(2.0, memory_mb=4096.0) == 0
        assert pool.live_containers(20.0) == 1  # the idle one expired


class TestInspectionIsPure:
    """Regression: ``live_containers``/``warm_containers`` used to run the
    expiry sweep, so merely *observing* the pool off the event clock (the
    prewarmer's polling, a dashboard probe) mutated containers, heaps, and
    the ``expired`` counter. Inspection must be side-effect-free."""

    @pytest.mark.parametrize("pool_cls", [WarmPool])
    def test_counts_leave_state_bit_identical(self, pool_cls):
        pool = pool_cls(WarmPoolConfig(keep_alive_s=5.0))
        a = pool.acquire(0.0, 2048.0)
        b = pool.acquire(0.0, 4096.0)
        pool.release(a.container_id, 1.0)
        pool.release(b.container_id, 2.0)
        before = full_state(pool)
        # Far past every keep-alive: both idle containers are logically
        # expired at t=100 and must be counted out — but not reclaimed.
        assert pool.live_containers(100.0) == 0
        assert pool.warm_containers(100.0) == 0
        assert pool.live_containers(3.0) == 2
        assert pool.warm_containers(3.0) == 2
        assert pool.warm_containers(3.0, memory_mb=2048.0) == 1
        assert full_state(pool) == before
        # Reclamation still happens at the next mutating call.
        pool.acquire(100.0, 2048.0)
        assert pool.stats.expired == 2

    @pytest.mark.parametrize("pool_cls", [WarmPool])
    def test_expiry_boundary_matches_the_sweep(self, pool_cls):
        # The count uses the same float comparison as the sweep
        # (now - free_at > keep): idle *exactly* keep_alive is still live.
        pool = pool_cls(WarmPoolConfig(keep_alive_s=5.0))
        lease = pool.acquire(0.0, 2048.0)
        pool.release(lease.container_id, 1.0)
        assert pool.live_containers(6.0) == 1
        assert pool.warm_containers(6.0) == 1
        assert pool.live_containers(6.0 + 1e-9) == 0

    @pytest.mark.parametrize("pool_cls", [WarmPool])
    def test_busy_containers_are_live_at_any_horizon(self, pool_cls):
        pool = pool_cls(WarmPoolConfig(keep_alive_s=1.0))
        pool.acquire(0.0, 2048.0)  # stays busy (free_at = inf)
        assert pool.live_containers(1e12) == 1
        assert pool.warm_containers(1e12) == 0


class TestCapacity:
    def test_exhausted_pool_returns_none(self):
        pool = WarmPool(WarmPoolConfig(max_containers=2))
        pool.acquire(0.0, 2048.0)
        pool.acquire(0.0, 2048.0)
        assert pool.acquire(0.0, 2048.0) is None

    def test_wrong_tier_idle_is_evicted_at_cap(self):
        # A memory reconfiguration turns warm capacity of the old tier into
        # cold starts of the new one.
        pool = WarmPool(WarmPoolConfig(max_containers=1))
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 1.0)
        lease = pool.acquire(2.0, 4096.0)
        assert lease.cold
        assert pool.stats.evicted == 1
        assert pool.live_containers(2.0) == 1

    def test_freed_capacity_reusable_after_none(self):
        pool = WarmPool(WarmPoolConfig(max_containers=1))
        a = pool.acquire(0.0, 2048.0)
        assert pool.acquire(0.5, 2048.0) is None
        pool.release(a.container_id, 1.0)
        assert pool.acquire(1.0, 2048.0) is not None


class TestColdDelay:
    def test_no_model_means_zero_delay(self):
        pool = WarmPool()
        assert pool.cold_delay(2048.0) == 0.0
        assert pool.acquire(0.0, 2048.0).cold_delay == 0.0

    def test_model_delay_is_deterministic_per_tier(self):
        model = ColdStartModel()
        pool = WarmPool(cold_start=model)
        lease = pool.acquire(0.0, 2048.0)
        assert lease.cold_delay == pytest.approx(model.delay(2048.0))
        assert lease.cold_delay > 0.0


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            WarmPoolConfig(keep_alive_s=-1.0)
        with pytest.raises(ValueError):
            WarmPoolConfig(max_containers=0)
        with pytest.raises(ValueError):
            WarmPoolConfig(max_queued_batches=-1)


class TestEdgeCases:
    """PR 5 satellite: the boundary semantics the engine leans on."""

    def test_zero_keep_alive_makes_every_later_start_cold(self):
        # keep_alive_s=0 is "no warm capacity": any time elapsing between
        # release and the next acquire expires the container.
        pool = WarmPool(WarmPoolConfig(keep_alive_s=0.0))
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 1.0)
        b = pool.acquire(1.0 + 1e-9, 2048.0)
        assert b.cold
        assert pool.stats.expired == 1
        pool.release(b.container_id, 2.0)
        c = pool.acquire(3.0, 2048.0)
        assert c.cold
        assert pool.stats.cold_starts == 3
        assert pool.stats.warm_starts == 0

    def test_zero_keep_alive_same_instant_reuse_is_still_warm(self):
        # Expiry is strict (idle > keep_alive_s), so a release and acquire
        # at the same timestamp still reuses — zero idle time has passed.
        pool = WarmPool(WarmPoolConfig(keep_alive_s=0.0))
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 1.0)
        assert not pool.acquire(1.0, 2048.0).cold

    def test_expiry_exactly_at_reuse_time_is_warm(self):
        # now - free_at == keep_alive_s sits inside the window: the
        # boundary belongs to the container, matching the strict `>` in
        # WarmPool._expire.
        pool = WarmPool(WarmPoolConfig(keep_alive_s=10.0))
        a = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 5.0)
        lease = pool.acquire(15.0, 2048.0)
        assert not lease.cold
        assert pool.stats.expired == 0

    def test_eviction_breaks_free_at_ties_by_lowest_id(self):
        # Two idle containers stamped at the same instant: eviction must be
        # deterministic, and the rule is min((free_at, container_id)).
        pool = WarmPool(WarmPoolConfig(max_containers=2))
        a = pool.acquire(0.0, 2048.0)
        b = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 5.0)
        pool.release(b.container_id, 5.0)
        lease = pool.acquire(6.0, 4096.0)  # new tier forces an eviction
        assert lease.cold
        assert pool.stats.evicted == 1
        # The lower id (a) was evicted; b is still present and warm.
        assert pool.warm_containers(6.0, memory_mb=2048.0) == 1
        reused = pool.acquire(6.0, 2048.0)
        assert not reused.cold
        assert reused.container_id == b.container_id

    def test_warm_reuse_breaks_free_at_ties_by_highest_id(self):
        # The MRU pick's mirror rule: max((free_at, container_id)).
        pool = WarmPool()
        a = pool.acquire(0.0, 2048.0)
        b = pool.acquire(0.0, 2048.0)
        pool.release(a.container_id, 5.0)
        pool.release(b.container_id, 5.0)
        assert pool.acquire(6.0, 2048.0).container_id == b.container_id
