"""The heap-backed :class:`WarmPool`, pinned against its linear-scan origin.

The pool's expiry, MRU reuse, and capacity eviction run on heaps with
lazy invalidation. They replaced a linear-scan pool; the seeded churns
below are pinned as golden digests (sha256 over every lease, inspection
and the final snapshot) recorded while both pools ran the same op
sequences and were asserted bit-identical. The pool invariants are
checked after every op, so a change is located to its first bad step,
and the expiry-boundary and tie-break scripts assert their outcomes
directly.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.serving.fleet import BudgetedWarmPool, FleetBudget
from repro.serving.pool import WarmPool, WarmPoolConfig
from tests.serving.test_golden_digests import canon

pytestmark = pytest.mark.serving

TIERS = (512.0, 1024.0, 2048.0, 4096.0)


def snapshot(pool):
    """Every observable of a pool: containers (id, tier, free_at) + stats."""
    return (
        sorted(
            (c.container_id, c.memory_mb, c.free_at)
            for c in pool._containers.values()
        ),
        (pool.stats.cold_starts, pool.stats.warm_starts,
         pool.stats.expired, pool.stats.evicted),
    )


def lease_key(lease):
    """What a digest records of an acquire: the grant, or ``None``."""
    if lease is None:
        return None
    return (lease.container_id, lease.cold, lease.cold_delay)


def record(h, value) -> None:
    h.update(canon(value).encode() + b"\n")


def check_invariants(pool, held, budget=None):
    """The pool's bookkeeping identities, checked after every op.

    ``held`` is the set of container ids the caller currently leases.
    """
    s = pool.stats
    live = len(pool._containers)
    assert live == (s.cold_starts + s.prewarmed - s.expired - s.evicted
                    - s.retired - s.crashed)
    cap = pool.config.max_containers
    assert cap is None or live <= cap
    if budget is not None:
        assert sum(len(p._containers) for p in budget._pools) \
            <= budget.max_containers
    busy = {cid for cid, c in pool._containers.items() if c.free_at == math.inf}
    assert busy == set(held)


def drive(config, script):
    """Run one op script on a fresh pool, checking the invariants after
    every op. Returns the pool and what each acquire (:func:`lease_key`)
    and inspect (``(live, warm)``) op observed, in order."""
    pool = WarmPool(config)
    held = set()
    seen = []
    for op, *args in script:
        if op == "acquire":
            now, tier = args
            lease = pool.acquire(now, tier)
            seen.append(lease_key(lease))
            if lease is not None:
                held.add(lease.container_id)
        elif op == "release":
            cid, now = args
            pool.release(cid, now)
            held.discard(cid)
        else:
            (now,) = args
            seen.append((pool.live_containers(now), pool.warm_containers(now)))
        check_invariants(pool, held)
    return pool, seen


def mixed_churn(seed):
    """A seeded acquire/release/inspect churn; returns its digest."""
    rng = np.random.default_rng(seed)
    config = WarmPoolConfig(keep_alive_s=5.0, max_containers=8)
    script = []
    held = []
    now = 0.0
    for _ in range(3000):
        now += float(rng.exponential(0.5))
        roll = rng.random()
        if roll < 0.55:
            tier = TIERS[int(rng.integers(len(TIERS)))]
            script.append(("acquire", now, tier))
            held.append(len(script) - 1)
        elif roll < 0.9 and held:
            held.pop(int(rng.integers(len(held))))
            script.append(("release", None, now))
        else:
            script.append(("inspect", now))

    # Replay, releasing the oldest lease still held (the script only
    # decides *when* a release happens).
    pool = WarmPool(config)
    leases = {}
    h = hashlib.sha256()
    for idx, (op, *args) in enumerate(script):
        if op == "acquire":
            t, tier = args
            lease = pool.acquire(t, tier)
            record(h, lease_key(lease))
            if lease is not None:
                leases[idx] = lease.container_id
        elif op == "release":
            _, t = args
            if leases:
                pool.release(leases.pop(next(iter(leases))), t)
        else:
            (t,) = args
            record(h, (pool.live_containers(t), pool.warm_containers(t)))
        check_invariants(pool, leases.values())
    record(h, snapshot(pool))
    return h.hexdigest()


#: Digests of :func:`mixed_churn`, one per seed.
MIXED_CHURN_GOLDEN = {
    0:
        "4c33bb98110bd1e2a00c5541ccf4996baff62580cd1438409abbfa3812c017f3",
    1:
        "84d69951cabc8af231e3e295815206fcef9a555ccf5640cdf423195052eab001",
    2:
        "2b2e4e3baddc185f69ae4d3d80624c2eac93e63425f2ce15308600c4be7d21c1",
    3:
        "8f73803ef4d19280608bd257a01d6accc73fe7caa00334eb6aca1d878c92ae7c",
    4:
        "a332681f034d618e03bf60e23a79eadf0b6c9145e3e06870f482103ef87cd558",
    5:
        "f754a58216e1f56051d6069f80cf062a868f6d08628c0c61f16b5c978c75d50f",
    6:
        "a51a56657a3406f95378e2be05bf89251e499adc5192ee652a906a1053999e47",
    7:
        "ed318319e6d754eeb6acc633951fe15598e844f3469c7c63d6f9296e48e7f7d0",
}


@pytest.mark.golden
class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_churn(self, seed):
        assert mixed_churn(seed) == MIXED_CHURN_GOLDEN[seed]


class TestExpiryBoundary:
    def test_idle_exactly_keep_alive_is_not_expired(self):
        # Expiry fires strictly after keep_alive: now - free_at > keep.
        config = WarmPoolConfig(keep_alive_s=5.0)
        script = [
            ("acquire", 0.0, 2048.0),
            ("release", 0, 1.0),
            ("inspect", 6.0),       # idle exactly 5.0 — still warm
            ("acquire", 6.0, 2048.0),
        ]
        pool, seen = drive(config, script)
        assert seen[1:] == [(1, 1), (0, False, 0.0)]
        assert pool.stats.warm_starts == 1
        assert pool.stats.expired == 0

    def test_just_past_keep_alive_is_expired(self):
        config = WarmPoolConfig(keep_alive_s=5.0)
        script = [
            ("acquire", 0.0, 2048.0),
            ("release", 0, 1.0),
            ("inspect", 6.0 + 1e-9),
            ("acquire", 6.0 + 1e-9, 2048.0),  # cold again
        ]
        pool, seen = drive(config, script)
        assert seen[1:] == [(0, 0), (1, True, 0.0)]
        assert pool.stats.expired == 1
        assert pool.stats.cold_starts == 2

    def test_rereleased_container_outlives_stale_heap_entry(self):
        # A container released, reused warm, and released again must be
        # expired off its *latest* free_at, not the orphaned older entry.
        config = WarmPoolConfig(keep_alive_s=5.0)
        script = [
            ("acquire", 0.0, 2048.0),
            ("release", 0, 1.0),
            ("acquire", 2.0, 2048.0),   # warm reuse; entry at 1.0 goes stale
            ("release", 0, 8.0),
            ("inspect", 7.0),           # stale 1.0 entry would expire here
            ("acquire", 12.0, 2048.0),  # idle 4.0 < keep — warm
        ]
        pool, seen = drive(config, script)
        assert seen[2:] == [(1, 0), (0, False, 0.0)]
        assert pool.stats.warm_starts == 2
        assert pool.stats.expired == 0


class TestCapacityEviction:
    def test_oldest_idle_evicted_first(self):
        config = WarmPoolConfig(max_containers=2)
        script = [
            ("acquire", 0.0, 512.0),    # cid 0
            ("acquire", 0.0, 512.0),    # cid 1
            ("release", 0, 1.0),
            ("release", 1, 2.0),
            ("acquire", 3.0, 4096.0),   # full: evicts cid 0 (oldest idle)
        ]
        pool, _ = drive(config, script)
        assert pool.stats.evicted == 1
        assert 0 not in pool._containers
        assert 1 in pool._containers

    def test_eviction_tie_breaks_on_container_id(self):
        config = WarmPoolConfig(max_containers=2)
        script = [
            ("acquire", 0.0, 512.0),
            ("acquire", 0.0, 512.0),
            ("release", 1, 1.0),
            ("release", 0, 1.0),        # identical free_at
            ("acquire", 2.0, 4096.0),   # tie → lowest container id evicted
        ]
        pool, _ = drive(config, script)
        assert 0 not in pool._containers
        assert 1 in pool._containers

    def test_mru_tie_breaks_on_highest_id(self):
        config = WarmPoolConfig()
        script = [
            ("acquire", 0.0, 2048.0),
            ("acquire", 0.0, 2048.0),
            ("release", 0, 1.0),
            ("release", 1, 1.0),        # identical free_at
            ("acquire", 2.0, 2048.0),   # MRU tie → highest container id
        ]
        pool, seen = drive(config, script)
        assert seen[-1] == (1, False, 0.0)
        grant = pool.acquire(2.0, 2048.0)  # the remaining warm one
        assert grant.container_id == 0

    def test_all_busy_full_pool_denies(self):
        config = WarmPoolConfig(max_containers=2)
        script = [
            ("acquire", 0.0, 512.0),
            ("acquire", 0.0, 512.0),
            ("acquire", 1.0, 512.0),    # both busy → denied
        ]
        pool, seen = drive(config, script)
        assert seen[-1] is None
        assert pool.stats.cold_starts == 2
        assert pool.stats.evicted == 0


#: Digest of :meth:`TestFleetBudgetCrossTenantEviction._drive`'s trail.
BUDGET_TRAIL_GOLDEN = (
    "23c0943d4a10a62531fc8869a8122a7dfdc09a757dcc0e024832c154e3fbed3b"
)


@pytest.mark.golden
class TestFleetBudgetCrossTenantEviction:
    """The fleet budget reaches *into* pools to evict the globally
    least-recently-freed idle container. For the heap pool that deletion
    bypasses the heaps entirely — lazy invalidation must absorb it."""

    def _drive(self):
        budget = FleetBudget(max_containers=2)
        cfg = WarmPoolConfig(keep_alive_s=math.inf)
        pools = {"a": BudgetedWarmPool(cfg, None, budget),
                 "b": BudgetedWarmPool(cfg, None, budget)}
        held = {"a": set(), "b": set()}
        a, b = pools["a"], pools["b"]
        trail = []

        def check():
            for tag, pool in pools.items():
                check_invariants(pool, held[tag], budget)

        def acq(tag, now, tier):
            lease = pools[tag].acquire(now, tier)
            trail.append((tag, lease_key(lease)))
            if lease is not None:
                held[tag].add(lease.container_id)
            check()
            return lease

        def rel(tag, cid, now):
            pools[tag].release(cid, now)
            held[tag].discard(cid)
            check()

        la = acq("a", 0.0, 512.0)   # fleet: 1 live
        lb = acq("b", 0.0, 1024.0)  # fleet: 2 live (at cap)
        rel("a", la.container_id, 1.0)
        rel("b", lb.container_id, 3.0)
        # At the cap with two idle fleet-wide (a@1.0 older than b@3.0): a
        # cold start in b must evict tenant *a*'s container, the global
        # least-recently-freed victim.
        lease = acq("b", 4.0, 2048.0)
        assert lease is not None and lease.cold
        acq("b", 4.0, 1024.0)                  # b's own idle, warm reuse
        assert acq("a", 4.5, 512.0) is None    # all busy fleet-wide
        rel("b", lease.container_id, 5.0)
        # a's heaps still hold entries for its evicted container; they must
        # be skipped, and the cold start evicts b's idle 2048 instead.
        final = acq("a", 6.0, 512.0)
        assert final is not None and final.cold
        trail.append(("a-evicted", a.stats.evicted))
        trail.append(("b-evicted", b.stats.evicted))
        trail.append(snapshot(a))
        trail.append(snapshot(b))
        return trail

    def test_heap_matches_reference(self):
        trail = self._drive()
        assert hashlib.sha256(canon(trail).encode()).hexdigest() == \
            BUDGET_TRAIL_GOLDEN

    def test_victim_is_cross_tenant(self):
        trail = self._drive()
        assert ("a-evicted", 1) in trail   # tenant a lost its container
        assert ("b-evicted", 1) in trail   # then b's idle went to a
