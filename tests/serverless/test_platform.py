"""Tests for the serverless platform invocation model."""

import numpy as np
import pytest

from repro.serverless.platform import ServerlessPlatform
from repro.serverless.pricing import LambdaPricing
from repro.serverless.service_profile import ColdStartModel, ServiceProfile


class TestInvokeBatches:
    """One :class:`BatchExecution` row per invoked batch."""

    def test_records_align_with_inputs(self):
        plat = ServerlessPlatform()
        ex = plat.execute_batches(np.array([0.0, 1.0]), np.array([4, 8]), 1024.0)
        assert ex.n_batches == 2
        np.testing.assert_array_equal(ex.batch_sizes, [4, 8])
        np.testing.assert_array_equal(ex.start_times, [0.0, 1.0])
        assert ex.memory_mb == 1024.0

    def test_completion_time(self):
        plat = ServerlessPlatform()
        ex = plat.execute_batches(np.array([2.0]), np.array([1]), 1792.0)
        expected = plat.profile.service_time(1792.0, 1)
        assert ex.completion_times[0] == pytest.approx(2.0 + expected)

    def test_cost_matches_pricing(self):
        plat = ServerlessPlatform()
        ex = plat.execute_batches(np.array([0.0]), np.array([2]), 1024.0)
        expected = plat.pricing.invocation_cost(1024.0, ex.service_times[0])
        assert ex.costs[0] == pytest.approx(expected)
        assert ex.total_cost == pytest.approx(expected)

    def test_empty_input(self):
        ex = ServerlessPlatform().execute_batches(np.array([]), np.array([]), 1024.0)
        assert ex.n_batches == 0
        assert ex.completion_times.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ServerlessPlatform().execute_batches(np.array([0.0]), np.array([1, 2]), 1024.0)


class TestColdStarts:
    def test_cold_start_adds_latency_and_cost(self):
        warm = ServerlessPlatform()
        cold = ServerlessPlatform(
            cold_start=ColdStartModel(cold_probability=1.0, base_delay=0.5), seed=0
        )
        ew = warm.execute_batches(np.array([0.0]), np.array([1]), 1024.0)
        ec = cold.execute_batches(np.array([0.0]), np.array([1]), 1024.0)
        assert ec.completion_times[0] > ew.completion_times[0]
        assert ec.costs[0] > ew.costs[0]
        assert ec.cold_starts[0] > 0


class TestConcurrencyLimit:
    def test_unlimited_runs_in_parallel(self):
        plat = ServerlessPlatform()
        ex = plat.execute_batches(np.zeros(5), np.full(5, 1), 1024.0)
        np.testing.assert_array_equal(ex.start_times, np.zeros(5))

    def test_limit_serializes_excess(self):
        plat = ServerlessPlatform(concurrency_limit=1)
        ex = plat.execute_batches(np.zeros(3), np.full(3, 1), 1024.0)
        svc = plat.profile.service_time(1024.0, 1)
        np.testing.assert_allclose(ex.start_times, [0.0, svc, 2 * svc], rtol=1e-9)

    def test_limit_two_interleaves(self):
        plat = ServerlessPlatform(concurrency_limit=2)
        ex = plat.execute_batches(np.zeros(4), np.full(4, 1), 1024.0)
        svc = plat.profile.service_time(1024.0, 1)
        np.testing.assert_allclose(np.sort(ex.start_times),
                                   [0.0, 0.0, svc, svc], rtol=1e-9)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            ServerlessPlatform(concurrency_limit=0)

    def test_custom_profile_and_pricing(self):
        plat = ServerlessPlatform(
            profile=ServiceProfile(base_time=0.1, batch_time=0.0),
            pricing=LambdaPricing(request_price=0.0),
        )
        ex = plat.execute_batches(np.array([0.0]), np.array([1]), 1792.0)
        assert ex.service_times[0] == pytest.approx(0.1)
        assert ex.costs[0] == pytest.approx(1.75 * 0.1 * plat.pricing.gb_second_price)


class TestBatchExecution:
    """The struct-of-arrays execution and its grid form."""

    def test_empty_execution(self):
        ex = ServerlessPlatform().execute_batches(np.array([]), np.array([]), 512.0)
        assert ex.n_batches == 0
        assert ex.total_cost == 0.0

    def test_heap_matches_naive_argmin_schedule(self):
        """The O(n log C) heap must reproduce the reference O(n·C)
        earliest-available-slot scan exactly."""
        rng = np.random.default_rng(7)
        disp = np.sort(rng.uniform(0, 2.0, 60))
        sizes = rng.integers(1, 9, size=60)
        for limit in (1, 2, 5, 60, 200):
            plat = ServerlessPlatform(concurrency_limit=limit)
            service = np.asarray(
                plat.profile.service_time(1024.0, sizes), dtype=float
            )
            free_at = np.zeros(limit)
            expected = np.empty(60)
            for i in range(60):
                slot = int(np.argmin(free_at))
                expected[i] = max(disp[i], free_at[slot])
                free_at[slot] = expected[i] + service[i]
            ex = plat.execute_batches(disp, sizes, 1024.0)
            np.testing.assert_array_equal(ex.start_times, expected)

    def test_grid_execution_matches_per_memory(self):
        plat = ServerlessPlatform(concurrency_limit=3)
        disp = np.sort(np.random.default_rng(1).uniform(0, 1.0, 40))
        sizes = np.random.default_rng(2).integers(1, 17, size=40)
        memories = [256.0, 1024.0, 3008.0]
        grid = plat.execute_batches_grid(disp, sizes, memories)
        for m, ex in zip(memories, grid):
            ref = plat.execute_batches(disp, sizes, m)
            assert ex.memory_mb == m
            np.testing.assert_array_equal(ex.start_times, ref.start_times)
            np.testing.assert_array_equal(ex.service_times, ref.service_times)
            np.testing.assert_array_equal(ex.costs, ref.costs)

    def test_grid_execution_with_per_tier_rngs(self):
        plat = ServerlessPlatform(
            cold_start=ColdStartModel(cold_probability=0.4), seed=11
        )
        disp = np.linspace(0, 1, 30)
        sizes = np.full(30, 4)
        memories = [512.0, 1792.0]
        rngs = [plat.spawn_rng(k) for k in range(2)]
        grid = plat.execute_batches_grid(disp, sizes, memories, rngs=rngs)
        for k, (m, ex) in enumerate(zip(memories, grid)):
            ref = plat.execute_batches(disp, sizes, m, rng=plat.spawn_rng(k))
            np.testing.assert_array_equal(ex.cold_starts, ref.cold_starts)
            np.testing.assert_array_equal(ex.costs, ref.costs)

    def test_grid_execution_validation(self):
        plat = ServerlessPlatform()
        with pytest.raises(ValueError):
            plat.execute_batches_grid(np.array([0.0]), np.array([1, 2]), [512.0])
        with pytest.raises(ValueError):
            plat.execute_batches_grid(
                np.array([0.0]), np.array([1]), [512.0], rngs=[]
            )

    def test_spawn_rng_deterministic_and_keyed(self):
        plat = ServerlessPlatform(seed=5)
        a, b = plat.spawn_rng(3), plat.spawn_rng(3)
        assert a.integers(0, 2**31) == b.integers(0, 2**31)
        assert plat.spawn_rng(3).integers(0, 2**31) != plat.spawn_rng(4).integers(0, 2**31)
