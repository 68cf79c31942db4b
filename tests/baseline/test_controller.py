"""Tests for the BATCH controller (fit + exhaustive analytic search)."""

import numpy as np
import pytest

from repro.arrival.map_process import poisson_map
from repro.arrival.mmpp import mmpp2_with_burstiness
from repro.baseline.controller import BATCHController
from repro.batching.config import BatchConfig, config_grid
from repro.batching.simulator import simulate
from repro.serverless.platform import ServerlessPlatform

GRID = config_grid(
    memories=(512.0, 1024.0, 1792.0),
    batch_sizes=(1, 4, 8, 16),
    timeouts=(0.0, 0.02, 0.05, 0.1),
)
PLAT = ServerlessPlatform()


class TestBATCHController:
    def test_decision_meets_predicted_slo(self):
        ts = poisson_map(200.0).sample(duration=60.0, seed=0)
        ctrl = BATCHController(configs=GRID)
        decision = ctrl.choose(np.diff(ts), slo=0.1)
        assert decision.feasible
        assert decision.prediction.latency_percentiles[0] <= 0.1
        assert decision.config in GRID

    def test_stationary_workload_decision_holds_in_simulation(self):
        """When next hour == last hour, BATCH's config should actually meet
        the SLO in ground truth (the paper's in-distribution result)."""
        proc = poisson_map(200.0)
        hist = proc.sample(duration=60.0, seed=0)
        future = proc.sample(duration=60.0, seed=99)
        ctrl = BATCHController(configs=GRID)
        decision = ctrl.choose(np.diff(hist), slo=0.1)
        sim = simulate(future, decision.config, PLAT)
        assert sim.latency_percentile(95) <= 0.1 * 1.15  # small sim noise band

    def test_picks_cheaper_config_than_no_batching(self):
        proc = poisson_map(300.0)
        hist = np.diff(proc.sample(duration=60.0, seed=1))
        ctrl = BATCHController(configs=GRID)
        decision = ctrl.choose(hist, slo=0.15)
        assert decision.config.batch_size > 1  # batching is economical here

    def test_tight_slo_prefers_fast_configs(self):
        proc = poisson_map(200.0)
        hist = np.diff(proc.sample(duration=60.0, seed=2))
        ctrl = BATCHController(configs=GRID)
        loose = ctrl.choose(hist, slo=0.2)
        tight = ctrl.choose(hist, slo=0.02)
        assert tight.prediction.latency_percentiles[0] <= loose.prediction.latency_percentiles[0]
        assert tight.config.timeout <= loose.config.timeout

    def test_infeasible_slo_falls_back(self):
        proc = poisson_map(100.0)
        hist = np.diff(proc.sample(duration=30.0, seed=3))
        ctrl = BATCHController(configs=GRID)
        decision = ctrl.choose(hist, slo=1e-6)
        assert not decision.feasible
        assert decision.config in GRID

    def test_requires_enough_samples(self):
        ctrl = BATCHController(configs=GRID)
        with pytest.raises(ValueError):
            ctrl.choose(np.array([0.01] * 5), slo=0.1)

    def test_rejects_bad_slo(self):
        ctrl = BATCHController(configs=GRID)
        with pytest.raises(ValueError):
            ctrl.choose(np.full(100, 0.01), slo=0.0)

    def test_records_timing(self):
        hist = np.diff(poisson_map(200.0).sample(duration=30.0, seed=4))
        ctrl = BATCHController(configs=GRID)
        decision = ctrl.choose(hist, slo=0.1)
        assert decision.fit_time >= 0
        assert decision.solve_time > 0
        assert decision.decision_time == pytest.approx(
            decision.fit_time + decision.solve_time
        )

    def test_bursty_history_changes_decision(self):
        """A burstier history should push BATCH toward more conservative
        (lower-latency-risk) configurations than a smooth one."""
        smooth = np.diff(poisson_map(200.0).sample(duration=60.0, seed=5))
        bursty = np.diff(
            mmpp2_with_burstiness(200.0, 2.0, 2.0, 0.3).sample(duration=60.0, seed=5)
        )
        ctrl = BATCHController(configs=GRID)
        d_smooth = ctrl.choose(smooth, slo=0.1)
        d_bursty = ctrl.choose(bursty, slo=0.1)
        # Both valid decisions; the bursty fit must acknowledge burstiness.
        assert ctrl.last_map.scv() > 1.5
        assert d_bursty.config in GRID and d_smooth.config in GRID

    def test_empty_config_list_rejected(self):
        with pytest.raises(ValueError):
            BATCHController(configs=[])
