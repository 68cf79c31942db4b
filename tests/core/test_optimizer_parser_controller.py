"""Tests for the SLO-aware optimizer and the DeepBAT controller."""

import numpy as np
import pytest

from repro.arrival.map_process import poisson_map
from repro.arrival.window import latest_window
from repro.batching.config import BatchConfig, config_grid
from repro.core.dataset import generate_dataset
from repro.core.features import TargetSpec
from repro.core.optimizer import SloAwareOptimizer
from repro.core.controller import DeepBATController
from repro.core.surrogate import DeepBATSurrogate
from repro.core.training import TrainConfig, train_surrogate

GRID = config_grid(memories=(512.0, 1024.0), batch_sizes=(1, 4, 8), timeouts=(0.0, 0.05))
SPEC = TargetSpec()


def fake_predictions(costs, p95s):
    """Build a prediction matrix with given cost and p95 columns."""
    n = len(costs)
    preds = np.ones((n, SPEC.n_outputs)) * 0.01
    preds[:, 0] = costs
    preds[:, 1 + SPEC.percentile_index(95.0)] = p95s
    return preds


class TestSloAwareOptimizer:
    def test_picks_cheapest_feasible(self):
        opt = SloAwareOptimizer(GRID, spec=SPEC)
        n = len(GRID)
        costs = np.linspace(1.0, 2.0, n)
        p95s = np.full(n, 0.05)
        p95s[0] = 0.5  # cheapest config violates
        res = opt.choose(fake_predictions(costs, p95s), slo=0.1)
        assert res.index == 1
        assert res.feasible
        assert res.n_feasible == n - 1

    def test_infeasible_falls_back_to_fastest(self):
        opt = SloAwareOptimizer(GRID, spec=SPEC)
        n = len(GRID)
        p95s = np.linspace(0.3, 0.9, n)
        res = opt.choose(fake_predictions(np.ones(n), p95s), slo=0.1)
        assert not res.feasible
        assert res.index == 0  # lowest latency

    def test_gamma_tightens_constraint(self):
        opt = SloAwareOptimizer(GRID, spec=SPEC, gamma=1.0)  # SLO/2 effective
        n = len(GRID)
        p95s = np.full(n, 0.07)  # feasible vs 0.1 but not vs 0.05
        res = opt.choose(fake_predictions(np.ones(n), p95s), slo=0.1)
        assert not res.feasible
        opt.set_gamma(0.0)
        res2 = opt.choose(fake_predictions(np.ones(n), p95s), slo=0.1)
        assert res2.feasible

    def test_validation(self):
        with pytest.raises(ValueError):
            SloAwareOptimizer([], spec=SPEC)
        with pytest.raises(ValueError):
            SloAwareOptimizer(GRID, spec=SPEC, gamma=-0.1)
        opt = SloAwareOptimizer(GRID, spec=SPEC)
        with pytest.raises(ValueError):
            opt.choose(np.ones((2, 2)), slo=0.1)
        with pytest.raises(ValueError):
            opt.choose(fake_predictions(np.ones(len(GRID)), np.ones(len(GRID))), slo=0.0)

    def test_features_align_with_configs(self):
        opt = SloAwareOptimizer(GRID, spec=SPEC)
        assert opt.features.shape == (len(GRID), 3)
        np.testing.assert_allclose(opt.features[0], GRID[0].as_array())


@pytest.fixture(scope="module")
def trained_tiny():
    hist = np.diff(poisson_map(200.0).sample(duration=60.0, seed=0))
    ds = generate_dataset(hist, n_samples=80, seq_len=16, configs=GRID, seed=0)
    model = DeepBATSurrogate(seq_len=16, d_model=8, num_heads=2, ff_hidden=16,
                             num_layers=1, seed=0)
    return train_surrogate(ds, model=model,
                           config=TrainConfig(epochs=12, patience=None, seed=0))


class TestDeepBATController:
    def test_choose_returns_grid_config(self, trained_tiny):
        ctrl = DeepBATController(trained_tiny, configs=GRID)
        hist = np.diff(poisson_map(200.0).sample(duration=10.0, seed=1))
        decision = ctrl.choose(hist, slo=0.1)
        assert decision.config in GRID
        assert decision.predictions.shape == (len(GRID), SPEC.n_outputs)
        assert decision.decision_time > 0

    def test_short_history_is_padded(self, trained_tiny):
        ctrl = DeepBATController(trained_tiny, configs=GRID)
        decision = ctrl.choose(np.array([0.01, 0.02]), slo=0.1)
        assert decision.config in GRID

    def test_gamma_passthrough(self, trained_tiny):
        ctrl = DeepBATController(trained_tiny, configs=GRID, gamma=0.5)
        assert ctrl.optimizer.gamma == 0.5
        ctrl.set_gamma(0.1)
        assert ctrl.optimizer.gamma == 0.1

    def test_window_length_mismatch_rejected(self, trained_tiny):
        with pytest.raises(ValueError):
            DeepBATController(trained_tiny, configs=GRID, window_length=99)


class TestCachedGridFeatures:
    """The controller precomputes standardized grid features; the
    predict_scaled fast path must not change decisions."""

    def test_predict_scaled_matches_predict(self, trained_tiny):
        window = np.full(16, 0.005)
        feats = np.stack([c.as_array() for c in GRID])
        ref = trained_tiny.predict(window, feats)
        fast = trained_tiny.predict_scaled(window, trained_tiny.scale_features(feats))
        np.testing.assert_array_equal(ref, fast)

    def test_controller_decision_unchanged_by_caching(self, trained_tiny):
        ctrl = DeepBATController(trained_tiny, configs=GRID)
        np.testing.assert_array_equal(
            ctrl._features_scaled,
            trained_tiny.pipeline.config.transform(ctrl.optimizer.features),
        )
        hist = np.diff(poisson_map(150.0).sample(duration=10.0, seed=5))
        decision = ctrl.choose(hist, slo=0.1)
        window = latest_window(hist, ctrl.window_length)
        ref = trained_tiny.predict(window, ctrl.optimizer.features)
        np.testing.assert_array_equal(decision.predictions, ref)
