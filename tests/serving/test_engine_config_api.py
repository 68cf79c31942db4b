"""Grouped-config engine API (PR 6).

Drift and prediction-drift knobs reach ``ServingEngine`` only through
:class:`DriftConfig` / :class:`PredictionDriftConfig`; the checkpoint
fingerprint keeps the key names and values of the older flat spelling so
snapshots written before the regroup still restore.
"""

import warnings

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.drift import WorkloadDriftDetector
from repro.serving import DriftConfig, PredictionDriftConfig, ServingEngine

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)

DRIFT_KEYS = (
    "drift_window", "drift_check_every", "drift_cooldown_s",
    "retrain_delay_s", "prediction_baseline_error", "prediction_tolerance",
    "prediction_min_samples",
)


def poisson(lam, n, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / lam, size=n))


def fitted_detector(lam=50.0, window=32):
    warmup = np.diff(poisson(lam, 3000, seed=10))
    return WorkloadDriftDetector().fit(warmup, window)


class TestGroupedFlatEquivalence:
    def test_grouped_spelling_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ServingEngine(CONFIG, drift=DriftConfig(window=64),
                          prediction=PredictionDriftConfig(baseline_error=0.1))


class TestShimErrors:
    def test_unknown_kwarg_is_type_error(self):
        with pytest.raises(TypeError, match="drift_widnow"):
            ServingEngine(CONFIG, drift_widnow=64)


class TestConfigValidation:
    def test_drift_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="window"):
            DriftConfig(window=0)
        with pytest.raises(ValueError, match="check_every"):
            DriftConfig(check_every=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            DriftConfig(cooldown_s=-1.0)
        with pytest.raises(ValueError, match="retrain_delay_s"):
            DriftConfig(retrain_delay_s=-0.5)

    def test_prediction_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="baseline_error"):
            PredictionDriftConfig(baseline_error=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            PredictionDriftConfig(baseline_error=0.1, tolerance=0.0)
        with pytest.raises(ValueError, match="min_samples"):
            PredictionDriftConfig(baseline_error=0.1, min_samples=0)

    def test_configs_are_frozen(self):
        cfg = DriftConfig(window=64)
        with pytest.raises(AttributeError):
            cfg.window = 32

    def test_fingerprint_keys_and_values_pinned(self):
        # Checkpoints written before the grouped API carry these flat key
        # names; restore compares the dicts key by key.
        engine = ServingEngine(
            CONFIG,
            drift=DriftConfig(detector=fitted_detector(), window=48,
                              check_every=24, cooldown_s=9.0,
                              retrain_delay_s=1.5),
            prediction=PredictionDriftConfig(baseline_error=0.2,
                                             tolerance=4.0, min_samples=16),
        )
        fp = engine._fingerprint()
        assert {k: fp[k] for k in DRIFT_KEYS} == {
            "drift_window": 48, "drift_check_every": 24,
            "drift_cooldown_s": 9.0, "retrain_delay_s": 1.5,
            "prediction_baseline_error": 0.2, "prediction_tolerance": 4.0,
            "prediction_min_samples": 16,
        }
        # A disabled prediction trigger keeps the old defaults.
        fp = ServingEngine(CONFIG)._fingerprint()
        assert {k: fp[k] for k in DRIFT_KEYS} == {
            "drift_window": 64, "drift_check_every": 32,
            "drift_cooldown_s": 30.0, "retrain_delay_s": None,
            "prediction_baseline_error": None, "prediction_tolerance": 2.0,
            "prediction_min_samples": 64,
        }
        assert sorted(fp) == sorted([
            "initial_config", "slo", "pool", "deploy_delay_s",
            "decision_interval_s", "history_tail", "min_history",
            *DRIFT_KEYS, "sequence_length", "guardrail", "prewarm",
            "generation", "outages", "degrade", "platform_seed",
            "platform_faults", "platform_retry", "platform_concurrency",
        ])
