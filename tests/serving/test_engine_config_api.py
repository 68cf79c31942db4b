"""Grouped-config engine API (PR 6).

Drift and prediction-drift knobs reach ``ServingEngine`` only through
:class:`DriftConfig` / :class:`PredictionDriftConfig`, and the checkpoint
fingerprint holds them as configs: the prediction config by value, the
drift config by its policy scalars (the fitted detector travels in the
snapshot, and the retrain hook is code).
"""

import warnings

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.drift import WorkloadDriftDetector
from repro.serving import DriftConfig, PredictionDriftConfig, ServingEngine

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)


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

    def test_fingerprint_holds_the_grouped_configs(self):
        prediction = PredictionDriftConfig(baseline_error=0.2, tolerance=4.0,
                                           min_samples=16)

        def fingerprint(detector, on_retrain=None):
            return ServingEngine(
                CONFIG,
                drift=DriftConfig(detector=detector, window=48,
                                  check_every=24, cooldown_s=9.0,
                                  retrain_delay_s=1.5, on_retrain=on_retrain),
                prediction=prediction,
            )._fingerprint()

        fp = fingerprint(fitted_detector())
        assert fp["drift"] == DriftConfig(window=48, check_every=24,
                                          cooldown_s=9.0, retrain_delay_s=1.5)
        assert fp["prediction"] == prediction
        # Neither the detector object nor the hook is part of the identity.
        assert fingerprint(None, on_retrain=print) == fp
        assert ServingEngine(CONFIG)._fingerprint()["prediction"] is None
