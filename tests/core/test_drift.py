"""Tests for OOD drift detection (the §III-D fine-tuning trigger)."""

import numpy as np
import pytest

from repro.arrival.map_process import poisson_map
from repro.arrival.mmpp import mmpp2_with_burstiness
from repro.arrival.window import latest_window
from repro.core.drift import (
    WorkloadDriftDetector,
    prediction_drift,
    window_statistics,
)

TRAIN = np.diff(poisson_map(150.0).sample(duration=120.0, seed=0))
L = 64


class TestWindowStatistics:
    def test_shape(self):
        stats = window_statistics(np.random.default_rng(0).exponential(size=(5, 32)))
        assert stats.shape == (5, 4)

    def test_poisson_window_features(self):
        rng = np.random.default_rng(1)
        stats = window_statistics(rng.exponential(0.01, size=(1, 5000)))[0]
        assert stats[0] == pytest.approx(np.log(0.01), abs=0.1)  # log mean
        assert stats[1] == pytest.approx(1.0, abs=0.15)  # CV^2
        assert abs(stats[2]) < 0.1  # no autocorrelation

    def test_1d_input(self):
        assert window_statistics(np.ones(16)).shape == (1, 4)


class TestWorkloadDriftDetector:
    @pytest.fixture()
    def detector(self):
        return WorkloadDriftDetector().fit(TRAIN, window_length=L)

    def test_in_distribution_not_flagged(self, detector):
        fresh = np.diff(poisson_map(150.0).sample(duration=20.0, seed=9))
        window = latest_window(fresh, L)
        assert not detector.is_drifted(window)
        assert detector.score(window) == 0.0

    def test_rate_shift_flagged(self, detector):
        slow = np.diff(poisson_map(3.0).sample(n_arrivals=L + 1, seed=2))
        assert detector.is_drifted(latest_window(slow, L))

    def test_burstiness_shift_flagged(self, detector):
        bursty = np.diff(
            mmpp2_with_burstiness(150.0, 4.0, 5.0, 0.1).sample(duration=30.0, seed=3)
        )
        window = latest_window(bursty, L)
        assert detector.score(window) > 0.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            WorkloadDriftDetector().score(np.ones(L))

    def test_too_little_training_data(self):
        with pytest.raises(ValueError):
            WorkloadDriftDetector().fit(TRAIN[: L + 5], window_length=L)

    def test_score_bounded(self, detector):
        rng = np.random.default_rng(4)
        for _ in range(5):
            s = detector.score(rng.exponential(0.01, size=L))
            assert 0.0 <= s <= 1.0


class TestWindowLengthValidation:
    """Regression: ``fit`` must record the window length it calibrated on,
    and ``score`` must reject windows of any other length — the envelope's
    per-feature quantiles are statistics *of that length* (a 32-sample CV²
    and a 256-sample CV² are differently distributed), so scoring a
    mismatched window silently miscalibrates the drift threshold."""

    def test_fit_records_window_length(self):
        detector = WorkloadDriftDetector().fit(TRAIN, window_length=L)
        assert detector.window_length_ == L

    def test_score_rejects_mismatched_window(self):
        detector = WorkloadDriftDetector().fit(TRAIN, window_length=L)
        with pytest.raises(ValueError, match="does not match"):
            detector.score(np.ones(L // 2))
        with pytest.raises(ValueError, match="does not match"):
            detector.is_drifted(np.ones(2 * L))
        # The fitted length still scores.
        assert 0.0 <= detector.score(np.ones(L)) <= 1.0

    def test_state_round_trips_window_length(self):
        fitted = WorkloadDriftDetector().fit(TRAIN, window_length=L)
        restored = WorkloadDriftDetector()
        restored.set_state(fitted.get_state())
        assert restored.window_length_ == L
        with pytest.raises(ValueError, match="does not match"):
            restored.score(np.ones(L // 2))

    def test_state_without_window_length_is_rejected(self):
        # The window length is required like the envelope's other keys:
        # a state without it cannot validate window lengths, so it does
        # not restore, and the detector is left untouched.
        fitted = WorkloadDriftDetector().fit(TRAIN, window_length=L)
        state = fitted.get_state()
        del state["window_length"]
        restored = WorkloadDriftDetector(margin=0.5)
        with pytest.raises(ValueError, match="window_length"):
            restored.set_state(state)
        assert restored.margin == 0.5 and restored.lo_ is None


class TestPredictionDrift:
    def test_triggers_on_large_error(self):
        assert prediction_drift(recent_error=0.3, baseline_error=0.05)

    def test_quiet_when_error_stable(self):
        assert not prediction_drift(recent_error=0.06, baseline_error=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            prediction_drift(-1.0, 0.1)
        with pytest.raises(ValueError):
            prediction_drift(0.1, 0.1, tolerance=1.0)
